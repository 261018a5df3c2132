#include "novoht/commit_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/crc32.h"
#include "serialize/wire.h"

namespace zht {
namespace logrec {
namespace {

std::size_t VarintLen(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

std::uint32_t LoadCrc(const char* p) {
  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) {
    crc |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[i]))
           << (8 * i);
  }
  return crc;
}

// Parses the header fields after the crc of the record starting at `p`
// (`avail` bytes readable). Returns the whole record's length, or 0 when
// the header does not parse. Fills `out` (offsets relative to `p`, views
// unset) when given.
std::uint64_t RecordLength(const char* p, std::size_t avail, Record* out,
                           std::uint64_t* key_at = nullptr,
                           std::uint64_t* key_len = nullptr) {
  if (avail < 5) return 0;
  const auto type_byte = static_cast<std::uint8_t>(p[4]);
  wire::Reader fields(std::string_view(p + 5, avail - 5));
  std::uint64_t partition = 0, klen = 0, vlen = 0;
  const bool partitioned = (type_byte & kPartitioned) != 0;
  if (partitioned && !fields.GetVarint(&partition)) return 0;
  if (!fields.GetVarint(&klen) || !fields.GetVarint(&vlen)) return 0;
  // Lengths come from disk: refuse anything no file could hold before
  // adding them up.
  constexpr std::uint64_t kMaxField = std::uint64_t{1} << 40;
  if (klen > kMaxField || vlen > kMaxField) return 0;
  const std::uint64_t header =
      1 + (partitioned ? VarintLen(partition) : 0) + VarintLen(klen) +
      VarintLen(vlen);
  if (out) {
    out->type = type_byte & static_cast<std::uint8_t>(~kPartitioned);
    out->partitioned = partitioned;
    out->partition = partition;
    out->value_offset = 4 + header + klen;
  }
  if (key_at) *key_at = 4 + header;
  if (key_len) *key_len = klen;
  return 4 + header + klen + vlen;
}

bool PreadExact(int fd, std::uint64_t offset, char* out, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    ssize_t r = ::pread(fd, out + done, n - done,
                        static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;
    done += static_cast<std::size_t>(r);
  }
  return true;
}

// The end of the file's data: `file_size` less the run of zero bytes it
// ends with. A syncing log preallocates zeros past its last record
// (CommitLog), so a crash leaves them behind the records it wrote.
bool DataEnd(int fd, std::uint64_t file_size, std::uint64_t* data_end) {
  char buf[1 << 16];
  std::uint64_t end = file_size;
  while (end > 0) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(sizeof(buf), end));
    if (!PreadExact(fd, end - n, buf, n)) return false;
    for (std::size_t i = n; i > 0; --i) {
      if (buf[i - 1] != 0) {
        *data_end = end - n + i;
        return true;
      }
    }
    end -= n;
  }
  *data_end = 0;
  return true;
}

// Scans [from, data_end) for any offset starting a complete CRC-valid
// record (which may run on into the zeros up to file_size) — tells a torn
// tail (nothing valid follows) from mid-log corruption (later records would
// be silently dropped). A record holds a nonzero type byte, so none starts
// inside the zero tail, and the probe never walks it. Only runs when
// recovery meets a bad record, so quadratic cost is fine; a false positive
// needs a 1-in-2^32 CRC collision per candidate.
bool ValidRecordFollows(int fd, std::uint64_t from, std::uint64_t data_end,
                        std::uint64_t file_size) {
  std::string buf;
  for (std::uint64_t q = from; q < data_end && q + 5 <= file_size; ++q) {
    // Header-worth of bytes: crc + type + three max-length varints.
    buf.resize(static_cast<std::size_t>(
        std::min<std::uint64_t>(file_size - q, 4 + 1 + 30)));
    if (!PreadExact(fd, q, buf.data(), buf.size())) return false;
    const std::uint64_t len = RecordLength(buf.data(), buf.size(), nullptr);
    if (len == 0 || q + len > file_size) continue;
    const std::uint32_t stored_crc = LoadCrc(buf.data());
    buf.resize(static_cast<std::size_t>(len - 4));
    if (!PreadExact(fd, q + 4, buf.data(), buf.size())) return false;
    if (Crc32c(buf) == stored_crc) return true;
  }
  return false;
}

}  // namespace

std::string Encode(std::uint8_t type, std::uint64_t partition,
                   std::string_view key, std::string_view value,
                   std::size_t* value_offset_in_record) {
  std::string out(4, '\0');
  out.reserve(4 + 1 + 30 + key.size() + value.size());
  wire::Writer w(&out);
  out.push_back(static_cast<char>(type));
  if (type & kPartitioned) w.PutVarint(partition);
  w.PutVarint(key.size());
  w.PutVarint(value.size());
  w.PutBytes(key);
  if (value_offset_in_record) *value_offset_in_record = out.size();
  w.PutBytes(value);
  const std::uint32_t crc = Crc32c(std::string_view(out).substr(4));
  for (int i = 0; i < 4; ++i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xff);
  }
  return out;
}

std::string EncodeU64(std::uint64_t v) {
  std::string out(8, '\0');
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(i)] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  return out;
}

std::uint64_t DecodeU64(std::string_view bytes) {
  if (bytes.size() != 8) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes[i]))
         << (8 * i);
  }
  return v;
}

Status Scan(const std::string& path, std::uint64_t buffer_bytes,
            const std::function<Status(const Record&)>& visit,
            std::uint64_t* valid_end) {
  *valid_end = 0;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::Ok();
    return Status(StatusCode::kInternal, "cannot read log: " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status(StatusCode::kInternal, "cannot stat log: " + path);
  }
  const std::uint64_t file_size = static_cast<std::uint64_t>(st.st_size);

  // Replay through a bounded sliding window covering bytes
  // [window_start, window_start + window.size()) of the file, so memory
  // stays O(buffer_bytes) regardless of log size. The window grows past
  // the cap only for a single over-sized record.
  const std::uint64_t window_cap = std::max<std::uint64_t>(buffer_bytes, 4096);
  std::string window;
  std::uint64_t window_start = 0;
  auto ensure = [&](std::uint64_t pos, std::uint64_t end) -> bool {
    if (pos > window_start) {
      window.erase(0, static_cast<std::size_t>(pos - window_start));
      window_start = pos;
    }
    end = std::min(std::max(end, pos + window_cap), file_size);
    while (window_start + window.size() < end) {
      char buf[1 << 16];
      const std::uint64_t at = window_start + window.size();
      const std::size_t want = static_cast<std::size_t>(
          std::min<std::uint64_t>(sizeof(buf), end - at));
      const ssize_t n = ::pread(fd, buf, want, static_cast<off_t>(at));
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (n == 0) return false;  // file shrank under us
      window.append(buf, static_cast<std::size_t>(n));
    }
    return true;
  };

  std::uint64_t pos = 0;
  Status failure;
  while (pos + 5 <= file_size) {
    if (!ensure(pos, pos + 4 + 1 + 30)) {
      failure = Status(StatusCode::kInternal, "log read failed in recovery");
      break;
    }
    Record record;
    std::uint64_t key_at = 0, key_len = 0;
    const std::uint64_t len = RecordLength(
        window.data() + (pos - window_start),
        static_cast<std::size_t>(window.size() - (pos - window_start)),
        &record, &key_at, &key_len);
    const bool whole = len != 0 && pos + len <= file_size;
    if (whole && !ensure(pos, pos + len)) {
      failure = Status(StatusCode::kInternal, "log read failed in recovery");
      break;
    }
    const char* base = window.data() + (pos - window_start);
    const bool valid =
        whole && Crc32c(std::string_view(
                     base + 4, static_cast<std::size_t>(len - 4))) ==
                     LoadCrc(base);
    if (!valid) {
      // The log does not go on with one whole valid record. A crash mid-
      // append looks exactly like this (a torn tail, possibly followed by
      // the zeros a syncing log preallocates) — but so does damage mid-log,
      // to a length field or a payload. It is corruption if bytes other
      // than zeros follow the record, or if any complete CRC-valid record
      // starts after its first byte.
      std::uint64_t data_end = 0;
      if (!DataEnd(fd, file_size, &data_end)) {
        failure = Status(StatusCode::kInternal, "log read failed in recovery");
        break;
      }
      if ((whole && pos + len < data_end) ||
          ValidRecordFollows(fd, pos + 1, data_end, file_size)) {
        failure = Status(StatusCode::kCorruption,
                         "log corrupt at offset " + std::to_string(pos));
      }
      break;
    }
    const std::uint64_t value_at = record.value_offset;
    record.key = std::string_view(base + key_at,
                                  static_cast<std::size_t>(key_len));
    record.value = std::string_view(base + value_at,
                                    static_cast<std::size_t>(len - value_at));
    record.offset = pos;
    record.size = len;
    record.value_offset = pos + value_at;
    failure = visit(record);
    if (!failure.ok()) break;
    pos += len;
    *valid_end = pos;
  }
  ::close(fd);
  return failure;
}

std::uint64_t LeadingHorizon(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return 0;
  // A whole horizon record: crc, type, two one-byte varints, 8 bytes.
  char buf[4 + 1 + 1 + 1 + 8];
  const bool read = PreadExact(fd, 0, buf, sizeof(buf));
  ::close(fd);
  if (!read) return 0;
  Record record;
  std::uint64_t key_len = 0;
  if (RecordLength(buf, sizeof(buf), &record, nullptr, &key_len) !=
          sizeof(buf) ||
      record.partitioned || record.type != kHorizon || key_len != 0 ||
      Crc32c(std::string_view(buf + 4, sizeof(buf) - 4)) != LoadCrc(buf)) {
    return 0;
  }
  return DecodeU64(std::string_view(buf + record.value_offset, 8));
}

}  // namespace logrec

namespace {

Status WriteAll(int fd, std::string_view data) {
  std::size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status(StatusCode::kInternal,
                    std::string("log write failed: ") + std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

// Writes `data` at `offset`, not at the file's end: a syncing log's file
// runs past its last record into preallocated space.
Status PwriteAll(int fd, std::string_view data, std::uint64_t offset) {
  std::size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::pwrite(fd, data.data() + written, data.size() - written,
                         static_cast<off_t>(offset + written));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status(StatusCode::kInternal,
                    std::string("log write failed: ") + std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

std::string DirectoryOf(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

// How far ahead of its last record a syncing log allocates its file.
constexpr std::uint64_t kPreallocStep = std::uint64_t{1} << 20;

std::atomic<std::uint64_t> next_log_id{1};

int SyncFd(const FsyncHook& hook, int fd) {
  if (hook) return hook(fd);
  return ::fdatasync(fd);
}

const Status& SyncFailed() {
  static const Status failed(StatusCode::kInternal,
                             "log fsync failed; store is read-only");
  return failed;
}

}  // namespace

Status CreatePendingFile(const std::string& path, PendingFile* out) {
  out->path = path;
  out->fd = ::open((path + ".tmp").c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                   0644);
  if (out->fd < 0) {
    return Status(StatusCode::kInternal, "cannot create " + path + ".tmp");
  }
  return Status::Ok();
}

Status WritePendingFile(const PendingFile& file, std::string_view data) {
  return WriteAll(file.fd, data);
}

void DropPendingFile(PendingFile* file) {
  if (file->fd >= 0) ::close(file->fd);
  file->fd = -1;
  ::unlink((file->path + ".tmp").c_str());
}

Status InstallFiles(std::vector<PendingFile>* files, const FsyncHook& hook) {
  for (const PendingFile& file : *files) {
    if (SyncFd(hook, file.fd) != 0) {
      for (PendingFile& dropped : *files) DropPendingFile(&dropped);
      return Status(StatusCode::kInternal, "checkpoint fsync failed");
    }
  }
  for (PendingFile& file : *files) {
    ::close(file.fd);
    file.fd = -1;
  }
  std::vector<std::string> dirs;
  for (const PendingFile& file : *files) {
    if (::rename((file.path + ".tmp").c_str(), file.path.c_str()) != 0) {
      return Status(StatusCode::kInternal,
                    "checkpoint rename failed: " + file.path);
    }
    std::string dir = DirectoryOf(file.path);
    if (std::find(dirs.begin(), dirs.end(), dir) == dirs.end()) {
      dirs.push_back(std::move(dir));
    }
  }
  // A rename is durable only once its directory is synced.
  for (const std::string& dir : dirs) {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) {
      return Status(StatusCode::kInternal, "cannot open directory " + dir);
    }
    const int rc = SyncFd(hook, fd);
    ::close(fd);
    if (rc != 0) {
      return Status(StatusCode::kInternal, "directory fsync failed: " + dir);
    }
  }
  return Status::Ok();
}

CommitLog::CommitLog(std::string path, CommitLogOptions options,
                     std::function<void()> maintenance)
    : path_(std::move(path)),
      options_(std::move(options)),
      maintenance_(std::move(maintenance)),
      id_(next_log_id.fetch_add(1, std::memory_order_relaxed)) {}

Result<std::unique_ptr<CommitLog>> CommitLog::Open(
    std::string path, CommitLogOptions options,
    std::function<void()> maintenance) {
  std::unique_ptr<CommitLog> log(
      new CommitLog(std::move(path), std::move(options),
                    std::move(maintenance)));
  Status opened = log->Reopen();
  if (!opened.ok()) return opened;
  if (log->options_.durability == DurabilityMode::kGroupCommit ||
      log->maintenance_) {
    log->flusher_ = std::thread([raw = log.get()] { raw->FlusherLoop(); });
  }
  return log;
}

CommitLog::~CommitLog() {
  StopFlusher();
  // The flusher synced outstanding commits before exiting, so any waiter
  // still parked resolves against the final state.
  std::vector<DurableWaiter> leftovers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftovers.swap(durable_waiters_);
  }
  Resolve(&leftovers, !failed());
  if (fd_ >= 0) {
    // A clean close gives back the preallocated space past the last record.
    if (!failed() && allocated_ > size()) {
      [[maybe_unused]] int rc =
          ::ftruncate(fd_, static_cast<off_t>(size()));
    }
    ::close(fd_);
  }
}

void CommitLog::StopFlusher() {
  if (!flusher_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_flusher_ = true;
  }
  flusher_cv_.notify_all();
  flusher_.join();
}

Status CommitLog::Reopen() {
  std::unique_lock<std::mutex> lock(mu_);
  // An fsync in flight must not land on a closed (or reused) descriptor.
  idle_cv_.wait(lock, [&] { return syncing_ == 0; });
  if (fd_ >= 0) ::close(fd_);
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT, 0644);
  struct stat st;
  if (fd_ < 0 || ::fstat(fd_, &st) != 0) {
    failed_.store(true, std::memory_order_relaxed);
    return Status(StatusCode::kInternal, "cannot open log: " + path_);
  }
  size_.store(static_cast<std::uint64_t>(st.st_size),
              std::memory_order_relaxed);
  allocated_ = static_cast<std::uint64_t>(st.st_size);
  preallocate_ = options_.durability != DurabilityMode::kNone;
  return Status::Ok();
}

void CommitLog::PreallocateLocked(std::uint64_t end) {
  const std::uint64_t target = (end / kPreallocStep + 1) * kPreallocStep;
  int rc = 0;
  do {
    rc = ::fallocate(fd_, 0, static_cast<off_t>(allocated_),
                     static_cast<off_t>(target - allocated_));
  } while (rc != 0 && errno == EINTR);
  if (rc == 0) {
    allocated_ = target;
  } else {
    // Not supported by this file system (or out of space): grow the file
    // one append at a time, committing its size with every sync.
    preallocate_ = false;
  }
}

Status CommitLog::Append(std::string_view record, std::uint64_t* offset,
                         std::uint64_t* token) {
  *token = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (failed()) return SyncFailed();
    const std::uint64_t end = size_.load(std::memory_order_relaxed);
    if (preallocate_ && end + record.size() > allocated_) {
      PreallocateLocked(end + record.size());
    }
    Status status = PwriteAll(fd_, record, end);
    if (!status.ok()) {
      // A short write can leave a partial record in the page cache; every
      // later append would then land after garbage.
      failed_.store(true, std::memory_order_relaxed);
      return status;
    }
    *offset = end;
    size_.store(end + record.size(), std::memory_order_relaxed);
    if (options_.durability == DurabilityMode::kGroupCommit) {
      ++pending_ops_;
      *token = ++appended_seq_;
    }
  }
  switch (options_.durability) {
    case DurabilityMode::kNone:
      break;
    case DurabilityMode::kEveryOp:
      return Sync();
    case DurabilityMode::kGroupCommit:
      // Notify outside the lock: a sleeping flusher wakes straight into an
      // uncontended mutex.
      flusher_cv_.notify_one();
      break;
  }
  return Status::Ok();
}

Status CommitLog::Fail(const char* what) {
  fsync_errors_.fetch_add(1, std::memory_order_relaxed);
  failed_.store(true, std::memory_order_relaxed);
  return Status(StatusCode::kInternal,
                std::string(what) +
                    " failed; page-cache state is unknowable, store is now "
                    "read-only");
}

std::vector<CommitLog::DurableWaiter> CommitLog::FinishSyncLocked(
    int rc, std::uint64_t target, std::uint64_t batch, Nanos elapsed,
    bool grouped) {
  fsync_micros_.Record(elapsed / kNanosPerMicro);
  if (rc != 0) {
    fsync_errors_.fetch_add(1, std::memory_order_relaxed);
    failed_.store(true, std::memory_order_relaxed);
  } else {
    durable_seq_ = std::max(durable_seq_, target);
    if (grouped) {
      group_commit_batch_.Record(static_cast<std::int64_t>(batch));
      ++group_commits_;
    }
  }
  std::vector<DurableWaiter> ready;
  if (durable_waiters_.empty()) return ready;
  if (failed()) {
    ready.swap(durable_waiters_);
    return ready;
  }
  auto split = std::partition(
      durable_waiters_.begin(), durable_waiters_.end(),
      [this](const DurableWaiter& w) { return w.token > durable_seq_; });
  ready.assign(std::make_move_iterator(split),
               std::make_move_iterator(durable_waiters_.end()));
  durable_waiters_.erase(split, durable_waiters_.end());
  return ready;
}

void CommitLog::Resolve(std::vector<DurableWaiter>* ready, bool ok) {
  for (DurableWaiter& waiter : *ready) {
    waiter.done(ok ? Status::Ok() : SyncFailed());
  }
}

Status CommitLog::Sync(std::uint64_t* covered) {
  std::unique_lock<std::mutex> lock(mu_);
  if (failed()) return SyncFailed();
  const std::uint64_t target = appended_seq_;
  if (covered) *covered = size_.load(std::memory_order_relaxed);
  const int fd = fd_;
  ++syncing_;
  lock.unlock();
  const Stopwatch watch(SystemClock::Instance());
  const int rc = SyncFd(options_.fsync_hook, fd);
  const Nanos elapsed = watch.Elapsed();
  lock.lock();
  if (--syncing_ == 0) idle_cv_.notify_all();
  std::vector<DurableWaiter> ready =
      FinishSyncLocked(rc, target, 0, elapsed, /*grouped=*/false);
  lock.unlock();
  commit_cv_.notify_all();
  Resolve(&ready, rc == 0);
  if (rc != 0) return SyncFailed();
  return Status::Ok();
}

void CommitLog::FlusherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    flusher_cv_.wait(lock, [&] {
      return stop_flusher_ || maintenance_due_ ||
             (!failed() && appended_seq_ > durable_seq_);
    });
    if (maintenance_due_ && !stop_flusher_) {
      maintenance_due_ = false;
      lock.unlock();
      maintenance_();
      lock.lock();
      continue;
    }
    if (failed() || appended_seq_ <= durable_seq_) {
      if (stop_flusher_) return;
      continue;
    }
    // Commit window: give concurrent writers a chance to join this fsync.
    if (options_.max_commit_latency > 0 && !stop_flusher_) {
      flusher_cv_.wait_for(
          lock, std::chrono::nanoseconds(options_.max_commit_latency),
          [&] { return stop_flusher_; });
    }
    const std::uint64_t target = appended_seq_;
    const std::uint64_t batch = pending_ops_;
    pending_ops_ = 0;
    const int fd = fd_;
    ++syncing_;
    lock.unlock();
    const Stopwatch watch(SystemClock::Instance());
    const int rc = SyncFd(options_.fsync_hook, fd);
    const Nanos elapsed = watch.Elapsed();
    lock.lock();
    if (--syncing_ == 0) idle_cv_.notify_all();
    std::vector<DurableWaiter> ready =
        FinishSyncLocked(rc, target, batch, elapsed, /*grouped=*/true);
    const bool stopping = stop_flusher_;
    // Notify with the lock released so the (up to batch-many) woken
    // writers reacquire mu_ without contending with this thread.
    lock.unlock();
    commit_cv_.notify_all();
    // Parked asynchronous acks fire here, on the flusher thread, covering
    // everything this fsync made durable (or everything, on failure).
    Resolve(&ready, rc == 0);
    if (stopping) return;
    lock.lock();
  }
}

void CommitLog::RequestMaintenance() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (maintenance_due_) return;
    maintenance_due_ = true;
  }
  flusher_cv_.notify_one();
}

std::uint64_t CommitLog::last_token() const {
  if (options_.durability != DurabilityMode::kGroupCommit) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return appended_seq_;
}

Status CommitLog::WaitDurable(std::uint64_t token) {
  if (token == 0 || options_.durability != DurabilityMode::kGroupCommit) {
    return Status::Ok();
  }
  std::unique_lock<std::mutex> lock(mu_);
  commit_cv_.wait(lock, [&] { return durable_seq_ >= token || failed(); });
  if (durable_seq_ >= token) return Status::Ok();
  return SyncFailed();
}

void CommitLog::NotifyDurable(std::uint64_t token,
                              std::function<void(Status)> done) {
  if (token == 0 || options_.durability != DurabilityMode::kGroupCommit) {
    done(Status::Ok());
    return;
  }
  bool durable = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    durable = durable_seq_ >= token;
    if (!durable && !failed()) {
      durable_waiters_.push_back({token, std::move(done)});
      return;
    }
  }
  done(durable ? Status::Ok() : SyncFailed());
}

std::uint64_t CommitLog::group_commits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return group_commits_;
}

void CommitLog::Metrics(StoreDurabilityMetrics* out) const {
  out->log_id = id_;
  out->group_commit_batch = group_commit_batch_.Snapshot();
  out->fsync_micros = fsync_micros_.Snapshot();
  out->fsync_errors = fsync_errors_.load(std::memory_order_relaxed);
  out->group_commits = group_commits();
}

}  // namespace zht
