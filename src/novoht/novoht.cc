#include "novoht/novoht.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "common/clock.h"
#include "common/log.h"
#include "hashing/hash_functions.h"

namespace zht {
namespace {

// Checkpoints are written and installed this many files at a time, so a
// close of thousands of partitions keeps a bounded number of fds open.
constexpr std::size_t kCheckpointBatch = 256;

}  // namespace

NoVoHT::NoVoHT(NoVoHTOptions options) : options_(std::move(options)) {
  std::uint64_t buckets =
      options_.initial_buckets ? options_.initial_buckets : 1;
  buckets_.assign(buckets, nullptr);
}

Result<std::unique_ptr<NoVoHT>> NoVoHT::Open(const NoVoHTOptions& options) {
  if (options.max_resident_values != 0 && options.path.empty()) {
    return Status(StatusCode::kInvalidArgument,
                  "max_resident_values needs a persistence log");
  }
  std::unique_ptr<NoVoHT> store(new NoVoHT(options));
  if (!options.path.empty()) {
    Status status = store->Replay(options.path, /*trim=*/true, nullptr);
    if (!status.ok()) return status;
    auto log = CommitLog::Open(
        options.path, CommitLogOptions{options.durability,
                                       options.max_commit_latency,
                                       options.fsync_hook});
    if (!log.ok()) return log.status();
    store->own_log_ = std::move(*log);
    store->log_ = store->own_log_.get();
    store->read_fd_ = ::open(options.path.c_str(), O_RDONLY);
    if (store->read_fd_ < 0) {
      return Status(StatusCode::kInternal,
                    "cannot open log for reads: " + options.path);
    }
    store->EnforceResidencyCap();
  }
  return store;
}

NoVoHT::~NoVoHT() {
  if (shared_) shared_->Detach(this);
  // Joins the flusher, which syncs outstanding commits and resolves every
  // parked callback, before the table goes.
  own_log_.reset();
  if (read_fd_ >= 0) ::close(read_fd_);
  for (Node* head : buckets_) {
    while (head) {
      Node* next = head->next;
      delete head;
      head = next;
    }
  }
}

std::uint64_t NoVoHT::RecordBytes(std::string_view key,
                                  std::string_view value) {
  // Close enough for GC accounting: header ~8 bytes + payload.
  return 8 + key.size() + value.size();
}

std::uint64_t NoVoHT::BucketIndex(std::string_view key) const {
  return Fnv1a64(key) % buckets_.size();
}

NoVoHT::Node* NoVoHT::FindNode(std::string_view key) const {
  for (Node* node = buckets_[BucketIndex(key)]; node; node = node->next) {
    if (node->key == key) return node;
  }
  return nullptr;
}

std::uint64_t NoVoHT::ApplyPut(std::string_view key, std::string_view value) {
  Node* node = FindNode(key);
  if (node) {
    std::uint64_t dead =
        RecordBytes(node->key, node->resident
                                   ? std::string_view(node->value)
                                   : std::string_view());
    if (!node->resident) {
      node->resident = true;
      ++resident_values_;
    }
    node->value.assign(value);
    node->value_len = static_cast<std::uint32_t>(value.size());
    return dead;
  }
  auto* fresh = new Node{std::string(key), std::string(value), nullptr,
                         0, static_cast<std::uint32_t>(value.size()),
                         /*resident=*/true, /*offset_valid=*/false};
  std::uint64_t index = BucketIndex(key);
  fresh->next = buckets_[index];
  buckets_[index] = fresh;
  ++entries_;
  ++resident_values_;
  ResizeIfNeeded();
  return 0;
}

std::uint64_t NoVoHT::ApplyRemove(std::string_view key, bool* found) {
  std::uint64_t index = BucketIndex(key);
  Node** link = &buckets_[index];
  while (*link) {
    Node* node = *link;
    if (node->key == key) {
      std::uint64_t dead = RecordBytes(node->key, node->value) +
                           RecordBytes(key, "");  // the remove record itself
      if (node->resident) --resident_values_;
      *link = node->next;
      delete node;
      --entries_;
      *found = true;
      return dead;
    }
    link = &node->next;
  }
  *found = false;
  return 0;
}

void NoVoHT::ApplyAppend(std::string_view key, std::string_view value) {
  Node* node = FindNode(key);
  if (node) {
    node->value.append(value);
    node->value_len = static_cast<std::uint32_t>(node->value.size());
    node->offset_valid = false;  // the full value is no longer contiguous
    return;
  }
  ApplyPut(key, value);
  if (Node* fresh = FindNode(key)) fresh->offset_valid = false;
}

void NoVoHT::ResizeIfNeeded() {
  double load = static_cast<double>(entries_) /
                static_cast<double>(buckets_.size());
  if (load <= options_.max_load_factor) return;
  std::uint64_t next = static_cast<std::uint64_t>(
      static_cast<double>(buckets_.size()) * options_.resize_multiplier);
  if (next <= buckets_.size()) next = buckets_.size() + 1;
  if (options_.max_buckets && next > options_.max_buckets) {
    next = options_.max_buckets;
    if (next <= buckets_.size()) return;  // at the cap; chains grow instead
  }
  RehashInto(next);
  ++resizes_;
}

void NoVoHT::RehashInto(std::uint64_t new_bucket_count) {
  std::vector<Node*> old = std::move(buckets_);
  buckets_.assign(new_bucket_count, nullptr);
  for (Node* head : old) {
    while (head) {
      Node* next = head->next;
      std::uint64_t index = BucketIndex(head->key);
      head->next = buckets_[index];
      buckets_[index] = head;
      head = next;
    }
  }
}

Status NoVoHT::Replay(const std::string& path, bool trim,
                      std::uint64_t* horizon) {
  if (horizon) *horizon = 0;
  std::uint64_t valid_end = 0;
  Status status = logrec::Scan(
      path, options_.recover_buffer_bytes,
      [&](const logrec::Record& record) -> Status {
        if (record.partitioned) {
          return Status(StatusCode::kCorruption,
                        "instance-log record in a store log");
        }
        if (record.type == logrec::kHorizon) {
          if (horizon) *horizon = logrec::DecodeU64(record.value);
          return Status::Ok();
        }
        Status applied = ApplyRecord(record);
        if (!applied.ok()) return applied;
        ++recovered_records_;
        log_bytes_ += record.size;
        return Status::Ok();
      },
      &valid_end);
  if (!status.ok()) return status;
  struct stat st;
  if (trim && ::stat(path.c_str(), &st) == 0 &&
      valid_end < static_cast<std::uint64_t>(st.st_size)) {
    // Trim the torn tail so future appends start at a clean boundary.
    if (::truncate(path.c_str(), static_cast<off_t>(valid_end)) != 0) {
      return Status(StatusCode::kInternal, "cannot truncate torn log tail");
    }
    ZHT_WARN << "NoVoHT: trimmed torn log tail at byte " << valid_end;
  }
  return Status::Ok();
}

Status NoVoHT::ApplyRecord(const logrec::Record& record) {
  switch (record.type) {
    case logrec::kPut: {
      AddDead(ApplyPut(record.key, record.value));
      if (Node* node = FindNode(record.key)) {
        node->log_offset = record.value_offset;
        node->offset_valid = true;
      }
      return Status::Ok();
    }
    case logrec::kRemove: {
      bool found = false;
      AddDead(ApplyRemove(record.key, &found));
      return Status::Ok();
    }
    case logrec::kAppend:
      ApplyAppend(record.key, record.value);
      return Status::Ok();
    default:
      return Status(StatusCode::kCorruption,
                    "unknown log record type " + std::to_string(record.type));
  }
}

Status NoVoHT::AppendLogRecord(std::uint8_t type, std::string_view key,
                               std::string_view value,
                               std::uint64_t* value_offset,
                               std::uint64_t* commit_token) {
  if (commit_token) *commit_token = 0;
  if (!log_) {
    if (value_offset) *value_offset = 0;
    return Status::Ok();
  }
  if (shared_) type |= logrec::kPartitioned;
  std::size_t offset_in_record = 0;
  const std::string record =
      logrec::Encode(type, partition_, key, value, &offset_in_record);
  std::uint64_t start = 0;
  std::uint64_t token = 0;
  Status status = log_->Append(record, &start, &token);
  if (commit_token) *commit_token = token;
  if (!status.ok()) return status;
  if (value_offset) *value_offset = start + offset_in_record;
  log_bytes_ += record.size();
  dirty_ = true;
  return Status::Ok();
}

void NoVoHT::AddDead(std::uint64_t bytes) {
  dead_bytes_ += bytes;
  if (shared_ && bytes != 0) {
    shared_->garbage_.fetch_add(bytes, std::memory_order_relaxed);
  }
}

void NoVoHT::NotifyDurable(std::uint64_t token,
                           std::function<void(Status)> done) {
  if (!log_) {
    done(Status::Ok());
    return;
  }
  log_->NotifyDurable(token, std::move(done));
}

std::uint64_t NoVoHT::last_commit_token() const {
  return log_ ? log_->last_token() : 0;
}

Status NoVoHT::WaitDurable(std::uint64_t token) {
  return log_ ? log_->WaitDurable(token) : Status::Ok();
}

Status NoVoHT::MaybeWaitDurable(std::uint64_t token) {
  if (token == 0 || !options_.wait_for_durable) return Status::Ok();
  return WaitDurable(token);
}

bool NoVoHT::durability_metrics(StoreDurabilityMetrics* out) const {
  if (!log_) return false;
  log_->Metrics(out);
  return true;
}

Result<std::string> NoVoHT::LoadValue(const Node& node) const {
  if (node.value_len == 0) return std::string();
  if (read_fd_ < 0) {
    return Status(StatusCode::kInternal, "no log to load evicted value");
  }
  std::string out(node.value_len, '\0');
  std::size_t done = 0;
  while (done < out.size()) {
    ssize_t r = ::pread(read_fd_, out.data() + done, out.size() - done,
                        static_cast<off_t>(node.log_offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status(StatusCode::kInternal, "pread of evicted value failed");
    }
    if (r == 0) {
      return Status(StatusCode::kCorruption, "evicted value truncated");
    }
    done += static_cast<std::size_t>(r);
  }
  ++disk_reads_;
  return out;
}

Status NoVoHT::EnsureResident(Node* node) {
  if (node->resident) return Status::Ok();
  auto value = LoadValue(*node);
  if (!value.ok()) return value.status();
  node->value = std::move(*value);
  node->resident = true;
  ++resident_values_;
  return Status::Ok();
}

void NoVoHT::MaybeEvict(const Node* keep) {
  if (options_.max_resident_values == 0 || !own_log_) return;
  std::uint64_t guard = buckets_.size() + 1;
  while (resident_values_ > options_.max_resident_values && guard-- > 0) {
    Node* head = buckets_[evict_cursor_ % buckets_.size()];
    ++evict_cursor_;
    for (Node* node = head; node; node = node->next) {
      if (node == keep || !node->resident) continue;
      if (!node->offset_valid) {
        // Append-dirtied value: re-log the full value so a contiguous copy
        // exists, then evict.
        std::uint64_t offset = 0;
        Status status =
            AppendLogRecord(logrec::kPut, node->key, node->value, &offset);
        if (!status.ok()) {
          ZHT_WARN << "NoVoHT: cannot re-log for eviction: "
                   << status.ToString();
          continue;
        }
        AddDead(RecordBytes(node->key, node->value));
        node->log_offset = offset;
        node->offset_valid = true;
      }
      node->value.clear();
      node->value.shrink_to_fit();
      node->resident = false;
      --resident_values_;
      ++evictions_;
      if (resident_values_ <= options_.max_resident_values) return;
    }
  }
}

void NoVoHT::EnforceResidencyCap() {
  std::lock_guard<std::mutex> lock(mu_);
  MaybeEvict(nullptr);
}

Status NoVoHT::Put(std::string_view key, std::string_view value) {
  std::uint64_t commit = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ReadOnly()) {
      return Status(StatusCode::kInternal,
                    "NoVoHT is read-only after a failed fsync");
    }
    if (options_.max_entries && entries_ >= options_.max_entries &&
        FindNode(key) == nullptr) {
      return Status(StatusCode::kCapacity, "NoVoHT entry cap reached");
    }
    std::uint64_t offset = 0;
    Status status = AppendLogRecord(logrec::kPut, key, value, &offset, &commit);
    if (!status.ok()) return status;
    AddDead(ApplyPut(key, value));
    Node* node = FindNode(key);
    if (node && own_log_) {
      node->log_offset = offset;
      node->offset_valid = true;
    }
    MaybeEvict(node);
    status = MaybeGc();
    if (!status.ok()) return status;
  }
  // Block for the group fsync after dropping mu_, so concurrent writers can
  // join the same commit window.
  return MaybeWaitDurable(commit);
}

Result<std::string> NoVoHT::Get(std::string_view key) {
  std::lock_guard<std::mutex> lock(mu_);
  Node* node = FindNode(key);
  if (!node) return Status(StatusCode::kNotFound);
  if (node->resident) return node->value;
  // Evicted: serve from the log without re-admitting (scans of cold keys
  // must not thrash the resident set).
  return LoadValue(*node);
}

Status NoVoHT::Remove(std::string_view key) {
  std::uint64_t commit = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ReadOnly()) {
      return Status(StatusCode::kInternal,
                    "NoVoHT is read-only after a failed fsync");
    }
    bool found = false;
    // Log first (WAL discipline), then apply; logging a remove of a missing
    // key would pollute the log, so probe first.
    if (FindNode(key) == nullptr) return Status(StatusCode::kNotFound);
    Status status = AppendLogRecord(logrec::kRemove, key, "", nullptr, &commit);
    if (!status.ok()) return status;
    AddDead(ApplyRemove(key, &found));
    status = MaybeGc();
    if (!status.ok()) return status;
  }
  return MaybeWaitDurable(commit);
}

Status NoVoHT::Append(std::string_view key, std::string_view value) {
  std::uint64_t commit = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ReadOnly()) {
      return Status(StatusCode::kInternal,
                    "NoVoHT is read-only after a failed fsync");
    }
    if (options_.max_entries && entries_ >= options_.max_entries &&
        FindNode(key) == nullptr) {
      return Status(StatusCode::kCapacity, "NoVoHT entry cap reached");
    }
    Node* node = FindNode(key);
    if (node && !node->resident) {
      Status status = EnsureResident(node);
      if (!status.ok()) return status;
    }
    Status status =
        AppendLogRecord(logrec::kAppend, key, value, nullptr, &commit);
    if (!status.ok()) return status;
    ApplyAppend(key, value);
    MaybeEvict(FindNode(key));
    status = MaybeGc();
    if (!status.ok()) return status;
  }
  return MaybeWaitDurable(commit);
}

std::uint64_t NoVoHT::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

void NoVoHT::ForEach(
    const std::function<void(std::string_view, std::string_view)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (Node* head : buckets_) {
    for (Node* node = head; node; node = node->next) {
      if (node->resident) {
        fn(node->key, node->value);
      } else {
        auto value = LoadValue(*node);
        fn(node->key, value.ok() ? *value : std::string());
      }
    }
  }
}

Status NoVoHT::MaybeGc() {
  if (!log_) return Status::Ok();
  if (shared_) {
    shared_->MaybeRequestGc();
    return Status::Ok();
  }
  if (log_bytes_ < options_.gc_min_log_bytes) return Status::Ok();
  if (static_cast<double>(dead_bytes_) <
      options_.gc_garbage_ratio * static_cast<double>(log_bytes_)) {
    return Status::Ok();
  }
  return CompactLocked();
}

Status NoVoHT::Compact() {
  std::lock_guard<std::mutex> lock(mu_);
  if (shared_) return shared_->CheckpointLocked(*this);
  return CompactLocked();
}

Status NoVoHT::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  if (ReadOnly()) {
    return Status(StatusCode::kInternal, "store is read-only");
  }
  for (Node*& head : buckets_) {
    while (head) {
      Node* next = head->next;
      delete head;
      head = next;
    }
    head = nullptr;
  }
  entries_ = 0;
  resident_values_ = 0;
  // A durable checkpoint of the empty table, before returning: a crash or
  // a restart after Clear() recovers an empty store too.
  if (shared_) return shared_->CheckpointLocked(*this);
  return CompactLocked();
}

Status NoVoHT::WriteSnapshot(
    const std::string& path, std::uint64_t horizon, PendingFile* out,
    std::vector<std::pair<Node*, std::uint64_t>>* offsets,
    std::uint64_t* bytes) const {
  Status failure = CreatePendingFile(path, out);
  if (!failure.ok()) return failure;
  std::string batch;
  std::uint64_t written = 0;
  if (horizon != 0) {
    batch = logrec::Encode(logrec::kHorizon, 0, "", logrec::EncodeU64(horizon));
  }
  for (Node* head : buckets_) {
    for (Node* node = head; node; node = node->next) {
      std::string loaded;
      std::string_view value;
      if (node->resident) {
        value = node->value;
      } else {
        auto disk = LoadValue(*node);  // the old read_fd_ stays valid
        if (!disk.ok()) {
          failure = disk.status();
          break;
        }
        loaded = std::move(*disk);
        value = loaded;
      }
      std::size_t offset_in_record = 0;
      const std::string record =
          logrec::Encode(logrec::kPut, 0, node->key, value, &offset_in_record);
      if (offsets) {
        offsets->emplace_back(node, written + batch.size() + offset_in_record);
      }
      batch += record;
      if (batch.size() > (1u << 20)) {
        failure = WritePendingFile(*out, batch);
        if (!failure.ok()) break;
        written += batch.size();
        batch.clear();
      }
    }
    if (!failure.ok()) break;
  }
  if (failure.ok() && !batch.empty()) {
    failure = WritePendingFile(*out, batch);
    written += batch.size();
  }
  if (!failure.ok()) {
    DropPendingFile(out);
    return failure;
  }
  if (bytes) *bytes = written;
  return Status::Ok();
}

Status NoVoHT::CompactLocked() {
  if (!own_log_) return Status::Ok();
  // Everything appended so far becomes durable first, so no parked commit
  // is left behind on the log file being replaced.
  Status drained = log_->Sync();
  if (!drained.ok()) return drained;
  const Stopwatch watch(SystemClock::Instance());
  std::vector<PendingFile> files(1);
  std::vector<std::pair<Node*, std::uint64_t>> offsets;
  std::uint64_t new_log_bytes = 0;
  Status status =
      WriteSnapshot(options_.path, 0, &files[0], &offsets, &new_log_bytes);
  if (!status.ok()) return status;
  status = InstallFiles(&files, options_.fsync_hook);
  if (!status.ok()) return log_->Fail("checkpoint install");
  status = log_->Reopen();
  if (!status.ok()) {
    read_only_.store(true, std::memory_order_relaxed);
    return status;
  }
  for (const auto& [node, offset] : offsets) {
    node->log_offset = offset;
    node->offset_valid = true;
  }
  if (read_fd_ >= 0) ::close(read_fd_);
  read_fd_ = ::open(options_.path.c_str(), O_RDONLY);
  if (read_fd_ < 0) {
    read_only_.store(true, std::memory_order_relaxed);
    return Status(StatusCode::kInternal, "cannot reopen log for reads");
  }
  log_bytes_ = new_log_bytes;
  dead_bytes_ = 0;
  ++gc_runs_;
  const Nanos elapsed = watch.Elapsed();
  gc_duration_ns_.Record(elapsed);
  gc_nanos_total_ += static_cast<std::uint64_t>(elapsed);
  return Status::Ok();
}

void NoVoHT::TakeTable(NoVoHT* from) {
  buckets_.swap(from->buckets_);
  std::swap(entries_, from->entries_);
  std::swap(resident_values_, from->resident_values_);
  std::swap(log_bytes_, from->log_bytes_);
  std::swap(dead_bytes_, from->dead_bytes_);
}

NoVoHTStats NoVoHT::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  NoVoHTStats s;
  s.entries = entries_;
  s.buckets = buckets_.size();
  s.resizes = resizes_;
  s.gc_runs = gc_runs_;
  s.log_bytes = log_bytes_;
  s.dead_bytes = dead_bytes_;
  s.recovered_records = recovered_records_;
  s.resident_values = resident_values_;
  s.evictions = evictions_;
  s.disk_reads = disk_reads_;
  s.live_bytes = log_bytes_ - dead_bytes_;
  s.gc_nanos_total = gc_nanos_total_;
  s.fsync_errors = log_ ? log_->fsync_errors() : 0;
  s.group_commits = log_ ? log_->group_commits() : 0;
  s.read_only = ReadOnly();
  return s;
}

// ---------------------------------------------------------------------------
// NoVoHTInstanceLog
// ---------------------------------------------------------------------------

NoVoHTInstanceLog::NoVoHTInstanceLog(std::string log_path,
                                     std::string checkpoint_prefix,
                                     const NoVoHTOptions& options,
                                     std::function<void()> on_closed)
    : log_path_(std::move(log_path)),
      checkpoint_prefix_(std::move(checkpoint_prefix)),
      options_(options),
      on_closed_(std::move(on_closed)) {}

Result<std::shared_ptr<NoVoHTInstanceLog>> NoVoHTInstanceLog::Open(
    std::string log_path, std::string checkpoint_prefix,
    const NoVoHTOptions& options, std::function<void()> on_closed) {
  if (options.max_resident_values != 0) {
    return Status(StatusCode::kInvalidArgument,
                  "max_resident_values needs a store's own log");
  }
  std::shared_ptr<NoVoHTInstanceLog> log(
      new NoVoHTInstanceLog(std::move(log_path), std::move(checkpoint_prefix),
                            options, std::move(on_closed)));
  std::uint64_t valid_end = 0;
  Status status = log->Recover(&valid_end);
  if (!status.ok()) return status;
  // New records must sort past every checkpoint's horizon, or the next
  // recovery would take them for records the checkpoint already holds.
  std::uint64_t floor = 0;
  status = log->MaxCheckpointHorizon(&floor);
  if (!status.ok()) return status;
  if (valid_end == 0 || floor > log->Position(valid_end)) {
    // A new log, one torn inside its base record, or one that ends before
    // a checkpoint's horizon: checkpoint what it holds and start it over
    // past every horizon, durably, before anything is appended behind it.
    status = log->RestartLog(std::max(floor, log->Position(valid_end)));
    if (!status.ok()) return status;
  } else {
    struct stat st;
    if (::stat(log->log_path_.c_str(), &st) == 0 &&
        valid_end < static_cast<std::uint64_t>(st.st_size)) {
      if (::truncate(log->log_path_.c_str(),
                     static_cast<off_t>(valid_end)) != 0) {
        return Status(StatusCode::kInternal, "cannot truncate torn log tail");
      }
      ZHT_WARN << "NoVoHT: trimmed torn instance-log tail at byte "
               << valid_end;
    }
  }
  auto opened = CommitLog::Open(
      log->log_path_,
      CommitLogOptions{options.durability, options.max_commit_latency,
                       options.fsync_hook},
      [raw = log.get()] { raw->CheckpointAll(); });
  if (!opened.ok()) return opened.status();
  log->log_ = std::move(*opened);
  return log;
}

NoVoHTInstanceLog::~NoVoHTInstanceLog() {
  if (!log_) return;  // never finished opening
  // No maintenance may race the close.
  log_->StopFlusher();
  if (!log_->failed()) {
    std::lock_guard<std::mutex> lock(registry_mu_);
    Status status = CheckpointAllLocked();
    if (!status.ok()) {
      ZHT_WARN << "NoVoHT: checkpoint at close of " << log_path_
               << " failed: " << status.ToString();
    }
  }
  log_.reset();
  if (on_closed_) on_closed_();
}

std::string NoVoHTInstanceLog::CheckpointPath(std::uint64_t partition) const {
  return checkpoint_prefix_ + std::to_string(partition) + ".novoht";
}

Status NoVoHTInstanceLog::Recover(std::uint64_t* valid_end) {
  struct Scanned {
    std::unique_ptr<NoVoHT> table;
    std::uint64_t horizon = 0;
    bool applied = false;
  };
  std::map<std::uint64_t, Scanned> scanned;
  bool header = true;
  Status status = logrec::Scan(
      log_path_, options_.recover_buffer_bytes,
      [&](const logrec::Record& record) -> Status {
        if (header) {
          header = false;
          if (record.partitioned || record.type != logrec::kLogBase) {
            return Status(StatusCode::kCorruption,
                          "instance log does not start with its base");
          }
          base_ = logrec::DecodeU64(record.value);
          header_bytes_ = record.size;
          return Status::Ok();
        }
        if (!record.partitioned) {
          return Status(StatusCode::kCorruption,
                        "untagged record in an instance log");
        }
        Scanned& entry = scanned[record.partition];
        if (!entry.table) {
          auto loaded = LoadCheckpoint(record.partition, &entry.horizon);
          if (!loaded.ok()) return loaded.status();
          entry.table = std::move(*loaded);
        }
        // The checkpoint already holds every record before its horizon.
        if (Position(record.offset) < entry.horizon) return Status::Ok();
        Status applied = entry.table->ApplyRecord(record);
        if (!applied.ok()) return applied;
        ++entry.table->recovered_records_;
        entry.table->log_bytes_ += record.size;
        entry.applied = true;
        return Status::Ok();
      },
      valid_end);
  if (!status.ok()) return status;
  for (auto& [partition, entry] : scanned) {
    if (entry.applied) parked_[partition] = std::move(entry.table);
  }
  return Status::Ok();
}

Result<std::unique_ptr<NoVoHT>> NoVoHTInstanceLog::LoadCheckpoint(
    std::uint64_t partition, std::uint64_t* horizon) const {
  NoVoHTOptions in_memory = options_;
  in_memory.path.clear();
  std::unique_ptr<NoVoHT> table(new NoVoHT(in_memory));
  table->partition_ = partition;
  Status status = table->Replay(CheckpointPath(partition), false, horizon);
  if (!status.ok()) return status;
  table->log_bytes_ = 0;
  table->dead_bytes_ = 0;
  return table;
}

Status NoVoHTInstanceLog::MaxCheckpointHorizon(std::uint64_t* max) const {
  *max = 0;
  const std::size_t slash = checkpoint_prefix_.rfind('/');
  const std::string dir = slash == std::string::npos
                              ? "."
                              : checkpoint_prefix_.substr(0, slash + 1);
  const std::string stem = slash == std::string::npos
                               ? checkpoint_prefix_
                               : checkpoint_prefix_.substr(slash + 1);
  DIR* listing = ::opendir(dir.c_str());
  if (listing == nullptr) {
    if (errno == ENOENT) return Status::Ok();
    return Status(StatusCode::kInternal, "cannot list " + dir);
  }
  constexpr std::string_view kSuffix = ".novoht";
  while (const dirent* entry = ::readdir(listing)) {
    const std::string_view name(entry->d_name);
    if (name.size() <= stem.size() + kSuffix.size() ||
        name.compare(0, stem.size(), stem) != 0 ||
        name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                     kSuffix) != 0) {
      continue;
    }
    const std::string_view partition = name.substr(
        stem.size(), name.size() - stem.size() - kSuffix.size());
    if (partition.find_first_not_of("0123456789") != std::string_view::npos) {
      continue;
    }
    *max = std::max(*max, logrec::LeadingHorizon(dir + std::string(name)));
  }
  ::closedir(listing);
  return Status::Ok();
}

Result<std::unique_ptr<NoVoHT>> NoVoHTInstanceLog::OpenPartition(
    std::uint64_t partition) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  std::unique_ptr<NoVoHT> store;
  bool dirty = false;
  auto parked = parked_.find(partition);
  if (parked != parked_.end()) {
    store = std::move(parked->second);
    parked_.erase(parked);
    dirty = true;
  } else {
    std::uint64_t horizon = 0;
    auto loaded = LoadCheckpoint(partition, &horizon);
    if (!loaded.ok()) return loaded.status();
    store = std::move(*loaded);
  }
  store->options_ = options_;
  store->options_.path = CheckpointPath(partition);
  store->log_ = log_.get();
  store->shared_ = shared_from_this();
  store->partition_ = partition;
  store->dirty_ = dirty;
  open_[partition] = store.get();
  open_count_.fetch_add(1, std::memory_order_relaxed);
  return store;
}

void NoVoHTInstanceLog::Detach(NoVoHT* store) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = open_.find(store->partition_);
  if (it == open_.end() || it->second != store) return;
  open_.erase(it);
  open_count_.fetch_sub(1, std::memory_order_relaxed);
  if (!store->dirty_) return;
  // Its records stay in the log until the next checkpoint of everything,
  // which needs the table: park it.
  NoVoHTOptions in_memory = options_;
  in_memory.path.clear();
  std::unique_ptr<NoVoHT> table(new NoVoHT(in_memory));
  table->partition_ = store->partition_;
  table->TakeTable(store);
  parked_[store->partition_] = std::move(table);
}

void NoVoHTInstanceLog::MaybeRequestGc() {
  // The instance log may grow as far as the per-store logs it replaces
  // could have together before the GC policy looks at garbage.
  const std::uint64_t size = log_->size();
  const std::uint64_t stores =
      std::max<std::size_t>(1, open_count_.load(std::memory_order_relaxed));
  if (size < options_.gc_min_log_bytes * stores) return;
  if (static_cast<double>(garbage_.load(std::memory_order_relaxed)) <
      options_.gc_garbage_ratio * static_cast<double>(size)) {
    return;
  }
  log_->RequestMaintenance();
}

Status NoVoHTInstanceLog::WriteCheckpoints(
    const std::vector<std::pair<std::uint64_t, const NoVoHT*>>& tables,
    std::uint64_t horizon) {
  for (std::size_t begin = 0; begin < tables.size();
       begin += kCheckpointBatch) {
    const std::size_t end = std::min(tables.size(), begin + kCheckpointBatch);
    std::vector<PendingFile> files;
    files.reserve(end - begin);
    Status status;
    for (std::size_t i = begin; i < end && status.ok(); ++i) {
      PendingFile file;
      status = tables[i].second->WriteSnapshot(CheckpointPath(tables[i].first),
                                               horizon, &file, nullptr,
                                               nullptr);
      if (status.ok()) files.push_back(std::move(file));
    }
    if (!status.ok()) {
      for (PendingFile& file : files) DropPendingFile(&file);
      return status;
    }
    status = InstallFiles(&files, options_.fsync_hook);
    if (!status.ok()) return log_ ? log_->Fail("checkpoint install") : status;
  }
  return Status::Ok();
}

Status NoVoHTInstanceLog::ReplaceLog(std::uint64_t base) {
  std::vector<PendingFile> files(1);
  Status status = CreatePendingFile(log_path_, &files[0]);
  if (!status.ok()) return status;
  const std::string record =
      logrec::Encode(logrec::kLogBase, 0, "", logrec::EncodeU64(base));
  status = WritePendingFile(files[0], record);
  if (!status.ok()) {
    DropPendingFile(&files[0]);
    return status;
  }
  status = InstallFiles(&files, options_.fsync_hook);
  if (!status.ok()) {
    if (log_) return log_->Fail("log install");
    return status;
  }
  base_ = base;
  header_bytes_ = record.size();
  return log_ ? log_->Reopen() : Status::Ok();
}

Status NoVoHTInstanceLog::RestartLog(std::uint64_t base) {
  std::vector<std::pair<std::uint64_t, const NoVoHT*>> tables;
  for (const auto& [partition, table] : parked_) {
    tables.emplace_back(partition, table.get());
  }
  Status status = WriteCheckpoints(tables, base);
  if (!status.ok()) return status;
  parked_.clear();
  return ReplaceLog(base);
}

Status NoVoHTInstanceLog::CheckpointLocked(NoVoHT& store) {
  const Stopwatch watch(SystemClock::Instance());
  // The horizon must never pass the durable end of the log: a torn tail
  // trimmed below it would hand its positions to later records.
  std::uint64_t covered = 0;
  Status status = log_->Sync(&covered);
  if (!status.ok()) return status;
  status = WriteCheckpoints({{store.partition_, &store}}, Position(covered));
  if (!status.ok()) return status;
  store.dirty_ = false;
  store.log_bytes_ = 0;
  store.dead_bytes_ = 0;
  ++store.gc_runs_;
  const Nanos elapsed = watch.Elapsed();
  store.gc_duration_ns_.Record(elapsed);
  store.gc_nanos_total_ += static_cast<std::uint64_t>(elapsed);
  return Status::Ok();
}

Status NoVoHTInstanceLog::CheckpointAllLocked() {
  std::vector<std::pair<std::uint64_t, const NoVoHT*>> tables;
  for (const auto& [partition, store] : open_) {
    if (store->dirty_) tables.emplace_back(partition, store);
  }
  for (const auto& [partition, table] : parked_) {
    tables.emplace_back(partition, table.get());
  }
  if (tables.empty() && log_->size() <= header_bytes_) return Status::Ok();
  std::uint64_t covered = 0;
  Status status = log_->Sync(&covered);
  if (!status.ok()) return status;
  const std::uint64_t horizon = Position(covered);
  status = WriteCheckpoints(tables, horizon);
  if (!status.ok()) return status;
  for (const auto& [partition, store] : open_) {
    store->dirty_ = false;
    store->log_bytes_ = 0;
    store->dead_bytes_ = 0;
  }
  parked_.clear();
  // Every record is now inside a checkpoint: start the log over at the
  // horizon, so later records sort after every checkpoint.
  status = ReplaceLog(horizon);
  if (!status.ok()) return status;
  garbage_.store(0, std::memory_order_relaxed);
  return Status::Ok();
}

void NoVoHTInstanceLog::CheckpointAll() {
  std::lock_guard<std::mutex> registry(registry_mu_);
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(open_.size());
  for (const auto& [partition, store] : open_) locks.emplace_back(store->mu_);
  Status status = CheckpointAllLocked();
  if (!status.ok()) {
    ZHT_WARN << "NoVoHT: checkpoint of " << log_path_
             << " failed: " << status.ToString();
  }
}

}  // namespace zht
