// CommitLog: the append-only, CRC-checked, group-committed log file under
// NoVoHT (DESIGN.md §10). It owns the file descriptor, the one flusher
// thread, the commit tokens and the durability telemetry. A standalone
// NoVoHT owns a private CommitLog; the partition stores of one ZHT instance
// share one through NoVoHTInstanceLog, so the instance has one flusher and
// one commit horizon however many partitions it holds.
//
// The record codec (logrec) is shared by both log shapes and by the
// per-partition checkpoint files, which are standalone NoVoHT logs.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"
#include "novoht/kv_store.h"

namespace zht {

namespace logrec {

// Record layout:
//   [crc32:4 LE][type:1][partition varint, iff type & kPartitioned]
//   [klen varint][vlen varint][key][value]
// The crc covers everything after the crc field.
constexpr std::uint8_t kPut = 1;
constexpr std::uint8_t kRemove = 2;
constexpr std::uint8_t kAppend = 3;
// Checkpoint files only: the instance-log position the checkpoint covers
// (value = 8 bytes LE). Standalone recovery skips it.
constexpr std::uint8_t kHorizon = 4;
// Instance log only, first record: the log position of byte 0 (value = 8
// bytes LE), so positions keep growing across truncations.
constexpr std::uint8_t kLogBase = 5;
// Flag on the type byte: a varint partition id follows it.
constexpr std::uint8_t kPartitioned = 0x80;

// *value_offset_in_record receives the index of the value payload.
std::string Encode(std::uint8_t type, std::uint64_t partition,
                   std::string_view key, std::string_view value,
                   std::size_t* value_offset_in_record = nullptr);
std::string EncodeU64(std::uint64_t v);   // 8 bytes LE
std::uint64_t DecodeU64(std::string_view bytes);  // 0 unless 8 bytes

struct Record {
  std::uint8_t type = 0;         // without kPartitioned
  bool partitioned = false;
  std::uint64_t partition = 0;
  std::string_view key;
  std::string_view value;
  std::uint64_t offset = 0;        // of the record in the file
  std::uint64_t value_offset = 0;  // of the value payload in the file
  std::uint64_t size = 0;          // bytes of the whole record
};

// Replays the file at `path` record by record through a window of about
// `buffer_bytes`. A missing file is empty. A torn tail (nothing CRC-valid
// follows the first bad byte) ends the scan; damage with valid records
// after it is kCorruption. *valid_end receives the end of the last good
// record; the caller decides whether to trim the rest.
Status Scan(const std::string& path, std::uint64_t buffer_bytes,
            const std::function<Status(const Record&)>& visit,
            std::uint64_t* valid_end);

// The horizon a checkpoint file starts with; 0 when its first record is
// not a whole horizon record or the file cannot be read.
std::uint64_t LeadingHorizon(const std::string& path);

}  // namespace logrec

// Stands in for fdatasync when set (tests inject failures with it).
using FsyncHook = std::function<int(int fd)>;

// A checkpoint file written beside its final path and not yet installed.
struct PendingFile {
  std::string path;  // final name; the data sits at path + ".tmp"
  int fd = -1;       // open on the .tmp file
};

// Creates (truncating) path + ".tmp" for writing.
Status CreatePendingFile(const std::string& path, PendingFile* out);
Status WritePendingFile(const PendingFile& file, std::string_view data);
// Closes and removes a pending file that will not be installed.
void DropPendingFile(PendingFile* file);

// The one checkpoint install routine: syncs every pending file's data,
// closes it, renames it over its final path, then syncs each directory
// once so the renames are durable too. On failure the .tmp files are removed and
// the old files stay in place. Closes every fd either way.
Status InstallFiles(std::vector<PendingFile>* files, const FsyncHook& hook);

struct CommitLogOptions {
  DurabilityMode durability = DurabilityMode::kNone;
  Nanos max_commit_latency = 0;  // group commit: window before each fsync
  FsyncHook fsync_hook;
};

class CommitLog {
 public:
  // Opens `path` for appends (creating it). The flusher thread runs in
  // group-commit mode, or whenever `maintenance` is set: the flusher runs
  // it between fsyncs after RequestMaintenance().
  static Result<std::unique_ptr<CommitLog>> Open(
      std::string path, CommitLogOptions options,
      std::function<void()> maintenance = nullptr);

  // Stops the flusher (which syncs outstanding commits first) and resolves
  // any callback still parked.
  ~CommitLog();
  CommitLog(const CommitLog&) = delete;
  CommitLog& operator=(const CommitLog&) = delete;

  // Appends one encoded record. *offset receives its position in the file.
  // kEveryOp syncs before returning; kGroupCommit returns a token for
  // WaitDurable/NotifyDurable in *token (0 otherwise). A short write or a
  // failed fsync poisons the log: the tail is unknowable.
  Status Append(std::string_view record, std::uint64_t* offset,
                std::uint64_t* token);

  // Group-commit handshake (KVStore). Trivial outside kGroupCommit.
  std::uint64_t last_token() const;
  Status WaitDurable(std::uint64_t token);
  void NotifyDurable(std::uint64_t token, std::function<void(Status)> done);

  // Makes every record appended so far durable from the calling thread,
  // whatever the mode; *covered receives the file size it covers. Never
  // waits on the flusher, so a caller holding a store lock may use it.
  Status Sync(std::uint64_t* covered = nullptr);

  // Reopens the path after a new file was installed over it. The caller
  // guarantees no concurrent Append.
  Status Reopen();

  // Joins the flusher early (the destructor does it otherwise); later
  // syncs run inline.
  void StopFlusher();

  void RequestMaintenance();

  std::uint64_t size() const { return size_.load(std::memory_order_relaxed); }
  bool failed() const { return failed_.load(std::memory_order_relaxed); }
  // Poisons the log after a failed fsync of its file or a checkpoint.
  Status Fail(const char* what);

  std::uint64_t group_commits() const;
  std::uint64_t fsync_errors() const {
    return fsync_errors_.load(std::memory_order_relaxed);
  }
  void Metrics(StoreDurabilityMetrics* out) const;

 private:
  CommitLog(std::string path, CommitLogOptions options,
            std::function<void()> maintenance);

  struct DurableWaiter {
    std::uint64_t token;
    std::function<void(Status)> done;
  };
  void FlusherLoop();
  // Records a finished fsync of commits up to `target` (under mu_) and
  // returns the waiters it satisfies.
  std::vector<DurableWaiter> FinishSyncLocked(int rc, std::uint64_t target,
                                              std::uint64_t batch,
                                              Nanos elapsed, bool grouped);
  static void Resolve(std::vector<DurableWaiter>* ready, bool ok);

  const std::string path_;
  const CommitLogOptions options_;
  const std::function<void()> maintenance_;
  const std::uint64_t id_;

  // Guards the fd, appends and the commit pipeline. Lock order: a store's
  // mutex, then this one; the flusher takes only this one.
  mutable std::mutex mu_;
  std::condition_variable commit_cv_;   // durable_seq_ advanced / failed
  std::condition_variable flusher_cv_;  // work for the flusher
  std::condition_variable idle_cv_;     // syncing_ dropped to 0
  int fd_ = -1;
  std::atomic<std::uint64_t> size_{0};
  std::uint64_t appended_seq_ = 0;  // commits accepted so far
  std::uint64_t durable_seq_ = 0;   // commits covered by an fsync
  std::uint64_t pending_ops_ = 0;   // commits since the last group fsync
  std::uint64_t group_commits_ = 0;
  int syncing_ = 0;                 // fsyncs in flight on fd_
  bool maintenance_due_ = false;
  bool stop_flusher_ = false;
  // Durability callbacks parked until durable_seq_ reaches their token;
  // invoked with mu_ released.
  std::vector<DurableWaiter> durable_waiters_;

  std::atomic<bool> failed_{false};
  std::atomic<std::uint64_t> fsync_errors_{0};
  Histogram group_commit_batch_;  // mutations covered per group fsync
  Histogram fsync_micros_;        // wall time of every log fsync
  std::thread flusher_;
};

}  // namespace zht
