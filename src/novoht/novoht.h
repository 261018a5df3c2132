// NoVoHT: Non-Volatile Hash Table (§III.I and [49]).
//
// A purpose-built persistent in-memory hash table addressing the paper's
// stated limitations of KyotoCabinet:
//   * a specifiable size (bounded memory footprint),
//   * a configurable re-size rate,
//   * configurable garbage collection of the persistence log,
//   * an `append` primitive for lock-free concurrent value modification.
//
// All live pairs stay in memory (lookups never touch disk); every mutation
// is appended to a CRC-protected write-ahead log (CommitLog); compaction
// rewrites the log when the dead-record ratio passes a threshold. The
// partition stores of one ZHT instance share one log instead
// (NoVoHTInstanceLog), with one checkpoint file per partition.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"
#include "novoht/commit_log.h"
#include "novoht/kv_store.h"

namespace zht {

struct NoVoHTOptions {
  // Path of the persistence log. Empty => pure in-memory table.
  std::string path;

  // Initial bucket count ("specifying a size").
  std::uint64_t initial_buckets = 1024;

  // Resize when live entries / buckets exceeds this ("re-size rate" knob:
  // how eagerly the table grows).
  double max_load_factor = 1.5;

  // Bucket multiplier applied on resize.
  double resize_multiplier = 2.0;

  // Hard cap on buckets (0 = unbounded). Bounds the index footprint.
  std::uint64_t max_buckets = 0;

  // Hard cap on entries (0 = unbounded); Put/Append on new keys beyond the
  // cap fail with kCapacity. Bounds the data footprint.
  std::uint64_t max_entries = 0;

  // Garbage collection: compact when dead bytes / log bytes exceeds the
  // ratio AND the log is at least min_log_bytes.
  double gc_garbage_ratio = 0.5;
  std::uint64_t gc_min_log_bytes = 1 << 20;

  // Durability of acked mutations (see DurabilityMode). kGroupCommit runs a
  // flusher thread per log that amortizes one fdatasync over every writer
  // in the commit window; kEveryOp syncs inline per mutation.
  DurabilityMode durability = DurabilityMode::kNone;

  // Group commit only: after the first pending commit wakes the flusher, it
  // waits up to this long for more writers to join the window before
  // syncing. 0 = sync as soon as the flusher wakes (lowest latency; batches
  // still form while a sync is in flight).
  Nanos max_commit_latency = 0;

  // Group commit only: when true (the default), mutators block until the
  // flusher has synced past their commit. Servers that ack once per request
  // set this false and pair last_commit_token() with WaitDurable() instead.
  bool wait_for_durable = true;

  // Recovery replays the log through a streaming window of this many bytes
  // (grown temporarily for a single over-sized record), so recovery memory
  // is bounded regardless of log size.
  std::uint64_t recover_buffer_bytes = 256 * 1024;

  // Test hook: stands in for ::fdatasync on the log, checkpoint and
  // directory fds when set. Lets tests inject fsync failures without a
  // faulty disk.
  std::function<int(int fd)> fsync_hook;

  // "By tuning the number of Key-Value pairs that are allowed [to] stay in
  // memory, users can achieve the balance between performance and memory
  // consumption" (§III.A). 0 = everything resident. When set (requires a
  // store's own persistence log; partitions of an instance log reject it),
  // values beyond the cap are evicted from memory and served from the log
  // by offset; keys always stay in memory.
  std::uint64_t max_resident_values = 0;
};

struct NoVoHTStats {
  std::uint64_t entries = 0;
  std::uint64_t buckets = 0;
  std::uint64_t resizes = 0;
  std::uint64_t gc_runs = 0;
  std::uint64_t log_bytes = 0;
  std::uint64_t dead_bytes = 0;
  std::uint64_t recovered_records = 0;  // replayed at Open()
  std::uint64_t resident_values = 0;    // values held in memory
  std::uint64_t evictions = 0;
  std::uint64_t disk_reads = 0;         // Gets served from the log
  std::uint64_t live_bytes = 0;         // log_bytes - dead_bytes
  std::uint64_t gc_nanos_total = 0;     // cumulative time inside compaction
  std::uint64_t fsync_errors = 0;       // failed log/checkpoint fsyncs
  std::uint64_t group_commits = 0;      // fsyncs issued by the flusher
  bool read_only = false;               // poisoned by a failed fsync/write
};

class NoVoHTInstanceLog;

class NoVoHT final : public KVStore {
 public:
  // Opens (and recovers, if the log exists) a NoVoHT store. With a path the
  // store owns a private log at that path.
  static Result<std::unique_ptr<NoVoHT>> Open(const NoVoHTOptions& options);

  ~NoVoHT() override;

  NoVoHT(const NoVoHT&) = delete;
  NoVoHT& operator=(const NoVoHT&) = delete;

  Status Put(std::string_view key, std::string_view value) override;
  Result<std::string> Get(std::string_view key) override;
  Status Remove(std::string_view key) override;
  Status Append(std::string_view key, std::string_view value) override;

  std::uint64_t Size() const override;
  void ForEach(const std::function<void(std::string_view, std::string_view)>&
                   fn) const override;

  bool persistent() const override { return log_ != nullptr; }
  bool supports_append() const override { return true; }

  // Checkpoint: rewrites the log to contain exactly the live pairs, or, for
  // a partition of an instance log, writes the partition's checkpoint file.
  // Also invoked automatically by the GC policy. Thread-safe.
  Status Compact();

  // Drops every pair and checkpoints the now-empty table before returning,
  // so neither a crash nor a restart brings the old pairs back — the store
  // behaves as if freshly created at the same path. Used by the transfer
  // stream (KVStore::Clear). Thread-safe.
  Status Clear() override;

  // Group-commit handshake (KVStore), answered by the log. Tokens are
  // monotone commit sequence numbers (not byte offsets, so compaction
  // cannot invalidate them); stores sharing a log share one sequence. Both
  // are trivial outside kGroupCommit mode.
  std::uint64_t last_commit_token() const override;
  Status WaitDurable(std::uint64_t token) override;
  // Parks `done` on the log's flusher: invoked (on the flusher thread) by
  // the fsync that covers `token`, immediately when the token is already
  // durable or the log is poisoned, and at the log's close for leftovers.
  void NotifyDurable(std::uint64_t token,
                     std::function<void(Status)> done) override;
  bool durability_metrics(StoreDurabilityMetrics* out) const override;

  NoVoHTStats stats() const;

  // Distribution of compaction (GC/checkpoint) durations in nanoseconds;
  // one sample per log rewrite. Lock-free to read.
  HistogramData GcDurationHistogram() const {
    return gc_duration_ns_.Snapshot();
  }

 private:
  friend class NoVoHTInstanceLog;

  explicit NoVoHT(NoVoHTOptions options);

  struct Node {
    std::string key;
    std::string value;        // empty when evicted (resident == false)
    Node* next = nullptr;
    std::uint64_t log_offset = 0;  // of the value payload in the log
    std::uint32_t value_len = 0;
    bool resident = true;
    // The log contains a contiguous copy of the full current value at
    // log_offset (false after an append until re-logged; such nodes are
    // re-logged as full puts before eviction).
    bool offset_valid = false;
  };

  // Replays the standalone log or checkpoint at `path` into the table;
  // *horizon receives a checkpoint's instance-log position (0 if none).
  // With `trim`, a torn tail is cut off the file.
  Status Replay(const std::string& path, bool trim, std::uint64_t* horizon);
  // Applies one put/remove/append record read back from a log.
  Status ApplyRecord(const logrec::Record& record);
  // Appends the record; when value_offset is non-null, receives the byte
  // offset of the value payload inside the log. In kGroupCommit mode the
  // record's commit token is returned through commit_token when non-null.
  Status AppendLogRecord(std::uint8_t type, std::string_view key,
                         std::string_view value,
                         std::uint64_t* value_offset = nullptr,
                         std::uint64_t* commit_token = nullptr);
  Status MaybeGc();
  Status CompactLocked();
  // Writes the live pairs as a standalone log at path + ".tmp", led by a
  // horizon record when `horizon` is nonzero; the fd stays open in *out.
  // `offsets`, when given, receives each node's new value offset.
  Status WriteSnapshot(const std::string& path, std::uint64_t horizon,
                       PendingFile* out,
                       std::vector<std::pair<Node*, std::uint64_t>>* offsets,
                       std::uint64_t* bytes) const;
  // Moves every pair of `from` into this (empty) table.
  void TakeTable(NoVoHT* from);
  void AddDead(std::uint64_t bytes);
  bool ReadOnly() const {
    return read_only_.load(std::memory_order_relaxed) ||
           (log_ && log_->failed());
  }
  Status MaybeWaitDurable(std::uint64_t token);  // honors wait_for_durable

  // Residency management (max_resident_values).
  void MaybeEvict(const Node* keep);
  Result<std::string> LoadValue(const Node& node) const;
  Status EnsureResident(Node* node);
  void EnforceResidencyCap();
  void ResizeIfNeeded();
  void RehashInto(std::uint64_t new_bucket_count);

  std::uint64_t BucketIndex(std::string_view key) const;
  Node* FindNode(std::string_view key) const;

  // In-memory application of a mutation (shared by the public ops and log
  // replay). Returns bytes made dead in the log by this change.
  std::uint64_t ApplyPut(std::string_view key, std::string_view value);
  std::uint64_t ApplyRemove(std::string_view key, bool* found);
  void ApplyAppend(std::string_view key, std::string_view value);

  static std::uint64_t RecordBytes(std::string_view key,
                                   std::string_view value);

  NoVoHTOptions options_;
  std::vector<Node*> buckets_;
  std::uint64_t entries_ = 0;
  std::uint64_t resizes_ = 0;
  std::uint64_t gc_runs_ = 0;
  // Standalone: the log's size. Instance-log partition: the bytes this
  // store appended since its checkpoint.
  std::uint64_t log_bytes_ = 0;
  std::uint64_t dead_bytes_ = 0;
  std::uint64_t recovered_records_ = 0;
  std::uint64_t resident_values_ = 0;
  std::uint64_t evictions_ = 0;
  mutable std::uint64_t disk_reads_ = 0;
  std::uint64_t evict_cursor_ = 0;  // clock hand over buckets
  Histogram gc_duration_ns_;        // compaction wall time per run
  std::uint64_t gc_nanos_total_ = 0;
  int read_fd_ = -1;  // O_RDONLY view of the log for evicted values

  // Persistence. log_ is null for an in-memory table. A standalone store
  // owns its log (own_log_); a partition store of an instance log shares
  // it (shared_), tags its records with partition_, and its checkpoint is
  // options_.path.
  CommitLog* log_ = nullptr;
  std::unique_ptr<CommitLog> own_log_;
  std::shared_ptr<NoVoHTInstanceLog> shared_;
  std::uint64_t partition_ = 0;
  bool dirty_ = false;  // the shared log holds records past the checkpoint

  // Protects Append's read-modify-write (the paper's "simple local lock"
  // enabling lock-free *distributed* concurrent modification) and makes the
  // whole store safe for the multi-threaded server ablation. Lock order:
  // the instance log's registry mutex, store mutexes by partition, the
  // CommitLog's mutex.
  mutable std::mutex mu_;

  // A torn log write or a failed rename leaves the table and the file out
  // of step: the store refuses further mutations (the log poisons itself
  // on a failed fsync). Atomic so stats() can read it without mu_.
  std::atomic<bool> read_only_{false};
};

// The log shared by every partition store of one ZHT instance (DESIGN.md
// §10): one file, one flusher and one commit horizon, whatever the number
// of partitions. Each record carries its partition id. Partition p's
// checkpoint is the standalone NoVoHT log at `checkpoint_prefix` + p +
// ".novoht", led by the log position it covers (its horizon), so a
// partition recovers as its checkpoint plus its records at or past that
// position. Checkpoints are written on Clear()/Compact() of one partition,
// for every partition when the log outgrows the GC thresholds (then the
// log is truncated), and at the clean close.
class NoVoHTInstanceLog
    : public std::enable_shared_from_this<NoVoHTInstanceLog> {
 public:
  // Opens and recovers the log at `log_path`. A path has one writer: open
  // it again only after the previous log's close has finished, which
  // `on_closed` (when set) reports. The log stays open while its partition
  // stores or the caller's handle do. `options` configures the partition
  // stores (its path is ignored; max_resident_values must be 0).
  static Result<std::shared_ptr<NoVoHTInstanceLog>> Open(
      std::string log_path, std::string checkpoint_prefix,
      const NoVoHTOptions& options, std::function<void()> on_closed = nullptr);

  // Clean close, once every partition store and handle is gone:
  // checkpoints each partition with records past its checkpoint, then
  // truncates the log and runs `on_closed`.
  ~NoVoHTInstanceLog();
  NoVoHTInstanceLog(const NoVoHTInstanceLog&) = delete;
  NoVoHTInstanceLog& operator=(const NoVoHTInstanceLog&) = delete;

  // The store for `partition`: its checkpoint plus its recovered records.
  Result<std::unique_ptr<NoVoHT>> OpenPartition(std::uint64_t partition);

  std::string CheckpointPath(std::uint64_t partition) const;
  const CommitLog& log() const { return *log_; }

 private:
  friend class NoVoHT;

  NoVoHTInstanceLog(std::string log_path, std::string checkpoint_prefix,
                    const NoVoHTOptions& options,
                    std::function<void()> on_closed);

  // Scans the log once, parking the partitions it has records for.
  Status Recover(std::uint64_t* valid_end);
  Result<std::unique_ptr<NoVoHT>> LoadCheckpoint(std::uint64_t partition,
                                                 std::uint64_t* horizon) const;
  // Writes and installs the checkpoints of `tables`, stamped `horizon`.
  Status WriteCheckpoints(
      const std::vector<std::pair<std::uint64_t, const NoVoHT*>>& tables,
      std::uint64_t horizon);
  // Installs an empty log whose byte 0 sits at position `base`.
  Status ReplaceLog(std::uint64_t base);
  // At open: checkpoints the parked tables at horizon `base`, then
  // ReplaceLog(base).
  Status RestartLog(std::uint64_t base);
  // The largest horizon among this instance's checkpoint files.
  Status MaxCheckpointHorizon(std::uint64_t* max) const;
  // Checkpoints one partition; the caller holds store.mu_.
  Status CheckpointLocked(NoVoHT& store);
  // Checkpoints every partition with records past its checkpoint, then
  // truncates the log. The caller holds registry_mu_ and every open
  // store's mutex.
  Status CheckpointAllLocked();
  void CheckpointAll();  // flusher maintenance: takes the locks itself
  void Detach(NoVoHT* store);  // from ~NoVoHT: parks a dirty table
  void MaybeRequestGc();
  std::uint64_t Position(std::uint64_t offset) const { return base_ + offset; }

  const std::string log_path_;
  const std::string checkpoint_prefix_;
  const NoVoHTOptions options_;
  const std::function<void()> on_closed_;
  // Log position of byte 0. Changes only in CheckpointAllLocked, with every
  // open store's mutex held, so a store's own mutex orders its reads.
  std::uint64_t base_ = 0;
  std::uint64_t header_bytes_ = 0;      // size of a freshly replaced log
  std::atomic<std::uint64_t> garbage_{0};  // dead bytes in the log (GC)
  std::atomic<std::size_t> open_count_{0};

  std::mutex registry_mu_;
  std::map<std::uint64_t, NoVoHT*> open_;  // partition -> its open store
  // Tables with records past their checkpoint and no open store: recovered
  // but not yet opened, or closed since.
  std::map<std::uint64_t, std::unique_ptr<NoVoHT>> parked_;

  // Last member: its flusher runs CheckpointAll, which uses the others.
  std::unique_ptr<CommitLog> log_;
};

}  // namespace zht
