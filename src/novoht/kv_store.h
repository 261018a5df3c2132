// KVStore: the storage interface a ZHT partition is built on. NoVoHT is the
// production implementation; the disk-resident baselines exist to reproduce
// the paper's Figure 6 comparison (NoVoHT vs KyotoCabinet vs BerkeleyDB vs
// std::unordered_map).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"

namespace zht {

// How a persistent store makes acked mutations crash-safe.
enum class DurabilityMode : std::uint8_t {
  // Mutations are acked once appended to the OS page cache; a crash may
  // lose acked ops (the seed behaviour, fastest).
  kNone = 0,
  // Mutations enqueue a commit sequence number; a dedicated flusher thread
  // fdatasyncs the log and one sync covers every writer in the window.
  kGroupCommit = 1,
  // One fdatasync per mutation (strongest, serializes the write path).
  kEveryOp = 2,
};

inline const char* DurabilityModeName(DurabilityMode mode) {
  switch (mode) {
    case DurabilityMode::kNone: return "none";
    case DurabilityMode::kGroupCommit: return "group_commit";
    case DurabilityMode::kEveryOp: return "every_op";
  }
  return "unknown";
}

// Durability observability exported by stores that sync a log. Histograms
// use the shared log-linear bucket layout so callers can Merge() across
// partition stores.
struct StoreDurabilityMetrics {
  // Identity of the log these figures describe. Stores sharing one log
  // report the same id, so an aggregate counts each log once; 0 = unknown.
  std::uint64_t log_id = 0;
  HistogramData group_commit_batch;  // mutations covered per group fsync
  HistogramData fsync_micros;        // wall time of each log fsync
  std::uint64_t fsync_errors = 0;    // failed fsyncs (store goes read-only)
  std::uint64_t group_commits = 0;   // fsyncs issued by the flusher
};

class KVStore {
 public:
  virtual ~KVStore() = default;

  // Insert or overwrite (ZHT inserts overwrite, matching the paper's API).
  virtual Status Put(std::string_view key, std::string_view value) = 0;

  virtual Result<std::string> Get(std::string_view key) = 0;

  virtual Status Remove(std::string_view key) = 0;

  // Appends to the existing value (creating the key if absent). Stores that
  // cannot support it return kNotSupported; ZHT requires it (§III.I).
  virtual Status Append(std::string_view key, std::string_view value) {
    (void)key;
    (void)value;
    return Status(StatusCode::kNotSupported, "append not supported");
  }

  // Drops every pair (and, for persistent stores, truncates the on-disk
  // log) so a rebuild stream lands on a genuinely empty store — re-opening
  // the same path would otherwise resurrect stale recovered state. The
  // default adapts stores without a faster path.
  virtual Status Clear() {
    std::vector<std::string> keys;
    ForEach([&keys](std::string_view key, std::string_view) {
      keys.emplace_back(key);
    });
    for (const std::string& key : keys) {
      Status status = Remove(key);
      if (!status.ok()) return status;
    }
    return Status::Ok();
  }

  virtual std::uint64_t Size() const = 0;

  // Visits every live pair (used for partition migration and checkpointing).
  // The callback must not mutate the store.
  virtual void ForEach(
      const std::function<void(std::string_view key, std::string_view value)>&
          fn) const = 0;

  virtual bool persistent() const { return false; }
  virtual bool supports_append() const { return false; }

  // Group-commit handshake. A store with an asynchronous commit pipeline
  // returns, from last_commit_token(), a token covering every mutation it
  // has accepted so far; the mutation is durable once WaitDurable(token)
  // returns Ok. Callers capture the token under the same lock that ordered
  // the mutation and may wait after releasing it. Stores without a pipeline
  // (in-memory, or sync-on-every-op) return 0, and WaitDurable(0) is a
  // no-op, so the sequence "mutate; token = last_commit_token();
  // WaitDurable(token)" is correct against any store.
  virtual std::uint64_t last_commit_token() const { return 0; }
  virtual Status WaitDurable(std::uint64_t token) {
    (void)token;
    return Status::Ok();
  }

  // Asynchronous form of WaitDurable: invokes `done` exactly once, when the
  // token's mutations are durable (or doomed). Stores with a commit
  // pipeline park the callback on their flusher so the caller's thread —
  // typically a reactor draining its shard mailbox — is never blocked; the
  // callback may therefore run on the flusher thread. The default adapts
  // the blocking wait for stores without a pipeline, where WaitDurable
  // returns immediately anyway.
  virtual void NotifyDurable(std::uint64_t token,
                             std::function<void(Status)> done) {
    done(WaitDurable(token));
  }

  // Fills `out` with durability counters/histograms; returns false when the
  // store records none (callers skip it when aggregating).
  virtual bool durability_metrics(StoreDurabilityMetrics* out) const {
    (void)out;
    return false;
  }
};

}  // namespace zht
