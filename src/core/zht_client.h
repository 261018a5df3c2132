// ZhtClient: the four-call API of the paper (§III.A):
//
//   int    insert(key, value);
//   value  lookup(key);
//   int    remove(key);
//   int    append(key, value);
//
// plus ping, the broadcast primitive, and the batched Multi* variants.
// The client owns a full membership table (zero-hop routing), refreshes it
// lazily from REDIRECT responses, retries with exponential back-off on
// timeouts, fails over along the replica chain, and reports dead nodes to
// a manager when one is configured (§III.C "Node departures").
//
// Every data call runs through one retry engine (ExecuteBatch): a
// single-key call is a one-key batch, and the transport sends a one-request
// batch as one plain request, so the wire carries the paper's message.
// The Multi* calls only amortise the wire cost of the same four calls.
//
// ## Status contract
//
// Every public call resolves to exactly one of these codes:
//
//   kOk              the operation applied (or the key was found).
//   kNotFound        Lookup/Remove of an absent key. Never a failure of
//                    the transport — the owning server answered.
//   kInvalidArgument the request is malformed (e.g. unknown instance id).
//   kTimeout         servers were reachable but no attempt completed
//                    within the per-op budget (includes a partition stuck
//                    in kMigrating past max_attempts).
//   kUnavailable     a transport-level failure: no alive replica for the
//                    key, or every candidate connection failed outright.
//                    Distinguished from kTimeout so callers can tell "slow
//                    cluster" from "dead cluster".
//
// kRedirect and kMigrating NEVER escape this API: redirects are followed
// (applying the piggybacked membership delta) and migrating partitions are
// retried with back-off, both within the same logical operation.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/cluster_options.h"
#include "core/failure_detector.h"
#include "membership/membership_table.h"
#include "net/transport.h"

namespace zht {

struct ZhtClientOptions {
  ClusterOptions cluster;          // must match the servers' setting
  // Retry budget per logical op. Three independent pools of this size:
  // hard attempts (transport failures, failovers, redirects), kMigrating
  // retries, and admission-control shed retries — so a migration stall
  // overlapping a shed burst (routine under churn) cannot spuriously
  // exhaust the op. Each pool alone still bounds the op.
  int max_attempts = 8;
  // Retry backoff for kMigrating: the first retry sleeps migrating_backoff,
  // then grows with decorrelated jitter up to migrating_backoff_cap (so a
  // herd of clients stuck behind one migration desynchronizes). With
  // sleep_on_backoff=false the schedule stays a deterministic fixed base
  // for simulated-time tests.
  Nanos migrating_backoff = 1 * kNanosPerMilli;
  Nanos migrating_backoff_cap = 64 * kNanosPerMilli;
  FailureDetectorOptions failure_detector;
  std::optional<NodeAddress> manager;  // failure-report destination
  bool sleep_on_backoff = true;    // disable in simulated-time tests
  std::uint64_t client_id = 0;     // 0 = pick a random identity; paired
                                   // with seq it makes append at-most-once
                                   // under retransmission
};

// Decorrelated-jitter backoff (exponential in expectation, uncorrelated
// across clients): returns `base` on the first retry (prev < base), then a
// uniform draw from [base, min(cap, prev * 3)]. Pure in (prev, base, cap,
// rng state) so the growth schedule is unit-testable.
Nanos DecorrelatedBackoff(Nanos prev, Nanos base, Nanos cap, Rng& rng);

// One key/value pair for the batched mutation calls.
struct KeyValue {
  std::string key;
  std::string value;
};

// A by-value view of the registry counters `client.<field>`.
struct ZhtClientStats {
  std::uint64_t ops = 0;
  std::uint64_t redirects_followed = 0;
  std::uint64_t failovers = 0;   // attempts moved down the replica chain
  std::uint64_t retries = 0;
  std::uint64_t nodes_reported_dead = 0;
  std::uint64_t shed_backoffs = 0;  // kUnavailable + retry-after honored
  // Explicit kMembershipPull snapshot fetches (redirect fallback +
  // RefreshMembership). Coalesced: at most one pull per membership epoch,
  // so a redirect storm during churn cannot thundering-herd the cluster
  // with full-table fetches.
  std::uint64_t membership_pulls = 0;
};

class ZhtClient {
 public:
  ZhtClient(MembershipTable table, const ZhtClientOptions& options,
            ClientTransport* transport);

  // The paper's API. Insert overwrites; Remove of a missing key returns
  // kNotFound; Append creates the key when absent.
  Status Insert(std::string_view key, std::string_view value);
  Result<std::string> Lookup(std::string_view key);
  Status Remove(std::string_view key);
  Status Append(std::string_view key, std::string_view value);

  // Batched variants: keys are sharded by owning instance (zero-hop, from
  // the local membership table), one pipelined BATCH call goes to each
  // owner, and the per-key outcomes are spliced back into input order.
  // Each element obeys the status contract above — a redirected or
  // migrating sub-operation is retried within the call, and one slow shard
  // cannot fail the others. Results are positional: result[i] is the
  // outcome for input i.
  std::vector<Status> MultiInsert(std::span<const KeyValue> pairs);
  std::vector<Result<std::string>> MultiLookup(
      std::span<const std::string> keys);
  std::vector<Status> MultiRemove(std::span<const std::string> keys);

  // Liveness probe of a specific instance.
  Status Ping(InstanceId instance);

  // Broadcast primitive (§VI): delivers the pair to every instance via a
  // spanning tree over the alive instances, rooted at the first of them.
  Status Broadcast(std::string_view key, std::string_view value);

  // Pulls a fresh membership table from the given instance, or else from
  // the first alive instance (in id order) that answers.
  Status RefreshMembership(std::optional<InstanceId> from = std::nullopt);

  MembershipTable& table() { return table_; }
  const MembershipTable& table() const { return table_; }
  ZhtClientStats stats() const;
  // End-to-end per-op latency histograms (client.op.<name>.latency_ns,
  // covering redirects/retries/failovers within one logical op) plus the
  // only store of the counters stats() reads.
  const MetricsRegistry& metrics() const { return metrics_; }
  // Observability for the detector's bounded-state guarantee: how many
  // destinations it currently tracks (pruned on membership updates).
  std::size_t detector_tracked_count() const {
    return detector_.tracked_count();
  }

 private:
  // A single-key call: a one-key batch through ExecuteBatch, recorded in
  // client.op.<name>.latency_ns.
  Result<Response> Execute(OpCode op, std::string_view key,
                           std::string_view value);
  // A Multi* call through ExecuteBatch, recorded in
  // client.op.batch.latency_ns and client.batch.size.
  std::vector<Result<Response>> ExecuteMulti(
      OpCode op, std::span<const std::string_view> keys,
      std::span<const std::string_view> values);
  // The one retry engine: shards the keys by owner, sends one CallBatch per
  // owner and round, follows redirects, retries migrating and shed keys,
  // and fails keys over along the replica chain. Writes each key's final
  // outcome to the same position of `results`. `values` is empty or
  // parallel to `keys`.
  void ExecuteBatch(OpCode op, std::span<const std::string_view> keys,
                    std::span<const std::string_view> values,
                    std::span<Result<Response>> results);
  void ReportFailure(InstanceId instance);
  void Backoff(Nanos duration);
  // Applies a membership update; evicts failure-detector state for
  // addresses that left the table AND for instances that transitioned to
  // alive (a rejoined node must not inherit backoff/failure counts from
  // its previous life).
  Status ApplyMembership(std::string_view update);
  // Snapshot pull from `from`, rate-limited to one per membership epoch:
  // skipped when a pull already covered `observed_epoch` (the epoch the
  // redirecting server reported; 0 = unknown, always pull) or when a pull
  // is already underway for this logical call (batch sub-ops coalesce).
  void MaybePullMembership(const NodeAddress& from,
                           std::uint32_t observed_epoch);

  MembershipTable table_;
  ZhtClientOptions options_;
  ClientTransport* transport_;
  FailureDetector detector_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t client_id_ = 0;
  Rng backoff_rng_;  // jitter source, seeded from client_id_
  std::uint32_t last_pull_epoch_ = 0;  // highest epoch a pull has covered
  bool pull_inflight_ = false;         // coalesces pulls within one call

  // Hot-path metric handles resolved at construction (see
  // common/metrics.h); op_hist_[op-1] covers kInsert..kAppend.
  MetricsRegistry metrics_;
  Histogram* op_hist_[4] = {};
  Histogram* batch_hist_ = nullptr;       // one Multi* call end to end
  Histogram* batch_size_hist_ = nullptr;  // keys per Multi* call
  // One counter per ZhtClientStats field, named after it.
  struct EventCounters {
    Counter* ops = nullptr;
    Counter* redirects_followed = nullptr;
    Counter* failovers = nullptr;
    Counter* retries = nullptr;
    Counter* nodes_reported_dead = nullptr;
    Counter* shed_backoffs = nullptr;
    Counter* membership_pulls = nullptr;
  };
  EventCounters counters_;
};

}  // namespace zht
