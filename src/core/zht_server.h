// ZhtServer: one ZHT instance (§III.B). Owns the partition stores for the
// partitions it serves (as primary or replica), validates ownership against
// its membership table (answering REDIRECT with a piggybacked table for the
// lazy client update), applies operations, and drives replication:
// synchronous to the secondary, asynchronous to further replicas (§III.J).
//
// The request API is asynchronous and ownership-routed (DESIGN.md §9):
// HandleAsync(Request&&, ResponseCallback) routes each request to the shard
// that owns its partition and completes via callback. A shard owns a
// disjoint set of partitions end-to-end — one record per partition (its
// store, migration and transfer marks, landing store and rebuild in
// flight), a membership-table copy and an append-dedup window — and only
// ever executes on one thread at a time, so the single-key hot path
// acquires ZERO mutexes: ingress computes the partition from an immutable
// PartitionSpace copy and posts a task into the shard's mailbox, and the
// op finds its partition's record once.
//
// Shard mailboxes: one lock-free MPSC queue per shard, drained by
// whichever thread posts — a reactor, a finisher, a log flusher or a test.
// A CAS on the shard's `active` flag elects one drainer at a time; a post
// that finds the shard mid-drain returns at once and leaves its task to
// that drainer (a hand-off: `reactor.forwards` counts these). A multi-
// reactor front end keeps hand-offs rare by re-homing each connection to
// reactor `PreferredShard(first request) % num_reactors`
// (LocalCluster::WireReactors).
//
// Every data request is one scatter/gather with completion counting, and a
// single-key request is a group of one: ingress answers what needs no
// shard (a client lookup the hot-key cache holds, a shard group over its
// admission budget, a non-data BATCH sub-op), then posts one group per
// owning shard. Each group applies its ops in one drain. Whichever
// finishes last — a group, a touched store's durability callback, or the
// sync-leg job the last group to apply starts — answers: the lone response
// or the packed carrier. A group with nothing to wait for acks inside its
// drain. A membership push applies on shard 0 (the epoch authority), then
// fans the payload to every other shard before acking. Durability acks
// park on the log's flusher via KVStore::NotifyDurable — no thread blocks
// in the server for a group commit. A replicated write's synchronous leg
// starts when its group applies, beside its group commit. Peer I/O runs on
// one thread pool, never in a shard drain: sync legs and digest probes as
// jobs, background legs and partition transfers on the ordered lane, which
// is queued only from shard drains and holds a transfer's Begin until the
// jobs queued before it are done (DESIGN.md §7 "Partition transfer").
//
// Blocking adapters (Handle, MigratePartitionTo, RepairPartition,
// TotalEntries, MetricsSnapshotNow; all built on Await in common/await.h)
// exist for tests, tools, and managers. Never call them from inside a
// shard task or a callback a drain runs: that thread holds a shard's drain,
// and the work they wait on may be queued behind it.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"
#include "core/cluster_options.h"
#include "core/hot_key_cache.h"
#include "hashing/partition_space.h"
#include "membership/membership_table.h"
#include "net/transport.h"
#include "novoht/kv_store.h"

namespace zht {

// Builds the store for one partition held by one instance. The instance id
// is part of the identity: with replication (or after a migration) several
// instances hold stores for the same partition, and persistent factories
// must give each its own path or they would share one file.
using StoreFactory = std::function<std::unique_ptr<KVStore>(
    InstanceId self, PartitionId partition)>;

// Persistent NoVoHT partition stores: one group-committed log per instance
// at `dir/i<self>.log`, shared by all of that instance's partition stores
// (one fd, one flusher thread, one commit horizon), and one checkpoint per
// (instance, partition) at `dir/i<self>_p<partition>.novoht`, a standalone
// NoVoHT log of the partition's pairs (DESIGN.md §10). Durability comes
// from `cluster`. An instance's log stays open while any of its partition
// stores does; the last one's close checkpoints every partition and
// truncates the log, and a store the factory opens meanwhile waits for
// that close. One factory per `dir`: a second one would open a second
// writer on the same logs. The stores defer the group-commit wait
// (wait_for_durable = false): ZhtServer acks each request — or each BATCH
// carrier — exactly once, after its mutations are durable: from the
// flusher's NotifyDurable callback, or from the sync-leg job if that
// finishes last.
StoreFactory MakeNoVoHTStoreFactory(std::string dir,
                                    const ClusterOptions& cluster);

struct ZhtServerOptions {
  InstanceId self = 0;
  ClusterOptions cluster;        // deployment-wide: replicas + timeouts
  // Factory for partition stores. Defaults to in-memory NoVoHT.
  StoreFactory store_factory;
  // Partition-ownership shards. 0 = auto (min(4, hardware_concurrency)).
  // A multi-reactor front-end passes its reactor count so shards and
  // reactors pair 1:1: connections whose first key lives on shard s are
  // re-homed to reactor s % num_reactors, which then drains shard s.
  std::size_t num_shards = 0;
};

// A by-value view: stats() fills each field from its registry counter, the
// event's only count (STATS shows it under its `server.*` name).
struct ZhtServerStats {
  std::uint64_t ops = 0;              // data operations served
  std::uint64_t redirects = 0;        // wrong-owner requests answered
  std::uint64_t replications_sync = 0;
  std::uint64_t replications_async = 0;
  // Synchronous legs whose call failed; the op still acks with the copies
  // that landed (DESIGN.md §10, "Ack discipline in the server").
  std::uint64_t replications_sync_failed = 0;
  std::uint64_t migrations_out = 0;
  std::uint64_t migrations_in = 0;
  // Pair/byte volume of completed outbound partition migrations (key+value
  // payload, pre-framing) — the churn bench's bytes-moved-per-event source.
  std::uint64_t migration_pairs_streamed = 0;
  std::uint64_t migration_bytes_streamed = 0;
  std::uint64_t broadcasts = 0;
  std::uint64_t duplicate_appends_dropped = 0;
  // Anti-entropy / rebuild (source side). A "probe" is one kDigest RPC; a
  // clean probe moves no pair data. A rebuild leg is one (partition,
  // target) checkpoint stream; retries re-stream after a digest mismatch.
  std::uint64_t antientropy_probes = 0;
  std::uint64_t antientropy_clean = 0;
  std::uint64_t rebuilds_started = 0;
  std::uint64_t rebuilds_completed = 0;
  std::uint64_t rebuild_pairs_streamed = 0;
  std::uint64_t rebuild_retries = 0;
  // Hot-key read cache + admission control (DESIGN.md §13).
  std::uint64_t hot_cache_hits = 0;          // lookups served from cache
  std::uint64_t hot_cache_misses = 0;        // cache-eligible lookup misses
  std::uint64_t hot_cache_invalidations = 0; // mutations that evicted a key
  std::uint64_t hot_cache_drops = 0;         // entries dropped by partition/
                                             // membership events
  std::uint64_t sheds = 0;                   // data ops shed kUnavailable
};

class ZhtServer {
 public:
  // Admission control counts each queued data op as one mailbox slot OR
  // this many in-flight payload bytes, whichever is larger — so a budget
  // of N slots also caps queued bytes at N * 128 KiB (a burst of 1 MB
  // values hits the byte ceiling long before the slot ceiling).
  static constexpr std::size_t kShedBytesPerSlot = 128 * 1024;

  ZhtServer(MembershipTable table, const ZhtServerOptions& options,
            ClientTransport* peer_transport);
  ~ZhtServer();

  ZhtServer(const ZhtServer&) = delete;
  ZhtServer& operator=(const ZhtServer&) = delete;

  // The transport-facing entry point: routes to the owning shard and
  // invokes `done` exactly once — inline for redirects/rejections and the
  // no-durability hot path (on another thread when the shard was mid-drain
  // there), from a flusher or finisher thread otherwise.
  // Safe to call from any thread, including reactor threads.
  void HandleAsync(Request&& request, ResponseCallback done);
  AsyncRequestHandler AsyncHandler() {
    return [this](Request&& request, ResponseCallback done) {
      HandleAsync(std::move(request), std::move(done));
    };
  }
  // Thin blocking adapter over HandleAsync for tests and simple callers.
  Response Handle(Request&& request);

  // Anti-entropy + online rebuild: digest-probes every member of
  // `partition`'s replica chain and streams a fresh checkpoint (the
  // partition transfer, kTransferBegin/Data/End) to each member whose
  // digest mismatches — clean members exchange only digests. `done` fires
  // once, after every leg completed or was abandoned (bounded re-stream
  // retries on digest mismatch). A call mid-rebuild joins it: the round
  // re-plans from the chain as it is when it ends, and `done` fires after.
  // No-op unless this instance owns the partition. Safe from any thread;
  // the manager's kRepair handler acks before the rebuild finishes.
  void StartRebuild(PartitionId partition, std::function<void(Status)> done);
  // Blocking adapter over StartRebuild (tests/tools): returns when the
  // replication level is actually restored.
  Status RepairPartition(PartitionId partition);

  // Blocking introspection for tests/benches: the digest ({0, 0} when the
  // partition is not held) and a snapshot of the pairs this instance holds
  // for `partition`. Not for reactor threads.
  PartitionDigest PartitionDigestOf(PartitionId partition);
  std::vector<std::pair<std::string, std::string>> PartitionPairs(
      PartitionId partition);

  // Pushes `partition` to `target` (the partition transfer, verified by
  // the target's End digest check) and relinquishes it. The caller
  // (manager) updates and broadcasts membership afterwards.
  Status MigratePartitionTo(PartitionId partition, const NodeAddress& target);

  // Unsynchronized view of shard 0's table for single-threaded tests/admin
  // introspection; do not call concurrently with membership pushes.
  const MembershipTable& table() const { return shards_.front()->table; }
  InstanceId self() const { return options_.self; }
  ZhtServerStats stats() const;

  // --- shard topology (read by the hosting front-end) ---

  std::size_t num_shards() const { return shards_.size(); }
  // The shard that owns `request`'s key (-1 for control ops). The
  // front end's connection placement maps it to a reactor, so a
  // well-sharded client's requests arrive where their shard is drained.
  int PreferredShard(const Request& request) const;

  // --- per-shard telemetry (bench/tooling) ---

  // Posts into `shard` that found it mid-drain and left their task to that
  // drainer ("forwarded ops", hand-offs).
  std::uint64_t ShardForwardedOps(std::size_t shard) const;
  // Mailbox depth observed at each drain of `shard`.
  HistogramData ShardMailboxDepth(std::size_t shard) const;
  // Instantaneous mailbox depth / live hot-cache entry count (tests/bench:
  // overload and invalidation assertions). Any thread; approximate.
  std::uint64_t ShardQueuedNow(std::size_t shard) const;
  std::uint64_t HotCacheEntriesNow() const;
  // Partition-store count per shard ("owned partitions"). Blocking scatter.
  std::vector<std::size_t> ShardPartitionCounts() const;

  // Structured observability (§8 of DESIGN.md): every event counter,
  // per-opcode service-time histograms, batch sizes, replication fan-out.
  // Recording is lock-free; the registry mutex is touched only here and at
  // construction.
  const MetricsRegistry& metrics() const { return metrics_; }
  // The full STATS payload, one name per event: instance-level gauges, the
  // durability census and the shards' forwards and mailbox depths, then the
  // registry. Blocking (census scatter); not for reactor threads.
  MetricsSnapshot MetricsSnapshotNow() const;

  // Total pairs held (all partitions, primary and replica). Blocking.
  std::uint64_t TotalEntries() const;

  // Waits until the peer-I/O pool and its lane are idle (tests/benches).
  void FlushAsyncReplication();

 private:
  struct Shard;
  // A unit of shard work. Runs with exclusive ownership of the shard's
  // state; must not block on I/O, locks held elsewhere, or other shards.
  using ShardTask = std::function<void(Shard&)>;

  // Intrusive MPSC queue (Vyukov): wait-free multi-producer push; the
  // single consumer is whichever thread holds the shard's drain ownership.
  // Pop can transiently observe an empty queue while a producer is between
  // the exchange and the next-pointer store; drain loops reconcile against
  // the shard's `queued` counter.
  class MpscTaskQueue {
   public:
    MpscTaskQueue() {
      Node* stub = new Node();
      head_.store(stub, std::memory_order_relaxed);
      tail_ = stub;
    }
    ~MpscTaskQueue() {
      Node* node = tail_;
      while (node) {
        Node* next = node->next.load(std::memory_order_relaxed);
        delete node;
        node = next;
      }
    }
    void Push(ShardTask&& task) {
      Node* node = new Node();
      node->task = std::move(task);
      Node* prev = head_.exchange(node, std::memory_order_acq_rel);
      prev->next.store(node, std::memory_order_release);
    }
    bool Pop(ShardTask* out) {
      Node* tail = tail_;
      Node* next = tail->next.load(std::memory_order_acquire);
      if (!next) return false;
      *out = std::move(next->task);
      next->task = nullptr;
      tail_ = next;
      delete tail;
      return true;
    }

   private:
    struct Node {
      ShardTask task;
      std::atomic<Node*> next{nullptr};
    };
    alignas(64) std::atomic<Node*> head_;  // producers
    alignas(64) Node* tail_;               // consumer
  };

  // One (partition, chain member) leg of an in-flight rebuild.
  struct RebuildTarget {
    InstanceId id = 0;
    NodeAddress address;
    std::uint8_t replica_index = 0;
    int attempts = 0;  // streams issued so far (retries on mismatch)
  };

  // Source-side state of one anti-entropy round: the owner probed the
  // chain and is streaming to the targets that mismatched. While a target
  // is listed here, synchronous replication legs to it divert onto the
  // lane so post-snapshot writes land after the stream's End (the lane is
  // FIFO — that ordering IS the catch-up replay). A repair arriving
  // mid-round sets `again`: the round re-plans from the chain as it is
  // then, and every queued `done` hears the last round's result.
  struct RebuildOut {
    std::vector<RebuildTarget> targets;
    std::vector<std::function<void(Status)>> done;
    Status aggregate;  // the round's first abandoned leg, reported to done
    bool again = false;
  };

  // One partition's lifecycle on this instance (§III.C, §III.H), one field
  // per independent fact: a handed-off partition can receive a rebuild
  // stream, so both sides' marks may be set at once.
  struct Partition {
    std::unique_ptr<KVStore> store;  // the canonical copy; null: not held
    // Source side: locked mid-migration (data ops answer kMigrating), and
    // still locked after the stream (`handed_off`) until the table names
    // the new owner: serving meanwhile would read an erased store and ack
    // writes the recipient never sees. `had_data`: a former owner left in
    // the chain then refuses failover reads until a repair streams it back.
    bool migrating = false;
    bool handed_off = false;
    bool had_data = false;
    // Destination side: between kTransferBegin and kTransferEnd (or after
    // a hand-off, see ReleaseHandoff) data ops answer kMigrating, so End's
    // digest check sees exactly the streamed pairs. The stream lands in
    // `landing`; only a verified End copies it into `store`, so a source
    // dying mid-stream never costs this instance its existing copy.
    bool rebuilding = false;
    std::unique_ptr<KVStore> landing;
    std::unique_ptr<RebuildOut> rebuild;  // owner side: a round in flight
  };

  // One partition-ownership shard: shard s owns every partition p with
  // p % num_shards() == s. All non-mailbox members are touched only inside
  // the shard's drain (single-threaded by construction), so none of this
  // state is locked.
  struct alignas(64) Shard {
    std::size_t index = 0;

    // --- shard-owned state (drain-exclusive, no locks) ---
    MembershipTable table;  // private copy; updated by membership scatter
    // One record per partition of this shard, p at [p / stride], made at
    // construction (the partition count is fixed forever). Dense: a data
    // op's lookup never allocates, and a push's pass scans contiguously.
    std::vector<Partition> partitions;
    std::size_t stride = 1;  // num_shards()
    std::deque<std::uint64_t> dedup_ring;  // at-most-once append window
    std::unordered_set<std::uint64_t> dedup_set;
    // Hot-key read cache. Fills/invalidations/drops are drain-exclusive
    // (single writer); ingress threads only probe (TryGet), which is why
    // it may be read outside the drain — see hot_key_cache.h.
    HotKeyCache hot_cache;

    // Admission control: payload bytes of data ops queued but not yet
    // executed (charged at ingress, discharged when the op runs).
    std::atomic<std::uint64_t> inflight_bytes{0};

    // --- mailbox ---
    MpscTaskQueue mailbox;
    std::atomic<std::uint64_t> queued{0};
    std::atomic<bool> active{false};  // drain exclusivity (CAS)

    // --- telemetry (the only record; snapshots sum it across shards) ---
    std::atomic<std::uint64_t> forwarded{0};  // posts handed to a drainer
    Histogram mailbox_depth;                  // depth seen at each drain

    Shard(MembershipTable t, std::size_t cache_entries)
        : table(std::move(t)), hot_cache(cache_entries) {}

    // In the table: HandleAsync refuses a message naming one past it.
    Partition& Record(PartitionId partition) {
      return partitions[partition / stride];
    }
  };

  // Routing decision for one data op, computed against the shard's table:
  // target partition, replica chain, epoch, and — when this instance is
  // the wrong owner — the ready-made REDIRECT response.
  struct DataRoute {
    PartitionId partition = 0;
    std::uint32_t epoch = 0;
    std::vector<InstanceId> chain;
    std::optional<Response> redirect;
  };

  struct ReplicaLeg {  // a chain member, its address and its chain depth
    InstanceId id = 0;
    NodeAddress address;
    std::uint8_t replica_index = 0;
  };
  using LegGroups =  // per target: its address and one leg request per op
      std::unordered_map<InstanceId,
                         std::pair<NodeAddress, std::vector<Request>>>;

  // DataOp::shard of an op answered at ingress, which no shard group runs.
  static constexpr std::uint32_t kAnswered = ~std::uint32_t{0};

  // One data op of a request (a single-key request holds one, a BATCH
  // carrier one per sub-op) and what became of it. Ingress sets the
  // request, partition and shard, which stay fixed from then on; the shard
  // group that applies the op writes the rest.
  struct DataOp {
    Request request;
    Response resp;
    PartitionId partition = 0;
    std::uint32_t shard = kAnswered;  // the owning shard's index
    // The ack waits for the store's durability: an applied mutation, or a
    // retransmitted append whose original may still be in its group commit.
    bool durable_wait = false;
    // The store to wait for (null: none, or nothing to wait for), set by
    // the group's drain and valid until that drain returns.
    KVStore* store = nullptr;
    // Sync legs an applied client mutation owes its replica chain, sent by
    // one pool job before the ack.
    std::vector<ReplicaLeg> sync_legs;
  };

  // Scatter/gather state of one data request: one group per owning shard
  // applies its ops. Counted down by each group as it finishes, by each
  // touched store's durability callback and by the sync-leg job, which the
  // last group to apply starts; the last count finalizes the request.
  struct DataGather {
    std::uint64_t seq = 0;
    std::uint64_t ticket = 0;  // the sync-leg job's, reserved at ingress
    std::uint32_t epoch = 0;
    Nanos start = 0;
    bool batch = false;       // answer with a packed carrier
    DataOp single;            // a single-key request's op
    std::vector<DataOp> sub_ops;  // a BATCH carrier's, in carrier order
    std::span<DataOp> ops;    // whichever of the two the request uses
    std::atomic<bool> delta_sent{false};  // one membership delta per request
    std::atomic<std::size_t> applying{0};  // shard groups still applying
    std::atomic<std::size_t> remaining{0};
    ResponseCallback done;
  };

  // Gather state for a membership push fanned out to every shard.
  struct PushGather {
    std::uint64_t seq = 0;
    std::uint32_t epoch = 0;
    Status status;
    std::atomic<std::size_t> remaining{0};
    ResponseCallback done;
  };

  // Per-shard census slice for stats/metrics scatter.
  struct ShardCensus {
    std::uint64_t entries = 0;
    std::size_t held = 0;
    // One entry per log: stores sharing a log (same log_id) add it once.
    std::vector<StoreDurabilityMetrics> logs;
  };

  Shard& ShardForPartition(PartitionId partition) const {
    return *shards_[partition % shards_.size()];
  }

  // --- mailbox machinery ---
  // Enqueues `task` and drains the shard on the calling thread, unless
  // another call is draining it already (then that drainer runs the task).
  void Post(Shard& shard, ShardTask task);
  // Runs the shard's queued tasks on this thread until the mailbox is empty
  // or another call holds the drain (which then covers what is left).
  // Returns how many tasks ran here.
  std::size_t Drain(Shard& shard);
  std::size_t DrainAll(Shard& shard);

  // --- data ops: one path for single-key requests and BATCH carriers ---
  // Ingress, any thread: answers what needs no shard (a non-data sub-op, a
  // client lookup the hot-key cache holds, a shard group over its
  // admission budget), takes the sync-leg ticket of a client write, and
  // posts one group per owning shard.
  void StartDataOps(Request&& request, ResponseCallback done);
  // In-shard: applies the group's ops, queues their lane legs, and counts
  // the gather down once per touched store's durability.
  void ExecDataGroup(Shard& shard, const std::shared_ptr<DataGather>& gather);
  // The last group to apply starts the request's sync legs.
  void DataGroupApplied(const std::shared_ptr<DataGather>& gather);
  void CompleteDataOps(const std::shared_ptr<DataGather>& gather);
  // Answers the request: the lone response, or the packed carrier.
  void FinalizeDataOps(DataGather& gather);
  // The one in-shard step of every data op: routing and the redirect, the
  // migrating/rebuilding guard, append dedup, the store call, cache upkeep
  // and the replica legs. `delta_gate` is the request's one-delta claim.
  // Lane legs go into `lane`, for the caller to queue in this drain.
  void ApplyDataOp(Shard& shard, DataOp& op, std::atomic<bool>& delta_gate,
                   LegGroups* lane);
  DataRoute RouteDataOp(Shard& shard, const Request& request,
                        std::atomic<bool>& delta_gate);
  Response RedirectTo(const Shard& shard, InstanceId owner, std::uint64_t seq,
                      std::uint32_t requester_epoch, bool include_membership);
  bool IsDuplicateAppend(Shard& shard, const Request& request);
  // The record's canonical store, opened on demand (null if the factory
  // fails; the next call tries again).
  KVStore* StoreIn(Partition& record, PartitionId partition);
  // The legs an applied client mutation owes its replica chain (rotated to
  // lead with this instance for a failover write): returns the sync ones
  // and adds the rest — legs past the secondary and to members of
  // `rebuild`'s round — to `lane`.
  std::vector<ReplicaLeg> PlanReplicaLegs(const Shard& shard,
                                          const Request& request,
                                          const DataRoute& route,
                                          const RebuildOut* rebuild,
                                          LegGroups* lane) const;

  void StartMembershipPush(Request&& request, ResponseCallback done);
  // In-shard, on every shard per push: applies it, then one pass over the
  // records drops the transfer mark and landing store of a partition this
  // instance now owns (the stream is moot; the canonical store is the copy
  // promotion elected) and releases a handed-off partition whose new owner
  // the table names (ReleaseHandoff).
  Status ApplyMembershipPush(Shard& shard, const std::string& payload);
  void ExecBroadcast(Shard& shard, Request&& request, ResponseCallback done);
  // --- partition transfer, rebuild / anti-entropy ---
  // Destination handlers (in-shard), shared by migration and rebuild.
  void ExecDigest(Shard& shard, Request&& request, ResponseCallback done);
  void ExecTransferBegin(Shard& shard, Request&& request,
                         ResponseCallback done);
  void ExecTransferData(Shard& shard, Request&& request,
                        ResponseCallback done);
  void ExecTransferEnd(Shard& shard, Request&& request, ResponseCallback done);
  // Size of one transfer's snapshot: pairs and key + value payload bytes.
  struct TransferSize {
    std::uint64_t pairs = 0;
    std::uint64_t bytes = 0;
  };
  using TransferDone = std::function<void(Status, TransferSize)>;
  // In-shard: snapshot and digest `partition`, then queue the whole
  // Begin/Data*/End conversation to `target` on the lane.
  // `replica_index` is the target's chain depth (0: it becomes the owner).
  // `on_end` runs on the lane with End's result, or with Begin's failure,
  // which cancels the rest of the stream.
  void StreamTransfer(Shard& shard, PartitionId partition,
                      const NodeAddress& target, std::uint8_t replica_index,
                      TransferDone on_end);
  // Finisher-thread body: one kDigest call per target; posts the stale
  // subset back into the shard.
  void ProbeRebuildTargets(PartitionId partition, PartitionDigest mine,
                           std::vector<RebuildTarget> targets);
  // In-shard: plans a round of `record.rebuild` from the chain as the
  // table has it now and starts its probes, or finishes it.
  void PlanRebuild(Shard& shard, PartitionId partition, Partition& record);
  // In-shard: the round is over; re-plans if a repair arrived meanwhile,
  // otherwise reports to every queued done.
  void FinishRebuild(Shard& shard, PartitionId partition, Partition& record);
  // In-shard: drop clean targets, stream to the stale ones (or finish).
  void BeginRebuildStreams(Shard& shard, PartitionId partition,
                           std::vector<InstanceId> stale);
  // In-shard: StreamTransfer to one rebuild target; End's result posts
  // FinishRebuildLeg.
  void StreamRebuildTarget(Shard& shard, PartitionId partition,
                           RebuildTarget& target);
  void FinishRebuildLeg(Shard& shard, PartitionId partition, InstanceId id,
                        Status status);
  // Marks `partition` migrating in its shard, then StreamTransfer()s it to
  // `target`; End's result posts FinishMigrateOut back to the shard.
  void StartMigrateOut(PartitionId partition, const NodeAddress& target,
                       std::function<void(Status)> done);
  void FinishMigrateOut(PartitionId partition, Status status,
                        std::function<void(Status)> done);
  // Drops the source-side migration lock once the new owner is in the
  // table. A former owner that stays in the partition's replica chain and
  // handed data off re-enters service via the rebuilding mark instead: its
  // store was erased by the handoff, so it must refuse failover reads until
  // the repair stream delivers a fresh copy.
  void ReleaseHandoff(Shard& shard, PartitionId partition, Partition& record);

  // Scatters a census task across every shard; `done` runs on the shard
  // that finishes last (or inline when a shard chain completes inline).
  void ScatterCensus(
      std::function<void(std::vector<ShardCensus>)> done) const;
  MetricsSnapshot BuildSnapshot(const std::vector<ShardCensus>& census) const;
  std::vector<ShardCensus> CensusNow() const;  // blocking ScatterCensus

  // --- replication and the peer-I/O pool ---
  static void AddLeg(const Request& op, PartitionId partition,
                     const ReplicaLeg& target, LegGroups* groups);
  // Pool job: sends the ops' sync legs, one CallBatch per target.
  void SendReplicaLegs(std::span<const DataOp> ops);
  // In-shard: one lane message per target (the leg, or a BATCH carrier).
  void QueueLaneLegs(LegGroups& groups);
  // Queues `request` on the lane; in-shard only, so the lane keeps the
  // shards' order. `on_result` (may be null) runs on the lane with the
  // peer's result.
  void EnqueueAsyncLeg(
      Request request, const NodeAddress& target,
      std::function<void(const Result<Response>&)> on_result = nullptr,
      std::shared_ptr<Status> stream = nullptr);
  void RunLane();  // the lane's pool job: runs it until it is empty

  // Queues a pool job under a ticket from ReserveTicket, or a fresh one
  // (0), and times its queue wait (`server.stage.finisher_wait_ns`).
  void EnqueueFinisher(std::function<void()> job, std::uint64_t ticket = 0);
  std::uint64_t ReserveTicket();
  void ReleaseTicket(std::uint64_t ticket);  // 0: none
  void FinisherLoop();

  void RecordDataOpLatency(OpCode op, Nanos start);
  void OnRequestComplete();

  // --- hot-key cache + admission control (DESIGN.md §13) ---
  // Ingress probe for a client lookup: on a hit, fills `resp` from the
  // owning shard's cache and counts the op. Safe from any thread; the
  // cache is safe for concurrent readers.
  bool CacheHit(Shard& shard, const Request& request, Response* resp);
  // Admission decision for one shard group: 0 = admit; otherwise the
  // retry-after hint (µs) to return with kUnavailable.
  std::uint32_t AdmissionRetryHint(Shard& shard) const;
  // In-shard, synchronous with the mutation that triggers them:
  void CacheFill(Shard& shard, PartitionId partition, std::string_view key,
                 std::string_view value);
  void CacheInvalidate(Shard& shard, std::string_view key);
  void CacheDropPartition(Shard& shard, PartitionId partition);
  void CacheClear(Shard& shard);

  ZhtServerOptions options_;
  ClientTransport* peer_transport_;

  // Ingress routing state: an immutable copy of the partition space (key →
  // partition needs no ownership data) plus the latest epoch. The hot-path
  // ingress reads only these — no lock, no shared table.
  PartitionSpace space_;
  std::atomic<std::uint32_t> epoch_;

  // The only counter store, plus hot-path handles resolved at construction,
  // so the request path records through raw pointers (atomic ops, no lock,
  // no lookup). data_op_hist_[op-1] covers kInsert..kAppend.
  MetricsRegistry metrics_;
  Histogram* data_op_hist_[4] = {};
  Histogram* batch_hist_ = nullptr;       // whole-batch service time
  Histogram* batch_size_hist_ = nullptr;  // sub-ops per BATCH envelope
  Histogram* replication_fanout_hist_ = nullptr;  // replicas per mutation
  Histogram* finisher_wait_hist_ = nullptr;  // finisher job enqueue → start
  // One registry counter per event, named after the ZhtServerStats field
  // it fills; the constructor gives each its `server.*` registry name.
  struct EventCounters {
    Counter* ops = nullptr;
    Counter* redirects = nullptr;
    Counter* replications_sync = nullptr;
    Counter* replications_async = nullptr;
    Counter* replications_sync_failed = nullptr;
    Counter* migrations_out = nullptr;
    Counter* migrations_in = nullptr;
    Counter* migration_pairs_streamed = nullptr;
    Counter* migration_bytes_streamed = nullptr;
    Counter* broadcasts = nullptr;
    Counter* duplicate_appends_dropped = nullptr;
    Counter* antientropy_probes = nullptr;
    Counter* antientropy_clean = nullptr;
    Counter* rebuilds_started = nullptr;
    Counter* rebuilds_completed = nullptr;
    Counter* rebuild_pairs_streamed = nullptr;
    Counter* rebuild_retries = nullptr;
    Counter* hot_cache_hits = nullptr;
    Counter* hot_cache_misses = nullptr;
    Counter* hot_cache_invalidations = nullptr;
    Counter* hot_cache_drops = nullptr;
    Counter* sheds = nullptr;
  };
  EventCounters counters_;

  std::vector<std::unique_ptr<Shard>> shards_;

  // Lifecycle: every HandleAsync holds an in-flight reference until its
  // callback fires; the destructor drains the mailboxes and waits for zero.
  std::atomic<std::uint64_t> inflight_{0};
  std::atomic<bool> stopping_{false};
  mutable std::mutex idle_mu_;
  mutable std::condition_variable idle_cv_;

  // The peer-I/O pool: sync legs and digest probes are jobs in one FIFO,
  // each holding a ticket until it finishes; the lane's run is one more.
  std::mutex finisher_mu_;
  std::condition_variable finisher_cv_;
  // Separate CV for idle waiters (FlushAsyncReplication) and a Begin held on
  // the lane: EnqueueFinisher's notify_one must always wake a worker.
  std::condition_variable finisher_idle_cv_;
  struct FinisherJob {
    std::function<void()> run;
    Nanos enqueued = 0;
    std::uint64_t ticket = 0;  // 0: untracked (the lane's run)
  };
  std::deque<FinisherJob> finisher_queue_;
  std::size_t finisher_busy_ = 0;
  bool finishers_stop_ = false;
  std::uint64_t next_ticket_ = 1;
  std::set<std::uint64_t> outstanding_;  // queued, running or reserved

  // The ordered lane: background legs, run in order by at most one pool
  // thread; the front is the leg in flight.
  struct AsyncLeg {
    Request request;
    NodeAddress target;
    std::function<void(const Result<Response>&)> on_result;  // may be null
    // Shared by the legs of one transfer stream; holds the failure of its
    // Begin, after which the lane drops the stream's remaining legs and
    // hands the failure to End's on_result. Touched only by the lane.
    std::shared_ptr<Status> stream;
    std::uint64_t ticket = 0;  // every ticket below was taken before it
  };
  std::deque<AsyncLeg> lane_;
  std::vector<std::thread> finishers_;  // last: its threads use the above
};

}  // namespace zht
