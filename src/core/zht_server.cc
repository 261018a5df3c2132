#include "core/zht_server.h"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/await.h"
#include "common/crc32.h"
#include "common/log.h"
#include "novoht/novoht.h"
#include "serialize/batch.h"
#include "serialize/metrics_codec.h"
#include "serialize/wire.h"

namespace zht {
namespace {

// Packs key/value pairs for TransferData batches:
// varint count, then per pair: varint klen, varint vlen, key, value.
std::string PackPairs(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::string out;
  wire::Writer w(&out);
  w.PutVarint(pairs.size());
  for (const auto& [key, value] : pairs) {
    w.PutVarint(key.size());
    w.PutVarint(value.size());
    w.PutBytes(key);
    w.PutBytes(value);
  }
  return out;
}

Result<std::vector<std::pair<std::string, std::string>>> UnpackPairs(
    std::string_view data) {
  wire::Reader r(data);
  std::uint64_t count;
  if (!r.GetVarint(&count)) {
    return Status(StatusCode::kCorruption, "pair batch header");
  }
  std::vector<std::pair<std::string, std::string>> pairs;
  pairs.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t klen, vlen;
    std::string_view key, value;
    if (!r.GetVarint(&klen) || !r.GetVarint(&vlen) ||
        !r.GetBytes(klen, &key) || !r.GetBytes(vlen, &value)) {
      return Status(StatusCode::kCorruption, "pair batch payload");
    }
    pairs.emplace_back(std::string(key), std::string(value));
  }
  return pairs;
}

std::unique_ptr<KVStore> DefaultStoreFactory(InstanceId, PartitionId) {
  auto store = NoVoHT::Open(NoVoHTOptions{});  // in-memory NoVoHT
  return store.ok() ? std::move(*store) : nullptr;
}

bool IsDataOp(OpCode op) {
  switch (op) {
    case OpCode::kInsert:
    case OpCode::kLookup:
    case OpCode::kRemove:
    case OpCode::kAppend:
      return true;
    default:
      return false;
  }
}

// At-most-once window for the non-idempotent append, per shard (the shard
// is the unit of single-threaded ownership, so dedup needs no lock).
constexpr std::size_t kDedupWindow = 8192;

// Streams issued per rebuild leg before the target is abandoned (the first
// attempt plus re-streams after a failed or mismatched End).
constexpr int kRebuildMaxAttempts = 3;

// Payload bytes per TransferData carrier.
constexpr std::size_t kTransferBatchBytes = 256 * 1024;

constexpr auto kRelaxed = std::memory_order_relaxed;

// Adds one store's durability figures to `logs` unless a store sharing
// the same log already did.
void AddLogMetrics(StoreDurabilityMetrics one,
                   std::vector<StoreDurabilityMetrics>* logs) {
  if (one.log_id != 0) {
    for (const StoreDurabilityMetrics& seen : *logs) {
      if (seen.log_id == one.log_id) return;
    }
  }
  logs->push_back(std::move(one));
}

}  // namespace

StoreFactory MakeNoVoHTStoreFactory(std::string dir,
                                    const ClusterOptions& cluster) {
  NoVoHTOptions options;
  options.durability = cluster.durability;
  options.max_commit_latency = cluster.max_commit_latency;
  // The server acks once per request/carrier from the flusher's
  // NotifyDurable callback; mutators must not also block per-op inside the
  // shard drain.
  options.wait_for_durable = false;
  // Every store of an instance shares one log. It closes with its last
  // store, and stays listed here until that close has finished, so a
  // reopen of the instance never overlaps it.
  struct InstanceLogs {
    std::mutex mu;
    std::condition_variable closed;
    std::map<InstanceId, std::weak_ptr<NoVoHTInstanceLog>> by_self;
  };
  auto logs = std::make_shared<InstanceLogs>();
  return [dir = std::move(dir), options, logs](
             InstanceId self,
             PartitionId partition) -> std::unique_ptr<KVStore> {
    std::shared_ptr<NoVoHTInstanceLog> log;
    {
      std::unique_lock<std::mutex> lock(logs->mu);
      for (auto it = logs->by_self.find(self); it != logs->by_self.end();
           it = logs->by_self.find(self)) {
        log = it->second.lock();
        if (log) break;
        logs->closed.wait(lock);
      }
      if (!log) {
        const std::string prefix = dir + "/i" + std::to_string(self);
        auto opened = NoVoHTInstanceLog::Open(
            prefix + ".log", prefix + "_p", options, [logs, self] {
              {
                std::lock_guard<std::mutex> closing(logs->mu);
                logs->by_self.erase(self);
              }
              logs->closed.notify_all();
            });
        if (!opened.ok()) {
          ZHT_WARN << "NoVoHT store factory cannot open " << prefix
                   << ".log: " << opened.status().ToString();
          return nullptr;
        }
        log = std::move(*opened);
        logs->by_self[self] = log;
      }
    }
    auto store = log->OpenPartition(partition);
    if (!store.ok()) {
      ZHT_WARN << "NoVoHT store factory failed for "
               << log->CheckpointPath(partition) << ": "
               << store.status().ToString();
      return nullptr;
    }
    return std::move(*store);
  };
}

ZhtServer::ZhtServer(MembershipTable table, const ZhtServerOptions& options,
                     ClientTransport* peer_transport)
    : options_(options),
      peer_transport_(peer_transport),
      space_(table.space()),
      epoch_(table.epoch()) {
  if (!options_.store_factory) options_.store_factory = DefaultStoreFactory;

  std::size_t num_shards = options_.num_shards;
  if (num_shards == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    num_shards = std::max(1u, std::min(4u, hw == 0 ? 1u : hw));
  }
  shards_.reserve(num_shards);
  const std::size_t cache_entries = options_.cluster.hot_cache_entries;
  for (std::size_t s = 0; s < num_shards; ++s) {
    auto shard = s + 1 == num_shards
                     ? std::make_unique<Shard>(std::move(table), cache_entries)
                     : std::make_unique<Shard>(table, cache_entries);
    shard->index = s;
    shards_.push_back(std::move(shard));
  }

  // Resolve every hot-path metric handle once; Record()/Increment() through
  // these pointers never acquires a lock.
  static constexpr const char* kDataOpNames[4] = {"insert", "lookup", "remove",
                                                  "append"};
  for (int i = 0; i < 4; ++i) {
    data_op_hist_[i] = metrics_.GetHistogram(
        std::string("server.op.") + kDataOpNames[i] + ".latency_ns");
  }
  batch_hist_ = metrics_.GetHistogram("server.op.batch.latency_ns");
  batch_size_hist_ = metrics_.GetHistogram("server.batch.size");
  replication_fanout_hist_ = metrics_.GetHistogram("server.replication.fanout");
  finisher_wait_hist_ = metrics_.GetHistogram("server.stage.finisher_wait_ns");
  counters_.ops = metrics_.GetCounter("server.ops");
  counters_.redirects = metrics_.GetCounter("server.redirects");
  counters_.replications_sync = metrics_.GetCounter("server.replication.sync");
  counters_.replications_async =
      metrics_.GetCounter("server.replication.async");
  counters_.replications_sync_failed =
      metrics_.GetCounter("server.replication.sync_failed");
  counters_.migrations_out = metrics_.GetCounter("server.migrations.out");
  counters_.migrations_in = metrics_.GetCounter("server.migrations.in");
  counters_.migration_pairs_streamed =
      metrics_.GetCounter("server.migration.pairs_streamed");
  counters_.migration_bytes_streamed =
      metrics_.GetCounter("server.migration.bytes_streamed");
  counters_.broadcasts = metrics_.GetCounter("server.broadcasts");
  counters_.duplicate_appends_dropped =
      metrics_.GetCounter("server.appends.duplicate_dropped");
  counters_.antientropy_probes = metrics_.GetCounter("server.antientropy.probes");
  counters_.antientropy_clean = metrics_.GetCounter("server.antientropy.clean");
  counters_.rebuilds_started = metrics_.GetCounter("server.rebuild.started");
  counters_.rebuilds_completed = metrics_.GetCounter("server.rebuild.completed");
  counters_.rebuild_pairs_streamed =
      metrics_.GetCounter("server.rebuild.pairs_streamed");
  counters_.rebuild_retries = metrics_.GetCounter("server.rebuild.retries");
  counters_.hot_cache_hits = metrics_.GetCounter("server.cache.hit");
  counters_.hot_cache_misses = metrics_.GetCounter("server.cache.miss");
  counters_.hot_cache_invalidations =
      metrics_.GetCounter("server.cache.invalidate");
  counters_.hot_cache_drops = metrics_.GetCounter("server.cache.drop");
  counters_.sheds = metrics_.GetCounter("server.admission.shed");

  // 2–4 threads for sync legs and probes, plus one for the lane.
  const std::size_t num_finishers =
      std::max<std::size_t>(2, std::min<std::size_t>(4, num_shards)) + 1;
  finishers_.reserve(num_finishers);
  for (std::size_t i = 0; i < num_finishers; ++i) {
    finishers_.emplace_back([this] { FinisherLoop(); });
  }
}

ZhtServer::~ZhtServer() {
  stopping_.store(true, std::memory_order_release);
  // Contract: the hosting front-end has stopped (joined) its reactors
  // before destroying the server. Drain remaining mailbox work and wait
  // for every in-flight request to complete (durability callbacks park on
  // log flushers; the peer-I/O pool is still running, may Post
  // concurrently, and is stopped only after this, once it has run dry).
  for (;;) {
    for (auto& shard : shards_) Drain(*shard);
    if (inflight_.load(std::memory_order_acquire) == 0) break;
    std::unique_lock<std::mutex> lock(idle_mu_);
    idle_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
  {
    std::lock_guard<std::mutex> lock(finisher_mu_);
    finishers_stop_ = true;
  }
  finisher_cv_.notify_all();
  for (std::thread& t : finishers_) {
    if (t.joinable()) t.join();
  }
  // Tear the stores down while this server's mutexes and condition
  // variables are still alive: destroying the last store on a log joins
  // the log's flusher thread, which may still be exiting a signal
  // (EnqueueFinisher, OnRequestComplete) issued from its final durability
  // callback.
  for (auto& shard : shards_) shard->stores.clear();
}

// ---------------------------------------------------------------------------
// Mailbox machinery
// ---------------------------------------------------------------------------

void ZhtServer::Post(Shard& shard, ShardTask task) {
  shard.mailbox.Push(std::move(task));
  // seq_cst pairs with Drain's release-then-recheck (see there).
  shard.queued.fetch_add(1, std::memory_order_seq_cst);
  // Nothing ran here: another thread held the drain and runs the task.
  if (Drain(shard) == 0) shard.forwarded.fetch_add(1, kRelaxed);
}

std::size_t ZhtServer::Drain(Shard& shard) {
  // Whichever thread posts drains, serialized by a CAS on `active`. A
  // loser returns — the winner's drain loop covers its task. That hand-off
  // is a store-then-load on both sides (the loser bumps `queued` then
  // reads `active`; the winner clears `active` then reads `queued`), so
  // all four accesses are seq_cst: with weaker orders both may read the
  // stale value, and the task strands in the mailbox.
  std::size_t total = 0;
  while (shard.queued.load(std::memory_order_seq_cst) > 0) {
    if (shard.active.exchange(true, std::memory_order_seq_cst)) break;
    const std::size_t ran = DrainAll(shard);
    shard.active.store(false, std::memory_order_seq_cst);
    total += ran;
    // queued > 0 with nothing poppable means a producer is mid-push (the
    // MPSC link window); give it a beat and re-check.
    if (ran == 0) std::this_thread::yield();
  }
  return total;
}

std::size_t ZhtServer::DrainAll(Shard& shard) {
  const std::uint64_t depth = shard.queued.load(std::memory_order_acquire);
  if (depth > 0) shard.mailbox_depth.Record(static_cast<std::int64_t>(depth));
  std::size_t ran = 0;
  for (;;) {
    ShardTask task;
    if (!shard.mailbox.Pop(&task)) break;
    shard.queued.fetch_sub(1, std::memory_order_acq_rel);
    ++ran;
    task(shard);
  }
  return ran;
}

int ZhtServer::PreferredShard(const Request& request) const {
  if (!IsDataOp(request.op)) return -1;
  return static_cast<int>(space_.PartitionOfKey(request.key) % shards_.size());
}

void ZhtServer::OnRequestComplete() {
  if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
      stopping_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(idle_mu_);
    idle_cv_.notify_all();
  }
}

void ZhtServer::RecordDataOpLatency(OpCode op, Nanos start) {
  const auto op_index = static_cast<std::size_t>(op) - 1;
  if (op_index < 4) {
    data_op_hist_[op_index]->Record(SystemClock::Instance().Now() - start);
  }
}

// ---------------------------------------------------------------------------
// Ingress dispatch
// ---------------------------------------------------------------------------

void ZhtServer::HandleAsync(Request&& request, ResponseCallback done) {
  if (stopping_.load(std::memory_order_acquire)) {
    Response resp;
    resp.seq = request.seq;
    resp.status = Status(StatusCode::kUnavailable, "server stopping").raw();
    done(std::move(resp));
    return;
  }
  inflight_.fetch_add(1, std::memory_order_acq_rel);

  if (IsDataOp(request.op)) {
    // Single-key hot path: partition from the immutable space copy, then
    // one hop into the owning shard's mailbox. No locks anywhere. Cache
    // hits and sheds answer with the raw `done` before any std::function
    // wrapper is built — the hit path's only allocation is the value copy.
    const Nanos start = SystemClock::Instance().Now();
    Shard& shard = ShardForPartition(space_.PartitionOfKey(request.key));
    if (request.op == OpCode::kLookup &&
        TryServeFromCache(shard, request, done, start)) {
      OnRequestComplete();
      return;
    }
    if (MaybeShed(shard, request, done)) {
      OnRequestComplete();
      return;
    }
    const std::size_t charge = request.key.size() + request.value.size();
    shard.inflight_bytes.fetch_add(charge, kRelaxed);
    Post(shard, [this, request = std::move(request), done = std::move(done),
                 start, charge](Shard& sh) mutable {
      sh.inflight_bytes.fetch_sub(charge, kRelaxed);
      ExecDataOp(sh, std::move(request),
                 [this, done = std::move(done)](Response&& resp) mutable {
                   done(std::move(resp));
                   OnRequestComplete();
                 },
                 start);
    });
    return;
  }

  // Every exit path below runs through `finish`, which releases the
  // in-flight reference the destructor waits on.
  ResponseCallback finish = [this,
                             done = std::move(done)](Response&& resp) mutable {
    done(std::move(resp));
    OnRequestComplete();
  };

  switch (request.op) {
    case OpCode::kBatch:
      StartBatch(std::move(request), std::move(finish));
      return;
    case OpCode::kPing: {
      Response resp;
      resp.seq = request.seq;
      resp.epoch = epoch_.load(kRelaxed);
      finish(std::move(resp));
      return;
    }
    case OpCode::kMembershipPull: {
      Post(*shards_.front(),
           [seq = request.seq, since = request.epoch,
            done = std::move(finish)](Shard& sh) mutable {
             Response resp;
             resp.seq = seq;
             resp.epoch = sh.table.epoch();
             resp.membership = since == 0 ? sh.table.EncodeFull()
                                          : sh.table.EncodeDelta(since);
             done(std::move(resp));
           });
      return;
    }
    case OpCode::kMembershipPush:
      StartMembershipPush(std::move(request), std::move(finish));
      return;
    case OpCode::kMigrateOut: {
      const std::uint64_t seq = request.seq;
      auto target = NodeAddress::Parse(request.value);
      if (!target.ok()) {
        Response resp;
        resp.seq = seq;
        resp.status = target.status().raw();
        finish(std::move(resp));
        return;
      }
      StartMigrateOut(request.partition, *target,
                      [this, seq, done = std::move(finish)](
                          Status status) mutable {
                        Response resp;
                        resp.seq = seq;
                        resp.status = status.raw();
                        resp.epoch = epoch_.load(kRelaxed);
                        done(std::move(resp));
                      });
      return;
    }
    case OpCode::kRepair: {
      // Ack as soon as the command is accepted — the rebuild streams in the
      // background (the manager needs delivery, not completion; RepairPartition
      // is the blocking form for callers that must wait).
      const PartitionId partition = request.partition;
      Response resp;
      resp.seq = request.seq;
      resp.epoch = epoch_.load(kRelaxed);
      finish(std::move(resp));
      StartRebuild(partition, [partition](Status status) {
        if (!status.ok()) {
          ZHT_WARN << "background rebuild of partition " << partition
                   << " incomplete: " << status.ToString();
        }
      });
      return;
    }
    case OpCode::kDigest:
    case OpCode::kTransferBegin:
    case OpCode::kTransferData:
    case OpCode::kTransferEnd: {
      // Partition-addressed peer messages execute in the partition's shard.
      void (ZhtServer::*exec)(Shard&, Request&&, ResponseCallback) =
          request.op == OpCode::kDigest          ? &ZhtServer::ExecDigest
          : request.op == OpCode::kTransferBegin ? &ZhtServer::ExecTransferBegin
          : request.op == OpCode::kTransferData  ? &ZhtServer::ExecTransferData
                                                 : &ZhtServer::ExecTransferEnd;
      Post(ShardForPartition(request.partition),
           [this, exec, request = std::move(request),
            done = std::move(finish)](Shard& sh) mutable {
             (this->*exec)(sh, std::move(request), std::move(done));
           });
      return;
    }
    case OpCode::kBroadcast: {
      Post(ShardForPartition(space_.PartitionOfKey(request.key)),
           [this, request = std::move(request),
            done = std::move(finish)](Shard& sh) mutable {
             ExecBroadcast(sh, std::move(request), std::move(done));
           });
      return;
    }
    case OpCode::kStats: {
      // Admin introspection: a versioned structured snapshot (counters,
      // gauges, per-opcode latency histograms) encoded with
      // serialize/metrics_codec.h. The census scatters across every shard;
      // the last shard's continuation encodes and completes — no blocking
      // on the ingress thread.
      const std::uint64_t seq = request.seq;
      ScatterCensus([this, seq, done = std::move(finish)](
                        std::vector<ShardCensus> census) mutable {
        Response resp;
        resp.seq = seq;
        resp.epoch = epoch_.load(kRelaxed);
        resp.value = EncodeMetricsSnapshot(BuildSnapshot(census));
        done(std::move(resp));
      });
      return;
    }
    default: {
      Response resp;
      resp.seq = request.seq;
      resp.status = Status(StatusCode::kInvalidArgument).raw();
      finish(std::move(resp));
      return;
    }
  }
}

Response ZhtServer::Handle(Request&& request) {
  return Await<Response>([&](auto done) {
    HandleAsync(std::move(request), std::move(done));
  });
}

// ---------------------------------------------------------------------------
// Data ops (inside shard drains)
// ---------------------------------------------------------------------------

Response ZhtServer::RedirectTo(const Shard& shard, InstanceId owner,
                               std::uint64_t seq, std::uint32_t requester_epoch,
                               bool include_membership) {
  // Lazy membership update (§III.C): the wrong-owner reply carries the
  // delta the requester is missing — one message per client per partition
  // move.
  Response resp;
  resp.seq = seq;
  resp.status = Status(StatusCode::kRedirect).raw();
  resp.epoch = shard.table.epoch();
  if (include_membership) {
    resp.membership = shard.table.EncodeDelta(requester_epoch);
  }
  if (owner < shard.table.instance_count()) {
    const auto& info = shard.table.Instance(owner);
    resp.redirect_host = info.address.host;
    resp.redirect_port = info.address.port;
  }
  return resp;
}

ZhtServer::DataRoute ZhtServer::RouteDataOp(Shard& shard,
                                            const Request& request,
                                            std::atomic<bool>* delta_gate) {
  DataRoute route;
  route.partition = shard.table.PartitionOfKey(request.key);
  route.epoch = shard.table.epoch();
  route.chain =
      shard.table.ReplicaChain(route.partition, options_.cluster.num_replicas);

  const bool is_replica_traffic =
      request.server_origin && request.replica_index > 0;
  const bool is_client_failover =
      !request.server_origin && request.replica_index > 0;

  if (!is_replica_traffic) {
    bool in_chain = false;
    for (InstanceId member : route.chain) {
      if (member == options_.self) {
        in_chain = true;
        break;
      }
    }
    const bool is_primary =
        !route.chain.empty() && route.chain[0] == options_.self;
    // A failover op from a client behind this table's epoch may rest on a
    // suspicion the membership has since cleared (a revived owner), so it
    // is redirected with the delta: accepted beside that owner's rebuild
    // stream, a write would be erased from the stream's targets by End.
    const bool current_failover =
        is_client_failover && in_chain && request.epoch >= route.epoch;
    if (!is_primary && !current_failover) {
      counters_.redirects->Increment();
      route.redirect =
          RedirectTo(shard, route.chain.empty() ? 0 : route.chain[0],
                     request.seq, request.epoch, /*include_membership=*/true);
      if (delta_gate && !route.redirect->membership.empty()) {
        // A batch piggybacks the delta once, on its first redirected
        // sub-op; shard groups race for the claim and losers strip it.
        bool expected = false;
        if (!delta_gate->compare_exchange_strong(
                expected, true, std::memory_order_acq_rel)) {
          route.redirect->membership.clear();
        }
      }
    }
  }
  return route;
}

bool ZhtServer::IsDuplicateAppend(Shard& shard, const Request& request) {
  const std::uint64_t key = request.DedupKey();
  if (key == 0) return false;
  if (shard.dedup_set.count(key)) return true;
  shard.dedup_ring.push_back(key);
  shard.dedup_set.insert(key);
  if (shard.dedup_ring.size() > kDedupWindow) {
    shard.dedup_set.erase(shard.dedup_ring.front());
    shard.dedup_ring.pop_front();
  }
  return false;
}

KVStore* ZhtServer::StoreIn(Shard& shard, PartitionId partition) {
  auto it = shard.stores.find(partition);
  if (it != shard.stores.end()) return it->second.get();
  std::shared_ptr<KVStore> store =
      options_.store_factory(options_.self, partition);
  KVStore* raw = store.get();
  shard.stores.emplace(partition, std::move(store));
  return raw;
}

void ZhtServer::ReleaseStuckRebuilds(Shard& shard) {
  for (auto it = shard.rebuilding.begin(); it != shard.rebuilding.end();) {
    const PartitionId partition = *it;
    const auto chain =
        shard.table.ReplicaChain(partition, options_.cluster.num_replicas);
    if (!chain.empty() && chain[0] == options_.self) {
      shard.landing.erase(partition);
      it = shard.rebuilding.erase(it);
    } else {
      ++it;
    }
  }
}

void ZhtServer::ReleaseCompletedHandoffs(Shard& shard) {
  for (auto it = shard.handed_off.begin(); it != shard.handed_off.end();) {
    const PartitionId partition = it->first;
    if (partition < shard.table.num_partitions() &&
        shard.table.OwnerOf(partition) != options_.self) {
      const bool had_data = it->second;
      it = shard.handed_off.erase(it);
      ReleaseHandoff(shard, partition, had_data);
    } else {
      ++it;
    }
  }
}

Status ZhtServer::ApplyToStore(Shard& shard, OpCode op, PartitionId partition,
                               std::string_view key, std::string_view value,
                               std::string* out) {
  KVStore* store = StoreIn(shard, partition);
  if (!store) return Status(StatusCode::kInternal, "store factory failed");
  switch (op) {
    case OpCode::kInsert:
      return store->Put(key, value);
    case OpCode::kLookup: {
      auto result = store->Get(key);
      if (!result.ok()) return result.status();
      if (out) *out = std::move(*result);
      return Status::Ok();
    }
    case OpCode::kRemove:
      return store->Remove(key);
    case OpCode::kAppend:
      return store->Append(key, value);
    default:
      return Status(StatusCode::kInvalidArgument, "not a data op");
  }
}

std::optional<ZhtServer::ReplicaPlan> ZhtServer::MakeReplicaPlan(
    const Shard& shard, const Request& request, const DataRoute& route,
    LegGroups* lane) const {
  if (options_.cluster.num_replicas == 0 || request.server_origin ||
      route.chain.size() < 2) {
    return std::nullopt;
  }
  // A failover write the client placed on a secondary (replica_index > 0,
  // past members its detector marked dead) must still fan out to every
  // other chain member — acking a single copy would silently drop the
  // replication level to one, and the next failure would lose an acked
  // write. The chain is rotated so this instance leads and the usual leg
  // machinery applies; the rotation (not a suffix) matters because a
  // skipped member may in fact be alive — a spurious detector mark — and
  // serving reads, which is also why every leg of such a plan is
  // synchronous. Otherwise only the secondary's leg is.
  std::vector<InstanceId> chain = route.chain;
  std::size_t sync_end = 2;
  if (request.replica_index != 0) {
    auto self_it = std::find(chain.begin(), chain.end(), options_.self);
    if (self_it == chain.end()) return std::nullopt;
    std::rotate(chain.begin(), self_it, chain.end());
    sync_end = chain.size();
  }
  // Members with an in-flight rebuild stream take their legs through the
  // lane, behind the stream.
  auto rebuild = shard.rebuild_out.find(route.partition);
  ReplicaPlan plan;
  plan.partition = route.partition;
  for (std::size_t r = 1; r < chain.size(); ++r) {
    const InstanceId id = chain[r];
    const bool diverted =
        rebuild != shard.rebuild_out.end() &&
        std::any_of(rebuild->second.targets.begin(),
                    rebuild->second.targets.end(),
                    [id](const RebuildTarget& t) { return t.id == id; });
    // Addresses resolve here, so pool threads never touch a table.
    ReplicaLeg leg{id,
                   id < shard.table.instance_count()
                       ? shard.table.Instance(id).address
                       : NodeAddress{},
                   static_cast<std::uint8_t>(r)};
    if (r < sync_end && !diverted) {
      plan.sync.push_back(std::move(leg));
    } else {
      AddLeg(request, route.partition, leg, lane);
    }
  }
  replication_fanout_hist_->Record(static_cast<std::int64_t>(chain.size()) - 1);
  if (plan.sync.empty()) return std::nullopt;
  return plan;
}

ZhtServer::AppliedOp ZhtServer::ApplyDataOp(Shard& shard,
                                            const Request& request,
                                            std::atomic<bool>* delta_gate,
                                            LegGroups* lane) {
  AppliedOp out;
  DataRoute route = RouteDataOp(shard, request, delta_gate);
  out.partition = route.partition;
  if (route.redirect) {
    out.resp = std::move(*route.redirect);
    return out;
  }
  const OpCode op = request.op;
  Response& resp = out.resp;
  resp.seq = request.seq;
  resp.epoch = route.epoch;
  if (shard.migrating.count(route.partition) ||
      shard.rebuilding.count(route.partition)) {
    // Partition is locked mid-migration (§III.C "Data Migration") or mid-
    // transfer (between kTransferBegin and kTransferEnd): state cannot be
    // modified; the client backs off and retries, which realizes the
    // paper's request queueing at the sender. Rejecting reads too keeps a
    // rebuilding replica from serving half-streamed state.
    resp.status = Status(StatusCode::kMigrating).raw();
    return out;
  }
  if (op == OpCode::kAppend && IsDuplicateAppend(shard, request)) {
    // Retransmission of an append we already applied: acknowledge success
    // without re-applying, once the store is durable — its token covers
    // the original, which may still be waiting for its group commit.
    counters_.duplicate_appends_dropped->Increment();
    out.durable_wait = true;
    return out;
  }
  if (delta_gate && op == OpCode::kLookup && !request.server_origin &&
      CacheLookup(shard, request.key, &resp.value)) {
    // A BATCH sub-op probes the cache here (the scatter loop cannot know
    // each sub-op's shard cheaply; a single-key lookup probed at ingress),
    // and a hit still skips the store lookup.
    counters_.ops->Increment();
    return out;
  }
  Status status = ApplyToStore(shard, op, route.partition, request.key,
                               request.value, &resp.value);
  counters_.ops->Increment();
  resp.status = status.raw();
  if (op == OpCode::kLookup) {
    // Fill in-shard, where this partition's store is ordered: the control
    // flow above guarantees it is owned and not mid-migration/rebuild.
    if (status.ok()) CacheFill(shard, route.partition, request.key, resp.value);
    return out;
  }
  // Synchronous invalidation before the ack can leave this drain: a later
  // probe can never observe the pre-mutation value (DESIGN.md §13).
  CacheInvalidate(shard, request.key);
  if (!status.ok()) return out;
  out.durable_wait = true;
  out.plan = MakeReplicaPlan(shard, request, route, lane);
  return out;
}

ZhtServer::CommitPoint ZhtServer::CommitPointOf(const Shard& shard,
                                                PartitionId partition) {
  // The token covers exactly the mutations applied so far — captured
  // in-shard, where this store is ordered.
  auto it = shard.stores.find(partition);
  if (it == shard.stores.end() || !it->second) return {};
  return {it->second.get(), it->second->last_commit_token()};
}

void ZhtServer::ExecDataOp(Shard& shard, Request&& request,
                           ResponseCallback done, Nanos start) {
  const OpCode op = request.op;
  LegGroups lane;
  AppliedOp applied = ApplyDataOp(shard, request, nullptr, &lane);
  QueueLaneLegs(lane);
  const CommitPoint commit = applied.durable_wait
                                 ? CommitPointOf(shard, applied.partition)
                                 : CommitPoint{};
  if (commit.token == 0 && !applied.plan) {
    // Hot path: routed, applied, and acked on the owning shard — zero
    // mutexes end to end.
    done(std::move(applied.resp));
    RecordDataOpLatency(op, start);
    return;
  }

  if (!applied.plan) {
    // Ack parks on the log's flusher; no thread blocks for the group
    // commit. Concurrent writers join the same commit window.
    commit.store->NotifyDurable(
        commit.token, [this, resp = std::move(applied.resp), op, start,
                       done = std::move(done)](Status durable) mutable {
          if (!durable.ok()) resp.status = durable.raw();
          done(std::move(resp));
          RecordDataOpLatency(op, start);
        });
    return;
  }

  // A synchronous hop to the secondary keeps primary+secondary strongly
  // consistent; it is peer I/O, so it runs on a pool thread (its ticket
  // taken here, in-shard), never inside a shard drain or a flusher
  // callback. On a durable store the leg starts now, beside the group
  // commit, and the ack waits for both. A failed local sync still fails the
  // op, even if its leg has landed: the op was never acked, so it stays
  // ambiguous to the client.
  auto join = std::make_shared<AckJoin>();
  join->resp = std::move(applied.resp);
  join->done = std::move(done);
  join->op = op;
  join->start = start;
  join->pending.store(commit.token != 0 ? 2 : 1, kRelaxed);
  EnqueueFinisher([this, join, request = std::move(request),
                   plan = std::move(*applied.plan)] {
    SendReplicaLegs({&request, 1}, {&plan, 1});
    FinishAckJoin(*join);
  });
  if (commit.token != 0) {
    commit.store->NotifyDurable(commit.token, [this, join](Status durable) {
      if (!durable.ok()) join->resp.status = durable.raw();
      FinishAckJoin(*join);
    });
  }
}

void ZhtServer::FinishAckJoin(AckJoin& join) {
  if (join.pending.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  join.done(std::move(join.resp));
  RecordDataOpLatency(join.op, join.start);
}

// ---------------------------------------------------------------------------
// BATCH: scatter per-shard groups, gather with completion counting
// ---------------------------------------------------------------------------

void ZhtServer::StartBatch(Request&& request, ResponseCallback done) {
  const Nanos start = SystemClock::Instance().Now();
  Response carrier;
  carrier.seq = request.seq;
  auto batch = BatchRequest::Decode(request.value);
  if (!batch.ok()) {
    carrier.status = batch.status().raw();
    done(std::move(carrier));
    return;
  }
  batch_size_hist_->Record(static_cast<std::int64_t>(batch->ops.size()));

  auto gather = std::make_shared<BatchGather>();
  gather->seq = request.seq;
  gather->epoch = epoch_.load(kRelaxed);
  gather->start = start;
  gather->ops = std::move(batch->ops);
  const std::size_t n = gather->ops.size();
  gather->responses.resize(n);
  gather->partitions.assign(n, 0);
  gather->plans.resize(n);
  gather->done = std::move(done);

  // Scatter: group sub-op indices by owning shard; each group lands in its
  // shard's mailbox and fills disjoint response slots.
  std::vector<std::vector<std::size_t>> groups(shards_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Request& op = gather->ops[i];
    if (IsDataOp(op.op)) {
      const PartitionId partition = space_.PartitionOfKey(op.key);
      gather->partitions[i] = partition;
      groups[partition % shards_.size()].push_back(i);
    } else {
      // Batches carry data operations only; nested batches and control
      // messages are rejected per sub-op, not per batch.
      Response sub;
      sub.seq = op.seq;
      sub.status = Status(StatusCode::kInvalidArgument).raw();
      gather->responses[i] = std::move(sub);
    }
  }
  std::size_t active_groups = 0;
  for (const auto& indices : groups) {
    if (!indices.empty()) ++active_groups;
  }
  if (active_groups == 0) {
    gather->remaining.store(1, kRelaxed);
    CompleteBatchGroup(gather);
    return;
  }
  gather->remaining.store(active_groups, kRelaxed);
  gather->applying.store(active_groups, kRelaxed);
  const bool server_batch = request.server_origin;
  // The carrier's sync-leg ticket is taken before any group applies, so a
  // transfer that snapshots one of its writes waits for its legs.
  if (!server_batch && options_.cluster.num_replicas > 0) {
    gather->ticket = ReserveTicket();
  }
  for (std::size_t s = 0; s < groups.size(); ++s) {
    if (groups[s].empty()) continue;
    Shard& shard = *shards_[s];
    if (!server_batch) {
      // Admission control applies per shard group: an overloaded shard
      // sheds its slice of the batch while the others proceed.
      const std::uint32_t hint = AdmissionRetryHint(shard);
      if (hint != 0) {
        for (std::size_t i : groups[s]) {
          Response sub;
          sub.seq = gather->ops[i].seq;
          sub.epoch = gather->epoch;
          sub.status =
              Status(StatusCode::kUnavailable, "shard over admission budget")
                  .raw();
          sub.retry_after_us = hint;
          gather->responses[i] = std::move(sub);
        }
        counters_.sheds->Increment(groups[s].size());
        BatchGroupApplied(gather);
        CompleteBatchGroup(gather);
        continue;
      }
    }
    std::size_t charge = 0;
    for (std::size_t i : groups[s]) {
      charge += gather->ops[i].key.size() + gather->ops[i].value.size();
    }
    shard.inflight_bytes.fetch_add(charge, kRelaxed);
    Post(shard, [this, gather, indices = std::move(groups[s]),
                 charge](Shard& sh) mutable {
      sh.inflight_bytes.fetch_sub(charge, kRelaxed);
      ExecBatchGroup(sh, gather, std::move(indices));
    });
  }
}

void ZhtServer::ExecBatchGroup(Shard& shard,
                               const std::shared_ptr<BatchGather>& gather,
                               std::vector<std::size_t> indices) {
  // Sub-ops whose ack waits for their store's durability.
  std::vector<std::size_t> mutations;
  LegGroups lane;
  for (std::size_t i : indices) {
    AppliedOp applied =
        ApplyDataOp(shard, gather->ops[i], &gather->delta_sent, &lane);
    gather->partitions[i] = applied.partition;
    gather->responses[i] = std::move(applied.resp);
    gather->plans[i] = std::move(applied.plan);
    if (applied.durable_wait) mutations.push_back(i);
  }
  QueueLaneLegs(lane);  // one message per target, from this drain
  BatchGroupApplied(gather);

  // Durable ack, once per touched store: tokens are captured after every
  // sub-op applied (monotone, so the latest covers them all), and one
  // NotifyDurable per store parks on its log's flusher. The last callback
  // fixes any failed partitions' sub-ops and reports the group done.
  std::vector<std::pair<PartitionId, CommitPoint>> touched;
  std::unordered_set<PartitionId> seen;
  for (std::size_t i : mutations) {
    const PartitionId partition = gather->partitions[i];
    if (!seen.insert(partition).second) continue;
    const CommitPoint commit = CommitPointOf(shard, partition);
    if (commit.token != 0) touched.emplace_back(partition, commit);
  }
  if (touched.empty()) {
    CompleteBatchGroup(gather);
    return;
  }

  struct GroupDurable {
    std::vector<std::size_t> mutations;
    std::vector<std::pair<PartitionId, Status>> results;
    std::atomic<std::size_t> pending{0};
  };
  auto group = std::make_shared<GroupDurable>();
  group->mutations = std::move(mutations);
  group->results.resize(touched.size());
  group->pending.store(touched.size(), kRelaxed);
  for (std::size_t j = 0; j < touched.size(); ++j) {
    const auto& [partition, commit] = touched[j];
    commit.store->NotifyDurable(
        commit.token, [this, gather, group, j, partition](Status status) {
          group->results[j] = {partition, status};
          if (group->pending.fetch_sub(1, std::memory_order_acq_rel) != 1) {
            return;
          }
          std::unordered_set<PartitionId> failed;
          for (const auto& [p, st] : group->results) {
            if (!st.ok()) failed.insert(p);
          }
          // Sub-ops on a store that failed to sync were never durable:
          // fail them, whether or not their legs have landed.
          for (std::size_t i : group->mutations) {
            if (failed.count(gather->partitions[i])) {
              gather->responses[i].status =
                  Status(StatusCode::kInternal).raw();
            }
          }
          CompleteBatchGroup(gather);
        });
  }
}

void ZhtServer::BatchGroupApplied(const std::shared_ptr<BatchGather>& gather) {
  if (gather->applying.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  // Every group has applied: the carrier's sync legs start now, beside the
  // groups' commits, on one finisher that coalesces them per target. They
  // hold one gather count; the caller's group still holds its own, so the
  // gather cannot finish before the increment.
  std::vector<Request> ops;
  std::vector<ReplicaPlan> plans;
  for (std::size_t i = 0; i < gather->ops.size(); ++i) {
    if (!gather->plans[i]) continue;
    ops.push_back(std::move(gather->ops[i]));
    plans.push_back(std::move(*gather->plans[i]));
  }
  if (ops.empty()) {
    ReleaseTicket(gather->ticket);
    return;
  }
  gather->remaining.fetch_add(1, kRelaxed);
  EnqueueFinisher(
      [this, gather, ops = std::move(ops), plans = std::move(plans)] {
        SendReplicaLegs(ops, plans);
        CompleteBatchGroup(gather);
      },
      gather->ticket);
}

void ZhtServer::CompleteBatchGroup(
    const std::shared_ptr<BatchGather>& gather) {
  if (gather->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    FinalizeBatch(gather);
  }
}

void ZhtServer::FinalizeBatch(const std::shared_ptr<BatchGather>& gather) {
  BatchResponse out;
  out.responses = std::move(gather->responses);
  Response packed = PackBatchResponse(out, gather->seq, gather->epoch);
  batch_hist_->Record(SystemClock::Instance().Now() - gather->start);
  gather->done(std::move(packed));
}

// ---------------------------------------------------------------------------
// Membership: shard 0 is the epoch authority; pushes fan out to every shard
// ---------------------------------------------------------------------------

void ZhtServer::StartMembershipPush(Request&& request, ResponseCallback done) {
  auto payload = std::make_shared<std::string>(std::move(request.value));
  const std::uint64_t seq = request.seq;
  Post(*shards_.front(), [this, payload, seq,
                          done = std::move(done)](Shard& s0) mutable {
    Status status = s0.table.ApplyUpdate(*payload);
    ReleaseStuckRebuilds(s0);
    ReleaseCompletedHandoffs(s0);
    // Ownership may have moved with the epoch: a cached entry must never
    // outlive this instance's claim on its partition, and membership
    // changes are rare enough that a full clear is the simplest proof.
    CacheClear(s0);
    const std::uint32_t epoch = s0.table.epoch();
    epoch_.store(epoch, kRelaxed);
    if (shards_.size() == 1) {
      Response resp;
      resp.seq = seq;
      resp.status = status.raw();
      resp.epoch = epoch;
      done(std::move(resp));
      return;
    }
    // Scatter the payload to every other shard; the ack waits for all of
    // them so a subsequent request routed anywhere sees the new table —
    // the same fence the old exclusive table lock provided.
    auto gather = std::make_shared<PushGather>();
    gather->seq = seq;
    gather->epoch = epoch;
    gather->status = status;
    gather->remaining.store(shards_.size() - 1, kRelaxed);
    gather->done = std::move(done);
    for (std::size_t s = 1; s < shards_.size(); ++s) {
      Post(*shards_[s], [this, payload, gather](Shard& sh) {
        sh.table.ApplyUpdate(*payload);
        ReleaseStuckRebuilds(sh);
        ReleaseCompletedHandoffs(sh);
        CacheClear(sh);
        if (gather->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          Response resp;
          resp.seq = gather->seq;
          resp.status = gather->status.raw();
          resp.epoch = gather->epoch;
          gather->done(std::move(resp));
        }
      });
    }
  });
}

// ---------------------------------------------------------------------------
// Migration (§III.C): the source marks the partition, snapshots it and hands
// it over with the same verified transfer a rebuild uses; completion posts
// back into the shard
// ---------------------------------------------------------------------------

void ZhtServer::StartMigrateOut(PartitionId partition,
                                const NodeAddress& target,
                                std::function<void(Status)> done) {
  Post(ShardForPartition(partition),
       [this, partition, target, done = std::move(done)](Shard& sh) mutable {
         if (sh.migrating.count(partition)) {
           done(Status(StatusCode::kMigrating, "partition already migrating"));
           return;
         }
         // Mark and snapshot inside the shard drain: no write can land
         // between the mark and the snapshot, so the stream is exact.
         // Writers arriving after see kMigrating and retry (§III.C "Data
         // Migration").
         sh.migrating.insert(partition);
         CacheDropPartition(sh, partition);
         StreamTransfer(
             sh, partition, target, /*replica_index=*/0,
             [this, partition, done = std::move(done)](
                 Status status, TransferSize size) mutable {
               if (status.ok()) {
                 counters_.migration_pairs_streamed->Increment(size.pairs);
                 counters_.migration_bytes_streamed->Increment(size.bytes);
               }
               FinishMigrateOut(partition, std::move(status), size.pairs != 0,
                                std::move(done));
             });
       });
}

void ZhtServer::FinishMigrateOut(PartitionId partition, Status status,
                                 bool had_data,
                                 std::function<void(Status)> done) {
  // Completion posts back to the owning shard: on success the partition is
  // relinquished; either way the migration lock lifts.
  Post(ShardForPartition(partition),
       [this, partition, status = std::move(status), had_data,
        done = std::move(done)](Shard& sh) mutable {
         if (status.ok()) {
           // Empty the store before dropping it: a persistent store leaves
           // its log behind, and a later StoreIn at the same path would
           // replay the handed-off pairs back to life.
           auto it = sh.stores.find(partition);
           if (it != sh.stores.end()) {
             Status cleared = it->second ? it->second->Clear() : Status::Ok();
             if (!cleared.ok()) {
               ZHT_WARN << "clearing handed-off partition " << partition
                        << " failed: " << cleared.ToString();
             }
             sh.stores.erase(it);
           }
           counters_.migrations_out->Increment();
         }
         // Dropped before the manager can broadcast the new membership:
         // no window where this instance serves cached values for a
         // partition it just handed off.
         CacheDropPartition(sh, partition);
         if (!status.ok()) {
           // Stream failed; the partition stays put and this instance
           // keeps serving it.
           sh.migrating.erase(partition);
         } else if (partition < sh.table.num_partitions() &&
                    sh.table.OwnerOf(partition) == options_.self) {
           // The table still names this instance owner: hold the
           // kMigrating lock until the manager's ownership update lands,
           // or this window serves the just-erased store as primary.
           sh.handed_off.emplace(partition, had_data);
         } else {
           ReleaseHandoff(sh, partition, had_data);
         }
         done(std::move(status));
       });
}

void ZhtServer::ReleaseHandoff(Shard& shard, PartitionId partition,
                               bool had_data) {
  shard.migrating.erase(partition);
  if (!had_data) return;
  const auto chain =
      shard.table.ReplicaChain(partition, options_.cluster.num_replicas);
  if (std::find(chain.begin(), chain.end(), options_.self) != chain.end()) {
    // Still a replica for the partition we just handed off, with nothing
    // left to serve it from: refuse failover reads (rebuilding mark) until
    // the manager-commanded repair streams the copy back. The rebuild's
    // Begin simply re-marks; its End lifts the mark.
    shard.rebuilding.insert(partition);
    CacheDropPartition(shard, partition);
  }
}

Status ZhtServer::MigratePartitionTo(PartitionId partition,
                                     const NodeAddress& target) {
  return Await<Status>([&](auto done) {
    StartMigrateOut(partition, target, std::move(done));
  });
}

// ---------------------------------------------------------------------------
// Partition transfer + anti-entropy/online rebuild (DESIGN.md §7 "Partition
// transfer"). One Begin/Data*/End stream, verified by the destination's End
// digest check, serves migration and rebuild. For a rebuild the owner
// digest-probes its replica chain, streams to the members that mismatch,
// and the FIFO lane doubles as the catch-up replay: sync legs to an
// in-rebuild destination divert behind the stream's End, so the
// destination converges without ever blocking writes here.
// ---------------------------------------------------------------------------

PartitionDigest ZhtServer::DigestOfStore(const KVStore* store) {
  PartitionDigest digest;
  if (!store) return digest;
  store->ForEach([&digest](std::string_view key, std::string_view value) {
    ++digest.count;
    // Chain the key's CRC into the value's seed so the pair hashes as a
    // unit ((ab, c) and (a, bc) differ); XOR keeps the fold order-free.
    digest.crc ^= Crc32c(value, Crc32c(key));
  });
  return digest;
}

void ZhtServer::ExecDigest(Shard& shard, Request&& request,
                           ResponseCallback done) {
  Response resp;
  resp.seq = request.seq;
  resp.epoch = shard.table.epoch();
  auto it = shard.stores.find(request.partition);
  const KVStore* store = it != shard.stores.end() ? it->second.get() : nullptr;
  // A partition we do not hold digests as {0, 0} — indistinguishable from
  // empty, which is exactly right: both need the full stream.
  resp.value = DigestOfStore(store).Encode();
  done(std::move(resp));
}

void ZhtServer::ExecTransferBegin(Shard& shard, Request&& request,
                                  ResponseCallback done) {
  Response resp;
  resp.seq = request.seq;
  resp.epoch = shard.table.epoch();
  // The stream lands in a fresh in-memory store and only replaces the
  // canonical store after the End digest verifies — a source dying
  // mid-stream (or a torn stream) can never cost this instance its
  // existing copy, which may be the cluster's last.
  auto landing = NoVoHT::Open(NoVoHTOptions{});
  if (!landing.ok()) {
    resp.status = landing.status().raw();
    done(std::move(resp));
    return;
  }
  shard.landing[request.partition] = std::move(*landing);
  shard.rebuilding.insert(request.partition);
  // No fills can happen while the mark rejects reads, and the entries
  // cached so far describe the copy about to be replaced.
  CacheDropPartition(shard, request.partition);
  done(std::move(resp));
}

void ZhtServer::ExecTransferData(Shard& shard, Request&& request,
                                 ResponseCallback done) {
  Response resp;
  resp.seq = request.seq;
  auto landing = shard.landing.find(request.partition);
  if (landing == shard.landing.end()) {
    // Begin never arrived, or a restart or promotion dropped the stream:
    // refuse so the source's End verification fails and it re-streams.
    resp.status =
        Status(StatusCode::kInvalidArgument, "no transfer in progress").raw();
    done(std::move(resp));
    return;
  }
  auto pairs = UnpackPairs(request.value);
  if (!pairs.ok()) {
    resp.status = pairs.status().raw();
    done(std::move(resp));
    return;
  }
  for (const auto& [key, value] : *pairs) {
    Status put = landing->second->Put(key, value);
    if (!put.ok()) {
      resp.status = put.raw();
      break;
    }
  }
  done(std::move(resp));
}

void ZhtServer::ExecTransferEnd(Shard& shard, Request&& request,
                                ResponseCallback done) {
  Response resp;
  resp.seq = request.seq;
  resp.epoch = shard.table.epoch();
  auto expected = PartitionDigest::Decode(request.value);
  if (!expected.ok()) {
    resp.status = expected.status().raw();
    done(std::move(resp));
    return;
  }
  auto node = shard.landing.extract(request.partition);
  if (node.empty()) {
    // The stream was broken (we restarted, Begin was dropped, or a
    // membership change promoted us mid-stream): report corruption so the
    // source re-streams from scratch.
    resp.status =
        Status(StatusCode::kCorruption, "transfer stream broken").raw();
    done(std::move(resp));
    return;
  }
  shard.rebuilding.erase(request.partition);
  const std::unique_ptr<KVStore>& landing = node.mapped();
  const PartitionDigest mine = DigestOfStore(landing.get());
  resp.value = mine.Encode();
  if (!(mine == *expected)) {
    // Canonical store untouched; the landing store dies with `node`.
    resp.status =
        Status(StatusCode::kCorruption, "transfer digest mismatch").raw();
    done(std::move(resp));
    return;
  }
  // Verified: replace the canonical copy with the landing store's contents.
  // Both are shard-local, so the swap cannot be interrupted by a peer
  // failure — it either happens entirely or the End errors out. Clearing
  // first also truncates any stale log a persistent store reopened.
  KVStore* canonical = StoreIn(shard, request.partition);
  if (!canonical) {
    resp.status = Status(StatusCode::kInternal, "store factory failed").raw();
    done(std::move(resp));
    return;
  }
  Status swap = canonical->Clear();
  landing->ForEach([&](std::string_view key, std::string_view value) {
    if (swap.ok()) swap = canonical->Put(key, value);
  });
  CacheDropPartition(shard, request.partition);
  if (!swap.ok()) {
    resp.status = swap.raw();
    done(std::move(resp));
    return;
  }
  // A stream to chain depth 0 hands this instance the partition.
  if (request.replica_index == 0) {
    counters_.migrations_in->Increment();
  }
  // Ack End only once the swapped-in pairs are durable in the canonical
  // log — the source counts the transfer as done on that ack.
  const std::uint64_t token = canonical->last_commit_token();
  if (token == 0) {
    done(std::move(resp));
    return;
  }
  // The callback holds no store: a store erased before the fsync still
  // resolves its parked callbacks, and the last reference to a store must
  // never drop on the flusher thread that its destruction may join.
  canonical->NotifyDurable(
      token, [resp = std::move(resp),
              done = std::move(done)](Status durable) mutable {
        if (!durable.ok()) resp.status = durable.raw();
        done(std::move(resp));
      });
}

void ZhtServer::StartRebuild(PartitionId partition,
                             std::function<void(Status)> done) {
  Post(ShardForPartition(partition),
       [this, partition, done = std::move(done)](Shard& sh) mutable {
         if (sh.rebuild_out.count(partition)) {
           done(Status(StatusCode::kMigrating, "rebuild already in flight"));
           return;
         }
         const std::vector<InstanceId> chain = sh.table.ReplicaChain(
             partition, options_.cluster.num_replicas);
         if (chain.empty() || chain[0] != options_.self) {
           done(Status(StatusCode::kRedirect, "not the partition owner"));
           return;
         }
         std::vector<RebuildTarget> targets;
         for (std::size_t i = 1; i < chain.size(); ++i) {
           if (chain[i] == options_.self) continue;
           RebuildTarget target;
           target.id = chain[i];
           target.address = chain[i] < sh.table.instance_count()
                                ? sh.table.Instance(chain[i]).address
                                : NodeAddress{};
           target.replica_index = static_cast<std::uint8_t>(i);
           targets.push_back(std::move(target));
         }
         if (targets.empty()) {
           done(Status::Ok());
           return;
         }
         auto it = sh.stores.find(partition);
         const PartitionDigest mine = DigestOfStore(
             it != sh.stores.end() ? it->second.get() : nullptr);
         RebuildOut& out = sh.rebuild_out[partition];
         out.targets = targets;
         out.done = std::move(done);
         // Probe from a finisher (peer I/O); the stale subset posts back
         // into this shard to start the streams.
         EnqueueFinisher([this, partition, mine,
                          targets = std::move(targets)]() mutable {
           ProbeRebuildTargets(partition, mine, std::move(targets));
         });
       });
}

void ZhtServer::ProbeRebuildTargets(PartitionId partition, PartitionDigest mine,
                                    std::vector<RebuildTarget> targets) {
  std::vector<InstanceId> stale;
  for (const RebuildTarget& target : targets) {
    counters_.antientropy_probes->Increment();
    bool matched = false;
    if (!target.address.host.empty() || target.address.port != 0) {
      Request probe;
      probe.op = OpCode::kDigest;
      probe.partition = partition;
      probe.server_origin = true;
      auto result = peer_transport_->Call(target.address, probe,
                                          options_.cluster.peer_timeout);
      if (result.ok() && result->ok()) {
        auto theirs = PartitionDigest::Decode(result->value);
        matched = theirs.ok() && *theirs == mine;
      }
    }
    // An unreachable or undecodable member counts as stale: the stream
    // will either repair it or fail its End check and be abandoned.
    if (matched) {
      counters_.antientropy_clean->Increment();
    } else {
      stale.push_back(target.id);
    }
  }
  Post(ShardForPartition(partition),
       [this, partition, stale = std::move(stale)](Shard& sh) mutable {
         BeginRebuildStreams(sh, partition, std::move(stale));
       });
}

void ZhtServer::BeginRebuildStreams(Shard& shard, PartitionId partition,
                                    std::vector<InstanceId> stale) {
  auto it = shard.rebuild_out.find(partition);
  if (it == shard.rebuild_out.end()) return;
  RebuildOut& out = it->second;
  // Keep only the stale members; while a member stays listed here, sync
  // replication legs to it divert behind the stream (MakeReplicaPlan).
  out.targets.erase(
      std::remove_if(out.targets.begin(), out.targets.end(),
                     [&stale](const RebuildTarget& t) {
                       return std::find(stale.begin(), stale.end(), t.id) ==
                              stale.end();
                     }),
      out.targets.end());
  if (out.targets.empty()) {
    auto done = std::move(out.done);
    Status aggregate = std::move(out.aggregate);
    shard.rebuild_out.erase(it);
    if (done) done(std::move(aggregate));
    return;
  }
  for (RebuildTarget& target : out.targets) {
    StreamRebuildTarget(shard, partition, target);
  }
}

void ZhtServer::StreamTransfer(Shard& shard, PartitionId partition,
                               const NodeAddress& target,
                               std::uint8_t replica_index,
                               TransferDone on_end) {
  auto message = [partition, replica_index](OpCode op) {
    Request request;
    request.op = op;
    request.partition = partition;
    request.replica_index = replica_index;
    request.server_origin = true;
    return request;
  };
  // Snapshot, digest and batch in one in-shard pass, then queue the whole
  // Begin/Data*/End conversation before this shard task returns. Lane legs
  // are queued only in drains, so every later write's land after End —
  // that ordering IS the catch-up replay (and see RunLane for Begin).
  PartitionDigest digest;
  TransferSize size;
  std::vector<Request> carriers;
  std::vector<std::pair<std::string, std::string>> batch;
  std::size_t batch_bytes = 0;
  auto flush = [&] {
    if (batch.empty()) return;
    carriers.push_back(message(OpCode::kTransferData));
    carriers.back().value = PackPairs(batch);
    batch.clear();
    batch_bytes = 0;
  };
  auto it = shard.stores.find(partition);
  if (it != shard.stores.end() && it->second) {
    it->second->ForEach([&](std::string_view k, std::string_view v) {
      ++digest.count;
      digest.crc ^= Crc32c(v, Crc32c(k));
      ++size.pairs;
      size.bytes += k.size() + v.size();
      batch_bytes += k.size() + v.size() + 16;
      batch.emplace_back(k, v);
      if (batch_bytes >= kTransferBatchBytes) flush();
    });
  }
  flush();
  // A target that cannot take Begin cannot take the rest either: the
  // lane then drops the stream's legs instead of timing out on each.
  auto stream = std::make_shared<Status>();
  EnqueueAsyncLeg(message(OpCode::kTransferBegin), target,
                  [stream](const Result<Response>& result) {
                    if (!result.ok()) {
                      *stream = result.status();
                    } else if (!result->ok()) {
                      *stream = result->status_as_object();
                    }
                  },
                  stream);
  for (Request& data : carriers) {
    EnqueueAsyncLeg(std::move(data), target, nullptr, stream);
  }
  Request end = message(OpCode::kTransferEnd);
  end.value = digest.Encode();
  EnqueueAsyncLeg(std::move(end), target,
                  [size, on_end = std::move(on_end)](
                      const Result<Response>& result) {
                    on_end(result.ok() ? result->status_as_object()
                                       : result.status(),
                           size);
                  },
                  stream);
}

void ZhtServer::StreamRebuildTarget(Shard& shard, PartitionId partition,
                                    RebuildTarget& target) {
  ++target.attempts;
  if (target.attempts == 1) {
    counters_.rebuilds_started->Increment();
  } else {
    counters_.rebuild_retries->Increment();
  }
  const InstanceId id = target.id;
  StreamTransfer(
      shard, partition, target.address, target.replica_index,
      [this, partition, id](Status status, TransferSize size) {
        counters_.rebuild_pairs_streamed->Increment(size.pairs);
        Post(ShardForPartition(partition),
             [this, partition, id,
              status = std::move(status)](Shard& sh) mutable {
               FinishRebuildLeg(sh, partition, id, std::move(status));
             });
      });
}

void ZhtServer::FinishRebuildLeg(Shard& shard, PartitionId partition,
                                 InstanceId id, Status status) {
  auto it = shard.rebuild_out.find(partition);
  if (it == shard.rebuild_out.end()) return;
  RebuildOut& out = it->second;
  auto target_it =
      std::find_if(out.targets.begin(), out.targets.end(),
                   [id](const RebuildTarget& t) { return t.id == id; });
  if (target_it == out.targets.end()) return;
  if (!status.ok() && target_it->attempts < kRebuildMaxAttempts) {
    // Any End failure — transport, broken stream, digest mismatch — gets
    // a full re-stream from a fresh snapshot, up to the attempt budget.
    StreamRebuildTarget(shard, partition, *target_it);
    return;
  }
  if (status.ok()) {
    counters_.rebuilds_completed->Increment();
  } else {
    ZHT_WARN << "rebuild of partition " << partition << " to instance " << id
             << " abandoned: " << status.ToString();
    if (out.aggregate.ok()) out.aggregate = status;
  }
  out.targets.erase(target_it);
  if (out.targets.empty()) {
    auto done = std::move(out.done);
    Status aggregate = std::move(out.aggregate);
    shard.rebuild_out.erase(it);
    if (done) done(std::move(aggregate));
  }
}

Status ZhtServer::RepairPartition(PartitionId partition) {
  return Await<Status>(
      [&](auto done) { StartRebuild(partition, std::move(done)); });
}

PartitionDigest ZhtServer::PartitionDigestOf(PartitionId partition) {
  return Await<PartitionDigest>([&](auto done) {
    Post(ShardForPartition(partition), [partition, done](Shard& sh) {
      auto it = sh.stores.find(partition);
      done(DigestOfStore(it != sh.stores.end() ? it->second.get() : nullptr));
    });
  });
}

std::vector<std::pair<std::string, std::string>> ZhtServer::PartitionPairs(
    PartitionId partition) {
  using Pairs = std::vector<std::pair<std::string, std::string>>;
  Pairs pairs = Await<Pairs>([&](auto done) {
    Post(ShardForPartition(partition), [partition, done](Shard& sh) {
      Pairs pairs;
      auto it = sh.stores.find(partition);
      if (it != sh.stores.end() && it->second) {
        it->second->ForEach([&pairs](std::string_view k, std::string_view v) {
          pairs.emplace_back(std::string(k), std::string(v));
        });
      }
      done(std::move(pairs));
    });
  });
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

void ZhtServer::ExecBroadcast(Shard& shard, Request&& request,
                              ResponseCallback done) {
  const PartitionId partition = shard.table.PartitionOfKey(request.key);
  const std::size_t count = shard.table.instance_count();
  const std::size_t self_index = options_.self;

  KVStore* store = StoreIn(shard, partition);
  Status put = store ? store->Put(request.key, request.value)
                     : Status(StatusCode::kInternal, "store factory failed");
  counters_.broadcasts->Increment();

  // Binary spanning tree over instance ids (§VI "Broadcast primitive"):
  // node i forwards to 2i+1 and 2i+2. Children's addresses resolve here,
  // in-shard.
  std::vector<NodeAddress> children;
  for (std::size_t child : {2 * self_index + 1, 2 * self_index + 2}) {
    if (child >= count) continue;
    if (child < shard.table.instance_count()) {
      children.push_back(
          shard.table.Instance(static_cast<InstanceId>(child)).address);
    }
  }

  // The hops are queued here, like every lane leg; the reply waits.
  request.server_origin = true;
  for (const NodeAddress& child : children) EnqueueAsyncLeg(request, child);
  const CommitPoint commit =
      put.ok() ? CommitPointOf(shard, partition) : CommitPoint{};
  auto fin = [seq = request.seq, put,
              done = std::move(done)](Status durable) mutable {
    Response resp;
    resp.seq = seq;
    resp.status = (put.ok() ? durable : put).raw();
    done(std::move(resp));
  };
  if (commit.token != 0) {
    commit.store->NotifyDurable(commit.token, std::move(fin));
  } else {
    fin(Status::Ok());
  }
}

// ---------------------------------------------------------------------------
// Replication and the peer-I/O pool (addresses pre-resolved in-shard)
// ---------------------------------------------------------------------------

void ZhtServer::AddLeg(const Request& op, PartitionId partition,
                       const ReplicaLeg& target, LegGroups* groups) {
  auto& group = (*groups)[target.id];
  group.first = target.address;
  Request& leg = group.second.emplace_back(op);
  leg.server_origin = true;
  leg.partition = partition;
  leg.replica_index = target.replica_index;
}

void ZhtServer::SendReplicaLegs(std::span<const Request> ops,
                                std::span<const ReplicaPlan> plans) {
  // The sync legs of each target go out as one CallBatch — one plain Call
  // for a single leg — before the op (or the carrier) acks.
  LegGroups groups;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    for (const ReplicaLeg& target : plans[i].sync) {
      AddLeg(ops[i], plans[i].partition, target, &groups);
    }
  }
  for (auto& [target_id, group] : groups) {
    counters_.replications_sync->Increment(group.second.size());
    auto result = peer_transport_->CallBatch(group.first, group.second,
                                             options_.cluster.peer_timeout);
    if (!result.ok()) {
      counters_.replications_sync_failed->Increment(group.second.size());
      ZHT_WARN << "sync replication to " << group.first.ToString()
               << " failed: " << result.status().ToString();
    }
  }
}

void ZhtServer::QueueLaneLegs(LegGroups& groups) {
  for (auto& [target_id, group] : groups) {
    counters_.replications_async->Increment(group.second.size());
    EnqueueAsyncLeg(
        group.second.size() == 1
            ? std::move(group.second.front())
            : PackBatchRequest(group.second, group.second.front().seq,
                               /*server_origin=*/true),
        group.first);
  }
}

void ZhtServer::EnqueueAsyncLeg(
    Request request, const NodeAddress& target,
    std::function<void(const Result<Response>&)> on_result,
    std::shared_ptr<Status> stream) {
  {
    std::lock_guard<std::mutex> lock(finisher_mu_);
    lane_.push_back(AsyncLeg{std::move(request), target, std::move(on_result),
                             std::move(stream), next_ticket_});
    if (lane_.size() > 1) return;  // the lane's run is queued or going
    // No ticket: a Begin the run holds must not wait for the run itself.
    finisher_queue_.push_back(FinisherJob{[this] { RunLane(); },
                                          SystemClock::Instance().Now()});
  }
  finisher_cv_.notify_one();
}

void ZhtServer::RunLane() {
  std::unique_lock<std::mutex> lock(finisher_mu_);
  while (!lane_.empty()) {
    // The leg in flight stays at the front (only this run pops; a push does
    // not move it), so the reference outlives the unlock.
    AsyncLeg& item = lane_.front();
    if (item.request.op == OpCode::kTransferBegin) {
      // Sync legs of writes in the snapshot took older tickets.
      finisher_idle_cv_.wait(lock, [this, &item] {
        return outstanding_.empty() || *outstanding_.begin() >= item.ticket;
      });
    }
    lock.unlock();
    if (item.stream && !item.stream->ok()) {
      // Begin failed: skip the leg; End reports that failure.
      if (item.on_result) item.on_result(Result<Response>(*item.stream));
    } else if (!item.target.host.empty() || item.target.port != 0) {
      auto result = peer_transport_->Call(item.target, item.request,
                                          options_.cluster.peer_timeout);
      if (!result.ok()) {
        ZHT_DEBUG << "async replication to " << item.target.ToString()
                  << " failed: " << result.status().ToString();
      }
      if (item.on_result) item.on_result(result);
    } else if (item.on_result) {
      item.on_result(
          Result<Response>(Status(StatusCode::kUnavailable, "no address")));
    }
    lock.lock();
    lane_.pop_front();
  }
}

void ZhtServer::FlushAsyncReplication() {
  // Work a job starts (a probe's streams, a stream's follow-up) is queued
  // before the job counts as finished, so one idle observation covers it.
  std::unique_lock<std::mutex> lock(finisher_mu_);
  finisher_idle_cv_.wait(lock, [this] {
    return finisher_queue_.empty() && finisher_busy_ == 0 && lane_.empty();
  });
}

void ZhtServer::EnqueueFinisher(std::function<void()> job,
                                std::uint64_t ticket) {
  const Nanos enqueued = SystemClock::Instance().Now();
  if (ticket == 0) ticket = ReserveTicket();
  {
    std::lock_guard<std::mutex> lock(finisher_mu_);
    finisher_queue_.push_back(FinisherJob{std::move(job), enqueued, ticket});
  }
  finisher_cv_.notify_one();
}

std::uint64_t ZhtServer::ReserveTicket() {
  std::lock_guard<std::mutex> lock(finisher_mu_);
  outstanding_.insert(outstanding_.end(), next_ticket_);
  return next_ticket_++;
}

void ZhtServer::ReleaseTicket(std::uint64_t ticket) {
  if (ticket == 0) return;
  std::lock_guard<std::mutex> lock(finisher_mu_);
  // Only the oldest ticket's release can let a held Begin go on.
  if (*outstanding_.begin() == ticket) finisher_idle_cv_.notify_all();
  outstanding_.erase(ticket);
}

void ZhtServer::FinisherLoop() {
  for (;;) {
    FinisherJob job;
    {
      std::unique_lock<std::mutex> lock(finisher_mu_);
      finisher_cv_.wait(
          lock, [this] { return finishers_stop_ || !finisher_queue_.empty(); });
      if (finisher_queue_.empty()) return;  // finishers_stop_ && drained
      job = std::move(finisher_queue_.front());
      finisher_queue_.pop_front();
      ++finisher_busy_;
    }
    finisher_wait_hist_->Record(SystemClock::Instance().Now() - job.enqueued);
    job.run();
    ReleaseTicket(job.ticket);
    {
      std::lock_guard<std::mutex> lock(finisher_mu_);
      --finisher_busy_;
      if (finisher_queue_.empty() && finisher_busy_ == 0) {
        finisher_idle_cv_.notify_all();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Stats / census (scatter over every shard, gather with completion count)
// ---------------------------------------------------------------------------

ZhtServerStats ZhtServer::stats() const {
  ZhtServerStats s;
  s.ops = counters_.ops->value();
  s.redirects = counters_.redirects->value();
  s.replications_sync = counters_.replications_sync->value();
  s.replications_async = counters_.replications_async->value();
  s.replications_sync_failed = counters_.replications_sync_failed->value();
  s.migrations_out = counters_.migrations_out->value();
  s.migrations_in = counters_.migrations_in->value();
  s.migration_pairs_streamed = counters_.migration_pairs_streamed->value();
  s.migration_bytes_streamed = counters_.migration_bytes_streamed->value();
  s.broadcasts = counters_.broadcasts->value();
  s.duplicate_appends_dropped = counters_.duplicate_appends_dropped->value();
  s.antientropy_probes = counters_.antientropy_probes->value();
  s.antientropy_clean = counters_.antientropy_clean->value();
  s.rebuilds_started = counters_.rebuilds_started->value();
  s.rebuilds_completed = counters_.rebuilds_completed->value();
  s.rebuild_pairs_streamed = counters_.rebuild_pairs_streamed->value();
  s.rebuild_retries = counters_.rebuild_retries->value();
  s.hot_cache_hits = counters_.hot_cache_hits->value();
  s.hot_cache_misses = counters_.hot_cache_misses->value();
  s.hot_cache_invalidations = counters_.hot_cache_invalidations->value();
  s.hot_cache_drops = counters_.hot_cache_drops->value();
  s.sheds = counters_.sheds->value();
  return s;
}

void ZhtServer::ScatterCensus(
    std::function<void(std::vector<ShardCensus>)> done) const {
  // Posting census tasks mutates only mailbox state; the census itself
  // reads shard-owned stores inside their drains.
  auto* self = const_cast<ZhtServer*>(this);
  struct Gather {
    std::vector<ShardCensus> per;
    std::atomic<std::size_t> remaining{0};
    std::function<void(std::vector<ShardCensus>)> done;
  };
  auto gather = std::make_shared<Gather>();
  gather->per.resize(shards_.size());
  gather->remaining.store(shards_.size(), kRelaxed);
  gather->done = std::move(done);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    self->Post(*shards_[s], [gather, s](Shard& sh) {
      ShardCensus& census = gather->per[s];
      census.held = sh.stores.size();
      for (const auto& [partition, store] : sh.stores) {
        if (!store) continue;
        census.entries += store->Size();
        StoreDurabilityMetrics one;
        if (store->durability_metrics(&one)) {
          AddLogMetrics(std::move(one), &census.logs);
        }
      }
      if (gather->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        gather->done(std::move(gather->per));
      }
    });
  }
}

MetricsSnapshot ZhtServer::BuildSnapshot(
    const std::vector<ShardCensus>& census) const {
  // Snapshot-time values first (the instance-level gauges, the per-log
  // durability census, and the per-shard mailbox telemetry summed across
  // shards), then every event counter and histogram in the registry.
  MetricsSnapshot snapshot;
  std::uint64_t entries = 0;
  std::size_t held = 0;
  std::vector<StoreDurabilityMetrics> logs;
  for (const ShardCensus& c : census) {
    entries += c.entries;
    held += c.held;
    for (const StoreDurabilityMetrics& log : c.logs) AddLogMetrics(log, &logs);
  }
  // Durability telemetry counts each log once, however many stores share it.
  StoreDurabilityMetrics durability;
  for (const StoreDurabilityMetrics& log : logs) {
    durability.group_commit_batch.Merge(log.group_commit_batch);
    durability.fsync_micros.Merge(log.fsync_micros);
    durability.fsync_errors += log.fsync_errors;
    durability.group_commits += log.group_commits;
  }
  const bool any_durability = !logs.empty();
  snapshot.AddGauge("instance", static_cast<std::int64_t>(options_.self));
  snapshot.AddGauge("epoch", epoch_.load(kRelaxed));
  snapshot.AddGauge("partitions_held", static_cast<std::int64_t>(held));
  snapshot.AddGauge("entries", static_cast<std::int64_t>(entries));
  if (any_durability) {
    snapshot.AddCounter("novoht.fsync_errors", durability.fsync_errors);
    snapshot.AddCounter("novoht.group_commits", durability.group_commits);
    snapshot.AddHistogram("novoht.group_commit.batch_size",
                          durability.group_commit_batch);
    snapshot.AddHistogram("novoht.group_commit.fsync_micros",
                          durability.fsync_micros);
  }
  std::uint64_t forwards = 0;
  HistogramData mailbox_depth;
  for (const auto& shard : shards_) {
    forwards += shard->forwarded.load(kRelaxed);
    mailbox_depth.Merge(shard->mailbox_depth.Snapshot());
  }
  snapshot.AddCounter("reactor.forwards", forwards);
  snapshot.AddHistogram("server.mailbox.depth", std::move(mailbox_depth));
  MetricsSnapshot registry = metrics_.Snapshot();
  snapshot.entries.insert(snapshot.entries.end(),
                          std::make_move_iterator(registry.entries.begin()),
                          std::make_move_iterator(registry.entries.end()));
  return snapshot;
}

std::vector<ZhtServer::ShardCensus> ZhtServer::CensusNow() const {
  return Await<std::vector<ShardCensus>>(
      [this](auto done) { ScatterCensus(std::move(done)); });
}

MetricsSnapshot ZhtServer::MetricsSnapshotNow() const {
  return BuildSnapshot(CensusNow());
}

std::uint64_t ZhtServer::TotalEntries() const {
  std::uint64_t total = 0;
  for (const ShardCensus& c : CensusNow()) total += c.entries;
  return total;
}

std::vector<std::size_t> ZhtServer::ShardPartitionCounts() const {
  std::vector<std::size_t> counts;
  for (const ShardCensus& c : CensusNow()) counts.push_back(c.held);
  return counts;
}

std::uint64_t ZhtServer::ShardForwardedOps(std::size_t shard) const {
  return shard < shards_.size() ? shards_[shard]->forwarded.load(kRelaxed) : 0;
}

HistogramData ZhtServer::ShardMailboxDepth(std::size_t shard) const {
  return shard < shards_.size() ? shards_[shard]->mailbox_depth.Snapshot()
                                : HistogramData{};
}

std::uint64_t ZhtServer::ShardQueuedNow(std::size_t shard) const {
  return shard < shards_.size()
             ? shards_[shard]->queued.load(std::memory_order_acquire)
             : 0;
}

std::uint64_t ZhtServer::HotCacheEntriesNow() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->hot_cache.size();
  return total;
}

// ---------------------------------------------------------------------------
// Hot-key cache + admission control (DESIGN.md §13)
// ---------------------------------------------------------------------------

bool ZhtServer::CacheLookup(Shard& shard, std::string_view key,
                            std::string* value) {
  if (!shard.hot_cache.enabled()) return false;
  if (shard.hot_cache.TryGet(key, value)) {
    counters_.hot_cache_hits->Increment();
    return true;
  }
  counters_.hot_cache_misses->Increment();
  return false;
}

bool ZhtServer::TryServeFromCache(Shard& shard, const Request& request,
                                  const ResponseCallback& done, Nanos start) {
  // Ingress fast path: a hit skips the mailbox hop, the routing pass, and
  // the store lookup entirely. Safe from any thread — the cache only holds
  // entries for partitions this instance owns and has quiesced (see the
  // staleness contract in hot_key_cache.h).
  if (!shard.hot_cache.enabled() || request.server_origin) return false;
  Response resp;
  resp.seq = request.seq;
  resp.epoch = epoch_.load(kRelaxed);
  if (!CacheLookup(shard, request.key, &resp.value)) return false;
  counters_.ops->Increment();
  done(std::move(resp));
  RecordDataOpLatency(OpCode::kLookup, start);
  return true;
}

std::uint32_t ZhtServer::AdmissionRetryHint(Shard& shard) const {
  const std::size_t budget = options_.cluster.shed_queue_budget;
  if (budget == 0) return 0;
  const std::uint64_t depth = shard.queued.load(std::memory_order_acquire);
  const std::uint64_t bytes = shard.inflight_bytes.load(kRelaxed);
  const std::uint64_t byte_budget =
      static_cast<std::uint64_t>(budget) * kShedBytesPerSlot;
  const std::uint64_t over = std::max(depth / budget, bytes / byte_budget);
  if (over == 0) return 0;
  // The hint scales with how far past its budget the shard is, so a deeply
  // backed-up shard spreads its retry storm wider; capped to keep a
  // transient spike from parking clients for a human-visible pause.
  constexpr std::uint64_t kBaseUs = 1000;
  constexpr std::uint64_t kCapUs = 64000;
  return static_cast<std::uint32_t>(std::min(kCapUs, kBaseUs * over));
}

bool ZhtServer::MaybeShed(Shard& shard, const Request& request,
                          const ResponseCallback& done) {
  // Server-origin traffic (replication legs, migration/rebuild streams)
  // is never shed: dropping it would trade overload for inconsistency.
  if (request.server_origin) return false;
  const std::uint32_t hint = AdmissionRetryHint(shard);
  if (hint == 0) return false;
  counters_.sheds->Increment();
  Response resp;
  resp.seq = request.seq;
  resp.epoch = epoch_.load(kRelaxed);
  resp.status =
      Status(StatusCode::kUnavailable, "shard over admission budget").raw();
  resp.retry_after_us = hint;
  done(std::move(resp));
  return true;
}

void ZhtServer::CacheFill(Shard& shard, PartitionId partition,
                          std::string_view key, std::string_view value) {
  shard.hot_cache.Put(key, partition, value);
}

void ZhtServer::CacheInvalidate(Shard& shard, std::string_view key) {
  if (shard.hot_cache.Invalidate(key)) {
    counters_.hot_cache_invalidations->Increment();
  }
}

void ZhtServer::CacheDropPartition(Shard& shard, PartitionId partition) {
  const std::size_t dropped = shard.hot_cache.DropPartition(partition);
  if (dropped != 0) {
    counters_.hot_cache_drops->Increment(dropped);
  }
}

void ZhtServer::CacheClear(Shard& shard) {
  const std::size_t dropped = shard.hot_cache.Clear();
  if (dropped != 0) {
    counters_.hot_cache_drops->Increment(dropped);
  }
}

}  // namespace zht
