#include "core/zht_client.h"

#include <algorithm>
#include <random>
#include <thread>
#include <unordered_set>

#include "common/clock.h"
#include "common/log.h"

namespace zht {

Nanos DecorrelatedBackoff(Nanos prev, Nanos base, Nanos cap, Rng& rng) {
  if (base <= 0) return 0;
  if (cap < base) cap = base;
  if (prev < base) return base;  // first retry: start at the base
  const Nanos hi = prev > cap / 3 ? cap : prev * 3;
  if (hi <= base) return base;
  return base + static_cast<Nanos>(
                    rng.Below(static_cast<std::uint64_t>(hi - base) + 1));
}

ZhtClient::ZhtClient(MembershipTable table, const ZhtClientOptions& options,
                     ClientTransport* transport)
    : table_(std::move(table)),
      options_(options),
      transport_(transport),
      detector_(options.failure_detector) {
  static constexpr const char* kDataOpNames[4] = {"insert", "lookup", "remove",
                                                  "append"};
  for (int i = 0; i < 4; ++i) {
    op_hist_[i] = metrics_.GetHistogram(std::string("client.op.") +
                                        kDataOpNames[i] + ".latency_ns");
  }
  batch_hist_ = metrics_.GetHistogram("client.op.batch.latency_ns");
  batch_size_hist_ = metrics_.GetHistogram("client.batch.size");
  counters_.ops = metrics_.GetCounter("client.ops");
  counters_.redirects_followed =
      metrics_.GetCounter("client.redirects_followed");
  counters_.failovers = metrics_.GetCounter("client.failovers");
  counters_.retries = metrics_.GetCounter("client.retries");
  counters_.nodes_reported_dead =
      metrics_.GetCounter("client.nodes_reported_dead");
  counters_.shed_backoffs = metrics_.GetCounter("client.shed_backoffs");
  counters_.membership_pulls = metrics_.GetCounter("client.membership_pulls");
  if (options.client_id != 0) {
    client_id_ = options.client_id;
  } else {
    std::random_device device;
    client_id_ = (static_cast<std::uint64_t>(device()) << 32) | device();
    if (client_id_ == 0) client_id_ = 1;
  }
  backoff_rng_.Seed(client_id_);
}

ZhtClientStats ZhtClient::stats() const {
  ZhtClientStats s;
  s.ops = counters_.ops->value();
  s.redirects_followed = counters_.redirects_followed->value();
  s.failovers = counters_.failovers->value();
  s.retries = counters_.retries->value();
  s.nodes_reported_dead = counters_.nodes_reported_dead->value();
  s.shed_backoffs = counters_.shed_backoffs->value();
  s.membership_pulls = counters_.membership_pulls->value();
  return s;
}

void ZhtClient::Backoff(Nanos duration) {
  if (duration > 0 && options_.sleep_on_backoff) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(duration));
  }
}

Status ZhtClient::ApplyMembership(std::string_view update) {
  // Addresses alive before the update: any address that is alive AFTER but
  // was not alive before (a rejoined instance, or a fresh join at a reused
  // endpoint) must shed its detector state — stale consecutive-failure
  // counts from the previous incarnation would otherwise suppress or slow
  // traffic to a healthy node.
  std::unordered_set<NodeAddress> alive_before;
  for (const auto& info : table_.instances()) {
    if (info.alive) alive_before.insert(info.address);
  }
  Status applied = table_.ApplyUpdate(update);
  if (applied.ok()) {
    std::unordered_set<NodeAddress> current;
    for (const auto& info : table_.instances()) {
      current.insert(info.address);
      if (info.alive && !alive_before.count(info.address)) {
        detector_.RecordSuccess(info.address);  // drop stale failure marks
      }
    }
    detector_.PruneExcept(current);
  }
  return applied;
}

void ZhtClient::MaybePullMembership(const NodeAddress& from,
                                    std::uint32_t observed_epoch) {
  // Rate limit: one snapshot per membership epoch. During churn every
  // redirected op used to trigger its own full-table pull — a migration
  // became a thundering herd of snapshot fetches at whichever node
  // redirected first.
  if (observed_epoch != 0 && last_pull_epoch_ >= observed_epoch) return;
  if (pull_inflight_) return;
  pull_inflight_ = true;
  counters_.membership_pulls->Increment();
  Request pull;
  pull.op = OpCode::kMembershipPull;
  pull.seq = next_seq_++;
  pull.epoch = table_.epoch();
  auto snapshot = transport_->Call(from, pull, options_.cluster.op_timeout);
  if (snapshot.ok() && !snapshot->membership.empty() &&
      ApplyMembership(snapshot->membership).ok()) {
    last_pull_epoch_ =
        std::max({last_pull_epoch_, table_.epoch(), observed_epoch});
  }
  pull_inflight_ = false;
}

void ZhtClient::ReportFailure(InstanceId instance) {
  counters_.nodes_reported_dead->Increment();
  table_.SuspectDead(instance);
  if (!options_.manager) return;
  // Inform a manager (§III.C): it rebroadcasts membership and triggers
  // replica rebuilding. Best effort.
  Request report;
  report.op = OpCode::kDepartRequest;
  report.seq = next_seq_++;
  report.key = std::to_string(instance);
  report.value = "failed";
  report.epoch = table_.epoch();
  auto result =
      transport_->Call(*options_.manager, report, options_.cluster.op_timeout);
  if (!result.ok()) {
    ZHT_WARN << "failure report to manager failed: "
             << result.status().ToString();
  }
}

Result<Response> ZhtClient::Execute(OpCode op, std::string_view key,
                                    std::string_view value) {
  const Stopwatch watch(SystemClock::Instance());
  Result<Response> result(StatusCode::kTimeout);
  ExecuteBatch(op, {&key, 1}, {&value, 1}, {&result, 1});
  op_hist_[static_cast<std::size_t>(op) - 1]->Record(watch.Elapsed());
  return result;
}

std::vector<Result<Response>> ZhtClient::ExecuteMulti(
    OpCode op, std::span<const std::string_view> keys,
    std::span<const std::string_view> values) {
  const Stopwatch watch(SystemClock::Instance());
  batch_size_hist_->Record(static_cast<std::int64_t>(keys.size()));
  std::vector<Result<Response>> results(keys.size(),
                                        Status(StatusCode::kTimeout));
  ExecuteBatch(op, keys, values, results);
  batch_hist_->Record(watch.Elapsed());
  return results;
}

void ZhtClient::ExecuteBatch(OpCode op, std::span<const std::string_view> keys,
                             std::span<const std::string_view> values,
                             std::span<Result<Response>> results) {
  const std::size_t n = keys.size();
  counters_.ops->Increment(n);
  if (n == 0) return;

  struct KeyState {
    // One sequence number per key, fixed across retries and retransmitted
    // carriers: the server dedups appends on (client_id, seq).
    std::uint64_t seq = 0;
    int replica_try = 0;  // chain position this key is sent to
    // The latest transport-level failure, so exhaustion can tell a slow
    // cluster (kTimeout) from a dead one (kUnavailable).
    StatusCode last_transport = StatusCode::kTimeout;
    bool done = false;  // results[i] holds the key's final outcome
  };
  std::vector<KeyState> state(n);
  for (KeyState& key : state) key.seq = next_seq_++;
  std::size_t open = n;  // keys not yet done
  auto finish = [&](std::size_t i, Result<Response> result) {
    results[i] = std::move(result);
    state[i].done = true;
    --open;
  };
  Nanos migrating_wait = 0;  // grows per round that saw kMigrating
  Nanos shed_wait = 0;       // grows per round that saw a shed

  // Three independent retry pools (see ZhtClientOptions::max_attempts),
  // counted per round: rounds that saw a transport failure or redirect
  // consume the hard budget; rounds that only waited out a migration or a
  // shed draw from their own pools, so overlapping stalls under churn
  // cannot exhaust the call spuriously.
  int hard_rounds = 0;
  int migrating_rounds = 0;
  int shed_rounds = 0;

  while (open > 0 && hard_rounds < options_.max_attempts &&
         migrating_rounds < options_.max_attempts &&
         shed_rounds < options_.max_attempts) {
    // Shard the open keys by target instance: the primary for most,
    // further down the chain for keys already failing over. Sorted
    // (target, key index) pairs group each target's keys in input order.
    std::vector<std::pair<InstanceId, std::size_t>> placements;
    for (std::size_t i = 0; i < n; ++i) {
      if (state[i].done) continue;
      PartitionId partition = table_.PartitionOfKey(keys[i]);
      auto chain =
          table_.ReplicaChain(partition, options_.cluster.num_replicas);
      if (chain.empty()) {
        finish(i,
               Status(StatusCode::kUnavailable, "no alive instance for key"));
        continue;
      }
      int& replica_try = state[i].replica_try;
      bool placed = false;
      for (int pass = 0; pass < 2 && !placed; ++pass) {
        while (replica_try < static_cast<int>(chain.size())) {
          InstanceId target = chain[static_cast<std::size_t>(replica_try)];
          if (!table_.Instance(target).alive) {
            // Known-dead (locally marked) node still heads the chain until
            // a membership update reassigns ownership: skip without a hop.
            ++replica_try;
            continue;
          }
          placements.emplace_back(target, i);
          placed = true;
          break;
        }
        // Lookups are read-only and side-effect free: they wrap and walk
        // the chain again as long as some member is still believed alive
        // (the attempt budget bounds the re-walks), so a transient failure
        // burst does not blind reads.
        if (!placed && op == OpCode::kLookup) replica_try = 0;
      }
      if (!placed) {
        finish(i, Status(StatusCode::kUnavailable,
                         "all replicas of partition " +
                             std::to_string(partition) + " unreachable"));
      }
    }

    bool hard_seen = false;  // transport failure or redirect this round
    bool migrating_seen = false;
    Nanos shed_hint = 0;  // largest retry-after seen this round (0 = none)
    std::sort(placements.begin(), placements.end());
    for (auto begin = placements.begin(); begin != placements.end();) {
      const InstanceId target = begin->first;
      const auto end = std::find_if(begin, placements.end(),
                                    [target](const auto& placement) {
                                      return placement.first != target;
                                    });
      const std::span<const std::pair<InstanceId, std::size_t>> shard(begin,
                                                                      end);
      begin = end;
      const NodeAddress address = table_.Instance(target).address;
      std::vector<Request> batch(shard.size());
      for (std::size_t j = 0; j < shard.size(); ++j) {
        const std::size_t i = shard[j].second;
        Request& request = batch[j];
        request.op = op;
        request.seq = state[i].seq;
        request.key.assign(keys[i]);
        if (!values.empty()) request.value.assign(values[i]);
        request.epoch = table_.epoch();
        request.replica_index =
            static_cast<std::uint8_t>(state[i].replica_try);
        request.client_id = client_id_;
      }

      // A one-key shard goes out as one plain request (see CallBatch).
      auto replies =
          transport_->CallBatch(address, batch, options_.cluster.op_timeout);
      if (!replies.ok()) {
        // Transport failure: the shard shared one network exchange, so it
        // backs off once, then retries the same node or fails over to the
        // next replica together once the detector declares it dead. Reads
        // falling back this way land on the sync secondary, which holds
        // every acked mutation (the secondary leg completes before the
        // primary acks), so failover lookups stay consistent while the
        // owner is down or its partitions rebuild.
        counters_.retries->Increment();
        hard_seen = true;
        Backoff(detector_.BackoffFor(address));
        const bool dead = detector_.RecordFailure(address);
        if (dead) {
          ReportFailure(target);
          transport_->Invalidate(address);
          counters_.failovers->Increment();
        }
        for (const auto& placement : shard) {
          KeyState& key = state[placement.second];
          key.last_transport = replies.status().code();
          if (dead) ++key.replica_try;
        }
        continue;
      }
      detector_.RecordSuccess(address);

      bool membership_applied = false;
      for (std::size_t j = 0; j < shard.size(); ++j) {
        const std::size_t i = shard[j].second;
        Response& sub = (*replies)[j];
        const StatusCode code = static_cast<StatusCode>(sub.status);
        if (code == StatusCode::kRedirect) {
          // Partition moved: apply the piggybacked delta once (the server
          // attaches it to the first redirected sub-op) and re-shard the
          // key next round.
          counters_.redirects_followed->Increment();
          hard_seen = true;
          if (!membership_applied) {
            membership_applied = true;
            bool applied = !sub.membership.empty() &&
                           ApplyMembership(sub.membership).ok();
            if (!applied) {
              // Delta missing or did not apply (e.g. we were too far
              // behind): one coalesced snapshot pull per epoch for the
              // whole redirect storm (see MaybePullMembership).
              MaybePullMembership(address, sub.epoch);
            }
          }
          state[i].replica_try = 0;
          state[i].last_transport = StatusCode::kTimeout;
          continue;
        }
        if (code == StatusCode::kMigrating) {
          counters_.retries->Increment();
          migrating_seen = true;
          state[i].last_transport = StatusCode::kTimeout;
          continue;
        }
        if (code == StatusCode::kUnavailable && sub.retry_after_us > 0 &&
            shed_rounds + 1 < options_.max_attempts) {
          // Shed under admission control: the key retries next round after
          // the hinted pause (the round waits for the largest hint seen).
          // On the final shed round the shed response stands.
          counters_.retries->Increment();
          counters_.shed_backoffs->Increment();
          shed_hint = std::max(
              shed_hint, static_cast<Nanos>(sub.retry_after_us) * 1000);
          state[i].last_transport = StatusCode::kTimeout;
          continue;
        }
        finish(i, std::move(sub));
      }
    }
    if (hard_seen) ++hard_rounds;
    if (migrating_seen) {
      // Jittered growth desynchronizes the herd stuck behind one
      // migration; the fixed base is kept when sleeps are disabled so
      // simulated-time tests stay deterministic (no RNG draw).
      ++migrating_rounds;
      migrating_wait =
          options_.sleep_on_backoff
              ? DecorrelatedBackoff(migrating_wait, options_.migrating_backoff,
                                    options_.migrating_backoff_cap,
                                    backoff_rng_)
              : options_.migrating_backoff;
      Backoff(migrating_wait);
    }
    if (shed_hint > 0) {
      // The server told us how long to stay away; the same decorrelated
      // jitter spreads a shed flash crowd out instead of letting it
      // re-arrive as a synchronized wave.
      ++shed_rounds;
      shed_wait =
          options_.sleep_on_backoff
              ? DecorrelatedBackoff(
                    shed_wait, shed_hint,
                    std::max(shed_hint, options_.migrating_backoff_cap),
                    backoff_rng_)
              : shed_hint;
      Backoff(shed_wait);
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (state[i].done) continue;
    results[i] = state[i].last_transport == StatusCode::kNetwork
                     ? Status(StatusCode::kUnavailable, "node unreachable")
                     : Status(StatusCode::kTimeout, "attempts exhausted");
  }
}

Status ZhtClient::Insert(std::string_view key, std::string_view value) {
  auto result = Execute(OpCode::kInsert, key, value);
  if (!result.ok()) return result.status();
  return result->status_as_object();
}

Result<std::string> ZhtClient::Lookup(std::string_view key) {
  auto result = Execute(OpCode::kLookup, key, {});
  if (!result.ok()) return result.status();
  if (!result->ok()) return result->status_as_object();
  return std::move(result->value);
}

Status ZhtClient::Remove(std::string_view key) {
  auto result = Execute(OpCode::kRemove, key, {});
  if (!result.ok()) return result.status();
  return result->status_as_object();
}

Status ZhtClient::Append(std::string_view key, std::string_view value) {
  auto result = Execute(OpCode::kAppend, key, value);
  if (!result.ok()) return result.status();
  return result->status_as_object();
}

namespace {

std::vector<Status> FlattenStatuses(std::vector<Result<Response>> responses) {
  std::vector<Status> out;
  out.reserve(responses.size());
  for (auto& response : responses) {
    out.push_back(response.ok() ? response->status_as_object()
                                : response.status());
  }
  return out;
}

std::vector<std::string_view> Views(std::span<const std::string> strings) {
  return {strings.begin(), strings.end()};
}

}  // namespace

std::vector<Status> ZhtClient::MultiInsert(std::span<const KeyValue> pairs) {
  std::vector<std::string_view> keys;
  std::vector<std::string_view> values;
  keys.reserve(pairs.size());
  values.reserve(pairs.size());
  for (const KeyValue& pair : pairs) {
    keys.push_back(pair.key);
    values.push_back(pair.value);
  }
  return FlattenStatuses(ExecuteMulti(OpCode::kInsert, keys, values));
}

std::vector<Result<std::string>> ZhtClient::MultiLookup(
    std::span<const std::string> keys) {
  auto responses = ExecuteMulti(OpCode::kLookup, Views(keys), {});
  std::vector<Result<std::string>> out;
  out.reserve(responses.size());
  for (auto& response : responses) {
    if (!response.ok()) {
      out.push_back(response.status());
    } else if (!response->ok()) {
      out.push_back(response->status_as_object());
    } else {
      out.push_back(std::move(response->value));
    }
  }
  return out;
}

std::vector<Status> ZhtClient::MultiRemove(std::span<const std::string> keys) {
  return FlattenStatuses(ExecuteMulti(OpCode::kRemove, Views(keys), {}));
}

Status ZhtClient::Ping(InstanceId instance) {
  if (instance >= table_.instance_count()) {
    return Status(StatusCode::kInvalidArgument, "no such instance");
  }
  Request request;
  request.op = OpCode::kPing;
  request.seq = next_seq_++;
  request.epoch = table_.epoch();
  auto result = transport_->Call(table_.Instance(instance).address, request,
                                 options_.cluster.op_timeout);
  if (!result.ok()) return result.status();
  return result->status_as_object();
}

Status ZhtClient::Broadcast(std::string_view key, std::string_view value) {
  Request request;
  request.op = OpCode::kBroadcast;
  request.seq = next_seq_++;
  request.key.assign(key);
  request.value.assign(value);
  request.epoch = table_.epoch();
  // The spanning tree is built over the alive instances and rooted at the
  // first of them.
  const std::vector<InstanceId> alive = table_.AliveIds();
  if (alive.empty()) {
    return Status(StatusCode::kUnavailable, "no alive instance");
  }
  auto result = transport_->Call(table_.Instance(alive.front()).address,
                                 request, options_.cluster.op_timeout);
  if (!result.ok()) return result.status();
  return result->status_as_object();
}

Status ZhtClient::RefreshMembership(std::optional<InstanceId> from) {
  if (from && *from >= table_.instance_count()) {
    return Status(StatusCode::kInvalidArgument, "no such instance");
  }
  // Without a source, the alive instances in id order until one answers.
  const std::vector<InstanceId> sources =
      from ? std::vector<InstanceId>{*from} : table_.AliveIds();
  Status status(StatusCode::kUnavailable, "no alive instance");
  for (InstanceId source : sources) {
    Request pull;
    pull.op = OpCode::kMembershipPull;
    pull.seq = next_seq_++;
    pull.epoch = table_.epoch();
    counters_.membership_pulls->Increment();
    auto result = transport_->Call(table_.Instance(source).address, pull,
                                   options_.cluster.op_timeout);
    if (!result.ok()) {
      status = result.status();
    } else if (result->membership.empty()) {
      status = Status(StatusCode::kInternal, "empty membership response");
    } else {
      status = ApplyMembership(result->membership);
      if (status.ok()) {
        last_pull_epoch_ = std::max(last_pull_epoch_, table_.epoch());
        return status;
      }
    }
  }
  return status;
}

}  // namespace zht
