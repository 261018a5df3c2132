#include "core/zht_client.h"

#include <algorithm>
#include <random>
#include <thread>
#include <unordered_map>
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
  retry_counter_ = metrics_.GetCounter("client.retries");
  failover_counter_ = metrics_.GetCounter("client.failovers");
  redirect_counter_ = metrics_.GetCounter("client.redirects_followed");
  membership_pull_counter_ = metrics_.GetCounter("client.membership_pulls");
  if (options.client_id != 0) {
    client_id_ = options.client_id;
  } else {
    std::random_device device;
    client_id_ = (static_cast<std::uint64_t>(device()) << 32) | device();
    if (client_id_ == 0) client_id_ = 1;
  }
  backoff_rng_.Seed(client_id_);
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
  ++stats_.membership_pulls;
  membership_pull_counter_->Increment();
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
  ++stats_.nodes_reported_dead;
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
  auto result = ExecuteInternal(op, key, value);
  const auto op_index = static_cast<std::size_t>(op) - 1;
  if (op_index < 4) op_hist_[op_index]->Record(watch.Elapsed());
  return result;
}

Result<Response> ZhtClient::ExecuteInternal(OpCode op, std::string_view key,
                                            std::string_view value) {
  ++stats_.ops;
  int replica_try = 0;
  // Tracks the most recent transport-level failure so exhaustion can
  // distinguish a slow cluster (kTimeout) from a dead one (kUnavailable).
  StatusCode last_transport = StatusCode::kTimeout;
  // One sequence number per logical operation: retries and transport
  // retransmissions carry the same (client_id, seq), so the server's
  // dedup window makes append at-most-once.
  const std::uint64_t op_seq = next_seq_++;
  Nanos migrating_wait = 0;  // grows per kMigrating retry of this op
  Nanos shed_wait = 0;       // grows per admission-control shed of this op
  // Three independent retry pools (see ZhtClientOptions::max_attempts):
  // `attempt` covers transport failures, failovers, and redirects;
  // migrating retries and shed backoffs each draw from their own budget so
  // a shed+migrating overlap under churn cannot exhaust the op spuriously.
  int attempt = 0;
  int migrating_retries = 0;
  int shed_retries = 0;

  while (attempt < options_.max_attempts) {
    PartitionId partition = table_.PartitionOfKey(key);
    auto chain = table_.ReplicaChain(partition, options_.cluster.num_replicas);
    if (chain.empty()) {
      return Status(StatusCode::kUnavailable, "no alive instance for key");
    }
    if (replica_try >= static_cast<int>(chain.size())) {
      if (op == OpCode::kLookup) {
        // Read-only and side-effect free: as long as some chain member is
        // still believed alive, wrap around and walk the chain again (the
        // attempt budget bounds this) instead of reporting the partition
        // unavailable — a transient failure burst should not blind reads.
        bool any_alive = false;
        for (InstanceId member : chain) {
          if (table_.Instance(member).alive) {
            any_alive = true;
            break;
          }
        }
        if (any_alive) {
          replica_try = 0;
          ++attempt;
          continue;
        }
      }
      return Status(StatusCode::kUnavailable,
                    "all replicas of partition " + std::to_string(partition) +
                        " unreachable");
    }
    InstanceId target = chain[static_cast<std::size_t>(replica_try)];
    if (!table_.Instance(target).alive) {
      // Known-dead (locally marked) node still heads the chain until a
      // membership update reassigns ownership; skip without a network hop.
      ++replica_try;
      continue;
    }
    const NodeAddress& address = table_.Instance(target).address;

    Request request;
    request.op = op;
    request.seq = op_seq;
    request.key.assign(key);
    request.value.assign(value);
    request.epoch = table_.epoch();
    request.replica_index = static_cast<std::uint8_t>(replica_try);
    request.client_id = client_id_;

    auto result =
        transport_->Call(address, request, options_.cluster.op_timeout);

    if (!result.ok()) {
      // Transport failure: exponential back-off, then either retry the
      // same node or fail over to the next replica once the detector
      // declares it dead. Reads falling back this way land on the sync
      // secondary, which holds every acked mutation (the secondary leg
      // completes before the primary acks), so failover lookups stay
      // consistent while the owner is down or its partitions rebuild.
      last_transport = result.status().code();
      ++stats_.retries;
      retry_counter_->Increment();
      Backoff(detector_.BackoffFor(address));
      if (detector_.RecordFailure(address)) {
        ReportFailure(target);
        transport_->Invalidate(address);
        ++stats_.failovers;
        failover_counter_->Increment();
        ++replica_try;
      }
      ++attempt;
      continue;
    }
    detector_.RecordSuccess(address);

    StatusCode code = static_cast<StatusCode>(result->status);
    if (code == StatusCode::kRedirect) {
      ++stats_.redirects_followed;
      redirect_counter_->Increment();
      bool applied = false;
      if (!result->membership.empty()) {
        applied = ApplyMembership(result->membership).ok();
      }
      if (!applied) {
        // Delta missing or did not apply (e.g. we were too far behind):
        // pull a snapshot from the node that redirected us — coalesced to
        // one pull per epoch across the whole redirect storm.
        MaybePullMembership(address, result->epoch);
      }
      replica_try = 0;
      ++attempt;
      continue;
    }
    if (code == StatusCode::kMigrating) {
      if (++migrating_retries >= options_.max_attempts) {
        return Status(StatusCode::kTimeout,
                      "partition " + std::to_string(partition) +
                          " stuck migrating");
      }
      ++stats_.retries;
      retry_counter_->Increment();
      // Jittered growth desynchronizes the herd stuck behind one
      // migration; the fixed base is kept when sleeps are disabled so
      // simulated-time tests stay deterministic (no RNG draw).
      migrating_wait =
          options_.sleep_on_backoff
              ? DecorrelatedBackoff(migrating_wait, options_.migrating_backoff,
                                    options_.migrating_backoff_cap,
                                    backoff_rng_)
              : options_.migrating_backoff;
      Backoff(migrating_wait);
      continue;
    }
    if (code == StatusCode::kUnavailable && result->retry_after_us > 0 &&
        shed_retries + 1 < options_.max_attempts) {
      // The server shed this op under admission control and told us how
      // long to stay away; honor the hint through the same decorrelated
      // jitter as migration waits so a shed flash crowd spreads out
      // instead of re-arriving as a synchronized wave. The final shed
      // retry falls through and surfaces the kUnavailable to the caller.
      ++shed_retries;
      ++stats_.retries;
      ++stats_.shed_backoffs;
      retry_counter_->Increment();
      const Nanos hint = static_cast<Nanos>(result->retry_after_us) * 1000;
      shed_wait = options_.sleep_on_backoff
                      ? DecorrelatedBackoff(
                            shed_wait, hint,
                            std::max(hint, options_.migrating_backoff_cap),
                            backoff_rng_)
                      : hint;
      Backoff(shed_wait);
      continue;
    }
    return *result;
  }
  if (last_transport == StatusCode::kNetwork) {
    return Status(StatusCode::kUnavailable, "node unreachable");
  }
  return Status(StatusCode::kTimeout, "attempts exhausted");
}

std::vector<Result<Response>> ZhtClient::ExecuteBatch(
    OpCode op, std::span<const std::string> keys,
    std::span<const std::string> values) {
  const Stopwatch watch(SystemClock::Instance());
  const std::size_t n = keys.size();
  stats_.ops += n;
  batch_size_hist_->Record(static_cast<std::int64_t>(n));
  std::vector<Result<Response>> results(
      n, Result<Response>(Status(StatusCode::kTimeout, "attempts exhausted")));
  if (n == 0) return results;

  // One sequence number per sub-operation, fixed across retries and
  // retransmitted carriers: the server dedups appends on (client_id, seq).
  std::vector<std::uint64_t> seqs(n);
  for (auto& seq : seqs) seq = next_seq_++;

  std::vector<int> replica_try(n, 0);
  std::vector<StatusCode> last_transport(n, StatusCode::kTimeout);
  Nanos migrating_wait = 0;  // grows per round that saw kMigrating
  Nanos shed_wait = 0;       // grows per round that saw a shed
  std::vector<std::size_t> pending(n);
  for (std::size_t i = 0; i < n; ++i) pending[i] = i;

  // Mirror of ExecuteInternal's separated retry pools, per round: rounds
  // that saw a transport failure or redirect consume the hard budget;
  // rounds that only waited out a migration or a shed draw from their own
  // pools, so overlapping stalls cannot exhaust the batch spuriously.
  int hard_rounds = 0;
  int migrating_rounds = 0;
  int shed_rounds = 0;

  while (!pending.empty() && hard_rounds < options_.max_attempts &&
         migrating_rounds < options_.max_attempts &&
         shed_rounds < options_.max_attempts) {
    // Shard the still-pending keys by target instance: the primary for
    // most, further down the chain for sub-ops already failing over.
    std::unordered_map<InstanceId, std::vector<std::size_t>> shards;
    std::vector<std::size_t> still_pending;
    for (std::size_t i : pending) {
      PartitionId partition = table_.PartitionOfKey(keys[i]);
      auto chain =
          table_.ReplicaChain(partition, options_.cluster.num_replicas);
      if (chain.empty()) {
        results[i] =
            Status(StatusCode::kUnavailable, "no alive instance for key");
        continue;
      }
      bool placed = false;
      for (int pass = 0; pass < 2 && !placed; ++pass) {
        while (replica_try[i] < static_cast<int>(chain.size())) {
          InstanceId target = chain[static_cast<std::size_t>(replica_try[i])];
          if (!table_.Instance(target).alive) {
            ++replica_try[i];  // locally known dead: skip without a hop
            continue;
          }
          shards[target].push_back(i);
          placed = true;
          break;
        }
        // Read-only sub-ops wrap and re-walk the chain (mirroring
        // ExecuteInternal) as long as some member is still believed
        // alive; the attempt budget bounds the re-walks.
        if (!placed && op == OpCode::kLookup) replica_try[i] = 0;
      }
      if (!placed) {
        results[i] = Status(StatusCode::kUnavailable,
                            "all replicas of partition " +
                                std::to_string(partition) + " unreachable");
      }
    }

    bool hard_seen = false;  // transport failure or redirect this round
    bool migrating_seen = false;
    Nanos shed_hint = 0;  // largest retry-after seen this round (0 = none)
    for (auto& [target, indices] : shards) {
      const NodeAddress address = table_.Instance(target).address;
      std::vector<Request> batch;
      batch.reserve(indices.size());
      for (std::size_t i : indices) {
        Request request;
        request.op = op;
        request.seq = seqs[i];
        request.key = keys[i];
        if (!values.empty()) request.value = values[i];
        request.epoch = table_.epoch();
        request.replica_index = static_cast<std::uint8_t>(replica_try[i]);
        request.client_id = client_id_;
        batch.push_back(std::move(request));
      }

      auto replies =
          transport_->CallBatch(address, batch, options_.cluster.op_timeout);
      if (!replies.ok()) {
        // The shard shared one network exchange: back off once, and fail
        // the whole shard over together when the detector declares death.
        ++stats_.retries;
        retry_counter_->Increment();
        hard_seen = true;
        Backoff(detector_.BackoffFor(address));
        const bool dead = detector_.RecordFailure(address);
        if (dead) {
          ReportFailure(target);
          transport_->Invalidate(address);
          ++stats_.failovers;
          failover_counter_->Increment();
        }
        for (std::size_t i : indices) {
          last_transport[i] = replies.status().code();
          if (dead) ++replica_try[i];
          still_pending.push_back(i);
        }
        continue;
      }
      detector_.RecordSuccess(address);

      bool membership_applied = false;
      for (std::size_t j = 0; j < indices.size(); ++j) {
        const std::size_t i = indices[j];
        Response& sub = (*replies)[j];
        const StatusCode code = static_cast<StatusCode>(sub.status);
        if (code == StatusCode::kRedirect) {
          // Partition moved mid-batch: apply the piggybacked delta once
          // (the server attaches it to the first redirected sub-op) and
          // re-shard the key next round.
          ++stats_.redirects_followed;
          redirect_counter_->Increment();
          hard_seen = true;
          if (!membership_applied) {
            membership_applied = true;
            bool applied = !sub.membership.empty() &&
                           ApplyMembership(sub.membership).ok();
            if (!applied) {
              // One coalesced snapshot pull per epoch for the whole
              // redirect storm (see MaybePullMembership).
              MaybePullMembership(address, sub.epoch);
            }
          }
          replica_try[i] = 0;
          last_transport[i] = StatusCode::kTimeout;
          still_pending.push_back(i);
          continue;
        }
        if (code == StatusCode::kMigrating) {
          ++stats_.retries;
          retry_counter_->Increment();
          migrating_seen = true;
          last_transport[i] = StatusCode::kTimeout;
          still_pending.push_back(i);
          continue;
        }
        if (code == StatusCode::kUnavailable && sub.retry_after_us > 0 &&
            shed_rounds + 1 < options_.max_attempts) {
          // Shed under admission control: the sub-op retries next round
          // after the hinted pause (the round waits for the largest hint
          // seen). On the final shed round the shed response stands.
          ++stats_.retries;
          ++stats_.shed_backoffs;
          retry_counter_->Increment();
          shed_hint = std::max(
              shed_hint, static_cast<Nanos>(sub.retry_after_us) * 1000);
          last_transport[i] = StatusCode::kTimeout;
          still_pending.push_back(i);
          continue;
        }
        results[i] = std::move(sub);
      }
    }
    if (hard_seen) ++hard_rounds;
    if (migrating_seen) {
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
    pending = std::move(still_pending);
  }

  for (std::size_t i : pending) {
    results[i] = last_transport[i] == StatusCode::kNetwork
                     ? Result<Response>(
                           Status(StatusCode::kUnavailable, "node unreachable"))
                     : Result<Response>(Status(StatusCode::kTimeout,
                                               "attempts exhausted"));
  }
  batch_hist_->Record(watch.Elapsed());
  return results;
}

Status ZhtClient::Insert(std::string_view key, std::string_view value) {
  auto result = Execute(OpCode::kInsert, key, value);
  if (!result.ok()) return result.status();
  return result->status_as_object();
}

Result<std::string> ZhtClient::Lookup(std::string_view key) {
  auto result = Execute(OpCode::kLookup, key, "");
  if (!result.ok()) return result.status();
  if (!result->ok()) return result->status_as_object();
  return std::move(result->value);
}

Status ZhtClient::Remove(std::string_view key) {
  auto result = Execute(OpCode::kRemove, key, "");
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

}  // namespace

std::vector<Status> ZhtClient::MultiInsert(std::span<const KeyValue> pairs) {
  std::vector<std::string> keys;
  std::vector<std::string> values;
  keys.reserve(pairs.size());
  values.reserve(pairs.size());
  for (const KeyValue& pair : pairs) {
    keys.push_back(pair.key);
    values.push_back(pair.value);
  }
  return FlattenStatuses(ExecuteBatch(OpCode::kInsert, keys, values));
}

std::vector<Result<std::string>> ZhtClient::MultiLookup(
    std::span<const std::string> keys) {
  auto responses = ExecuteBatch(OpCode::kLookup, keys, {});
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
  return FlattenStatuses(ExecuteBatch(OpCode::kRemove, keys, {}));
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
  // Root of the spanning tree is instance 0.
  auto result = transport_->Call(table_.Instance(0).address, request,
                                 options_.cluster.op_timeout);
  if (!result.ok()) return result.status();
  return result->status_as_object();
}

Status ZhtClient::RefreshMembership(std::optional<InstanceId> from) {
  InstanceId source = from.value_or(0);
  if (source >= table_.instance_count()) {
    return Status(StatusCode::kInvalidArgument, "no such instance");
  }
  Request pull;
  pull.op = OpCode::kMembershipPull;
  pull.seq = next_seq_++;
  pull.epoch = table_.epoch();
  ++stats_.membership_pulls;
  membership_pull_counter_->Increment();
  auto result = transport_->Call(table_.Instance(source).address, pull,
                                 options_.cluster.op_timeout);
  if (!result.ok()) return result.status();
  if (result->membership.empty()) {
    return Status(StatusCode::kInternal, "empty membership response");
  }
  Status applied = ApplyMembership(result->membership);
  if (applied.ok()) {
    last_pull_epoch_ = std::max(last_pull_epoch_, table_.epoch());
  }
  return applied;
}

}  // namespace zht
