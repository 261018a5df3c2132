#include "core/manager.h"

#include <algorithm>
#include <cstdlib>

#include "common/log.h"

namespace zht {

Manager::Manager(MembershipTable table, const ManagerOptions& options,
                 ClientTransport* transport)
    : options_(options), transport_(transport), table_(std::move(table)) {}

MembershipTable Manager::TableSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_;
}

ManagerStats Manager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Status Manager::CommandMigration(const NodeAddress& source,
                                 PartitionId partition,
                                 const NodeAddress& target) {
  Request request;
  request.op = OpCode::kMigrateOut;
  request.seq = next_seq_++;
  request.partition = partition;
  request.value = target.ToString();
  request.server_origin = true;
  auto result =
      transport_->Call(source, request, 2 * options_.cluster.peer_timeout);
  if (!result.ok()) return result.status();
  return result->status_as_object();
}

void Manager::PushTableTo(const NodeAddress& address,
                          std::uint32_t since_epoch) {
  Request push;
  push.op = OpCode::kMembershipPush;
  push.server_origin = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    push.seq = next_seq_++;
    push.value = table_.EncodeDelta(since_epoch);
  }
  auto result = transport_->Call(address, push, options_.cluster.peer_timeout);
  if (!result.ok()) {
    ZHT_DEBUG << "membership push to " << address.ToString()
              << " failed: " << result.status().ToString();
  }
}

void Manager::SetPeerManagers(std::vector<NodeAddress> peers) {
  std::lock_guard<std::mutex> lock(mu_);
  peer_managers_ = std::move(peers);
}

void Manager::BroadcastDelta(std::uint32_t since_epoch) {
  std::vector<NodeAddress> targets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& info : table_.instances()) {
      if (info.alive) targets.push_back(info.address);
    }
    targets.insert(targets.end(), peer_managers_.begin(),
                   peer_managers_.end());
    ++stats_.broadcasts_sent;
  }
  // "the manager broadcasts out the incremental information of membership"
  // (§III.C). Sequential pushes; deltas are tiny.
  for (const auto& address : targets) {
    PushTableTo(address, since_epoch);
  }
}

std::vector<Manager::PlacementMove> Manager::PlanPlacementMoves() {
  std::vector<PlacementMove> moves;
  const std::vector<InstanceId> live = table_.AliveIds();
  if (live.empty()) return moves;
  const PlacementPolicy& policy = GetPlacementPolicy(table_.placement());
  for (PartitionId p = 0; p < table_.num_partitions(); ++p) {
    const InstanceId current = table_.OwnerOf(p);
    const InstanceId desired =
        policy.DesiredOwner(p, table_.num_partitions(), live);
    if (desired == current) continue;
    if (!table_.Instance(current).alive) continue;
    moves.push_back(PlacementMove{p, current, table_.Instance(current).address,
                                  desired, table_.Instance(desired).address});
  }
  return moves;
}

std::vector<std::vector<InstanceId>> Manager::SnapshotChains() const {
  std::vector<std::vector<InstanceId>> chains;
  chains.reserve(table_.num_partitions());
  for (PartitionId p = 0; p < table_.num_partitions(); ++p) {
    chains.push_back(
        table_.ReplicaChain(p, options_.cluster.num_replicas + 1));
  }
  return chains;
}

void Manager::CommandRepairs(const std::vector<PartitionId>& partitions) {
  for (PartitionId p : partitions) {
    NodeAddress owner_address;
    {
      std::lock_guard<std::mutex> lock(mu_);
      InstanceId owner = table_.OwnerOf(p);
      if (!table_.Instance(owner).alive) continue;  // lost partition
      owner_address = table_.Instance(owner).address;
      ++stats_.repairs_commanded;
    }
    Request repair;
    repair.op = OpCode::kRepair;
    repair.seq = next_seq_++;
    repair.partition = p;
    repair.server_origin = true;
    auto result = transport_->Call(owner_address, repair,
                                   2 * options_.cluster.peer_timeout);
    if (!result.ok()) {
      ZHT_WARN << "repair of partition " << p
               << " failed: " << result.status().ToString();
    }
  }
}

Result<InstanceId> Manager::AdmitJoin(const NodeAddress& new_instance,
                                      std::uint32_t physical_node) {
  std::uint32_t epoch_before;
  InstanceId fresh;
  bool rejoin = false;
  std::vector<PlacementMove> moves;
  std::vector<std::vector<InstanceId>> chains_before;
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch_before = table_.epoch();
    chains_before = SnapshotChains();
    // An instance coming back at a previously registered address re-uses
    // its old id: adding a second entry for the same address would leave
    // two table rows racing for one endpoint (redirects and failure
    // reports against the stale id would misroute its traffic forever).
    if (auto existing = table_.FindByAddress(new_instance)) {
      fresh = *existing;
      rejoin = true;
      if (!table_.Instance(fresh).alive) table_.MarkAlive(fresh);
    } else {
      fresh = table_.AddInstance(new_instance, physical_node);
    }
    // "find the physical node with the most partitions ... and move some
    // of the partitions from the busy node" (§III.C), generalized: the
    // placement policy says where every partition should live with the
    // newcomer in the live set; only the diff migrates.
    moves = PlanPlacementMoves();
  }

  // The joiner learns the current table before anything moves: a revived
  // instance still holding pre-failure state must redirect (not serve
  // stale data) from the first request it sees, and a fresh instance needs
  // the cluster layout to accept migrations.
  PushTableTo(new_instance, 0);

  // A failed move leaves its partition with the current owner; the join
  // itself still stands.
  (void)ExecuteMoves(moves);

  std::vector<PartitionId> chain_changed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.joins_admitted;
    if (rejoin) ++stats_.rejoins_admitted;
    if (options_.cluster.num_replicas > 0) {
      const auto chains_after = SnapshotChains();
      for (PartitionId p = 0; p < table_.num_partitions(); ++p) {
        if (chains_after[p] != chains_before[p]) chain_changed.push_back(p);
      }
    }
  }
  BroadcastDelta(epoch_before);
  // The joiner (or revived rejoiner) is now a replica for partitions it
  // holds no — or stale — data for; stream it up to date before a client
  // failover read can land on it.
  CommandRepairs(chain_changed);
  return fresh;
}

Status Manager::ExecuteMoves(const std::vector<PlacementMove>& moves) {
  Status first_failure;
  for (const PlacementMove& move : moves) {
    Status status =
        CommandMigration(move.from_address, move.partition, move.to_address);
    if (!status.ok()) {
      ZHT_WARN << "migration of partition " << move.partition
               << " failed: " << status.ToString();
      if (first_failure.ok()) first_failure = status;
      continue;  // partition stays put; membership unchanged
    }
    std::uint32_t push_from;
    {
      std::lock_guard<std::mutex> lock(mu_);
      push_from = table_.epoch() > 0 ? table_.epoch() - 1 : 0;
      table_.SetOwner(move.partition, move.to);
      ++stats_.partitions_migrated;
    }
    // The two parties must learn the new ownership immediately (the donor
    // now redirects, the recipient now serves); everyone else learns from
    // the final broadcast, clients lazily.
    PushTableTo(move.from_address, push_from);
    PushTableTo(move.to_address, 0);
  }
  return first_failure;
}

Status Manager::Depart(InstanceId id) {
  std::uint32_t epoch_before;
  NodeAddress departing;
  std::vector<PlacementMove> moves;
  std::vector<std::vector<InstanceId>> chains_before;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (id >= table_.instance_count()) {
      return Status(StatusCode::kInvalidArgument, "no such instance");
    }
    epoch_before = table_.epoch();
    departing = table_.Instance(id).address;
    chains_before = SnapshotChains();
    // The placement policy re-assigns the departing instance's partitions
    // over the survivors; everyone else's partitions stay put (a later
    // join's desired-vs-current diff converges any residual imbalance).
    std::vector<InstanceId> survivors;
    for (InstanceId live : table_.AliveIds()) {
      if (live != id) survivors.push_back(live);
    }
    if (survivors.empty()) {
      return Status(StatusCode::kUnavailable, "no remaining instance");
    }
    const PlacementPolicy& policy = GetPlacementPolicy(table_.placement());
    for (PartitionId p : table_.PartitionsOf(id)) {
      const InstanceId target =
          policy.DesiredOwner(p, table_.num_partitions(), survivors);
      moves.push_back(PlacementMove{p, id, departing, target,
                                    table_.Instance(target).address});
    }
  }

  // Each partition changes owner only once its copy has arrived.
  const Status moved = ExecuteMoves(moves);

  std::vector<PartitionId> chain_changed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (moved.ok()) {
      table_.MarkDead(id);  // departed == no longer serving
      ++stats_.departures;
    }
    if (options_.cluster.num_replicas > 0) {
      const auto chains_after = SnapshotChains();
      for (PartitionId p = 0; p < table_.num_partitions(); ++p) {
        if (chains_after[p] != chains_before[p]) chain_changed.push_back(p);
      }
    }
  }
  // The departing node keeps answering until it actually shuts down; give
  // it the final table so it redirects rather than serving empty stores.
  PushTableTo(departing, 0);
  BroadcastDelta(epoch_before);
  // Members recruited into the shrunken chains hold no copy of the
  // departed node's partitions yet; stream them before failover reads hit.
  CommandRepairs(chain_changed);
  return moved;
}

Status Manager::HandleFailure(InstanceId id) {
  std::uint32_t epoch_before;
  std::vector<PartitionId> affected;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (id >= table_.instance_count()) {
      return Status(StatusCode::kInvalidArgument, "no such instance");
    }
    if (!table_.Instance(id).alive) return Status::Ok();  // already handled
    epoch_before = table_.epoch();
    // Every partition whose replica chain contained the dead instance lost
    // a copy and needs its replication level rebuilt — not just the ones
    // the dead instance owned. Collect them BEFORE MarkDead: afterwards
    // the chains no longer mention the dead member.
    for (PartitionId p = 0; p < table_.num_partitions(); ++p) {
      auto chain = table_.ReplicaChain(p, options_.cluster.num_replicas + 1);
      if (std::find(chain.begin(), chain.end(), id) != chain.end()) {
        affected.push_back(p);
      }
    }
    table_.MarkDead(id);
    for (PartitionId p : table_.PartitionsOf(id)) {
      // First alive replica becomes the owner; data is already there
      // because replication placed it (§III.H).
      auto chain = table_.ReplicaChain(p, options_.cluster.num_replicas + 1);
      InstanceId replacement = id;
      for (InstanceId candidate : chain) {
        if (candidate != id && table_.Instance(candidate).alive) {
          replacement = candidate;
          break;
        }
      }
      if (replacement == id) {
        ZHT_ERROR << "partition " << p << " lost: no alive replica";
        continue;
      }
      table_.SetOwner(p, replacement);
    }
    ++stats_.failures_handled;
  }

  BroadcastDelta(epoch_before);

  // "initiates a rebuilding of the replicas ... to maintain the specified
  // level of replication" (§III.C): command the surviving owner of every
  // affected partition to digest-probe its chain and stream the lost copy.
  CommandRepairs(affected);
  return Status::Ok();
}

Response Manager::Handle(Request&& request) {
  Response resp;
  resp.seq = request.seq;
  switch (request.op) {
    case OpCode::kJoinRequest: {
      auto address = NodeAddress::Parse(request.key);
      if (!address.ok()) {
        resp.status = address.status().raw();
        return resp;
      }
      std::uint32_t node = static_cast<std::uint32_t>(
          std::strtoul(request.value.c_str(), nullptr, 10));
      auto admitted = AdmitJoin(*address, node);
      if (!admitted.ok()) {
        resp.status = admitted.status().raw();
        return resp;
      }
      resp.value = std::to_string(*admitted);
      std::lock_guard<std::mutex> lock(mu_);
      resp.epoch = table_.epoch();
      resp.membership = table_.EncodeFull();
      return resp;
    }
    case OpCode::kDepartRequest: {
      InstanceId id = static_cast<InstanceId>(
          std::strtoul(request.key.c_str(), nullptr, 10));
      Status status = request.value == "failed" ? HandleFailure(id)
                                                : Depart(id);
      resp.status = status.raw();
      std::lock_guard<std::mutex> lock(mu_);
      resp.epoch = table_.epoch();
      return resp;
    }
    case OpCode::kMembershipPull: {
      std::lock_guard<std::mutex> lock(mu_);
      resp.epoch = table_.epoch();
      resp.membership = request.epoch == 0
                            ? table_.EncodeFull()
                            : table_.EncodeDelta(request.epoch);
      return resp;
    }
    case OpCode::kMembershipPush: {
      std::lock_guard<std::mutex> lock(mu_);
      resp.status = table_.ApplyUpdate(request.value).raw();
      resp.epoch = table_.epoch();
      return resp;
    }
    case OpCode::kPing: {
      std::lock_guard<std::mutex> lock(mu_);
      resp.epoch = table_.epoch();
      return resp;
    }
    default:
      resp.status = Status(StatusCode::kInvalidArgument).raw();
      return resp;
  }
}

}  // namespace zht
