// Manager (§III.B–C): "a service running on each physical node [that]
// takes charge of ... managing the membership table, starting/stopping
// instances, and partition migration."
//
// The manager admits joining nodes (migrating the partitions the placement
// policy assigns to the newcomer — see hashing/placement_policy.h),
// coordinates planned departures, reacts to failure reports (reassigning
// ownership to replicas and rebuilding the replication level), and
// broadcasts incremental membership updates.
#pragma once

#include <mutex>

#include "common/status.h"
#include "core/cluster_options.h"
#include "membership/membership_table.h"
#include "net/transport.h"

namespace zht {

struct ManagerOptions {
  // Shared with servers and clients; migration/repair commands get 2x the
  // peer budget because they stream whole partitions, not single ops.
  ClusterOptions cluster;
};

struct ManagerStats {
  std::uint64_t joins_admitted = 0;
  // Joins that re-used an existing instance id because the joiner came back
  // at a previously registered address (counted inside joins_admitted).
  std::uint64_t rejoins_admitted = 0;
  std::uint64_t departures = 0;
  std::uint64_t failures_handled = 0;
  std::uint64_t partitions_migrated = 0;
  std::uint64_t broadcasts_sent = 0;
  // kRepair commands issued to surviving owners after a failure — one per
  // partition whose replica chain contained the dead instance.
  std::uint64_t repairs_commanded = 0;
};

class Manager {
 public:
  Manager(MembershipTable table, const ManagerOptions& options,
          ClientTransport* transport);

  // Network entry point (JoinRequest, DepartRequest, MembershipPull/Push).
  Response Handle(Request&& request);
  RequestHandler AsHandler() {
    return [this](Request&& req) { return Handle(std::move(req)); };
  }

  // Admits a new, already-running instance: adds it to the table (or, for
  // an instance re-joining at a previously used address, revives its old
  // id so routing state stays consistent), pushes the joiner the current
  // table before anything moves, then migrates exactly the partitions the
  // placement policy wants on a different owner (whole-partition
  // migration, no rehashing) and broadcasts the incremental update.
  Result<InstanceId> AdmitJoin(const NodeAddress& new_instance,
                               std::uint32_t physical_node);

  // Planned departure (§III.C): migrate the instance's partitions to the
  // owners the placement policy picks from the survivors, then mark it
  // gone and broadcast. If a migration fails, that partition stays with
  // the departing instance, which stays alive in the table: the moves that
  // succeeded are broadcast, the first migration failure is returned, and
  // the caller may retry Depart (it moves only what is left).
  Status Depart(InstanceId id);

  // Unplanned failure: reassign each of the dead instance's partitions to
  // its first alive replica, broadcast, and command the new owners to
  // rebuild the replication level.
  Status HandleFailure(InstanceId id);

  // Sends the (delta since `since_epoch`) table to every alive instance
  // and every peer manager.
  void BroadcastDelta(std::uint32_t since_epoch);

  // Other physical nodes' managers; they receive membership broadcasts so
  // any manager can serve joins and failure reports.
  void SetPeerManagers(std::vector<NodeAddress> peers);

  MembershipTable TableSnapshot() const;
  ManagerStats stats() const;

 private:
  struct PlacementMove {
    PartitionId partition;
    InstanceId from;
    NodeAddress from_address;
    InstanceId to;
    NodeAddress to_address;
  };

  // Diff of the placement policy's desired assignment against the current
  // table over the alive instances; mu_ must be held. Partitions whose
  // current owner is dead are skipped — failure handling owns those.
  std::vector<PlacementMove> PlanPlacementMoves();

  // Executes `moves` one at a time: migrate, then SetOwner, then push the
  // new table to both parties, so no instance ever owns a partition whose
  // copy has not arrived. A failed move leaves its partition with the
  // current owner; returns the first failure (Ok when all moved).
  Status ExecuteMoves(const std::vector<PlacementMove>& moves);
  Status CommandMigration(const NodeAddress& source, PartitionId partition,
                          const NodeAddress& target);
  void PushTableTo(const NodeAddress& address, std::uint32_t since_epoch);

  // Replica chain (owner + replicas) of every partition, for diffing
  // across a membership change; mu_ must be held. A member that enters a
  // chain through a join, rejoin, or departure holds no (or stale) data
  // for it until the owner streams a copy — exactly like a member
  // recruited by failure handling — so any chain-changed partition needs
  // a repair commanded, or failover reads against it return stale state.
  std::vector<std::vector<InstanceId>> SnapshotChains() const;

  // kRepair to the alive owner of each partition: digest-probe the chain
  // and stream lost/stale copies (ZhtServer::StartRebuild). Owners ack on
  // acceptance and rebuild online in the background.
  void CommandRepairs(const std::vector<PartitionId>& partitions);

  ManagerOptions options_;
  ClientTransport* transport_;
  mutable std::mutex mu_;
  MembershipTable table_;
  std::vector<NodeAddress> peer_managers_;
  ManagerStats stats_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace zht
