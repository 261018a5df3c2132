// MembershipTable (§III.B–C): the zero-hop routing state. Every node holds
// the full table: instance addresses plus the partition→instance ownership
// map. Lookups are O(1); membership changes bump an epoch and are shipped
// either as incremental deltas (manager broadcast, lazy client refresh) or
// as full snapshots.
//
// The number of partitions n is fixed forever (it is the maximum number of
// instances the deployment can grow to); ownership of partitions moves.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "hashing/partition_space.h"
#include "hashing/placement_policy.h"
#include "net/address.h"

namespace zht {

using InstanceId = std::uint32_t;

struct InstanceInfo {
  InstanceId id = 0;
  NodeAddress address;
  std::uint32_t physical_node = 0;  // instances on one machine share this
  bool alive = true;

  bool operator==(const InstanceInfo&) const = default;
};

class MembershipTable {
 public:
  MembershipTable() : space_(1) {}
  MembershipTable(std::uint32_t num_partitions, HashKind hash_kind);

  // Builds the static-bootstrap table (§III.C): partitions are distributed
  // over the given instances per the placement policy (the default
  // contiguous policy reproduces the paper's even contiguous split).
  // instances_per_node groups consecutive addresses onto physical nodes.
  // The placement kind is recorded in the table (and travels in full
  // snapshots) so every participant migrates against the same policy.
  static MembershipTable CreateUniform(
      std::uint32_t num_partitions, const std::vector<NodeAddress>& instances,
      std::uint32_t instances_per_node = 1,
      HashKind hash_kind = HashKind::kFnv1a,
      PlacementKind placement = PlacementKind::kContiguous);

  // ---- Routing --------------------------------------------------------

  std::uint32_t epoch() const { return epoch_; }
  std::uint32_t num_partitions() const { return space_.num_partitions(); }
  const PartitionSpace& space() const { return space_; }
  PlacementKind placement() const { return placement_; }

  PartitionId PartitionOfKey(std::string_view key) const {
    return space_.PartitionOfKey(key);
  }

  InstanceId OwnerOf(PartitionId p) const { return partition_owner_[p]; }
  const InstanceInfo& Instance(InstanceId id) const { return instances_[id]; }
  std::size_t instance_count() const { return instances_.size(); }
  const std::vector<InstanceInfo>& instances() const { return instances_; }

  // Replica chain for a partition: the owner followed by the next
  // `num_replicas` instances in ring order that live on *distinct physical
  // nodes* ("nodes in close proximity (according to the UUID) of the
  // original hashed location", §III.H).
  std::vector<InstanceId> ReplicaChain(PartitionId p,
                                       int num_replicas) const;

  // Partitions currently owned by an instance.
  std::vector<PartitionId> PartitionsOf(InstanceId id) const;

  // Sorted ids of the alive instances — the `live` set placement policies
  // assign over.
  std::vector<InstanceId> AliveIds() const;

  // Instance registered at `address`, if any (rejoin detection).
  std::optional<InstanceId> FindByAddress(const NodeAddress& address) const;

  // ---- Mutation (each call bumps the epoch) ----------------------------

  InstanceId AddInstance(const NodeAddress& address,
                         std::uint32_t physical_node);
  void SetOwner(PartitionId p, InstanceId owner);
  void MarkDead(InstanceId id);
  void MarkAlive(InstanceId id);

  // A local suspicion (a client's failure detector), not a membership
  // change: flips `alive` without a new epoch. Bumping the epoch here would
  // make this copy skip the authoritative change that carries the same
  // epoch number, e.g. the instance record an ownership change relies on.
  void SuspectDead(InstanceId id) { instances_[id].alive = false; }

  // ---- Serialization ---------------------------------------------------

  std::string EncodeFull() const;
  static Result<MembershipTable> DecodeFull(std::string_view data);

  // Incremental delta covering (since_epoch, current]; falls back to a full
  // snapshot when the change log no longer reaches back that far. Apply
  // with ApplyUpdate (which accepts either form).
  std::string EncodeDelta(std::uint32_t since_epoch) const;
  Status ApplyUpdate(std::string_view data);

  bool operator==(const MembershipTable& other) const {
    return epoch_ == other.epoch_ && placement_ == other.placement_ &&
           instances_ == other.instances_ &&
           partition_owner_ == other.partition_owner_;
  }

 private:
  struct Change {
    std::uint32_t epoch;
    // Exactly one of these applies:
    std::optional<InstanceInfo> instance;          // added/updated instance
    std::optional<std::pair<PartitionId, InstanceId>> ownership;
  };

  void RecordChange(Change change);

  PartitionSpace space_;
  PlacementKind placement_ = PlacementKind::kContiguous;
  std::uint32_t epoch_ = 0;
  std::vector<InstanceInfo> instances_;
  std::vector<InstanceId> partition_owner_;
  std::vector<Change> changelog_;  // bounded
  static constexpr std::size_t kMaxChangelog = 4096;
  std::uint32_t changelog_base_epoch_ = 0;  // oldest epoch fully covered
};

}  // namespace zht
