#include "membership/membership_table.h"

#include <algorithm>
#include <unordered_set>

#include "serialize/wire.h"

namespace zht {
namespace {

constexpr std::uint8_t kMarkerFull = 1;
constexpr std::uint8_t kMarkerDelta = 2;
constexpr std::uint8_t kChangeInstance = 1;
constexpr std::uint8_t kChangeOwnership = 2;

void EncodeInstance(wire::Writer& w, const InstanceInfo& info) {
  w.PutVarint(info.id);
  w.PutVarint(info.address.host.size());
  w.PutBytes(info.address.host);
  w.PutVarint(info.address.port);
  w.PutVarint(info.physical_node);
  w.PutVarint(info.alive ? 1 : 0);
}

bool DecodeInstance(wire::Reader& r, InstanceInfo* info) {
  std::uint64_t id, hlen, port, node, alive;
  std::string_view host;
  if (!r.GetVarint(&id) || !r.GetVarint(&hlen) || !r.GetBytes(hlen, &host) ||
      !r.GetVarint(&port) || !r.GetVarint(&node) || !r.GetVarint(&alive)) {
    return false;
  }
  info->id = static_cast<InstanceId>(id);
  info->address.host.assign(host);
  info->address.port = static_cast<std::uint16_t>(port);
  info->physical_node = static_cast<std::uint32_t>(node);
  info->alive = alive != 0;
  return true;
}

}  // namespace

MembershipTable::MembershipTable(std::uint32_t num_partitions,
                                 HashKind hash_kind)
    : space_(num_partitions, hash_kind) {
  partition_owner_.assign(num_partitions, 0);
}

MembershipTable MembershipTable::CreateUniform(
    std::uint32_t num_partitions, const std::vector<NodeAddress>& instances,
    std::uint32_t instances_per_node, HashKind hash_kind,
    PlacementKind placement) {
  MembershipTable table(num_partitions, hash_kind);
  table.placement_ = placement;
  if (instances_per_node == 0) instances_per_node = 1;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    table.instances_.push_back(
        InstanceInfo{static_cast<InstanceId>(i), instances[i],
                     static_cast<std::uint32_t>(i / instances_per_node),
                     /*alive=*/true});
  }
  if (!instances.empty()) {
    const PlacementPolicy& policy = GetPlacementPolicy(placement);
    std::vector<InstanceId> live = table.AliveIds();
    for (PartitionId p = 0; p < num_partitions; ++p) {
      table.partition_owner_[p] = policy.DesiredOwner(p, num_partitions, live);
    }
  }
  table.epoch_ = 1;
  table.changelog_base_epoch_ = 1;  // no history before bootstrap
  return table;
}

std::vector<InstanceId> MembershipTable::ReplicaChain(PartitionId p,
                                                      int num_replicas) const {
  std::vector<InstanceId> chain;
  if (instances_.empty()) return chain;
  InstanceId owner = partition_owner_[p];
  chain.push_back(owner);
  if (num_replicas <= 0) return chain;

  std::unordered_set<std::uint32_t> used_nodes{
      instances_[owner].physical_node};
  const std::size_t k = instances_.size();
  for (std::size_t step = 1; step < k && static_cast<int>(chain.size()) - 1 <
                                             num_replicas; ++step) {
    const InstanceInfo& candidate = instances_[(owner + step) % k];
    if (!candidate.alive) continue;
    if (used_nodes.count(candidate.physical_node)) continue;
    used_nodes.insert(candidate.physical_node);
    chain.push_back(candidate.id);
  }
  return chain;
}

std::vector<PartitionId> MembershipTable::PartitionsOf(InstanceId id) const {
  std::vector<PartitionId> out;
  for (PartitionId p = 0; p < partition_owner_.size(); ++p) {
    if (partition_owner_[p] == id) out.push_back(p);
  }
  return out;
}

std::vector<InstanceId> MembershipTable::AliveIds() const {
  std::vector<InstanceId> out;
  for (const auto& info : instances_) {
    if (info.alive) out.push_back(info.id);
  }
  return out;  // ids are vector indices, so this is sorted
}

std::optional<InstanceId> MembershipTable::FindByAddress(
    const NodeAddress& address) const {
  for (const auto& info : instances_) {
    if (info.address == address) return info.id;
  }
  return std::nullopt;
}

void MembershipTable::RecordChange(Change change) {
  changelog_.push_back(std::move(change));
  if (changelog_.size() > kMaxChangelog) {
    std::size_t drop = changelog_.size() - kMaxChangelog;
    changelog_base_epoch_ = changelog_[drop - 1].epoch;
    changelog_.erase(changelog_.begin(),
                     changelog_.begin() + static_cast<std::ptrdiff_t>(drop));
  }
}

InstanceId MembershipTable::AddInstance(const NodeAddress& address,
                                        std::uint32_t physical_node) {
  InstanceId id = static_cast<InstanceId>(instances_.size());
  instances_.push_back(InstanceInfo{id, address, physical_node, true});
  ++epoch_;
  RecordChange(Change{epoch_, instances_.back(), std::nullopt});
  return id;
}

void MembershipTable::SetOwner(PartitionId p, InstanceId owner) {
  partition_owner_[p] = owner;
  ++epoch_;
  RecordChange(Change{epoch_, std::nullopt, std::make_pair(p, owner)});
}

void MembershipTable::MarkDead(InstanceId id) {
  instances_[id].alive = false;
  ++epoch_;
  RecordChange(Change{epoch_, instances_[id], std::nullopt});
}

void MembershipTable::MarkAlive(InstanceId id) {
  instances_[id].alive = true;
  ++epoch_;
  RecordChange(Change{epoch_, instances_[id], std::nullopt});
}

std::string MembershipTable::EncodeFull() const {
  std::string out;
  wire::Writer w(&out);
  out.push_back(static_cast<char>(kMarkerFull));
  w.PutVarint(epoch_);
  w.PutVarint(space_.num_partitions());
  w.PutVarint(static_cast<std::uint64_t>(space_.hash_kind()));
  w.PutVarint(static_cast<std::uint64_t>(placement_));
  w.PutVarint(instances_.size());
  for (const auto& info : instances_) EncodeInstance(w, info);
  // Run-length encode the ownership vector (contiguous ranges dominate).
  std::vector<std::pair<InstanceId, std::uint64_t>> runs;
  for (InstanceId owner : partition_owner_) {
    if (!runs.empty() && runs.back().first == owner) {
      ++runs.back().second;
    } else {
      runs.emplace_back(owner, 1);
    }
  }
  w.PutVarint(runs.size());
  for (const auto& [owner, length] : runs) {
    w.PutVarint(owner);
    w.PutVarint(length);
  }
  return out;
}

Result<MembershipTable> MembershipTable::DecodeFull(std::string_view data) {
  if (data.empty() || static_cast<std::uint8_t>(data[0]) != kMarkerFull) {
    return Status(StatusCode::kCorruption, "not a full membership snapshot");
  }
  wire::Reader r(data.substr(1));
  std::uint64_t epoch, nparts, hash_kind, placement, ninstances;
  if (!r.GetVarint(&epoch) || !r.GetVarint(&nparts) ||
      !r.GetVarint(&hash_kind) || !r.GetVarint(&placement) ||
      !r.GetVarint(&ninstances)) {
    return Status(StatusCode::kCorruption, "membership header");
  }
  if (placement > static_cast<std::uint64_t>(PlacementKind::kRendezvous)) {
    return Status(StatusCode::kCorruption, "membership placement kind");
  }
  MembershipTable table(static_cast<std::uint32_t>(nparts),
                        static_cast<HashKind>(hash_kind));
  table.placement_ = static_cast<PlacementKind>(placement);
  table.epoch_ = static_cast<std::uint32_t>(epoch);
  table.changelog_base_epoch_ = table.epoch_;
  for (std::uint64_t i = 0; i < ninstances; ++i) {
    InstanceInfo info;
    if (!DecodeInstance(r, &info)) {
      return Status(StatusCode::kCorruption, "membership instance");
    }
    table.instances_.push_back(info);
  }
  std::uint64_t nruns;
  if (!r.GetVarint(&nruns)) {
    return Status(StatusCode::kCorruption, "membership runs");
  }
  std::size_t p = 0;
  for (std::uint64_t i = 0; i < nruns; ++i) {
    std::uint64_t owner, length;
    if (!r.GetVarint(&owner) || !r.GetVarint(&length)) {
      return Status(StatusCode::kCorruption, "membership run");
    }
    for (std::uint64_t j = 0; j < length && p < table.partition_owner_.size();
         ++j, ++p) {
      table.partition_owner_[p] = static_cast<InstanceId>(owner);
    }
  }
  if (p != table.partition_owner_.size()) {
    return Status(StatusCode::kCorruption, "membership runs short");
  }
  return table;
}

std::string MembershipTable::EncodeDelta(std::uint32_t since_epoch) const {
  if (since_epoch < changelog_base_epoch_ || since_epoch > epoch_) {
    return EncodeFull();  // history trimmed (or requester is ahead): snapshot
  }
  std::string out;
  wire::Writer w(&out);
  out.push_back(static_cast<char>(kMarkerDelta));
  w.PutVarint(since_epoch);
  w.PutVarint(epoch_);
  std::uint64_t count = 0;
  for (const auto& change : changelog_) {
    if (change.epoch > since_epoch) ++count;
  }
  w.PutVarint(count);
  for (const auto& change : changelog_) {
    if (change.epoch <= since_epoch) continue;
    w.PutVarint(change.epoch);
    if (change.instance) {
      out.push_back(static_cast<char>(kChangeInstance));
      EncodeInstance(w, *change.instance);
    } else {
      out.push_back(static_cast<char>(kChangeOwnership));
      w.PutVarint(change.ownership->first);
      w.PutVarint(change.ownership->second);
    }
  }
  return out;
}

Status MembershipTable::ApplyUpdate(std::string_view data) {
  if (data.empty()) {
    return Status(StatusCode::kInvalidArgument, "empty membership update");
  }
  std::uint8_t marker = static_cast<std::uint8_t>(data[0]);
  if (marker == kMarkerFull) {
    auto table = DecodeFull(data);
    if (!table.ok()) return table.status();
    if (table->epoch_ <= epoch_ && !instances_.empty()) {
      return Status::Ok();  // stale snapshot; keep ours
    }
    *this = std::move(*table);
    return Status::Ok();
  }
  if (marker != kMarkerDelta) {
    return Status(StatusCode::kCorruption, "unknown membership marker");
  }
  wire::Reader r(data.substr(1));
  std::uint64_t from, to, count;
  if (!r.GetVarint(&from) || !r.GetVarint(&to) || !r.GetVarint(&count)) {
    return Status(StatusCode::kCorruption, "delta header");
  }
  if (from > epoch_) {
    return Status(StatusCode::kInvalidArgument,
                  "delta starts after our epoch; need a snapshot");
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t change_epoch;
    if (!r.GetVarint(&change_epoch)) {
      return Status(StatusCode::kCorruption, "delta change epoch");
    }
    std::string_view kind_byte;
    if (!r.GetBytes(1, &kind_byte)) {
      return Status(StatusCode::kCorruption, "delta change kind");
    }
    std::uint8_t kind = static_cast<std::uint8_t>(kind_byte[0]);
    if (kind == kChangeInstance) {
      InstanceInfo info;
      if (!DecodeInstance(r, &info)) {
        return Status(StatusCode::kCorruption, "delta instance");
      }
      if (change_epoch <= epoch_) continue;  // already have it
      if (info.id < instances_.size()) {
        instances_[info.id] = info;
      } else if (info.id == instances_.size()) {
        instances_.push_back(info);
      } else {
        return Status(StatusCode::kCorruption, "delta instance id gap");
      }
      epoch_ = static_cast<std::uint32_t>(change_epoch);
      RecordChange(Change{epoch_, info, std::nullopt});
    } else if (kind == kChangeOwnership) {
      std::uint64_t partition, owner;
      if (!r.GetVarint(&partition) || !r.GetVarint(&owner)) {
        return Status(StatusCode::kCorruption, "delta ownership");
      }
      if (change_epoch <= epoch_) continue;
      if (partition >= partition_owner_.size()) {
        return Status(StatusCode::kCorruption, "delta partition range");
      }
      if (owner >= instances_.size()) {
        return Status(StatusCode::kCorruption, "delta owner unknown");
      }
      partition_owner_[partition] = static_cast<InstanceId>(owner);
      epoch_ = static_cast<std::uint32_t>(change_epoch);
      RecordChange(Change{
          epoch_, std::nullopt,
          std::make_pair(static_cast<PartitionId>(partition),
                         static_cast<InstanceId>(owner))});
    } else {
      return Status(StatusCode::kCorruption, "delta change kind value");
    }
  }
  if (to > epoch_) epoch_ = static_cast<std::uint32_t>(to);
  return Status::Ok();
}

}  // namespace zht
