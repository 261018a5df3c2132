#include "cluster.h"

#include "core/local_cluster.h"
#include "novoht/novoht.h"

namespace perfbench {

zht::Result<std::unique_ptr<BenchCluster>> BenchCluster::Start(
    const ClusterSpec& spec) {
  std::unique_ptr<BenchCluster> cluster(new BenchCluster(spec));
  zht::Status status = cluster->Boot();
  if (!status.ok()) return status;
  return cluster;
}

BenchCluster::~BenchCluster() {
  // Same order as LocalCluster: stop the front ends, quiesce background
  // peer I/O, then unhook every handler before any server is destroyed.
  for (auto& fe : front_ends_) fe->Stop();
  for (auto& server : servers_) server->FlushAsyncReplication();
  for (auto& slot : slots_) {
    std::unique_lock<std::shared_mutex> guard(slot->mu);
    slot->target = nullptr;
  }
}

zht::Result<zht::NodeAddress> BenchCluster::Expose(
    const std::shared_ptr<Slot>& slot, bool start_now) {
  slots_.push_back(slot);
  zht::AsyncRequestHandler handler = [slot](zht::Request&& request,
                                            zht::ResponseCallback done) {
    std::shared_lock<std::shared_mutex> guard(slot->mu);
    if (!slot->target) {
      zht::Response resp;
      resp.seq = request.seq;
      resp.status = zht::Status(zht::StatusCode::kUnavailable).raw();
      done(std::move(resp));
      return;
    }
    slot->target(std::move(request), std::move(done));
  };
  zht::EpollServerOptions options;
  options.enable_udp = false;
  options.num_reactors = spec_.reactors;
  auto fe = zht::EpollServer::Create(options, std::move(handler));
  if (!fe.ok()) return fe.status();
  if (start_now) {
    zht::Status started = (*fe)->Start();
    if (!started.ok()) return started;
  }
  zht::NodeAddress address = (*fe)->address();
  front_ends_.push_back(std::move(*fe));
  return address;
}

std::unique_ptr<zht::ClientTransport> BenchCluster::PeerTransport(
    zht::InstanceId self) {
  auto tcp = std::make_unique<zht::TcpClient>();
  if (!spec_.trace) return tcp;
  return std::make_unique<TracingTransport>(
      std::move(tcp), SpanKind::kPeer, static_cast<std::uint16_t>(self));
}

std::unique_ptr<zht::ZhtServer> BenchCluster::MakeServer(
    zht::InstanceId self, zht::MembershipTable table,
    const std::shared_ptr<Slot>& slot) {
  auto transport = PeerTransport(self);
  zht::ZhtServerOptions so;
  so.self = self;
  so.cluster = spec_.cluster;
  so.store_factory = store_factory_;
  so.num_shards = static_cast<std::size_t>(spec_.reactors);
  auto server =
      std::make_unique<zht::ZhtServer>(std::move(table), so, transport.get());
  zht::AsyncRequestHandler handler = server->AsyncHandler();
  if (spec_.trace) {
    handler = TraceHandler(std::move(handler), static_cast<std::uint16_t>(self));
  }
  {
    std::unique_lock<std::shared_mutex> guard(slot->mu);
    slot->target = std::move(handler);
  }
  peer_transports_.push_back(std::move(transport));
  return server;
}

zht::Status BenchCluster::Boot() {
  zht::Status valid = spec_.cluster.Validate();
  if (!valid.ok()) return valid;
  // Untraced, fault-free runs use the server's own default (in-memory) or
  // the persistent factory undecorated.
  const bool decorate = spec_.trace || spec_.faults.stale_get_every != 0 ||
                        spec_.faults.skip_remove_every != 0;
  if (!spec_.data_dir.empty()) {
    store_factory_ = zht::MakeNoVoHTStoreFactory(spec_.data_dir, spec_.cluster);
  } else if (decorate) {
    store_factory_ = [](zht::InstanceId, zht::PartitionId)
        -> std::unique_ptr<zht::KVStore> {
      auto store = zht::NoVoHT::Open(zht::NoVoHTOptions{});
      return store.ok() ? std::move(*store) : nullptr;
    };
  }
  if (decorate) {
    store_factory_ = DecorateStoreFactory(store_factory_, spec_.faults);
  }

  num_partitions_ = spec_.instances * kPartitionsPerInstance;
  std::vector<std::shared_ptr<Slot>> server_slots;
  std::vector<zht::NodeAddress> addresses;
  for (std::uint32_t i = 0; i < spec_.instances; ++i) {
    auto slot = std::make_shared<Slot>();
    auto address = Expose(slot, /*start_now=*/false);
    if (!address.ok()) return address.status();
    server_slots.push_back(slot);
    addresses.push_back(*address);
    instance_front_ends_.push_back(front_ends_.back().get());
  }
  zht::MembershipTable table = zht::MembershipTable::CreateUniform(
      num_partitions_, addresses, 1, zht::HashKind::kFnv1a,
      spec_.cluster.placement_kind());
  for (std::uint32_t i = 0; i < spec_.instances; ++i) {
    servers_.push_back(MakeServer(i, table, server_slots[i]));
    zht::LocalCluster::WireReactors(*servers_.back(), *instance_front_ends_[i]);
  }

  // One manager per instance (one instance per physical node).
  next_node_ = spec_.instances;
  for (std::uint32_t node = 0; node < spec_.instances; ++node) {
    auto slot = std::make_shared<Slot>();
    auto address = Expose(slot, /*start_now=*/true);
    if (!address.ok()) return address.status();
    auto transport = std::make_unique<zht::TcpClient>();
    zht::ManagerOptions mo;
    mo.cluster = spec_.cluster;
    auto manager = std::make_unique<zht::Manager>(table, mo, transport.get());
    {
      std::unique_lock<std::shared_mutex> guard(slot->mu);
      slot->target = zht::ToAsync(manager->AsHandler());
    }
    peer_transports_.push_back(std::move(transport));
    managers_.push_back(std::move(manager));
    manager_addresses_.push_back(*address);
  }
  for (std::size_t node = 0; node < managers_.size(); ++node) {
    std::vector<zht::NodeAddress> peers;
    for (std::size_t other = 0; other < manager_addresses_.size(); ++other) {
      if (other != node) peers.push_back(manager_addresses_[other]);
    }
    managers_[node]->SetPeerManagers(std::move(peers));
  }
  return zht::Status::Ok();
}

BenchClient BenchCluster::MakeClient(std::uint64_t client_id,
                                     int max_attempts, zht::Nanos op_timeout) {
  BenchClient out;
  auto tcp = std::make_unique<zht::TcpClient>();
  out.tcp = tcp.get();
  out.transport = std::move(tcp);
  if (spec_.faults.lose_remove_reply_every != 0) {
    out.transport = std::make_unique<LossyTransport>(
        std::move(out.transport), spec_.faults.lose_remove_reply_every);
  }
  if (spec_.trace) {
    out.transport = std::make_unique<TracingTransport>(
        std::move(out.transport), SpanKind::kTransport, 0);
  }
  zht::ZhtClientOptions options;
  options.cluster = spec_.cluster;
  options.manager = manager_addresses_[0];
  options.client_id = client_id;
  options.max_attempts = max_attempts;
  if (op_timeout > 0) options.cluster.op_timeout = op_timeout;
  out.client = std::make_unique<zht::ZhtClient>(Table(), options,
                                                out.transport.get());
  return out;
}

zht::Result<zht::InstanceId> BenchCluster::Join() {
  auto slot = std::make_shared<Slot>();
  auto address = Expose(slot, /*start_now=*/false);
  if (!address.ok()) return address.status();
  instance_front_ends_.push_back(front_ends_.back().get());
  const auto self = static_cast<zht::InstanceId>(servers_.size());
  // Starts with an empty table; the manager pushes one during the join.
  servers_.push_back(MakeServer(
      self, zht::MembershipTable(num_partitions_, zht::HashKind::kFnv1a),
      slot));
  zht::LocalCluster::WireReactors(*servers_.back(), *front_ends_.back());
  return managers_[0]->AdmitJoin(*address, next_node_++);
}

zht::Status BenchCluster::Depart(zht::InstanceId id) {
  return managers_[0]->Depart(id);
}

void BenchCluster::FlushAsyncReplication() {
  for (auto& server : servers_) server->FlushAsyncReplication();
}

}  // namespace perfbench
