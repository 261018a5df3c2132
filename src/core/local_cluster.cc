#include "core/local_cluster.h"

#include <algorithm>

#include "net/tcp_client.h"
#include "net/udp_client.h"

namespace zht {

LocalCluster::LocalCluster(const LocalClusterOptions& options)
    : options_(options) {}

LocalCluster::~LocalCluster() {
  // Servers stop their peer-I/O pools in their destructors; epoll servers
  // must stop first so no new requests arrive mid-teardown.
  for (auto& es : epoll_servers_) es->Stop();
  // Quiesce background peer I/O (replication legs, rebuild probes and
  // checkpoint streams on the peer-I/O pool) before any server is destroyed:
  // servers_ tears down in vector order, and a straggling probe from a
  // later server must not call into an earlier one that is already gone.
  for (auto& server : servers_) {
    if (server) server->FlushAsyncReplication();
  }
  // Unbind every loopback endpoint under its exclusive lock. Deliveries
  // hold the lock shared across check + invoke, so after this loop returns
  // no thread can still be entering a server, and any late cross-server
  // call (e.g. a retry scheduled by teardown-era errors) short-circuits to
  // kUnavailable instead of touching a destroyed server.
  for (auto& slot : slots_) {
    std::unique_lock<std::shared_mutex> guard(slot->mu);
    slot->target = nullptr;
  }
}

std::unique_ptr<ClientTransport> LocalCluster::MakeTransport(
    std::optional<NodeAddress> self) {
  std::unique_ptr<ClientTransport> inner;
  switch (options_.transport) {
    case ClusterTransport::kLoopback:
      inner = std::make_unique<LoopbackTransport>(&network_);
      break;
    case ClusterTransport::kTcp: {
      TcpClientOptions tcp;
      tcp.cache_connections = options_.tcp_connection_cache;
      inner = std::make_unique<TcpClient>(tcp);
      break;
    }
    case ClusterTransport::kUdp:
      inner = std::make_unique<UdpClient>();
      break;
  }
  if (inner && options_.fault_plan) {
    return std::make_unique<FaultInjectingTransport>(
        std::move(inner), options_.fault_plan, std::move(self));
  }
  return inner;
}

Result<NodeAddress> LocalCluster::Expose(std::shared_ptr<HandlerSlot> slot,
                                         std::optional<NodeAddress> fixed,
                                         bool start_now) {
  slots_.push_back(slot);
  AsyncRequestHandler handler = [slot](Request&& request,
                                       ResponseCallback done) {
    // Shared across check + invoke so the destructor's exclusive clear
    // cannot land between them (the invoke enters the server's in-flight
    // accounting, which its own destructor then waits out).
    std::shared_lock<std::shared_mutex> guard(slot->mu);
    if (!slot->target) {
      Response resp;
      resp.seq = request.seq;
      resp.status = Status(StatusCode::kUnavailable).raw();
      done(std::move(resp));
      return;
    }
    slot->target(std::move(request), std::move(done));
  };

  if (options_.transport == ClusterTransport::kLoopback) {
    if (fixed) {
      network_.Register(*fixed, std::move(handler));
      return *fixed;
    }
    return network_.Register(std::move(handler));
  }
  if (fixed) {
    return Status(StatusCode::kInvalidArgument,
                  "fixed addresses are loopback-only");
  }
  EpollServerOptions es;
  es.enable_tcp = true;
  es.enable_udp = true;
  es.num_reactors = options_.num_reactors;
  auto server = EpollServer::Create(es, std::move(handler));
  if (!server.ok()) return server.status();
  if (start_now) {
    Status started = (*server)->Start();
    if (!started.ok()) return started;
  }
  NodeAddress address = (*server)->address();
  epoll_servers_.push_back(std::move(*server));
  return address;
}

void LocalCluster::WireReactors(ZhtServer& server, EpollServer& es) {
  ZhtServer* srv = &server;
  const int reactors = es.num_reactors();
  es.SetPlacement([srv, reactors](const Request& request) {
    const int shard = srv->PreferredShard(request);
    return shard < 0 ? -1 : shard % reactors;
  });
  es.Start();
}

Result<std::unique_ptr<LocalCluster>> LocalCluster::Start(
    const LocalClusterOptions& options) {
  std::unique_ptr<LocalCluster> cluster(new LocalCluster(options));
  Status status = cluster->Boot();
  if (!status.ok()) return status;
  return cluster;
}

Status LocalCluster::Boot() {
  Status valid = options_.cluster.Validate();
  if (!valid.ok()) return valid;

  // 1. Expose every instance (addresses first: the table needs them) and
  //    establish the bootstrap membership — either the static uniform
  //    layout (§III.C) or a restored snapshot from a prior incarnation.
  MembershipTable table;
  std::uint32_t nodes = 0;
  std::vector<std::shared_ptr<HandlerSlot>> server_slots;
  if (options_.initial_table) {
    if (options_.transport != ClusterTransport::kLoopback) {
      return Status(StatusCode::kInvalidArgument,
                    "initial_table restart is loopback-only");
    }
    table = *options_.initial_table;
    if (table.instance_count() == 0) {
      return Status(StatusCode::kInvalidArgument, "empty initial table");
    }
    options_.num_instances = static_cast<std::uint32_t>(table.instance_count());
    options_.num_partitions = table.num_partitions();
    for (const InstanceInfo& info : table.instances()) {
      auto slot = std::make_shared<HandlerSlot>();
      auto address = Expose(slot, info.address);
      if (!address.ok()) return address.status();
      server_slots.push_back(slot);
      instance_addresses_.push_back(*address);
      nodes = std::max(nodes, info.physical_node + 1);
    }
  } else {
    const std::uint32_t n = options_.num_instances;
    if (n == 0) return Status(StatusCode::kInvalidArgument, "no instances");
    if (options_.num_partitions == 0) options_.num_partitions = n * 64;
    for (std::uint32_t i = 0; i < n; ++i) {
      auto slot = std::make_shared<HandlerSlot>();
      // Reactor hooks and placement must be wired before the loops start,
      // which needs the ZhtServer; start after step 2.
      auto address = Expose(slot, std::nullopt, /*start_now=*/false);
      if (!address.ok()) return address.status();
      server_slots.push_back(slot);
      instance_addresses_.push_back(*address);
    }
    table = MembershipTable::CreateUniform(
        options_.num_partitions, instance_addresses_,
        options_.instances_per_node, options_.hash_kind,
        options_.cluster.placement_kind());
    nodes = (n + options_.instances_per_node - 1) /
            options_.instances_per_node;
  }

  // 2. Servers. Over sockets, one shard per reactor so placement can give
  // each event loop a disjoint partition set to drain; the loops only
  // start once placement is installed.
  const bool sockets = options_.transport != ClusterTransport::kLoopback;
  for (std::uint32_t i = 0; i < options_.num_instances; ++i) {
    auto transport = MakeTransport(instance_addresses_[i]);
    ZhtServerOptions so;
    so.self = i;
    so.cluster = options_.cluster;
    so.store_factory = options_.store_factory;
    if (sockets) {
      so.num_shards = static_cast<std::size_t>(
          options_.num_reactors < 1 ? 1 : options_.num_reactors);
    }
    auto server = std::make_unique<ZhtServer>(table, so, transport.get());
    {
      std::unique_lock<std::shared_mutex> guard(server_slots[i]->mu);
      server_slots[i]->target = server->AsyncHandler();
    }
    if (sockets) WireReactors(*server, *epoll_servers_[i]);
    peer_transports_.push_back(std::move(transport));
    servers_.push_back(std::move(server));
  }

  // 3. One manager per physical node.
  next_physical_node_ = nodes;
  for (std::uint32_t node = 0; node < nodes; ++node) {
    auto slot = std::make_shared<HandlerSlot>();
    auto address = Expose(slot);
    if (!address.ok()) return address.status();
    auto transport = MakeTransport(*address);
    ManagerOptions mo;
    mo.cluster = options_.cluster;
    auto manager = std::make_unique<Manager>(table, mo, transport.get());
    {
      std::unique_lock<std::shared_mutex> guard(slot->mu);
      slot->target = ToAsync(manager->AsHandler());
    }
    peer_transports_.push_back(std::move(transport));
    managers_.push_back(std::move(manager));
    manager_addresses_.push_back(*address);
  }
  for (std::size_t node = 0; node < managers_.size(); ++node) {
    std::vector<NodeAddress> peers;
    for (std::size_t other = 0; other < manager_addresses_.size(); ++other) {
      if (other != node) peers.push_back(manager_addresses_[other]);
    }
    managers_[node]->SetPeerManagers(std::move(peers));
  }
  return Status::Ok();
}

ClientHandle LocalCluster::CreateClient(ZhtClientOptions overrides) {
  overrides.cluster.num_replicas = options_.cluster.num_replicas;
  if (!overrides.manager && !manager_addresses_.empty()) {
    overrides.manager = manager_addresses_[0];
  }
  auto transport = MakeTransport();
  auto client = std::make_unique<ZhtClient>(TableSnapshot(), overrides,
                                            transport.get());
  return ClientHandle(std::move(transport), std::move(client));
}

MembershipTable LocalCluster::TableSnapshot() const {
  return managers_.empty() ? MembershipTable()
                           : managers_[0]->TableSnapshot();
}

void LocalCluster::KillInstance(std::size_t i) {
  if (options_.transport == ClusterTransport::kLoopback) {
    network_.SetDown(instance_addresses_[i], true);
  } else if (i < epoll_servers_.size()) {
    epoll_servers_[i]->Stop();
  }
}

void LocalCluster::ReviveInstance(std::size_t i) {
  if (options_.transport == ClusterTransport::kLoopback) {
    network_.SetDown(instance_addresses_[i], false);
  } else if (i < epoll_servers_.size()) {
    epoll_servers_[i]->Start();
  }
}

Result<InstanceId> LocalCluster::JoinNewInstance(std::size_t via_node) {
  if (via_node >= managers_.size()) {
    return Status(StatusCode::kInvalidArgument, "no such manager");
  }
  // Bring up the new (empty) instance first, then ask the manager to admit
  // it; the manager pulls partitions onto it and broadcasts (§III.C).
  const bool sockets = options_.transport != ClusterTransport::kLoopback;
  auto slot = std::make_shared<HandlerSlot>();
  auto address = Expose(slot, std::nullopt, /*start_now=*/!sockets);
  if (!address.ok()) return address.status();

  auto transport = MakeTransport(*address);
  ZhtServerOptions so;
  so.self = static_cast<InstanceId>(servers_.size());
  so.cluster = options_.cluster;
  so.store_factory = options_.store_factory;
  if (sockets) {
    so.num_shards = static_cast<std::size_t>(
        options_.num_reactors < 1 ? 1 : options_.num_reactors);
  }
  // Starts with an empty table; the manager pushes a snapshot during join.
  auto server = std::make_unique<ZhtServer>(
      MembershipTable(options_.num_partitions, options_.hash_kind), so,
      transport.get());
  {
    std::unique_lock<std::shared_mutex> guard(slot->mu);
    slot->target = server->AsyncHandler();
  }
  if (sockets) WireReactors(*server, *epoll_servers_.back());
  peer_transports_.push_back(std::move(transport));
  servers_.push_back(std::move(server));
  instance_addresses_.push_back(*address);

  std::uint32_t physical_node = next_physical_node_++;
  auto admitted = managers_[via_node]->AdmitJoin(*address, physical_node);
  if (!admitted.ok()) return admitted.status();
  return *admitted;
}

Result<InstanceId> LocalCluster::RejoinInstance(std::size_t i,
                                                std::size_t via_node) {
  if (i >= servers_.size()) {
    return Status(StatusCode::kInvalidArgument, "no such instance");
  }
  if (via_node >= managers_.size()) {
    return Status(StatusCode::kInvalidArgument, "no such manager");
  }
  // The server object (and its address registration) survived the kill;
  // bring the endpoint back, then re-admit through the manager, which
  // recognizes the address and revives the old instance id — pushing the
  // current table to it before migrating anything back.
  ReviveInstance(i);
  MembershipTable table = TableSnapshot();
  const std::uint32_t node = i < table.instance_count()
                                 ? table.Instance(static_cast<InstanceId>(i))
                                       .physical_node
                                 : next_physical_node_;
  return managers_[via_node]->AdmitJoin(instance_addresses_[i], node);
}

void LocalCluster::FlushAllAsyncReplication() {
  for (auto& server : servers_) server->FlushAsyncReplication();
}

}  // namespace zht
