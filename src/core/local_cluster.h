// LocalCluster: spins up a complete ZHT deployment in one process —
// N instances (grouped onto physical nodes), one manager per node, clients
// on demand — over either the in-process loopback network (fast, failure
// injection) or real TCP/UDP sockets on localhost. This is the harness the
// integration tests, examples, and live benchmarks run on.
#pragma once

#include <memory>
#include <optional>
#include <shared_mutex>
#include <vector>

#include "core/manager.h"
#include "core/zht_client.h"
#include "core/zht_server.h"
#include "net/epoll_server.h"
#include "net/fault_injection.h"
#include "net/loopback.h"

namespace zht {

enum class ClusterTransport { kLoopback, kTcp, kUdp };

struct LocalClusterOptions {
  std::uint32_t num_instances = 4;
  std::uint32_t instances_per_node = 1;
  std::uint32_t num_partitions = 0;  // 0 → 64 per initial instance
  // Shared replica/timeout settings handed to every server, manager, and
  // client of the cluster (validated at Boot).
  ClusterOptions cluster;
  ClusterTransport transport = ClusterTransport::kLoopback;
  bool tcp_connection_cache = true;  // for kTcp client transports
  // Event-loop threads per EpollServer (kTcp/kUdp only). With > 1, each
  // instance runs one shard (disjoint partition set + mailbox) per reactor
  // and connections are re-homed to the reactor owning their first key's
  // partition (DESIGN.md §9).
  int num_reactors = 1;
  StoreFactory store_factory;       // default: in-memory NoVoHT
  HashKind hash_kind = HashKind::kFnv1a;
  // When set, every transport of the cluster (clients, server peer links,
  // managers) is wrapped in a FaultInjectingTransport sharing this plan.
  // An empty plan injects nothing, so existing behavior is unchanged until
  // the test scripts faults.
  std::shared_ptr<FaultPlan> fault_plan;
  // Restart support (loopback only): boot from a previously captured
  // membership snapshot instead of a fresh uniform layout. Instances are
  // re-registered at their recorded addresses with their recorded ids and
  // partition ownership, so persistent store factories reload the data a
  // prior incarnation wrote — including ownership moved by migrations and
  // failovers. Overrides num_instances/num_partitions/hash settings.
  std::optional<MembershipTable> initial_table;
};

// A client plus the transport it owns.
class ClientHandle {
 public:
  ClientHandle(std::unique_ptr<ClientTransport> transport,
               std::unique_ptr<ZhtClient> client)
      : transport_(std::move(transport)), client_(std::move(client)) {}

  ZhtClient* operator->() { return client_.get(); }
  ZhtClient& operator*() { return *client_; }
  ZhtClient* get() { return client_.get(); }

 private:
  std::unique_ptr<ClientTransport> transport_;
  std::unique_ptr<ZhtClient> client_;
};

class LocalCluster {
 public:
  static Result<std::unique_ptr<LocalCluster>> Start(
      const LocalClusterOptions& options);

  ~LocalCluster();

  LocalCluster(const LocalCluster&) = delete;
  LocalCluster& operator=(const LocalCluster&) = delete;

  // A fresh client bootstrapped with the current membership table.
  ClientHandle CreateClient(ZhtClientOptions overrides = {});

  std::size_t instance_count() const { return servers_.size(); }
  ZhtServer* server(std::size_t i) { return servers_[i].get(); }
  Manager* manager(std::size_t node) { return managers_[node].get(); }
  std::size_t manager_count() const { return managers_.size(); }
  const NodeAddress& manager_address(std::size_t node) const {
    return manager_addresses_[node];
  }
  const NodeAddress& instance_address(std::size_t i) const {
    return instance_addresses_[i];
  }

  // Loopback-only failure injection.
  LoopbackNetwork& network() { return network_; }
  void KillInstance(std::size_t i);
  void ReviveInstance(std::size_t i);

  // Dynamically joins a fresh instance on a new physical node through the
  // manager of `via_node` (Figure 15's operation). Returns the new id.
  Result<InstanceId> JoinNewInstance(std::size_t via_node = 0);

  // Revives a previously killed instance and re-admits it at its original
  // address: the manager re-uses its old instance id (no duplicate table
  // entry) and migrates back whatever the placement policy assigns it.
  Result<InstanceId> RejoinInstance(std::size_t i, std::size_t via_node = 0);

  // Authoritative table (from manager 0).
  MembershipTable TableSnapshot() const;

  void FlushAllAsyncReplication();

  // Installs connection placement on an epoll server and starts its
  // loops: a connection moves to reactor s % num_reactors, where s is the
  // shard of its first request's key, so one reactor drains each shard.
  // Also used by the standalone zht-server binary.
  static void WireReactors(ZhtServer& server, EpollServer& es);

 private:
  explicit LocalCluster(const LocalClusterOptions& options);
  Status Boot();
  // `self` identifies whose traffic the transport carries (fault-plan
  // partitions match on it); clients pass nullopt.
  std::unique_ptr<ClientTransport> MakeTransport(
      std::optional<NodeAddress> self = std::nullopt);

  // Registers a handler slot; returns the reachable address. A fixed
  // address (loopback only) re-registers a restarted instance where its
  // previous incarnation lived. With start_now = false (kTcp/kUdp only)
  // the EpollServer is created and bound but not started, so the caller
  // can wire reactor hooks / placement before the loops spin up.
  struct HandlerSlot {
    // Guards `target` between delivery threads and the cluster destructor:
    // deliveries hold it shared across the check + invoke, teardown takes it
    // exclusive to null the target, so once the clear returns no call can
    // still be entering a server that is about to be destroyed.
    std::shared_mutex mu;
    AsyncRequestHandler target;  // set once the component exists
  };
  Result<NodeAddress> Expose(std::shared_ptr<HandlerSlot> slot,
                             std::optional<NodeAddress> fixed = std::nullopt,
                             bool start_now = true);

  LocalClusterOptions options_;
  LoopbackNetwork network_;

  std::vector<std::shared_ptr<HandlerSlot>> slots_;
  std::vector<std::unique_ptr<EpollServer>> epoll_servers_;  // kTcp/kUdp
  std::vector<std::unique_ptr<ClientTransport>> peer_transports_;

  std::vector<std::unique_ptr<ZhtServer>> servers_;
  std::vector<NodeAddress> instance_addresses_;
  std::vector<std::unique_ptr<Manager>> managers_;
  std::vector<NodeAddress> manager_addresses_;
  std::uint32_t next_physical_node_ = 0;
};

}  // namespace zht
