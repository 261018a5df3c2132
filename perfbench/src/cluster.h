// A TCP ZHT deployment assembled by the benchmark itself: epoll front
// ends, ZhtServers, one Manager per instance, clients. It follows
// LocalCluster's TCP path, and additionally lets the traced run put
// decorators at the handler, peer-transport and store boundaries, which
// LocalCluster does not expose.
#pragma once

#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/manager.h"
#include "core/zht_client.h"
#include "core/zht_server.h"
#include "net/epoll_server.h"
#include "net/tcp_client.h"
#include "trace.h"

namespace perfbench {

// The shipped default (tools/sample_config/zht.cfg): 1024 partitions per
// initial instance.
constexpr std::uint32_t kPartitionsPerInstance = 1024;

struct ClusterSpec {
  std::uint32_t instances = 1;
  int reactors = 1;
  std::string data_dir;        // empty = in-memory NoVoHT stores
  zht::ClusterOptions cluster;
  bool trace = false;          // install the tracing decorators
  Faults faults;          // self-tests only
};

// One load thread's client: the ZhtClient and the transport it calls.
struct BenchClient {
  std::unique_ptr<zht::ClientTransport> transport;
  zht::TcpClient* tcp = nullptr;  // the socket layer under any decorator
  std::unique_ptr<zht::ZhtClient> client;
};

class BenchCluster {
 public:
  static zht::Result<std::unique_ptr<BenchCluster>> Start(
      const ClusterSpec& spec);
  ~BenchCluster();
  BenchCluster(const BenchCluster&) = delete;
  BenchCluster& operator=(const BenchCluster&) = delete;

  // max_attempts / op_timeout: ZhtClientOptions overrides (op_timeout 0 =
  // the cluster's).
  BenchClient MakeClient(std::uint64_t client_id, int max_attempts,
                         zht::Nanos op_timeout);

  // A fresh instance on a new node, admitted through manager 0 (the
  // operation of LocalCluster::JoinNewInstance).
  zht::Result<zht::InstanceId> Join();
  zht::Status Depart(zht::InstanceId id);

  zht::MembershipTable Table() const { return managers_[0]->TableSnapshot(); }
  zht::Manager& manager() { return *managers_[0]; }
  const std::vector<std::unique_ptr<zht::ZhtServer>>& servers() const {
    return servers_;
  }
  // Front ends of the instances (manager front ends excluded).
  const std::vector<zht::EpollServer*>& instance_front_ends() const {
    return instance_front_ends_;
  }
  void FlushAsyncReplication();

 private:
  explicit BenchCluster(ClusterSpec spec) : spec_(std::move(spec)) {}
  zht::Status Boot();
  struct Slot {
    std::shared_mutex mu;
    zht::AsyncRequestHandler target;
  };
  zht::Result<zht::NodeAddress> Expose(const std::shared_ptr<Slot>& slot,
                                       bool start_now);
  std::unique_ptr<zht::ClientTransport> PeerTransport(zht::InstanceId self);
  std::unique_ptr<zht::ZhtServer> MakeServer(zht::InstanceId self,
                                             zht::MembershipTable table,
                                             const std::shared_ptr<Slot>& slot);

  ClusterSpec spec_;
  zht::StoreFactory store_factory_;
  std::uint32_t num_partitions_ = 0;
  std::vector<std::shared_ptr<Slot>> slots_;
  std::vector<std::unique_ptr<zht::EpollServer>> front_ends_;
  std::vector<zht::EpollServer*> instance_front_ends_;
  std::vector<std::unique_ptr<zht::ClientTransport>> peer_transports_;
  std::vector<std::unique_ptr<zht::ZhtServer>> servers_;
  std::vector<std::unique_ptr<zht::Manager>> managers_;
  std::vector<zht::NodeAddress> manager_addresses_;
  std::uint32_t next_node_ = 0;
};

}  // namespace perfbench
