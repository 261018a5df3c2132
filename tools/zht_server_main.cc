// zht-server: standalone ZHT instance daemon, configured the way the
// original ZHT deployment was — a key=value config file plus a neighbor
// file listing every instance (one "host:port" per line, §III.C static
// bootstrap).
//
//   ./tools/zht-server --config zht.cfg --neighbors neighbors.conf --self 0
//
// Config keys (all optional):
//   port            = 50000       # overrides the neighbor entry's port
//   replicas        = 1           # replication level
//   partitions      = 0           # 0 → 1024 per instance
//   data_dir        = /tmp/zht    # empty → in-memory stores
//   instances_per_node = 1
//   num_reactors    = 1           # event-loop threads (cores to drive)
//   hash            = fnv | jenkins
//   placement_policy = contiguous | memento | rendezvous  # partition
//                                 # placement (must match cluster-wide)
//   log_level       = info | debug | warn | error
//   durability      = none | group_commit | every_op   # acked-write safety
//   max_commit_latency_us = 0     # group-commit window (microseconds)
//   hot_cache_entries = 0         # per-shard hot-key read cache (0 = off)
//   shed_queue_budget = 0         # admission control: mailbox-depth budget
//                                 # past which data ops shed (0 = off)
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/config.h"
#include "common/log.h"
#include "core/local_cluster.h"
#include "core/zht_server.h"
#include "net/epoll_server.h"
#include "net/tcp_client.h"
#include "novoht/novoht.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

zht::Result<std::vector<zht::NodeAddress>> LoadNeighbors(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return zht::Status(zht::StatusCode::kNotFound,
                       "cannot open neighbor file: " + path);
  }
  std::vector<zht::NodeAddress> neighbors;
  std::string line;
  while (std::getline(in, line)) {
    std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    while (!line.empty() && std::isspace(static_cast<unsigned char>(
                                line.back()))) {
      line.pop_back();
    }
    std::size_t start = 0;
    while (start < line.size() &&
           std::isspace(static_cast<unsigned char>(line[start]))) {
      ++start;
    }
    line = line.substr(start);
    if (line.empty()) continue;
    auto address = zht::NodeAddress::Parse(line);
    if (!address.ok()) return address.status();
    neighbors.push_back(*address);
  }
  if (neighbors.empty()) {
    return zht::Status(zht::StatusCode::kInvalidArgument,
                       "neighbor file lists no instances");
  }
  return neighbors;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace zht;

  std::string config_path, neighbor_path;
  long self = -1;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--config") && i + 1 < argc) {
      config_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--neighbors") && i + 1 < argc) {
      neighbor_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--self") && i + 1 < argc) {
      self = std::strtol(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s --neighbors FILE --self INDEX [--config FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  if (neighbor_path.empty() || self < 0) {
    std::fprintf(stderr,
                 "usage: %s --neighbors FILE --self INDEX [--config FILE]\n",
                 argv[0]);
    return 2;
  }

  Config config;
  if (!config_path.empty()) {
    auto loaded = Config::FromFile(config_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "config: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    config = *loaded;
  }
  std::string level = config.GetString("log_level", "info");
  Logger::Instance().SetLevel(level == "debug"  ? LogLevel::kDebug
                              : level == "warn" ? LogLevel::kWarn
                              : level == "error" ? LogLevel::kError
                                                 : LogLevel::kInfo);

  auto neighbors = LoadNeighbors(neighbor_path);
  if (!neighbors.ok()) {
    std::fprintf(stderr, "neighbors: %s\n",
                 neighbors.status().ToString().c_str());
    return 1;
  }
  if (static_cast<std::size_t>(self) >= neighbors->size()) {
    std::fprintf(stderr, "--self %ld out of range (%zu instances)\n", self,
                 neighbors->size());
    return 1;
  }

  std::uint32_t partitions = static_cast<std::uint32_t>(
      config.GetInt("partitions", 0));
  if (partitions == 0) {
    partitions = static_cast<std::uint32_t>(neighbors->size()) * 1024;
  }
  HashKind hash = config.GetString("hash", "fnv") == "jenkins"
                      ? HashKind::kJenkins
                      : HashKind::kFnv1a;
  const std::string placement =
      config.GetString("placement_policy", "contiguous");
  auto placement_kind = ParsePlacementKind(placement);
  if (!placement_kind.ok()) {
    std::fprintf(stderr, "%s\n", placement_kind.status().ToString().c_str());
    return 1;
  }
  MembershipTable table = MembershipTable::CreateUniform(
      partitions, *neighbors,
      static_cast<std::uint32_t>(config.GetInt("instances_per_node", 1)),
      hash, *placement_kind);

  ZhtServerOptions server_options;
  server_options.self = static_cast<InstanceId>(self);
  server_options.cluster.placement_policy = placement;
  server_options.cluster.num_replicas =
      static_cast<int>(config.GetInt("replicas", 0));
  server_options.cluster.peer_timeout =
      config.GetInt("peer_timeout_ms", 500) * kNanosPerMilli;
  const std::string durability = config.GetString("durability", "none");
  if (durability == "group_commit") {
    server_options.cluster.durability = DurabilityMode::kGroupCommit;
  } else if (durability == "every_op") {
    server_options.cluster.durability = DurabilityMode::kEveryOp;
  } else if (durability != "none") {
    std::fprintf(stderr, "bad durability mode: %s\n", durability.c_str());
    return 1;
  }
  server_options.cluster.max_commit_latency =
      config.GetInt("max_commit_latency_us", 0) * kNanosPerMicro;
  server_options.cluster.hot_cache_entries =
      static_cast<std::size_t>(config.GetInt("hot_cache_entries", 0));
  server_options.cluster.shed_queue_budget =
      static_cast<std::size_t>(config.GetInt("shed_queue_budget", 0));
  Status cluster_valid = server_options.cluster.Validate();
  if (!cluster_valid.ok()) {
    std::fprintf(stderr, "bad cluster options: %s\n",
                 cluster_valid.ToString().c_str());
    return 1;
  }
  std::string data_dir = config.GetString("data_dir", "");
  if (!data_dir.empty()) {
    // Persistent stores with the configured durability; the server acks a
    // mutation only after the store reports it durable.
    server_options.store_factory =
        MakeNoVoHTStoreFactory(data_dir, server_options.cluster);
  }

  const int num_reactors =
      static_cast<int>(config.GetInt("num_reactors", 1));
  // One shard (disjoint partition set + mailbox) per reactor: placement
  // sends each shard's connections to one event loop, which drains it.
  server_options.num_shards =
      static_cast<std::size_t>(num_reactors < 1 ? 1 : num_reactors);

  TcpClient peer_transport;
  ZhtServer server(std::move(table), server_options, &peer_transport);

  const NodeAddress& me = (*neighbors)[static_cast<std::size_t>(self)];
  EpollServerOptions net_options;
  net_options.host = me.host;
  net_options.port = static_cast<std::uint16_t>(
      config.GetInt("port", me.port));
  net_options.num_reactors = num_reactors;
  auto net = EpollServer::Create(net_options, server.AsyncHandler());
  if (!net.ok()) {
    std::fprintf(stderr, "listen: %s\n", net.status().ToString().c_str());
    return 1;
  }
  LocalCluster::WireReactors(server, **net);
  std::printf("zht-server: instance %ld of %zu serving on %s "
              "(%u partitions, %d replicas, %d reactors, %s)\n",
              self, neighbors->size(), (*net)->address().ToString().c_str(),
              partitions, server_options.cluster.num_replicas,
              (*net)->num_reactors(),
              data_dir.empty() ? "in-memory" : data_dir.c_str());

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::printf("zht-server: shutting down (%llu requests served)\n",
              static_cast<unsigned long long>((*net)->requests_served()));
  (*net)->Stop();
  return 0;
}
