// Ablation (§III.D, §IV.G): server architecture, two axes.
//
//  1. Event-driven epoll vs the abandoned thread-per-request prototype.
//     The paper: "the current epoll-based ZHT outperforms the multithread
//     version 3X". Connection-per-request clients — the pattern that
//     killed the prototype.
//  2. Reactor scaling: a real ZhtServer (one partition-ownership shard per
//     reactor, DESIGN.md §9) behind the multi-reactor epoll server at
//     1/2/4/8 event loops, against a thread-per-request baseline over the
//     same store. A shard is drained inline by whichever thread posts to
//     it; clients shard their connections by key, so placement re-homes
//     each connection to the one reactor that serves its keys' shard, and
//     almost no post finds its shard mid-drain on another reactor and has
//     to hand its task over — the sweep records per-reactor forwarded_ops
//     (those hand-offs) / mailbox_depth_p99 / owned_partitions alongside
//     throughput. The paper scales across
//     cores with one single-threaded instance per core; reactors drive
//     the same cores from one instance. Expect ~linear speedup up to the
//     host's core count (≥2.5× at 4 reactors on a ≥4-core host); on fewer
//     cores the sweep records the flat profile.
#include <algorithm>
#include <memory>
#include <thread>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "core/local_cluster.h"
#include "core/zht_server.h"
#include "membership/membership_table.h"
#include "net/epoll_server.h"
#include "net/tcp_client.h"
#include "net/threaded_server.h"
#include "novoht/memory_map.h"

namespace zht::bench {
namespace {

Response StoreHandler(MemoryMap& store, std::mutex& mu, Request&& request) {
  Response resp;
  resp.seq = request.seq;
  std::lock_guard<std::mutex> lock(mu);
  switch (request.op) {
    case OpCode::kInsert:
      resp.status = store.Put(request.key, request.value).raw();
      break;
    case OpCode::kLookup: {
      auto value = store.Get(request.key);
      if (value.ok()) {
        resp.value = std::move(*value);
      } else {
        resp.status = value.status().raw();
      }
      break;
    }
    default:
      break;
  }
  return resp;
}

// Cached concurrent clients whose connections shard by key (50/50
// insert/lookup): thread t's pinned connection carries only keys whose
// partition maps to shard t % shards, so the server's placement function
// re-homes the connection to the owning reactor on its first request and
// every later request already lands where it executes. This is the
// steady-state traffic shape where reactor scaling shows, as opposed to
// the connect-per-request storm above.
double RunShardedStorm(const NodeAddress& address, int threads, int ops_each,
                       const MembershipTable& table, int shards) {
  // Partition one workload pool by owning shard (partition % shards, the
  // same mapping ZhtServer uses).
  Workload pool = MakeWorkload(
      static_cast<std::size_t>(threads) * static_cast<std::size_t>(ops_each),
      4242);
  std::vector<std::vector<std::size_t>> by_shard(
      static_cast<std::size_t>(shards));
  for (std::size_t i = 0; i < pool.keys.size(); ++i) {
    by_shard[table.PartitionOfKey(pool.keys[i]) %
             static_cast<std::size_t>(shards)]
        .push_back(i);
  }
  Stopwatch watch(SystemClock::Instance());
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const std::vector<std::size_t>& mine =
          by_shard[static_cast<std::size_t>(t % shards)];
      if (mine.empty()) return;
      TcpClient client;
      Request request;
      for (int i = 0; i < ops_each; ++i) {
        const std::size_t idx = mine[static_cast<std::size_t>(i) % mine.size()];
        request.op = (i & 1) ? OpCode::kLookup : OpCode::kInsert;
        request.seq = static_cast<std::uint64_t>(i + 1);
        request.key = pool.keys[idx];
        request.value = pool.values[idx];
        client.Call(address, request, 2 * kNanosPerSec);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  return threads * ops_each / ToSeconds(watch.Elapsed());
}

double RunStorm(const NodeAddress& address, int threads, int ops_each) {
  Stopwatch watch(SystemClock::Instance());
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&address, t, ops_each] {
      // No connection caching: connect per request.
      TcpClient client(TcpClientOptions{.cache_connections = false});
      Workload w = MakeWorkload(static_cast<std::size_t>(ops_each),
                                500 + static_cast<std::uint64_t>(t));
      Request request;
      request.op = OpCode::kInsert;
      for (int i = 0; i < ops_each; ++i) {
        request.seq = static_cast<std::uint64_t>(i + 1);
        request.key = w.keys[static_cast<std::size_t>(i)];
        request.value = w.values[static_cast<std::size_t>(i)];
        client.Call(address, request, 2 * kNanosPerSec);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  return threads * ops_each / ToSeconds(watch.Elapsed());
}

}  // namespace
}  // namespace zht::bench

int main() {
  using namespace zht;
  using namespace zht::bench;

  Banner("Server-architecture ablation (§III.D)",
         "epoll event loop vs thread-per-request, real TCP, "
         "connection-per-request clients");

  constexpr int kThreads = 4;
  const int kOpsEach = Smoke(500, 100);

  MemoryMap epoll_store;
  std::mutex epoll_mu;
  auto epoll_server = EpollServer::Create(
      EpollServerOptions{}, [&](Request&& req) {
        return StoreHandler(epoll_store, epoll_mu, std::move(req));
      });
  if (!epoll_server.ok()) return 1;
  (*epoll_server)->Start();
  double epoll_tput = RunStorm((*epoll_server)->address(), kThreads,
                               kOpsEach);
  Report().AddMetric("epoll.loop_wakeups",
                     static_cast<double>((*epoll_server)->loop_wakeups()));
  (*epoll_server)->Stop();

  MemoryMap threaded_store;
  std::mutex threaded_mu;
  auto threaded_server = ThreadedServer::Create(
      "127.0.0.1", 0, [&](Request&& req) {
        return StoreHandler(threaded_store, threaded_mu, std::move(req));
      });
  if (!threaded_server.ok()) return 1;
  (*threaded_server)->Start();
  double threaded_tput = RunStorm((*threaded_server)->address(), kThreads,
                                  kOpsEach);
  (*threaded_server)->Stop();

  PrintRow({"architecture", "throughput (ops/s)"}, 24);
  PrintRow({"epoll event-driven", Fmt(epoll_tput, 0)}, 24);
  PrintRow({"thread-per-request", Fmt(threaded_tput, 0)}, 24);
  std::printf("\nepoll / threaded = %.2fx (paper: 3x on BG/P-era "
              "hardware; thread create/teardown per request is the cost)\n",
              epoll_tput / threaded_tput);
  Report().AddMetric("epoll.ops_per_s", epoll_tput);
  Report().AddMetric("threaded.ops_per_s", threaded_tput);

  // ---- Reactor sweep (§IV.G) ------------------------------------------

  Banner("Reactor scaling",
         "real ZhtServer (one ownership shard per reactor) behind the "
         "multi-reactor epoll front-end at 1/2/4/8 loops, key-sharded "
         "cached clients");
  constexpr int kStormThreads = 8;
  const int kStormOpsEach = Smoke(2000, 200);
  const unsigned cores = std::thread::hardware_concurrency();
  const double storm_total =
      static_cast<double>(kStormThreads) * kStormOpsEach;

  // Single-instance membership: the placeholder address is never dialed
  // (one instance = no redirects, no replication); the table's only jobs
  // here are key→partition and partition%shards routing.
  MembershipTable table =
      MembershipTable::CreateUniform(64, {NodeAddress{"127.0.0.1", 0}});

  // Thread-per-request baseline over the same ZhtServer store: every
  // request burns a thread that blocks in the shard drain, so the only
  // variable against the sweep below is the server architecture.
  double threaded_cached = 0;
  {
    TcpClient peer_transport;
    ZhtServerOptions server_options;
    auto zht =
        std::make_unique<ZhtServer>(table, server_options, &peer_transport);
    auto server =
        ThreadedServer::Create("127.0.0.1", 0, zht->AsyncHandler());
    if (!server.ok()) return 1;
    (*server)->Start();
    threaded_cached =
        RunShardedStorm((*server)->address(), kStormThreads, kStormOpsEach,
                        table, static_cast<int>(zht->num_shards()));
    (*server)->Stop();
    zht.reset();
  }

  PrintRow({"reactors", "throughput (ops/s)", "vs 1 reactor", "forwarded"},
           20);
  double one_reactor = 0;
  double four_reactor = 0;
  for (int reactors : {1, 2, 4, 8}) {
    TcpClient peer_transport;
    ZhtServerOptions server_options;
    server_options.num_shards = static_cast<std::size_t>(reactors);
    auto zht =
        std::make_unique<ZhtServer>(table, server_options, &peer_transport);
    EpollServerOptions options;
    options.num_reactors = reactors;
    auto server = EpollServer::Create(options, zht->AsyncHandler());
    if (!server.ok()) return 1;
    // Install partition-affine placement (shard s -> reactor s), start.
    LocalCluster::WireReactors(*zht, **server);
    double tput = RunShardedStorm((*server)->address(), kStormThreads,
                                  kStormOpsEach, table, reactors);

    // Per-reactor mailbox telemetry, read while the reactors are live.
    double forwarded = 0;
    double mailbox_p99 = 0;
    for (int s = 0; s < reactors; ++s) {
      forwarded += static_cast<double>(
          zht->ShardForwardedOps(static_cast<std::size_t>(s)));
      mailbox_p99 =
          std::max(mailbox_p99,
                   zht->ShardMailboxDepth(static_cast<std::size_t>(s))
                       .Percentile(99));
    }
    std::vector<std::size_t> owned = zht->ShardPartitionCounts();
    (*server)->Stop();
    zht.reset();

    const double forwarded_ratio = forwarded / storm_total;
    if (reactors == 1) one_reactor = tput;
    if (reactors == 4) four_reactor = tput;
    PrintRow({std::to_string(reactors), Fmt(tput, 0),
              Fmt(tput / one_reactor, 2) + "x",
              Fmt(100.0 * forwarded_ratio, 1) + "%"},
             20);
    const std::string prefix = "reactors." + std::to_string(reactors);
    Report().AddMetric(prefix + ".ops_per_s", tput);
    Report().AddMetric(prefix + ".forwarded_ops", forwarded);
    Report().AddMetric(prefix + ".forwarded_ratio", forwarded_ratio);
    Report().AddMetric(prefix + ".mailbox_depth_p99", mailbox_p99);
    for (std::size_t s = 0; s < owned.size(); ++s) {
      Report().AddMetric(
          prefix + ".shard." + std::to_string(s) + ".owned_partitions",
          static_cast<double>(owned[s]));
    }
    // Key-sharded connections re-home to their shard's reactor, so almost
    // no post is handed to another thread's drain; a high ratio means
    // placement routing broke. Enforced in smoke mode so `ctest -L bench_smoke` catches it.
    if (SmokeMode() && forwarded_ratio >= 0.05) {
      std::fprintf(stderr,
                   "FAIL: forwarded ratio %.3f >= 0.05 at %d reactors with "
                   "key-sharded clients\n",
                   forwarded_ratio, reactors);
      return 1;
    }
  }
  PrintRow({"thread-per-req", Fmt(threaded_cached, 0),
            Fmt(threaded_cached / one_reactor, 2) + "x", "-"},
           20);
  std::printf("\n4 reactors / 1 reactor = %.2fx on %u cores (≥2.5x expected "
              "on a >=4-core host; flat on fewer cores)\n",
              four_reactor / one_reactor, cores);
  Report().AddMetric("reactors.speedup_4v1", four_reactor / one_reactor);
  Report().AddMetric("threaded_cached.ops_per_s", threaded_cached);
  Report().AddMetric("host.cores", static_cast<double>(cores));
  return 0;
}
