// Concurrency stress suite (`ctest -L concurrency`; also run under TSan
// via `cmake --preset tsan && ctest --preset tsan`): many client threads
// hammering ZhtServer::HandleAsync concurrently — the shard-mailbox
// request path the multi-reactor EpollServer exercises in production.
// Three angles:
//
//  1. loopback, r=2: mixed single ops + MultiInsert batches from 8 threads
//     on overlapping register keys, disjoint per-thread keys, and shared
//     append ledgers, every client-visible op recorded and the history
//     validated by the checker;
//  2. real sockets: a multi-reactor EpollServer per instance (one shard
//     per reactor), concurrent cached TCP clients;
//  3. a chaos schedule (delay + duplicate + dropped responses) under the
//     multi-reactor TCP cluster, with the checker again as the oracle;
//  4. loopback, r=2, delayed legs: the ordered lane of every server keeps
//     being scheduled while sync legs hold its pool's threads.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/local_cluster.h"
#include "history_checker.h"
#include "net/epoll_server.h"
#include "net/fault_injection.h"
#include "net/tcp_client.h"

namespace zht {
namespace {

constexpr int kThreads = 8;
constexpr int kRegisterKeys = 12;
constexpr int kLedgerKeys = 4;

std::string RegisterKey(int i) { return "reg" + std::to_string(i); }
std::string LedgerKey(int i) { return "led" + std::to_string(i); }
std::string PrivateKey(int thread, int i) {
  return "own" + std::to_string(thread) + "_" + std::to_string(i);
}

// Reactors beyond the host's cores just contend for them; on a 1-core CI
// host a 4-reactor sweep can miss the suite deadline outright. Clamp the
// multi-reactor tests to what the hardware can actually run in parallel.
int EffectiveReactors(int wanted) {
  const unsigned cores = std::thread::hardware_concurrency();
  const int cap = cores == 0 ? 1 : static_cast<int>(cores);
  return wanted < cap ? wanted : cap;
}

ZhtClientOptions StressClient() {
  ZhtClientOptions options;
  options.max_attempts = 24;
  options.failure_detector.failures_to_mark_dead = 4;
  options.failure_detector.initial_backoff = 0;
  options.sleep_on_backoff = false;
  return options;
}

// One worker's operation mix. Overlapping register keys force stripe
// contention and concurrent same-key writes; private keys exercise the
// parallel disjoint-partition path; ledger appends must each apply exactly
// once; every ~12th op is a MultiInsert batch, so BATCH's multi-stripe
// ordered acquisition runs against single-op traffic on the same stripes.
void IssueMixedOps(std::uint64_t id, ZhtClient& client,
                   HistoryRecorder& recorder, Rng& rng, int ops,
                   std::atomic<int>& batch_failures) {
  int counter = 0;
  for (int op = 0; op < ops; ++op) {
    const double dice = rng.NextDouble();
    if (dice < 0.25) {
      std::string key = RegisterKey(static_cast<int>(rng.Below(kRegisterKeys)));
      std::string value =
          "v" + std::to_string(id) + "_" + std::to_string(++counter);
      std::uint64_t rec = recorder.Begin(id, OpCode::kInsert, key, value);
      recorder.End(rec, client.Insert(key, value).code());
    } else if (dice < 0.45) {
      std::string key = RegisterKey(static_cast<int>(rng.Below(kRegisterKeys)));
      std::uint64_t rec = recorder.Begin(id, OpCode::kLookup, key, "");
      auto got = client.Lookup(key);
      recorder.End(rec, got.status().code(), got.ok() ? *got : "");
    } else if (dice < 0.52) {
      std::string key = RegisterKey(static_cast<int>(rng.Below(kRegisterKeys)));
      std::uint64_t rec = recorder.Begin(id, OpCode::kRemove, key, "");
      recorder.End(rec, client.Remove(key).code());
    } else if (dice < 0.72) {
      std::string key = LedgerKey(static_cast<int>(rng.Below(kLedgerKeys)));
      std::string token =
          "c" + std::to_string(id) + "t" + std::to_string(++counter) + ";";
      std::uint64_t rec = recorder.Begin(id, OpCode::kAppend, key, token);
      recorder.End(rec, client.Append(key, token).code());
    } else if (dice < 0.80) {
      std::string key = LedgerKey(static_cast<int>(rng.Below(kLedgerKeys)));
      std::uint64_t rec = recorder.Begin(id, OpCode::kLookup, key, "");
      auto got = client.Lookup(key);
      recorder.End(rec, got.status().code(), got.ok() ? *got : "");
    } else if (dice < 0.92) {
      // Disjoint per-thread keys: no cross-thread contention by design.
      std::string key =
          PrivateKey(static_cast<int>(id), static_cast<int>(rng.Below(32)));
      std::string value =
          "p" + std::to_string(id) + "_" + std::to_string(++counter);
      std::uint64_t rec = recorder.Begin(id, OpCode::kInsert, key, value);
      recorder.End(rec, client.Insert(key, value).code());
    } else {
      // BATCH: several partitions in one carrier (multi-stripe apply).
      std::vector<KeyValue> pairs;
      std::vector<std::uint64_t> recs;
      for (int i = 0; i < 5; ++i) {
        std::string key =
            i < 2 ? RegisterKey(static_cast<int>(rng.Below(kRegisterKeys)))
                  : PrivateKey(static_cast<int>(id),
                               static_cast<int>(rng.Below(32)));
        std::string value =
            "b" + std::to_string(id) + "_" + std::to_string(++counter);
        recs.push_back(recorder.Begin(id, OpCode::kInsert, key, value));
        pairs.push_back(KeyValue{std::move(key), std::move(value)});
      }
      std::vector<Status> statuses = client.MultiInsert(pairs);
      for (std::size_t i = 0; i < recs.size(); ++i) {
        recorder.End(recs[i], statuses[i].code());
        if (!statuses[i].ok() &&
            statuses[i].code() != StatusCode::kTimeout) {
          ++batch_failures;
        }
      }
    }
  }
}

// Final recorded reads anchor the checker's view of the converged state.
void RecordedReadAll(ZhtClient& client, HistoryRecorder& recorder) {
  auto read = [&](const std::string& key) {
    std::uint64_t rec = recorder.Begin(999, OpCode::kLookup, key, "");
    auto got = client.Lookup(key);
    recorder.End(rec, got.status().code(), got.ok() ? *got : "");
  };
  for (int i = 0; i < kRegisterKeys; ++i) read(RegisterKey(i));
  for (int i = 0; i < kLedgerKeys; ++i) read(LedgerKey(i));
}

TEST(ConcurrencyStressTest, LoopbackStripedHistoryLinearizes) {
  LocalClusterOptions options;
  options.num_instances = 4;
  options.num_partitions = 32;
  options.cluster.num_replicas = 2;
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  HistoryRecorder recorder;
  std::atomic<int> batch_failures{0};
  std::vector<ClientHandle> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.push_back((*cluster)->CreateClient(StressClient()));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(7000 + t);
      IssueMixedOps(static_cast<std::uint64_t>(t + 1), *clients[t].get(),
                    recorder, rng, 150, batch_failures);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(batch_failures.load(), 0);

  (*cluster)->FlushAllAsyncReplication();
  auto reader = (*cluster)->CreateClient(StressClient());
  RecordedReadAll(*reader.get(), recorder);

  auto result = CheckHistory(recorder.Events());
  EXPECT_TRUE(result.ok())
      << result.events_checked << " events:\n" << result.ToString();

  // Operations landed on every instance (striping did not serialize the
  // cluster through one server).
  std::uint64_t total_ops = 0;
  for (std::size_t i = 0; i < (*cluster)->instance_count(); ++i) {
    total_ops += (*cluster)->server(i)->stats().ops;
  }
  EXPECT_GT(total_ops, static_cast<std::uint64_t>(kThreads) * 150 / 2);
}

TEST(ConcurrencyStressTest, MultiReactorTcpServesConcurrentClients) {
  LocalClusterOptions options;
  options.num_instances = 2;
  options.num_partitions = 16;
  options.cluster.num_replicas = 1;
  options.transport = ClusterTransport::kTcp;
  options.num_reactors = EffectiveReactors(4);
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  HistoryRecorder recorder;
  std::atomic<int> batch_failures{0};
  std::vector<ClientHandle> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.push_back((*cluster)->CreateClient(StressClient()));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(8000 + t);
      IssueMixedOps(static_cast<std::uint64_t>(t + 1), *clients[t].get(),
                    recorder, rng, 60, batch_failures);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(batch_failures.load(), 0);

  (*cluster)->FlushAllAsyncReplication();
  auto reader = (*cluster)->CreateClient(StressClient());
  RecordedReadAll(*reader.get(), recorder);

  auto result = CheckHistory(recorder.Events());
  EXPECT_TRUE(result.ok())
      << result.events_checked << " events:\n" << result.ToString();
}

TEST(ConcurrencyStressTest, MultiReactorChaosScheduleLinearizes) {
  // Faults that are safe under real threads (cf. the chaos suite's
  // `threaded` schedules): delays and duplicates never change outcomes,
  // and dropped responses only force client retries, which dedup must
  // absorb. All under the 4-reactor TCP server.
  LocalClusterOptions options;
  options.num_instances = 4;
  options.num_partitions = 32;
  options.cluster.num_replicas = 1;
  options.transport = ClusterTransport::kTcp;
  options.num_reactors = EffectiveReactors(4);
  options.fault_plan = std::make_shared<FaultPlan>(4242);
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  options.fault_plan->AddRule({.kind = FaultKind::kDelay,
                               .probability = 0.10,
                               .delay = 2 * kNanosPerMilli});
  options.fault_plan->AddRule(
      {.kind = FaultKind::kDuplicate, .probability = 0.08});
  options.fault_plan->AddRule({.kind = FaultKind::kDropResponse,
                               .op = OpCode::kAppend,
                               .client_only = true,
                               .probability = 0.08});

  HistoryRecorder recorder;
  std::atomic<int> batch_failures{0};
  std::vector<ClientHandle> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.push_back((*cluster)->CreateClient(StressClient()));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(9000 + t);
      IssueMixedOps(static_cast<std::uint64_t>(t + 1), *clients[t].get(),
                    recorder, rng, 50, batch_failures);
    });
  }
  for (auto& thread : threads) thread.join();

  options.fault_plan->Clear();
  (*cluster)->FlushAllAsyncReplication();
  auto reader = (*cluster)->CreateClient(StressClient());
  RecordedReadAll(*reader.get(), recorder);

  auto result = CheckHistory(recorder.Events());
  EXPECT_TRUE(result.ok())
      << result.events_checked << " events:\n" << result.ToString();
}

// Pure server-level shard hammering: no cluster, no replication — raw
// concurrent HandleAsync() calls on one ZhtServer, mixing data ops with
// membership pulls and STATS census scatters, so unbound-shard drains (CAS
// hand-off between posting threads) race under TSan. Every response must
// arrive exactly once.
// Lane legs queued from every shard while each pool thread sits in a
// delayed sync leg: an enqueue that finds the lane idle must schedule it
// even as the previous run is finding the lane empty, or a leg strands,
// FlushAsyncReplication never returns and a tertiary misses keys.
TEST(ConcurrencyStressTest, LaneIsScheduledWhileSyncLegsHoldThePool) {
  constexpr int kWriters = 16;
  constexpr int kKeysPerWriter = 12;
  LocalClusterOptions options;
  options.num_instances = 3;
  options.num_partitions = 24;
  options.cluster.num_replicas = 2;
  options.fault_plan = std::make_shared<FaultPlan>(2024);
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  options.fault_plan->AddRule({.kind = FaultKind::kDelay,
                               .op = OpCode::kInsert,
                               .delay = 5 * kNanosPerMilli});

  std::vector<std::thread> writers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      auto client = (*cluster)->CreateClient(StressClient());
      for (int i = 0; i < kKeysPerWriter; ++i) {
        if (!client->Insert(PrivateKey(t, i), "v").ok()) ++failures;
      }
    });
  }
  for (auto& writer : writers) writer.join();
  EXPECT_EQ(failures.load(), 0);

  (*cluster)->FlushAllAsyncReplication();
  options.fault_plan->Clear();
  const MembershipTable table = (*cluster)->TableSnapshot();
  for (int t = 0; t < kWriters; ++t) {
    for (int i = 0; i < kKeysPerWriter; ++i) {
      const std::string key = PrivateKey(t, i);
      const PartitionId p = table.PartitionOfKey(key);
      const std::vector<InstanceId> chain = table.ReplicaChain(p, 2);
      ASSERT_EQ(chain.size(), 3u);
      ZhtServer& tertiary = *(*cluster)->server(chain[2]);
      bool held = false;
      for (const auto& [k, v] : tertiary.PartitionPairs(p)) {
        held = held || k == key;
      }
      EXPECT_TRUE(held) << key << " missing at tertiary " << chain[2];
    }
  }
}

TEST(ConcurrencyStressTest, RawHandleAsyncShardsAndSnapshotsRace) {
  LoopbackNetwork network;
  std::vector<NodeAddress> addresses;
  for (int i = 0; i < 2; ++i) {
    addresses.push_back(network.Register([](Request&&) { return Response{}; }));
  }
  MembershipTable table =
      MembershipTable::CreateUniform(16, addresses, 1, HashKind::kFnv1a);
  ZhtServerOptions server_options;
  server_options.self = 0;
  server_options.cluster.num_replicas = 0;
  server_options.num_shards = 4;
  auto transport = std::make_unique<LoopbackTransport>(&network);
  ZhtServer server(std::move(table), server_options, transport.get());

  std::atomic<int> failures{0};
  std::atomic<int> completions{0};
  constexpr int kWorkers = 6;
  constexpr int kOpsPerWorker = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int i = 0; i < kOpsPerWorker; ++i) {
        Request request;
        request.seq = static_cast<std::uint64_t>(t) * 1000 + i + 1;
        request.client_id = static_cast<std::uint64_t>(t + 1);
        const double dice = rng.NextDouble();
        if (dice < 0.4) {
          request.op = OpCode::kInsert;
          request.key = "k" + std::to_string(rng.Below(64));
          request.value = "v";
        } else if (dice < 0.7) {
          request.op = OpCode::kLookup;
          request.key = "k" + std::to_string(rng.Below(64));
        } else if (dice < 0.85) {
          request.op = OpCode::kAppend;
          request.key = "led" + std::to_string(rng.Below(4));
          request.value = "t" + std::to_string(i) + ";";
        } else if (dice < 0.95) {
          request.op = OpCode::kMembershipPull;
        } else {
          request.op = OpCode::kStats;
        }
        server.HandleAsync(std::move(request), [&](Response&& response) {
          if (response.seq == 0 && !response.ok()) ++failures;
          completions.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  // Metrics/census readers riding along with the writers.
  threads.emplace_back([&] {
    for (int i = 0; i < 100; ++i) {
      (void)server.TotalEntries();
      (void)server.MetricsSnapshotNow();
      (void)server.stats();
    }
  });
  for (auto& thread : threads) thread.join();
  // With no durability pipeline and no replicas, every callback has fired
  // by the time its HandleAsync returned.
  EXPECT_EQ(completions.load(), kWorkers * kOpsPerWorker);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(server.stats().ops, 0u);
  server.FlushAsyncReplication();
}

}  // namespace
}  // namespace zht
