// Mailbox chaos (`ctest -L chaos`): a seeded fault schedule — delays,
// duplicates, dropped APPEND responses — over a 4-reactor TCP cluster
// whose every request routes through shard mailboxes (one shard per
// reactor, connections re-homed by first key). Dropped responses force
// client retries that dedup must absorb; duplicates and delays reorder
// mailbox traffic without changing outcomes. The history checker is the
// oracle, exactly as in the synchronous chaos suite.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/local_cluster.h"
#include "history_checker.h"

namespace zht {
namespace {

constexpr int kThreads = 6;
constexpr int kRegisterKeys = 10;
constexpr int kLedgerKeys = 4;

std::string RegisterKey(int i) { return "reg" + std::to_string(i); }
std::string LedgerKey(int i) { return "led" + std::to_string(i); }

int EffectiveReactors(int wanted) {
  const unsigned cores = std::thread::hardware_concurrency();
  const int cap = cores == 0 ? 1 : static_cast<int>(cores);
  return wanted < cap ? wanted : cap;
}

ZhtClientOptions ChaosClient() {
  ZhtClientOptions options;
  options.max_attempts = 24;
  options.failure_detector.failures_to_mark_dead = 4;
  options.failure_detector.initial_backoff = 0;
  options.sleep_on_backoff = false;
  return options;
}

TEST(AsyncChaosTest, MailboxRoutedClusterLinearizesUnderFaults) {
  LocalClusterOptions options;
  options.num_instances = 2;
  options.num_partitions = 32;
  options.cluster.num_replicas = 1;
  options.transport = ClusterTransport::kTcp;
  options.num_reactors = EffectiveReactors(4);
  options.fault_plan = std::make_shared<FaultPlan>(777);
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
  std::vector<ClientHandle> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.push_back((*cluster)->CreateClient(ChaosClient()));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto& client = *clients[static_cast<std::size_t>(t)].get();
      const std::uint64_t id = static_cast<std::uint64_t>(t + 1);
      Rng rng(5100 + t);
      int counter = 0;
      for (int op = 0; op < 50; ++op) {
        const double dice = rng.NextDouble();
        if (dice < 0.35) {
          std::string key =
              RegisterKey(static_cast<int>(rng.Below(kRegisterKeys)));
          std::string value =
              "v" + std::to_string(id) + "_" + std::to_string(++counter);
          std::uint64_t rec = recorder.Begin(id, OpCode::kInsert, key, value);
          recorder.End(rec, client.Insert(key, value).code());
        } else if (dice < 0.60) {
          std::string key =
              RegisterKey(static_cast<int>(rng.Below(kRegisterKeys)));
          std::uint64_t rec = recorder.Begin(id, OpCode::kLookup, key, "");
          auto got = client.Lookup(key);
          recorder.End(rec, got.status().code(), got.ok() ? *got : "");
        } else if (dice < 0.80) {
          std::string key =
              LedgerKey(static_cast<int>(rng.Below(kLedgerKeys)));
          std::string token =
              "c" + std::to_string(id) + "t" + std::to_string(++counter) + ";";
          std::uint64_t rec = recorder.Begin(id, OpCode::kAppend, key, token);
          recorder.End(rec, client.Append(key, token).code());
        } else {
          // Owner-spanning batch: the carrier scatters groups across the
          // reactors' shards and gathers through the mailboxes.
          std::vector<KeyValue> pairs;
          std::vector<std::uint64_t> recs;
          for (int i = 0; i < 4; ++i) {
            std::string key =
                RegisterKey(static_cast<int>(rng.Below(kRegisterKeys)));
            std::string value =
                "b" + std::to_string(id) + "_" + std::to_string(++counter);
            recs.push_back(recorder.Begin(id, OpCode::kInsert, key, value));
            pairs.push_back(KeyValue{std::move(key), std::move(value)});
          }
          std::vector<Status> statuses = client.MultiInsert(pairs);
          for (std::size_t i = 0; i < recs.size(); ++i) {
            recorder.End(recs[i], statuses[i].code());
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  options.fault_plan->Clear();
  (*cluster)->FlushAllAsyncReplication();
  auto reader = (*cluster)->CreateClient(ChaosClient());
  for (int i = 0; i < kRegisterKeys; ++i) {
    std::uint64_t rec =
        recorder.Begin(999, OpCode::kLookup, RegisterKey(i), "");
    auto got = reader->Lookup(RegisterKey(i));
    recorder.End(rec, got.status().code(), got.ok() ? *got : "");
  }
  for (int i = 0; i < kLedgerKeys; ++i) {
    std::uint64_t rec = recorder.Begin(999, OpCode::kLookup, LedgerKey(i), "");
    auto got = reader->Lookup(LedgerKey(i));
    recorder.End(rec, got.status().code(), got.ok() ? *got : "");
  }

  auto result = CheckHistory(recorder.Events());
  EXPECT_TRUE(result.ok())
      << result.events_checked << " events:\n" << result.ToString();

  // The mailbox path was really exercised: per-shard telemetry is live on
  // every instance (depth histograms exist even when drains found the
  // mailbox empty).
  for (std::size_t i = 0; i < (*cluster)->instance_count(); ++i) {
    ZhtServer* server = (*cluster)->server(i);
    EXPECT_EQ(server->num_shards(),
              static_cast<std::size_t>(options.num_reactors));
    (void)server->ShardMailboxDepth(0);
    std::vector<std::size_t> held = server->ShardPartitionCounts();
    std::size_t total = 0;
    for (std::size_t h : held) total += h;
    EXPECT_GT(total, 0u) << "instance " << i << " holds no partitions";
  }
}

}  // namespace
}  // namespace zht
