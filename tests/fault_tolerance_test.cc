// Fault-tolerance and durability tests beyond the happy path: lossy
// networks (dropped messages + retries + append dedup), node churn under
// load with replication, full-cluster restart recovery from NoVoHT logs,
// and parameterized sweeps over cluster shapes.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>

#include "common/rng.h"
#include "core/local_cluster.h"
#include "novoht/novoht.h"

namespace zht {
namespace {

namespace fs = std::filesystem;

ZhtClientOptions RetryingClient() {
  ZhtClientOptions options;
  options.max_attempts = 24;
  options.failure_detector.failures_to_mark_dead = 20;  // retry same node
  options.failure_detector.initial_backoff = 0;
  options.sleep_on_backoff = false;
  return options;
}

TEST(FaultToleranceTest, LossyNetworkRetriesConverge) {
  LocalClusterOptions lossy_options;
  lossy_options.num_instances = 4;
  lossy_options.fault_plan = std::make_shared<FaultPlan>(/*seed=*/12);
  auto cluster = LocalCluster::Start(lossy_options);
  ASSERT_TRUE(cluster.ok());
  int lossy = lossy_options.fault_plan->AddRule(
      {.kind = FaultKind::kDropRequest, .probability = 0.3});
  auto client = (*cluster)->CreateClient(RetryingClient());
  Rng rng(12);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 200; ++i) {
    std::string key = rng.AsciiString(15);
    std::string value = rng.AsciiString(32);
    ASSERT_TRUE(client->Insert(key, value).ok()) << i;
    model[key] = value;
  }
  lossy_options.fault_plan->RemoveRule(lossy);
  for (const auto& [key, value] : model) {
    EXPECT_EQ(client->Lookup(key).value(), value);
  }
  EXPECT_GT(client->stats().retries, 0u);
  EXPECT_GT(lossy_options.fault_plan->stats().dropped_requests, 0u);
}

// ZhtClientStats is a view of the client's registry: every field equals its
// `client.<field>` counter — retries under a seeded lossy plan, failovers
// under a killed node — each name appears once, and the registry carries
// per-op end-to-end latency histograms for the issued workload.
TEST(FaultToleranceTest, ClientMetricsCountersMatchStatsUnderFaults) {
  LocalClusterOptions lossy_options;
  lossy_options.num_instances = 4;
  lossy_options.fault_plan = std::make_shared<FaultPlan>(/*seed=*/31);
  auto cluster = LocalCluster::Start(lossy_options);
  ASSERT_TRUE(cluster.ok());
  int lossy = lossy_options.fault_plan->AddRule(
      {.kind = FaultKind::kDropRequest, .probability = 0.25});
  auto client = (*cluster)->CreateClient(RetryingClient());
  Rng rng(31);
  for (int i = 0; i < 120; ++i) {
    std::string key = rng.AsciiString(15);
    ASSERT_TRUE(client->Insert(key, rng.AsciiString(32)).ok()) << i;
    ASSERT_TRUE(client->Lookup(key).ok()) << i;
  }
  lossy_options.fault_plan->RemoveRule(lossy);

  MetricsSnapshot snapshot = client->metrics().Snapshot();
  const ZhtClientStats stats = client->stats();
  EXPECT_GT(stats.retries, 0u);
  EXPECT_EQ(stats.ops, 240u);
  const std::pair<const char*, std::uint64_t> fields[] = {
      {"client.ops", stats.ops},
      {"client.redirects_followed", stats.redirects_followed},
      {"client.failovers", stats.failovers},
      {"client.retries", stats.retries},
      {"client.nodes_reported_dead", stats.nodes_reported_dead},
      {"client.shed_backoffs", stats.shed_backoffs},
      {"client.membership_pulls", stats.membership_pulls},
  };
  for (const auto& [name, value] : fields) {
    ASSERT_NE(snapshot.Find(name), nullptr) << name;
    EXPECT_EQ(snapshot.ValueOf(name), static_cast<std::int64_t>(value))
        << name;
  }
  std::set<std::string> names;
  for (const MetricValue& entry : snapshot.entries) {
    EXPECT_TRUE(names.insert(entry.name).second) << entry.name << " twice";
  }
  const MetricValue* insert_hist =
      snapshot.Find("client.op.insert.latency_ns");
  ASSERT_NE(insert_hist, nullptr);
  EXPECT_EQ(insert_hist->histogram.count, 120u);
  const MetricValue* lookup_hist =
      snapshot.Find("client.op.lookup.latency_ns");
  ASSERT_NE(lookup_hist, nullptr);
  EXPECT_EQ(lookup_hist->histogram.count, 120u);
}

TEST(FaultToleranceTest, ClientFailoverCounterTracksKilledPrimary) {
  LocalClusterOptions options;
  options.num_instances = 4;
  options.cluster.num_replicas = 2;
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok());

  ZhtClientOptions client_options;
  client_options.max_attempts = 16;
  client_options.failure_detector.failures_to_mark_dead = 1;
  client_options.failure_detector.initial_backoff = 0;
  client_options.sleep_on_backoff = false;
  auto client = (*cluster)->CreateClient(client_options);

  Rng rng(17);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        client->Insert("pre" + std::to_string(i), rng.AsciiString(16)).ok());
  }
  (*cluster)->FlushAllAsyncReplication();
  (*cluster)->KillInstance(2);
  int served = 0;
  for (int i = 0; i < 40; ++i) {
    if (client->Lookup("pre" + std::to_string(i)).ok()) ++served;
  }
  EXPECT_GT(served, 0);

  const ZhtClientStats stats = client->stats();
  MetricsSnapshot snapshot = client->metrics().Snapshot();
  EXPECT_GT(stats.failovers, 0u);
  EXPECT_EQ(snapshot.ValueOf("client.failovers"),
            static_cast<std::int64_t>(stats.failovers));
  EXPECT_EQ(snapshot.ValueOf("client.retries"),
            static_cast<std::int64_t>(stats.retries));
}

TEST(FaultToleranceTest, AppendExactlyOnceUnderMessageLoss) {
  // Retries of a lost-RESPONSE append must not double-apply: the request
  // reached the server and mutated state even though the client saw a
  // timeout. Inject exactly that — one dropped append response — and let
  // the client's own retry loop resend the identical (client_id, seq).
  LocalClusterOptions two_options;
  two_options.num_instances = 2;
  two_options.fault_plan = std::make_shared<FaultPlan>(/*seed=*/7);
  auto cluster = LocalCluster::Start(two_options);
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->CreateClient(RetryingClient());
  ASSERT_TRUE(client->Append("ledger", "tx1;").ok());

  two_options.fault_plan->AddRule({.kind = FaultKind::kDropResponse,
                                   .op = OpCode::kAppend,
                                   .max_faults = 1});
  ASSERT_TRUE(client->Append("ledger", "tx2;").ok());
  EXPECT_EQ(two_options.fault_plan->stats().dropped_responses, 1u);
  EXPECT_GT(client->stats().retries, 0u);

  // Applied once, not once per attempt; the server saw and rejected the dup.
  EXPECT_EQ(client->Lookup("ledger").value(), "tx1;tx2;");
  std::uint64_t dups = 0;
  for (std::size_t i = 0; i < (*cluster)->instance_count(); ++i) {
    dups += (*cluster)->server(i)->stats().duplicate_appends_dropped;
  }
  EXPECT_GE(dups, 1u);
}

TEST(FaultToleranceTest, ChurnUnderLoadLosesNoAckedWrite) {
  // The paper's failure model: "we assume failed nodes do not recover"
  // (§III.C). With 2 replicas the cluster must absorb two permanent
  // failures under continuous writes without losing a single acked write.
  LocalClusterOptions options;
  options.num_instances = 6;
  options.cluster.num_replicas = 2;
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok());

  ZhtClientOptions client_options;
  client_options.max_attempts = 16;
  client_options.failure_detector.failures_to_mark_dead = 1;
  client_options.failure_detector.initial_backoff = 0;
  client_options.sleep_on_backoff = false;
  auto client = (*cluster)->CreateClient(client_options);

  Rng rng(5);
  std::map<std::string, std::string> acked;
  const std::size_t victims[] = {1, 4};  // two permanent failures
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 80; ++i) {
      std::string key =
          "r" + std::to_string(round) + "k" + std::to_string(i);
      std::string value = rng.AsciiString(24);
      if (i == 30) (*cluster)->KillInstance(victims[round]);
      if (client->Insert(key, value).ok()) acked[key] = value;
    }
    (*cluster)->FlushAllAsyncReplication();
  }

  int missing = 0;
  for (const auto& [key, value] : acked) {
    auto got = client->Lookup(key);
    if (!got.ok() || *got != value) ++missing;
  }
  EXPECT_EQ(missing, 0) << "of " << acked.size() << " acked writes";
}

TEST(FaultToleranceTest, ClusterRestartRecoversFromNoVoHTLogs) {
  fs::path dir = fs::path(::testing::TempDir()) / "zht_restart_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  auto factory = [dir](InstanceId self,
                       PartitionId partition) -> std::unique_ptr<KVStore> {
    NoVoHTOptions options;
    options.path = (dir / ("i" + std::to_string(self) + "_p" +
                           std::to_string(partition)))
                       .string();
    auto store = NoVoHT::Open(options);
    return store.ok() ? std::move(*store) : nullptr;
  };

  Rng rng(31);
  std::map<std::string, std::string> model;
  LocalClusterOptions options;
  options.num_instances = 3;
  options.num_partitions = 48;  // fixed: same layout across "restarts"
  options.store_factory = factory;
  {
    auto cluster = LocalCluster::Start(options);
    ASSERT_TRUE(cluster.ok());
    auto client = (*cluster)->CreateClient();
    for (int i = 0; i < 200; ++i) {
      std::string key = rng.AsciiString(15);
      std::string value = rng.AsciiString(40);
      ASSERT_TRUE(client->Insert(key, value).ok());
      model[key] = value;
    }
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(client->Append("journal", "e" + std::to_string(i)).ok());
    }
  }  // whole cluster torn down (maintenance/reboot, §III.H)

  // A fresh cluster over the same data directory: "the entire state of
  // ZHT could be loaded from local persistent storage".
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->CreateClient();
  for (const auto& [key, value] : model) {
    EXPECT_EQ(client->Lookup(key).value(), value) << key;
  }
  auto journal = client->Lookup("journal");
  ASSERT_TRUE(journal.ok());
  for (int i = 0; i < 20; ++i) {
    EXPECT_NE(journal->find("e" + std::to_string(i)), std::string::npos);
  }
  fs::remove_all(dir);
}

// Parameterized sweep: the basic contract holds across cluster shapes.
struct ShapeParam {
  std::uint32_t instances;
  std::uint32_t instances_per_node;
  int replicas;
  std::uint64_t seed;
};

class ClusterShapeTest : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(ClusterShapeTest, CrudModelEquivalence) {
  const ShapeParam& param = GetParam();
  LocalClusterOptions options;
  options.num_instances = param.instances;
  options.instances_per_node = param.instances_per_node;
  options.cluster.num_replicas = param.replicas;
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->CreateClient();

  Rng rng(param.seed);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 400; ++i) {
    std::string key = "s" + std::to_string(rng.Below(80));
    double dice = rng.NextDouble();
    if (dice < 0.45) {
      std::string value = rng.AsciiString(20);
      ASSERT_TRUE(client->Insert(key, value).ok());
      model[key] = value;
    } else if (dice < 0.65) {
      std::string extra = rng.AsciiString(6);
      ASSERT_TRUE(client->Append(key, extra).ok());
      model[key] += extra;
    } else if (dice < 0.85) {
      Status status = client->Remove(key);
      if (model.erase(key)) {
        EXPECT_TRUE(status.ok());
      } else {
        EXPECT_EQ(status.code(), StatusCode::kNotFound);
      }
    } else {
      auto got = client->Lookup(key);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
      } else {
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(*got, it->second);
      }
    }
  }
  for (const auto& [key, value] : model) {
    EXPECT_EQ(client->Lookup(key).value(), value);
  }
  (*cluster)->FlushAllAsyncReplication();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ClusterShapeTest,
    ::testing::Values(ShapeParam{1, 1, 0, 1}, ShapeParam{2, 1, 1, 2},
                      ShapeParam{4, 2, 1, 3}, ShapeParam{8, 1, 2, 4},
                      ShapeParam{9, 3, 2, 5}, ShapeParam{16, 4, 3, 6}),
    [](const auto& info) {
      return "i" + std::to_string(info.param.instances) + "n" +
             std::to_string(info.param.instances_per_node) + "r" +
             std::to_string(info.param.replicas);
    });

}  // namespace
}  // namespace zht
