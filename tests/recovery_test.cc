// Recovery campaign (ctest -L recovery): online replica rebuild after node
// failures. Kills under live mixed traffic at r=2 and r=3 must leave the
// recorded history clean (only transient errors), restore the replication
// level via checkpoint shipping, and leave rebuilt replicas byte-for-byte
// equal to the survivors. Anti-entropy digest exchange must converge
// deliberately diverged replicas and move no pair data between clean ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/local_cluster.h"
#include "history_checker.h"

namespace zht {
namespace {

ZhtClientOptions RecoveryClient() {
  ZhtClientOptions options;
  options.max_attempts = 24;
  options.failure_detector.failures_to_mark_dead = 4;
  options.failure_detector.initial_backoff = 0;
  options.sleep_on_backoff = false;
  return options;
}

// Members of `p`'s chain that are alive — after a handled failure the table
// skips dead instances, so this is the restored chain.
std::vector<InstanceId> AliveChain(const MembershipTable& table, PartitionId p,
                                   int replicas) {
  std::vector<InstanceId> alive;
  for (InstanceId id : table.ReplicaChain(p, replicas)) {
    if (table.Instance(id).alive) alive.push_back(id);
  }
  return alive;
}

// True when every partition's alive chain members hold digest-identical
// copies. `why` names the first divergence for failure messages.
bool ReplicationConverged(LocalCluster& cluster, int replicas,
                          std::string* why) {
  MembershipTable table = cluster.TableSnapshot();
  for (PartitionId p = 0; p < table.num_partitions(); ++p) {
    auto alive = AliveChain(table, p, replicas);
    if (alive.empty()) {
      *why = "partition " + std::to_string(p) + " has no alive replica";
      return false;
    }
    PartitionDigest owner = cluster.server(alive[0])->PartitionDigestOf(p);
    for (std::size_t i = 1; i < alive.size(); ++i) {
      PartitionDigest replica = cluster.server(alive[i])->PartitionDigestOf(p);
      if (!(replica == owner)) {
        *why = "partition " + std::to_string(p) + ": instance " +
               std::to_string(alive[i]) + " diverges from owner " +
               std::to_string(alive[0]);
        return false;
      }
    }
  }
  return true;
}

// Polls for digest convergence across every partition's alive chain,
// draining async legs between probes. Midway it issues one explicit
// RepairPartition healing pass per partition (anti-entropy), covering legs
// a completed rebuild may have raced.
::testing::AssertionResult WaitForConvergence(LocalCluster& cluster,
                                              int replicas) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  bool healed = false;
  std::string why;
  while (std::chrono::steady_clock::now() < deadline) {
    cluster.FlushAllAsyncReplication();
    if (ReplicationConverged(cluster, replicas, &why)) {
      return ::testing::AssertionSuccess();
    }
    if (!healed) {
      healed = true;
      MembershipTable table = cluster.TableSnapshot();
      for (PartitionId p = 0; p < table.num_partitions(); ++p) {
        auto alive = AliveChain(table, p, replicas);
        if (alive.size() > 1) cluster.server(alive[0])->RepairPartition(p);
      }
      continue;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return ::testing::AssertionFailure() << "not converged: " << why;
}

// Byte-for-byte equality of every alive replica pair set against its owner.
void ExpectReplicasIdentical(LocalCluster& cluster, int replicas) {
  MembershipTable table = cluster.TableSnapshot();
  for (PartitionId p = 0; p < table.num_partitions(); ++p) {
    auto alive = AliveChain(table, p, replicas);
    ASSERT_FALSE(alive.empty()) << "partition " << p << " lost";
    auto expected = cluster.server(alive[0])->PartitionPairs(p);
    for (std::size_t i = 1; i < alive.size(); ++i) {
      auto got = cluster.server(alive[i])->PartitionPairs(p);
      EXPECT_EQ(got, expected)
          << "partition " << p << ": instance " << alive[i]
          << " does not match owner " << alive[0] << " byte-for-byte";
    }
  }
}

struct ServerTotals {
  std::uint64_t probes = 0;
  std::uint64_t clean = 0;
  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  std::uint64_t pairs = 0;
  std::uint64_t retries = 0;
};

ServerTotals SumServerStats(LocalCluster& cluster) {
  ServerTotals totals;
  for (std::size_t i = 0; i < cluster.instance_count(); ++i) {
    ZhtServerStats stats = cluster.server(i)->stats();
    totals.probes += stats.antientropy_probes;
    totals.clean += stats.antientropy_clean;
    totals.started += stats.rebuilds_started;
    totals.completed += stats.rebuilds_completed;
    totals.pairs += stats.rebuild_pairs_streamed;
    totals.retries += stats.rebuild_retries;
  }
  return totals;
}

std::uint64_t SumFailuresHandled(LocalCluster& cluster) {
  std::uint64_t total = 0;
  for (std::size_t m = 0; m < cluster.manager_count(); ++m) {
    total += cluster.manager(m)->stats().failures_handled;
  }
  return total;
}

std::uint64_t SumRepairsCommanded(LocalCluster& cluster) {
  std::uint64_t total = 0;
  for (std::size_t m = 0; m < cluster.manager_count(); ++m) {
    total += cluster.manager(m)->stats().repairs_commanded;
  }
  return total;
}

// One op of recorded mixed traffic (register inserts/lookups/removes plus
// ledger appends, the two disciplines the checker understands).
void IssueOne(ZhtClient& client, HistoryRecorder& recorder,
              std::uint64_t client_id, Rng& rng, std::uint64_t* counter) {
  const std::string reg = "reg" + std::to_string(rng.Below(12));
  const std::string led = "led" + std::to_string(rng.Below(4));
  const double dice = rng.NextDouble();
  ++*counter;
  if (dice < 0.35) {
    const std::string value = "c" + std::to_string(client_id) + "v" +
                              std::to_string(*counter);
    std::uint64_t id = recorder.Begin(client_id, OpCode::kInsert, reg, value);
    recorder.End(id, client.Insert(reg, value).code());
  } else if (dice < 0.55) {
    std::uint64_t id = recorder.Begin(client_id, OpCode::kLookup, reg, "");
    auto got = client.Lookup(reg);
    recorder.End(id, got.status().code(), got.ok() ? *got : "");
  } else if (dice < 0.62) {
    std::uint64_t id = recorder.Begin(client_id, OpCode::kRemove, reg, "");
    recorder.End(id, client.Remove(reg).code());
  } else if (dice < 0.85) {
    const std::string token = "c" + std::to_string(client_id) + "t" +
                              std::to_string(*counter) + ";";
    std::uint64_t id = recorder.Begin(client_id, OpCode::kAppend, led, token);
    recorder.End(id, client.Append(led, token).code());
  } else {
    std::uint64_t id = recorder.Begin(client_id, OpCode::kLookup, led, "");
    auto got = client.Lookup(led);
    recorder.End(id, got.status().code(), got.ok() ? *got : "");
  }
}

// Kill one instance under live mixed traffic and verify the full recovery
// contract. Shared by the r=2 and r=3 tests.
void RunKillUnderTraffic(int replicas, std::size_t victim,
                         std::uint64_t seed) {
  LocalClusterOptions options;
  options.num_instances = 6;
  options.num_partitions = 48;
  options.cluster.num_replicas = replicas;
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok());

  HistoryRecorder recorder;
  auto a = (*cluster)->CreateClient(RecoveryClient());
  auto b = (*cluster)->CreateClient(RecoveryClient());
  Rng rng(seed);
  std::uint64_t counter_a = 0;
  std::uint64_t counter_b = 0;

  for (int i = 0; i < 60; ++i) {
    IssueOne(*a, recorder, 1, rng, &counter_a);
    IssueOne(*b, recorder, 2, rng, &counter_b);
  }
  (*cluster)->KillInstance(victim);
  int failed_after_kill = 0;
  for (int i = 0; i < 90; ++i) {
    // Live traffic across detection, promotion, and the rebuild streams.
    const std::size_t before = recorder.size();
    IssueOne(*a, recorder, 1, rng, &counter_a);
    IssueOne(*b, recorder, 2, rng, &counter_b);
    auto events = recorder.Events();
    for (std::size_t e = before; e < events.size(); ++e) {
      const StatusCode code = events[e].result;
      if (code != StatusCode::kOk && code != StatusCode::kNotFound) {
        ++failed_after_kill;
      }
    }
  }

  // Only transient errors: the tail of the post-kill window, after the
  // clients learned the new table, must succeed outright.
  std::uint64_t final_id =
      recorder.Begin(1, OpCode::kInsert, "final_probe", "fv1");
  Status final_insert = a->Insert("final_probe", "fv1");
  recorder.End(final_id, final_insert.code());
  EXPECT_TRUE(final_insert.ok()) << final_insert.ToString();
  EXPECT_LT(failed_after_kill, 180) << "no op ever recovered after the kill";

  auto check = CheckHistory(recorder.Events());
  EXPECT_TRUE(check.ok()) << check.ToString();

  // The manager saw the failure and commanded rebuilds of every affected
  // partition; the owners' streams restore the replication level.
  EXPECT_EQ(SumFailuresHandled(**cluster), 1u);
  EXPECT_GT(SumRepairsCommanded(**cluster), 0u);
  EXPECT_TRUE(WaitForConvergence(**cluster, replicas));
  ServerTotals totals = SumServerStats(**cluster);
  EXPECT_GT(totals.probes, 0u);
  EXPECT_GT(totals.started, 0u);
  EXPECT_GT(totals.completed, 0u);
  EXPECT_GT(totals.pairs, 0u);
  ExpectReplicasIdentical(**cluster, replicas);
}

TEST(RecoveryTest, KillAtR2UnderLiveTrafficRestoresReplication) {
  RunKillUnderTraffic(/*replicas=*/2, /*victim=*/1, /*seed=*/4242);
}

TEST(RecoveryTest, KillAtR3UnderLiveTrafficRestoresReplication) {
  RunKillUnderTraffic(/*replicas=*/3, /*victim=*/2, /*seed=*/4343);
}

TEST(RecoveryTest, AntiEntropyConvergesDivergedReplicas) {
  LocalClusterOptions options;
  options.num_instances = 4;
  options.num_partitions = 16;
  options.cluster.num_replicas = 2;
  options.fault_plan = std::make_shared<FaultPlan>(/*seed=*/77);
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->CreateClient(RecoveryClient());

  // Diverge instance 2: drop every replica insert leg sent to it while the
  // owners keep acking. Keys are chosen so 2 is in the chain but never the
  // owner — the client's own inserts are untouched.
  MembershipTable table = (*cluster)->TableSnapshot();
  const InstanceId diverged = 2;
  std::vector<PartitionId> tracked;
  int rule = options.fault_plan->AddRule(
      {.kind = FaultKind::kDropRequest,
       .to = (*cluster)->instance_address(diverged),
       .op = OpCode::kInsert});
  int written = 0;
  for (int i = 0; written < 40 && i < 4000; ++i) {
    const std::string key = "div" + std::to_string(i);
    const PartitionId p = table.PartitionOfKey(key);
    auto chain = table.ReplicaChain(p, options.cluster.num_replicas);
    if (chain.empty() || chain[0] == diverged) continue;
    if (std::find(chain.begin(), chain.end(), diverged) == chain.end()) {
      continue;
    }
    ASSERT_TRUE(client->Insert(key, "dv" + std::to_string(i)).ok());
    if (std::find(tracked.begin(), tracked.end(), p) == tracked.end()) {
      tracked.push_back(p);
    }
    ++written;
  }
  ASSERT_EQ(written, 40);
  options.fault_plan->RemoveRule(rule);
  (*cluster)->FlushAllAsyncReplication();

  // The dropped legs really diverged the replica.
  int diverged_partitions = 0;
  for (PartitionId p : tracked) {
    PartitionDigest owner =
        (*cluster)
            ->server(table.ReplicaChain(p, options.cluster.num_replicas)[0])
            ->PartitionDigestOf(p);
    PartitionDigest theirs = (*cluster)->server(diverged)->PartitionDigestOf(p);
    if (!(theirs == owner)) ++diverged_partitions;
  }
  ASSERT_GT(diverged_partitions, 0);

  // Digest exchange + checkpoint shipping from each owner converges them.
  ServerTotals before = SumServerStats(**cluster);
  for (PartitionId p : tracked) {
    InstanceId owner = table.ReplicaChain(p, options.cluster.num_replicas)[0];
    Status repaired = (*cluster)->server(owner)->RepairPartition(p);
    EXPECT_TRUE(repaired.ok()) << "partition " << p << ": "
                               << repaired.ToString();
  }
  (*cluster)->FlushAllAsyncReplication();
  ServerTotals after = SumServerStats(**cluster);
  EXPECT_GT(after.probes, before.probes);
  EXPECT_GT(after.started, before.started);
  EXPECT_GT(after.pairs, before.pairs);

  std::string why;
  EXPECT_TRUE(ReplicationConverged(**cluster, options.cluster.num_replicas,
                                   &why))
      << why;
  ExpectReplicasIdentical(**cluster, options.cluster.num_replicas);
}

TEST(RecoveryTest, AntiEntropyCleanReplicasMoveNoPairData) {
  LocalClusterOptions options;
  options.num_instances = 4;
  options.num_partitions = 16;
  options.cluster.num_replicas = 2;
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->CreateClient(RecoveryClient());

  Rng rng(88);
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(
        client->Insert("clean" + std::to_string(i), rng.AsciiString(24)).ok());
  }
  (*cluster)->FlushAllAsyncReplication();
  std::string why;
  ASSERT_TRUE(ReplicationConverged(**cluster, options.cluster.num_replicas,
                                   &why))
      << why;

  // Every probe of a clean chain answers "match": digests travel, pairs
  // don't, and no stream ever starts.
  ServerTotals before = SumServerStats(**cluster);
  MembershipTable table = (*cluster)->TableSnapshot();
  for (PartitionId p = 0; p < table.num_partitions(); ++p) {
    auto chain = table.ReplicaChain(p, options.cluster.num_replicas);
    ASSERT_FALSE(chain.empty());
    Status repaired = (*cluster)->server(chain[0])->RepairPartition(p);
    EXPECT_TRUE(repaired.ok()) << repaired.ToString();
  }
  ServerTotals after = SumServerStats(**cluster);
  EXPECT_GT(after.probes, before.probes);
  EXPECT_EQ(after.clean - before.clean, after.probes - before.probes);
  EXPECT_EQ(after.started, before.started);
  EXPECT_EQ(after.pairs, before.pairs);
  EXPECT_EQ(after.retries, before.retries);
}

// A repair that reaches the owner while a rebuild of the same partition is
// still probing is coalesced, not dropped: when the round in flight ends,
// the owner re-plans from the chain as it is then, so the member that
// entered the chain meanwhile receives the partition.
TEST(RecoveryTest, RepairArrivingMidRebuildReplansForTheNewChain) {
  LocalClusterOptions options;
  options.num_instances = 3;
  options.cluster.num_replicas = 1;
  options.fault_plan = std::make_shared<FaultPlan>(/*seed=*/23);
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  MembershipTable table = (*cluster)->TableSnapshot();
  std::optional<PartitionId> partition;
  for (PartitionId p = 0; p < table.num_partitions() && !partition; ++p) {
    if (table.ReplicaChain(p, 1) == std::vector<InstanceId>{0, 1}) {
      partition = p;
    }
  }
  ASSERT_TRUE(partition.has_value());
  const PartitionId p = *partition;

  auto client = (*cluster)->CreateClient(RecoveryClient());
  int written = 0;
  for (int i = 0; written < 20 && i < 100000; ++i) {
    const std::string key = "mid" + std::to_string(i);
    if (table.PartitionOfKey(key) != p) continue;
    ASSERT_TRUE(client->Insert(key, "v" + std::to_string(i)).ok());
    ++written;
  }
  ASSERT_EQ(written, 20);
  (*cluster)->FlushAllAsyncReplication();

  // The first round's probe of instance 1 waits 400 ms. Meanwhile the
  // manager evicts instance 1: the chain becomes [0, 2], and its repair
  // command reaches instance 0 mid-probe.
  options.fault_plan->AddRule({.kind = FaultKind::kDelay,
                               .to = (*cluster)->instance_address(1),
                               .op = OpCode::kDigest,
                               .delay = 400 * kNanosPerMilli});
  Request repair;
  repair.op = OpCode::kRepair;
  repair.partition = p;
  repair.server_origin = true;
  ASSERT_TRUE((*cluster)->server(0)->Handle(std::move(repair)).ok());
  ASSERT_TRUE((*cluster)->manager(0)->HandleFailure(1).ok());
  for (int round = 0; round < 4; ++round) {
    (*cluster)->FlushAllAsyncReplication();
  }

  const PartitionDigest owner = (*cluster)->server(0)->PartitionDigestOf(p);
  EXPECT_EQ(owner.count, 20u);
  const PartitionDigest joined = (*cluster)->server(2)->PartitionDigestOf(p);
  EXPECT_EQ(joined.count, owner.count);
  EXPECT_TRUE(joined == owner);
}

}  // namespace
}  // namespace zht
