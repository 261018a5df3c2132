// End-to-end tests of the ZHT core: client API over a LocalCluster,
// redirects and lazy membership refresh, replication and consistency,
// failover after node death, dynamic joins with partition migration,
// planned departures, and the broadcast primitive.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "common/rng.h"
#include "core/local_cluster.h"
#include "core/zht_client.h"

namespace zht {
namespace {

LocalClusterOptions SmallCluster(int instances, int replicas = 0) {
  LocalClusterOptions options;
  options.num_instances = static_cast<std::uint32_t>(instances);
  options.cluster.num_replicas = replicas;
  return options;
}

ZhtClientOptions FastClient() {
  ZhtClientOptions options;
  options.cluster.op_timeout = 200 * kNanosPerMilli;
  options.failure_detector.failures_to_mark_dead = 1;
  options.failure_detector.initial_backoff = 0;
  options.sleep_on_backoff = false;
  return options;
}

TEST(ZhtCoreTest, BasicCrudSingleInstance) {
  auto cluster = LocalCluster::Start(SmallCluster(1));
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->CreateClient();
  EXPECT_TRUE(client->Insert("key", "value").ok());
  EXPECT_EQ(client->Lookup("key").value(), "value");
  EXPECT_TRUE(client->Remove("key").ok());
  EXPECT_EQ(client->Lookup("key").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(client->Remove("key").code(), StatusCode::kNotFound);
}

TEST(ZhtCoreTest, AppendBuildsValueIncrementally) {
  auto cluster = LocalCluster::Start(SmallCluster(4));
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->CreateClient();
  EXPECT_TRUE(client->Append("dir:/", "file1;").ok());
  EXPECT_TRUE(client->Append("dir:/", "file2;").ok());
  EXPECT_TRUE(client->Append("dir:/", "file3;").ok());
  EXPECT_EQ(client->Lookup("dir:/").value(), "file1;file2;file3;");
}

TEST(ZhtCoreTest, ManyKeysSpreadAcrossInstances) {
  auto cluster = LocalCluster::Start(SmallCluster(8));
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->CreateClient();
  Rng rng(2);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 500; ++i) {
    std::string key = rng.AsciiString(15);
    std::string value = rng.AsciiString(132);
    ASSERT_TRUE(client->Insert(key, value).ok());
    model[key] = value;
  }
  for (const auto& [key, value] : model) {
    EXPECT_EQ(client->Lookup(key).value(), value);
  }
  // Every instance should have received a share.
  for (std::size_t i = 0; i < (*cluster)->instance_count(); ++i) {
    EXPECT_GT((*cluster)->server(i)->stats().ops, 0u) << "instance " << i;
  }
}

TEST(ZhtCoreTest, PingAllInstances) {
  auto cluster = LocalCluster::Start(SmallCluster(4));
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->CreateClient();
  for (InstanceId i = 0; i < 4; ++i) {
    EXPECT_TRUE(client->Ping(i).ok());
  }
  EXPECT_FALSE(client->Ping(99).ok());
}

TEST(ZhtCoreTest, StaleClientIsRedirectedAndLearns) {
  auto cluster = LocalCluster::Start(SmallCluster(4));
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->CreateClient(FastClient());
  ASSERT_TRUE(client->Insert("stale-key", "v").ok());

  // Move the key's partition to another instance behind the client's back,
  // informing only the servers (as the manager would).
  PartitionId p = client->table().PartitionOfKey("stale-key");
  InstanceId old_owner = client->table().OwnerOf(p);
  InstanceId new_owner = (old_owner + 1) % 4;
  ASSERT_TRUE((*cluster)
                  ->server(old_owner)
                  ->MigratePartitionTo(
                      p, (*cluster)->instance_address(new_owner))
                  .ok());
  for (std::size_t i = 0; i < 4; ++i) {
    // Push updated ownership to every server directly.
    MembershipTable t = (*cluster)->server(i)->table();
    Request push;
    push.op = OpCode::kMembershipPush;
    push.server_origin = true;
    MembershipTable updated = t;
    updated.SetOwner(p, new_owner);
    push.value = updated.EncodeFull();
    (*cluster)->server(i)->Handle(std::move(push));
  }

  // The client still believes old_owner owns the key → gets REDIRECT with a
  // piggybacked table, retries, succeeds.
  auto value = client->Lookup("stale-key");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(*value, "v");
  EXPECT_GE(client->stats().redirects_followed, 1u);
  EXPECT_EQ(client->table().OwnerOf(p), new_owner);
}

TEST(ZhtCoreTest, ReplicationPlacesCopiesOnSuccessors) {
  auto cluster = LocalCluster::Start(SmallCluster(4, /*replicas=*/2));
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->CreateClient();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(client->Insert("rk" + std::to_string(i), "v").ok());
  }
  (*cluster)->FlushAllAsyncReplication();
  // 100 pairs × (1 primary + 2 replicas) = 300 stored entries.
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    total += (*cluster)->server(i)->TotalEntries();
  }
  EXPECT_EQ(total, 300u);
}

TEST(ZhtCoreTest, LookupFailsOverToReplicaAfterPrimaryDeath) {
  auto cluster = LocalCluster::Start(SmallCluster(4, /*replicas=*/2));
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->CreateClient(FastClient());
  ASSERT_TRUE(client->Insert("precious", "data").ok());
  (*cluster)->FlushAllAsyncReplication();

  PartitionId p = client->table().PartitionOfKey("precious");
  InstanceId primary = client->table().OwnerOf(p);
  (*cluster)->KillInstance(primary);

  auto value = client->Lookup("precious");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(*value, "data");
  EXPECT_GE(client->stats().failovers, 1u);
  EXPECT_FALSE(client->table().Instance(primary).alive);
}

TEST(ZhtCoreTest, WritesContinueAfterPrimaryDeath) {
  auto cluster = LocalCluster::Start(SmallCluster(4, /*replicas=*/1));
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->CreateClient(FastClient());
  ASSERT_TRUE(client->Insert("wkey", "v1").ok());
  (*cluster)->FlushAllAsyncReplication();

  PartitionId p = client->table().PartitionOfKey("wkey");
  InstanceId primary = client->table().OwnerOf(p);
  (*cluster)->KillInstance(primary);

  // The secondary accepts the write directly (§III.J).
  EXPECT_TRUE(client->Insert("wkey", "v2").ok());
  EXPECT_EQ(client->Lookup("wkey").value(), "v2");
}

TEST(ZhtCoreTest, AllReplicasDeadReturnsUnavailable) {
  auto cluster = LocalCluster::Start(SmallCluster(4, /*replicas=*/1));
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->CreateClient(FastClient());
  ASSERT_TRUE(client->Insert("doomed", "v").ok());
  (*cluster)->FlushAllAsyncReplication();

  PartitionId p = client->table().PartitionOfKey("doomed");
  auto chain = client->table().ReplicaChain(p, 1);
  for (InstanceId id : chain) (*cluster)->KillInstance(id);

  auto value = client->Lookup("doomed");
  EXPECT_FALSE(value.ok());
}

TEST(ZhtCoreTest, FailureReportTriggersManagerRepair) {
  auto cluster = LocalCluster::Start(SmallCluster(6, /*replicas=*/2));
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->CreateClient(FastClient());
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(client->Insert("fr" + std::to_string(i), "v").ok());
  }
  (*cluster)->FlushAllAsyncReplication();

  // Kill instance 2; the next op touching it reports the failure to the
  // manager, which reassigns ownership and rebuilds replicas.
  (*cluster)->KillInstance(2);
  for (int i = 0; i < 60; ++i) {
    auto value = client->Lookup("fr" + std::to_string(i));
    EXPECT_TRUE(value.ok()) << "key fr" << i << ": "
                            << value.status().ToString();
  }
  EXPECT_GE((*cluster)->manager(0)->stats().failures_handled, 1u);

  // Manager's table no longer routes anything to the dead instance.
  MembershipTable table = (*cluster)->manager(0)->TableSnapshot();
  for (PartitionId p = 0; p < table.num_partitions(); ++p) {
    EXPECT_NE(table.OwnerOf(p), 2u);
  }
}

TEST(ZhtCoreTest, DynamicJoinMovesPartitionsWithoutDataLoss) {
  auto cluster = LocalCluster::Start(SmallCluster(2));
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->CreateClient(FastClient());
  Rng rng(3);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 300; ++i) {
    std::string key = rng.AsciiString(15);
    model[key] = "v" + std::to_string(i);
    ASSERT_TRUE(client->Insert(key, model[key]).ok());
  }

  auto joined = (*cluster)->JoinNewInstance();
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();

  // All data still reachable (old client learns via redirects).
  for (const auto& [key, value] : model) {
    auto got = client->Lookup(key);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, value);
  }

  // The new instance actually took on load.
  MembershipTable table = (*cluster)->manager(0)->TableSnapshot();
  EXPECT_GT(table.PartitionsOf(*joined).size(), 0u);
  EXPECT_GT((*cluster)->server(*joined)->TotalEntries(), 0u);
}

TEST(ZhtCoreTest, RepeatedJoinsKeepClusterBalanced) {
  auto cluster = LocalCluster::Start(SmallCluster(2));
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->CreateClient(FastClient());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(client->Insert("bal" + std::to_string(i), "v").ok());
  }
  for (int j = 0; j < 3; ++j) {
    ASSERT_TRUE((*cluster)->JoinNewInstance().ok());
  }
  MembershipTable table = (*cluster)->manager(0)->TableSnapshot();
  EXPECT_EQ(table.instance_count(), 5u);
  // No instance should own more than half the partitions after 3 joins.
  for (InstanceId i = 0; i < 5; ++i) {
    EXPECT_LT(table.PartitionsOf(i).size(), table.num_partitions() / 2 + 1);
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(client->Lookup("bal" + std::to_string(i)).ok()) << i;
  }
}

TEST(ZhtCoreTest, PlannedDepartureDrainsInstance) {
  auto cluster = LocalCluster::Start(SmallCluster(3));
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->CreateClient(FastClient());
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(client->Insert("dep" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE((*cluster)->manager(0)->Depart(1).ok());

  MembershipTable table = (*cluster)->manager(0)->TableSnapshot();
  EXPECT_EQ(table.PartitionsOf(1).size(), 0u);
  EXPECT_FALSE(table.Instance(1).alive);
  for (int i = 0; i < 150; ++i) {
    EXPECT_TRUE(client->Lookup("dep" + std::to_string(i)).ok()) << i;
  }
}

TEST(ZhtCoreTest, BroadcastReachesEveryInstance) {
  auto cluster = LocalCluster::Start(SmallCluster(7));
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->CreateClient();
  ASSERT_TRUE(client->Broadcast("bcast-key", "everywhere").ok());
  (*cluster)->FlushAllAsyncReplication();
  // Forwarding is a tree; children enqueue further sends after their own
  // flush — settle with a couple of rounds.
  for (int round = 0; round < 3; ++round) {
    (*cluster)->FlushAllAsyncReplication();
  }
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_GE((*cluster)->server(i)->stats().broadcasts, 1u)
        << "instance " << i;
  }
}

// The broadcast tree is built over the alive instances: a dead instance
// must not cut off its subtree, and a dead instance 0 must not stop the
// broadcast at its root.
void ExpectBroadcastReachesSurvivors(InstanceId dead) {
  auto cluster = LocalCluster::Start(SmallCluster(7, /*replicas=*/1));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  (*cluster)->KillInstance(dead);
  ASSERT_TRUE((*cluster)->manager(0)->HandleFailure(dead).ok());
  auto client = (*cluster)->CreateClient();
  const InstanceId source = dead == 0 ? 1 : 0;
  ASSERT_TRUE(client->RefreshMembership(source).ok());
  ASSERT_TRUE(client->Broadcast("bcast-key", "survivors").ok());
  for (int round = 0; round < 4; ++round) {
    (*cluster)->FlushAllAsyncReplication();
  }
  for (std::size_t i = 0; i < 7; ++i) {
    if (i == dead) continue;
    EXPECT_GE((*cluster)->server(i)->stats().broadcasts, 1u)
        << "instance " << i;
  }
}

TEST(ZhtCoreTest, BroadcastReachesPastADeadInstance) {
  ExpectBroadcastReachesSurvivors(1);
}

TEST(ZhtCoreTest, BroadcastReachesEveryoneWhenInstanceZeroIsDead) {
  ExpectBroadcastReachesSurvivors(0);
}

TEST(ZhtCoreTest, MembershipRefreshPullsTable) {
  auto cluster = LocalCluster::Start(SmallCluster(3));
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->CreateClient();
  EXPECT_TRUE(client->RefreshMembership().ok());
  EXPECT_EQ(client->table().instance_count(), 3u);
}

// Without a source, a refresh pulls from the first alive instance the
// client's table lists, not from instance 0 whatever its state.
TEST(ZhtCoreTest, MembershipRefreshSkipsADeadInstanceZero) {
  auto cluster = LocalCluster::Start(SmallCluster(4, /*replicas=*/1));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  (*cluster)->KillInstance(0);
  ASSERT_TRUE((*cluster)->manager(0)->HandleFailure(0).ok());
  auto client = (*cluster)->CreateClient();
  ASSERT_FALSE(client->table().Instance(0).alive);
  Status refreshed = client->RefreshMembership();
  EXPECT_TRUE(refreshed.ok()) << refreshed.ToString();
}

TEST(ZhtCoreTest, ClusterRunsOverRealTcp) {
  LocalClusterOptions options = SmallCluster(3, /*replicas=*/1);
  options.transport = ClusterTransport::kTcp;
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  auto client = (*cluster)->CreateClient();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client->Insert("tcp" + std::to_string(i),
                               "value" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(client->Lookup("tcp" + std::to_string(i)).value(),
              "value" + std::to_string(i));
  }
  (*cluster)->FlushAllAsyncReplication();
}

TEST(ZhtCoreTest, ClusterRunsOverUdp) {
  LocalClusterOptions options = SmallCluster(3);
  options.transport = ClusterTransport::kUdp;
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  auto client = (*cluster)->CreateClient();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(client->Insert("udp" + std::to_string(i), "v").ok());
  }
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(client->Lookup("udp" + std::to_string(i)).value(), "v");
  }
}

TEST(ZhtCoreTest, ConcurrentClientsNoLostUpdates) {
  auto cluster = LocalCluster::Start(SmallCluster(4));
  ASSERT_TRUE(cluster.ok());
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 200;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = (*cluster)->CreateClient();
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string key = "t" + std::to_string(t) + "-" + std::to_string(i);
        if (!client->Insert(key, key).ok()) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  auto client = (*cluster)->CreateClient();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      std::string key = "t" + std::to_string(t) + "-" + std::to_string(i);
      EXPECT_EQ(client->Lookup(key).value(), key);
    }
  }
}

TEST(ZhtCoreTest, ConcurrentAppendsAllSurvive) {
  // The paper's headline append use case: many writers extending one
  // directory entry without a distributed lock (§III.I).
  auto cluster = LocalCluster::Start(SmallCluster(2));
  ASSERT_TRUE(cluster.ok());
  constexpr int kThreads = 4;
  constexpr int kAppendsPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = (*cluster)->CreateClient();
      for (int i = 0; i < kAppendsPerThread; ++i) {
        std::string entry =
            "f" + std::to_string(t) + "_" + std::to_string(i) + ";";
        ASSERT_TRUE(client->Append("shared-dir", entry).ok());
      }
    });
  }
  for (auto& thread : threads) thread.join();

  auto client = (*cluster)->CreateClient();
  std::string value = client->Lookup("shared-dir").value();
  // Every appended entry appears exactly once.
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kAppendsPerThread; ++i) {
      std::string entry =
          "f" + std::to_string(t) + "_" + std::to_string(i) + ";";
      auto pos = value.find(entry);
      EXPECT_NE(pos, std::string::npos) << entry;
      if (pos != std::string::npos) {
        EXPECT_EQ(value.find(entry, pos + 1), std::string::npos)
            << entry << " duplicated";
      }
    }
  }
}

// Pins the documented client status contract (see zht_client.h):
//  - absent keys surface kNotFound from Lookup and Remove,
//  - kRedirect/kMigrating never escape the public API even while the
//    membership moves under the client,
//  - a dead replica chain surfaces kUnavailable, not a raw transport code.
TEST(ZhtCoreTest, StatusContractHoldsAcrossClusterEvents) {
  auto cluster = LocalCluster::Start(SmallCluster(3));
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->CreateClient(FastClient());

  EXPECT_EQ(client->Lookup("absent").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(client->Remove("absent").code(), StatusCode::kNotFound);
  EXPECT_TRUE(client->Insert("contract", "v1").ok());
  EXPECT_TRUE(client->Insert("contract", "v2").ok());  // overwrite is kOk
  EXPECT_EQ(client->Lookup("contract").value(), "v2");

  // Shuffle ownership behind the client's back; every op must still resolve
  // to a terminal status — the redirect loop is internal.
  ASSERT_TRUE((*cluster)->JoinNewInstance().ok());
  for (int i = 0; i < 50; ++i) {
    std::string key = "contract-" + std::to_string(i);
    ASSERT_TRUE(client->Insert(key, "v").ok());
    StatusCode code = client->Lookup(key).status().code();
    EXPECT_TRUE(code == StatusCode::kOk || code == StatusCode::kNotFound)
        << StatusCodeName(code);
    EXPECT_NE(code, StatusCode::kRedirect);
    EXPECT_NE(code, StatusCode::kMigrating);
  }

  // Kill the whole cluster: the fast detector marks each instance dead and
  // the chain exhausts, which the contract maps to kUnavailable.
  for (std::size_t i = 0; i < (*cluster)->instance_count(); ++i) {
    (*cluster)->KillInstance(static_cast<InstanceId>(i));
  }
  EXPECT_EQ(client->Insert("contract", "v3").code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(client->Lookup("contract").status().code(),
            StatusCode::kUnavailable);
}

TEST(FailureDetectorTest, TrackedStateIsBounded) {
  FailureDetectorOptions options;
  options.max_tracked = 8;
  FailureDetector detector(options);
  // Far more distinct destinations than the cap: the map must not grow
  // past it (a long-lived client touching many short-lived nodes would
  // otherwise leak an entry per departed node).
  for (std::uint16_t port = 1; port <= 100; ++port) {
    detector.RecordFailure(NodeAddress{"10.0.0.1", port});
    EXPECT_LE(detector.tracked_count(), 8u);
  }
  EXPECT_EQ(detector.tracked_count(), 8u);
}

TEST(FailureDetectorTest, PruneExceptDropsDepartedNodes) {
  FailureDetector detector;
  NodeAddress kept{"10.0.0.1", 1};
  NodeAddress departed{"10.0.0.1", 2};
  detector.RecordFailure(kept);
  detector.RecordFailure(departed);
  detector.RecordFailure(departed);
  ASSERT_EQ(detector.tracked_count(), 2u);

  detector.PruneExcept({kept});
  EXPECT_EQ(detector.tracked_count(), 1u);
  EXPECT_EQ(detector.ConsecutiveFailures(kept), 1);
  // The departed node's streak is gone: if it ever rejoins at the same
  // address it starts from a clean slate.
  EXPECT_EQ(detector.ConsecutiveFailures(departed), 0);
  EXPECT_EQ(detector.BackoffFor(departed), 0);
}

TEST(FailureDetectorTest, ClientPrunesDetectorOnMembershipUpdate) {
  // End-to-end: a client that marked a node dead must shed that state when
  // a membership update removes the node from the table.
  auto cluster = LocalCluster::Start(SmallCluster(3, /*replicas=*/1));
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->CreateClient(FastClient());
  ASSERT_TRUE(client->Insert("prune-probe", "v").ok());

  (*cluster)->KillInstance(2);
  // Drive traffic until the dead node is reported and the manager's delta
  // (which drops it from the chain) reaches this client.
  for (int i = 0; i < 50; ++i) {
    client->Insert("prune-" + std::to_string(i), "v");
  }
  ASSERT_TRUE(client->RefreshMembership(0).ok());
  std::size_t live = 0;
  for (const InstanceInfo& info : client->table().instances()) {
    if (info.alive) ++live;
  }
  ASSERT_LT(live, 3u);
  // The detector only tracks addresses still in the table; the dead node's
  // entry must have been evicted by the update-driven prune. (All table
  // addresses are still present, dead or not, so the bound is the table
  // size — the point is it cannot exceed it.)
  EXPECT_LE(client->detector_tracked_count(),
            client->table().instance_count());
}

TEST(DecorrelatedBackoffTest, GrowthScheduleAndCap) {
  const Nanos base = 1 * kNanosPerMilli;
  const Nanos cap = 64 * kNanosPerMilli;
  Rng rng(42);

  // First retry (prev below base) is always exactly the base — no jitter,
  // so a single transient migration costs the minimum wait.
  EXPECT_EQ(DecorrelatedBackoff(0, base, cap, rng), base);
  EXPECT_EQ(DecorrelatedBackoff(base - 1, base, cap, rng), base);

  // From then on every draw falls in [base, min(cap, prev * 3)]: bounded
  // below (never busy-spins) and growing exponentially in expectation.
  Nanos prev = base;
  Nanos largest = 0;
  for (int i = 0; i < 200; ++i) {
    Nanos next = DecorrelatedBackoff(prev, base, cap, rng);
    EXPECT_GE(next, base);
    EXPECT_LE(next, cap);
    EXPECT_LE(next, std::max(base, prev * 3));
    largest = std::max(largest, next);
    prev = next;
  }
  // With 200 draws the schedule must have climbed into the cap's
  // neighborhood (it cannot, with any plausible seed, stay near the base).
  EXPECT_GE(largest, cap / 2);

  // Degenerate knobs stay sane: cap below base clamps to base, and a zero
  // base disables the wait entirely.
  EXPECT_EQ(DecorrelatedBackoff(0, base, base / 2, rng), base);
  EXPECT_EQ(DecorrelatedBackoff(123, 0, cap, rng), 0);

  // prev at the cap must not overflow: the window stays [base, cap].
  for (int i = 0; i < 50; ++i) {
    Nanos at_cap = DecorrelatedBackoff(cap, base, cap, rng);
    EXPECT_GE(at_cap, base);
    EXPECT_LE(at_cap, cap);
  }

  // Determinism: the same seed yields the same schedule (what makes a
  // failing retry trace reproducible).
  Rng a(7), b(7);
  Nanos pa = 0, pb = 0;
  for (int i = 0; i < 32; ++i) {
    pa = DecorrelatedBackoff(pa, base, cap, a);
    pb = DecorrelatedBackoff(pb, base, cap, b);
    EXPECT_EQ(pa, pb);
  }
}

}  // namespace
}  // namespace zht
