// Churn suite (`ctest -L churn`): placement-policy properties, the
// rejoin-at-reused-address regression, the client's separated retry
// budgets, membership-pull coalescing, a departure whose moves fail, stale
// client suspicions after a revival, and a history-checked churn chaos
// schedule (join → failure → rejoin → departure under live traffic) per
// placement policy, plus one on persistent stores.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/local_cluster.h"
#include "hashing/placement_policy.h"
#include "membership/membership_table.h"
#include "history_checker.h"

namespace zht {
namespace {

constexpr PlacementKind kAllKinds[] = {
    PlacementKind::kContiguous,
    PlacementKind::kMemento,
    PlacementKind::kRendezvous,
};

std::vector<std::uint32_t> Assignment(const PlacementPolicy& policy,
                                      std::uint32_t num_partitions,
                                      const std::vector<std::uint32_t>& live) {
  std::vector<std::uint32_t> owners(num_partitions);
  for (PartitionId p = 0; p < num_partitions; ++p) {
    owners[p] = policy.DesiredOwner(p, num_partitions, live);
  }
  return owners;
}

std::size_t MovesBetween(const std::vector<std::uint32_t>& before,
                         const std::vector<std::uint32_t>& after) {
  std::size_t moves = 0;
  for (std::size_t p = 0; p < before.size(); ++p) {
    if (before[p] != after[p]) ++moves;
  }
  return moves;
}

// ---- placement properties ------------------------------------------------

TEST(PlacementPolicyTest, DesiredOwnerIsAlwaysLive) {
  // Includes live sets with interior and leading gaps (dead instances):
  // the replacement walk / argmax must never resurrect a dead id.
  const std::vector<std::vector<std::uint32_t>> live_sets = {
      {0},          {0, 1, 2, 3}, {0, 2, 3},    {1, 3},
      {0, 1, 3, 4}, {2, 5, 9},    {0, 1, 2, 3, 4, 5, 6, 7},
  };
  for (PlacementKind kind : kAllKinds) {
    const PlacementPolicy& policy = GetPlacementPolicy(kind);
    for (const auto& live : live_sets) {
      for (PartitionId p = 0; p < 96; ++p) {
        const std::uint32_t owner = policy.DesiredOwner(p, 96, live);
        EXPECT_TRUE(std::binary_search(live.begin(), live.end(), owner))
            << policy.name() << " placed partition " << p << " on dead id "
            << owner;
      }
    }
  }
}

TEST(PlacementPolicyTest, JoinMovesWithinPolicyBound) {
  const std::uint32_t n = 128;
  const std::vector<std::uint32_t> before = {0, 1, 2, 3};
  const std::vector<std::uint32_t> after = {0, 1, 2, 3, 4};
  for (PlacementKind kind : kAllKinds) {
    const PlacementPolicy& policy = GetPlacementPolicy(kind);
    const std::size_t moves = MovesBetween(Assignment(policy, n, before),
                                           Assignment(policy, n, after));
    const double bound = policy.MaxMoveFractionOnJoin(before.size()) * n;
    EXPECT_LE(static_cast<double>(moves), bound)
        << policy.name() << " moved " << moves << " of " << n;
    // A join must never move a partition that stays off the newcomer —
    // except for contiguous, where every boundary legitimately shifts.
    if (kind != PlacementKind::kContiguous) {
      const auto owners_before = Assignment(policy, n, before);
      const auto owners_after = Assignment(policy, n, after);
      for (PartitionId p = 0; p < n; ++p) {
        if (owners_before[p] != owners_after[p]) {
          EXPECT_EQ(owners_after[p], 4u)
              << policy.name() << " shuffled partition " << p
              << " between old instances on a join";
        }
      }
    }
  }
}

TEST(PlacementPolicyTest, MementoMovesStrictlyFewerThanContiguousOnJoin) {
  const std::uint32_t n = 128;
  const std::vector<std::uint32_t> before = {0, 1, 2, 3};
  const std::vector<std::uint32_t> after = {0, 1, 2, 3, 4};
  const auto& contiguous = GetPlacementPolicy(PlacementKind::kContiguous);
  const auto& memento = GetPlacementPolicy(PlacementKind::kMemento);
  const std::size_t contiguous_moves = MovesBetween(
      Assignment(contiguous, n, before), Assignment(contiguous, n, after));
  const std::size_t memento_moves = MovesBetween(
      Assignment(memento, n, before), Assignment(memento, n, after));
  EXPECT_LT(memento_moves, contiguous_moves);
}

TEST(PlacementPolicyTest, MinimalChurnPoliciesStableOnInteriorDeath) {
  // Killing one instance must only re-home the victim's partitions: the
  // discriminating property of the consistent-hashing policies (contiguous
  // re-splits the range, so it is exempt).
  const std::uint32_t n = 96;
  const std::vector<std::uint32_t> before = {0, 1, 2, 3, 4};
  const std::vector<std::uint32_t> after = {0, 1, 3, 4};  // id 2 died
  for (PlacementKind kind :
       {PlacementKind::kMemento, PlacementKind::kRendezvous}) {
    const PlacementPolicy& policy = GetPlacementPolicy(kind);
    const auto owners_before = Assignment(policy, n, before);
    const auto owners_after = Assignment(policy, n, after);
    for (PartitionId p = 0; p < n; ++p) {
      if (owners_before[p] != 2u) {
        EXPECT_EQ(owners_before[p], owners_after[p])
            << policy.name() << " moved partition " << p
            << " although its owner survived";
      } else {
        EXPECT_NE(owners_after[p], 2u);
      }
    }
  }
}

TEST(PlacementPolicyTest, RejoinRestoresAssignment) {
  // DesiredOwner is a pure function of the live set, so reviving an
  // instance restores exactly the pre-death assignment — the property the
  // manager's rejoin path (re-using the old id) relies on.
  const std::uint32_t n = 96;
  const std::vector<std::uint32_t> full = {0, 1, 2, 3};
  const std::vector<std::uint32_t> without = {0, 2, 3};
  for (PlacementKind kind : kAllKinds) {
    const PlacementPolicy& policy = GetPlacementPolicy(kind);
    const auto original = Assignment(policy, n, full);
    (void)Assignment(policy, n, without);  // death in between
    EXPECT_EQ(Assignment(policy, n, full), original) << policy.name();
  }
}

// ---- rejoin at a previously used address ---------------------------------

TEST(RejoinRegressionTest, RejoinReusesInstanceIdAndServesData) {
  LocalClusterOptions options;
  options.num_instances = 4;
  options.num_partitions = 48;
  options.cluster.num_replicas = 2;
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  auto client = (*cluster)->CreateClient();
  for (int i = 0; i < 100; ++i) {
    const std::string key = "rejoin_k" + std::to_string(i);
    ASSERT_TRUE(client->Insert(key, "v" + std::to_string(i)).ok());
  }

  const std::size_t table_size_before =
      (*cluster)->TableSnapshot().instance_count();
  (*cluster)->KillInstance(1);
  ASSERT_TRUE((*cluster)->manager(0)->HandleFailure(1).ok());

  auto rejoined = (*cluster)->RejoinInstance(1);
  ASSERT_TRUE(rejoined.ok()) << rejoined.status().ToString();
  // The regression: a joiner coming back at a previously registered
  // address must revive its old id, not get a duplicate table entry.
  EXPECT_EQ(*rejoined, 1u);
  EXPECT_EQ((*cluster)->TableSnapshot().instance_count(), table_size_before);
  EXPECT_EQ((*cluster)->manager(0)->stats().rejoins_admitted, 1u);
  EXPECT_TRUE((*cluster)->TableSnapshot().Instance(1).alive);

  // Give the commanded repairs a moment to restore the rejoined node's
  // (stale) partitions, then verify every pre-kill pair reads back.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto reader = (*cluster)->CreateClient();
  for (int i = 0; i < 100; ++i) {
    const std::string key = "rejoin_k" + std::to_string(i);
    auto got = reader->Lookup(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    EXPECT_EQ(*got, "v" + std::to_string(i));
  }
}

// ---- separated retry budgets ---------------------------------------------

// Scripts a fixed sequence of soft failures: `sheds` admission-control
// rejections, then `migratings` kMigrating answers, then success.
class ScriptedSoftFailTransport : public ClientTransport {
 public:
  ScriptedSoftFailTransport(int sheds, int migratings)
      : sheds_(sheds), migratings_(migratings) {}

  Result<Response> Call(const NodeAddress&, const Request& request,
                        Nanos) override {
    ++calls_;
    Response resp;
    resp.seq = request.seq;
    if (sheds_-- > 0) {
      resp.status = Status(StatusCode::kUnavailable, "shard over budget").raw();
      resp.retry_after_us = 500;
      return resp;
    }
    if (migratings_-- > 0) {
      resp.status = Status(StatusCode::kMigrating, "partition moving").raw();
      return resp;
    }
    resp.status = Status::Ok().raw();
    if (request.op == OpCode::kLookup) resp.value = "v";
    return resp;
  }

  int calls() const { return calls_; }

 private:
  int sheds_;
  int migratings_;
  int calls_ = 0;
};

ZhtClientOptions TightBudgetOptions() {
  ZhtClientOptions options;
  options.max_attempts = 4;
  options.sleep_on_backoff = false;
  return options;
}

TEST(RetryBudgetTest, ShedAndMigratingOverlapDoesNotExhaustTheOp) {
  // 3 sheds + 3 migrating answers = 6 soft failures against max_attempts=4.
  // A single shared budget would exhaust after 4; the separated pools
  // (hard / migrating / shed, each of max_attempts) ride it out.
  MembershipTable table =
      MembershipTable::CreateUniform(8, {NodeAddress{"10.0.0.1", 50000}});
  ScriptedSoftFailTransport transport(/*sheds=*/3, /*migratings=*/3);
  ZhtClient client(table, TightBudgetOptions(), &transport);

  auto got = client.Lookup("k");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "v");
  EXPECT_EQ(transport.calls(), 7);
  EXPECT_EQ(client.stats().shed_backoffs, 3u);
  EXPECT_EQ(client.stats().retries, 6u);
}

TEST(RetryBudgetTest, MigratingAloneStillBoundsTheOp) {
  MembershipTable table =
      MembershipTable::CreateUniform(8, {NodeAddress{"10.0.0.1", 50000}});
  ScriptedSoftFailTransport transport(/*sheds=*/0, /*migratings=*/1000);
  ZhtClient client(table, TightBudgetOptions(), &transport);

  auto got = client.Lookup("k");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(transport.calls(), 4);  // its own pool still bounds the op
}

TEST(RetryBudgetTest, ShedAloneStillBoundsTheOp) {
  MembershipTable table =
      MembershipTable::CreateUniform(8, {NodeAddress{"10.0.0.1", 50000}});
  ScriptedSoftFailTransport transport(/*sheds=*/1000, /*migratings=*/0);
  ZhtClient client(table, TightBudgetOptions(), &transport);

  auto got = client.Lookup("k");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(transport.calls(), 4);
  EXPECT_EQ(client.stats().shed_backoffs, 3u);
}

// ---- membership-pull coalescing ------------------------------------------

// Every data op is redirected WITHOUT a piggybacked delta (forcing the
// snapshot-pull fallback); kMembershipPull answers with the fresh table.
class RedirectStormTransport : public ClientTransport {
 public:
  explicit RedirectStormTransport(MembershipTable fresh)
      : fresh_(std::move(fresh)) {}

  Result<Response> Call(const NodeAddress&, const Request& request,
                        Nanos) override {
    Response resp;
    resp.seq = request.seq;
    resp.epoch = fresh_.epoch();
    if (request.op == OpCode::kMembershipPull) {
      ++pulls_;
      resp.status = Status::Ok().raw();
      resp.membership = fresh_.EncodeFull();
      return resp;
    }
    resp.status = Status(StatusCode::kRedirect, "wrong owner").raw();
    return resp;
  }

  int pulls() const { return pulls_; }

 private:
  MembershipTable fresh_;
  int pulls_ = 0;
};

TEST(MembershipPullTest, RedirectStormCoalescesToOnePullPerEpoch) {
  const NodeAddress a1{"10.0.0.1", 50000};
  const NodeAddress a2{"10.0.0.2", 50000};
  MembershipTable stale = MembershipTable::CreateUniform(8, {a1});
  MembershipTable fresh = stale;
  fresh.AddInstance(a2, 1);  // bumps the epoch past the client's

  RedirectStormTransport transport(fresh);
  ZhtClientOptions options;
  options.max_attempts = 3;
  options.sleep_on_backoff = false;
  ZhtClient client(stale, options, &transport);

  // 3 ops x 3 redirected attempts each: without per-epoch coalescing this
  // storm would issue up to 9 full-table pulls.
  for (int i = 0; i < 3; ++i) {
    (void)client.Lookup("k" + std::to_string(i));
  }
  EXPECT_EQ(transport.pulls(), 1);
  EXPECT_EQ(client.stats().membership_pulls, 1u);
  EXPECT_EQ(client.table().epoch(), fresh.epoch());
}

// ---- departure with a failed move -----------------------------------------

TEST(DepartTest, FailedMoveKeepsThePartitionWithTheDepartingInstance) {
  // Instance 2 is down but still in the table, so the placement policy
  // sends part of instance 1's partitions there and those moves fail. No
  // partition may then be owned by an instance that holds no copy of it:
  // it stays with instance 1, which stays in service.
  LocalClusterOptions options;
  options.num_instances = 3;
  options.num_partitions = 24;
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  auto client = (*cluster)->CreateClient();
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(client->Insert("dk" + std::to_string(i), "v").ok());
  }
  const std::vector<PartitionId> departing =
      (*cluster)->TableSnapshot().PartitionsOf(1);
  (*cluster)->KillInstance(2);

  EXPECT_FALSE((*cluster)->manager(0)->Depart(1).ok());
  const MembershipTable table = (*cluster)->TableSnapshot();
  EXPECT_TRUE(table.Instance(1).alive);
  std::size_t moved = 0;
  for (PartitionId p : departing) {
    EXPECT_NE(table.OwnerOf(p), 2u) << "partition " << p;
    moved += table.OwnerOf(p) == 0;
  }
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, departing.size());
  for (int i = 0; i < 60; ++i) {
    const std::string key = "dk" + std::to_string(i);
    if (table.OwnerOf(table.PartitionOfKey(key)) == 2) continue;
    EXPECT_TRUE(client->Lookup(key).ok()) << key;
  }
}

// ---- stale suspicion after a revival -------------------------------------

TEST(StaleSuspicionTest, LocalSuspicionKeepsTheEpoch) {
  // A client's suspicion is local: were it a new epoch, the next delta
  // would skip the authoritative change holding that epoch number — here
  // the joiner's instance record — and install an owner id the client's
  // table has no row for.
  std::vector<NodeAddress> addresses;
  for (std::uint16_t i = 0; i < 4; ++i) {
    addresses.push_back(
        NodeAddress{"10.0.0.1", static_cast<std::uint16_t>(50000 + i)});
  }
  MembershipTable authority = MembershipTable::CreateUniform(16, addresses);
  MembershipTable client = authority;
  const std::uint32_t before = authority.epoch();
  client.SuspectDead(1);
  EXPECT_EQ(client.epoch(), before);
  const InstanceId joiner =
      authority.AddInstance(NodeAddress{"10.0.0.1", 50004}, 4);
  authority.SetOwner(3, joiner);
  ASSERT_TRUE(client.ApplyUpdate(authority.EncodeDelta(client.epoch())).ok());
  EXPECT_EQ(client.instance_count(), 5u);
  EXPECT_EQ(client.OwnerOf(3), joiner);
  EXPECT_FALSE(client.Instance(1).alive);  // no record refuted it yet
}

TEST(StaleSuspicionTest, DeltaNamingAnUnknownOwnerIsRejected) {
  std::vector<NodeAddress> addresses = {NodeAddress{"10.0.0.1", 50000},
                                        NodeAddress{"10.0.0.2", 50000}};
  MembershipTable authority = MembershipTable::CreateUniform(8, addresses);
  MembershipTable skewed = authority;
  skewed.MarkDead(1);  // same epoch number as the join below, other change
  const InstanceId joiner =
      authority.AddInstance(NodeAddress{"10.0.0.3", 50000}, 2);
  authority.SetOwner(5, joiner);
  EXPECT_FALSE(skewed.ApplyUpdate(authority.EncodeDelta(skewed.epoch())).ok());
  EXPECT_LT(skewed.OwnerOf(5), skewed.instance_count());
}

TEST(StaleSuspicionTest, FailoverBehindTheEpochIsRedirectedWithTheDelta) {
  // Instance 1 is the chain successor of instance 0's partitions. A
  // failover op from a client whose table predates the server's is sent
  // to the owner with the delta; at the current epoch it is served.
  std::vector<NodeAddress> addresses = {NodeAddress{"10.0.0.1", 50000},
                                        NodeAddress{"10.0.0.2", 50000},
                                        NodeAddress{"10.0.0.3", 50000}};
  MembershipTable table = MembershipTable::CreateUniform(24, addresses);
  LoopbackNetwork network;
  LoopbackTransport transport(&network);
  ZhtServerOptions options;
  options.self = 1;
  options.cluster.num_replicas = 1;
  ZhtServer server(table, options, &transport);
  std::string key;
  for (int i = 0; key.empty(); ++i) {
    const std::string candidate = "sk-" + std::to_string(i);
    if (table.OwnerOf(table.PartitionOfKey(candidate)) == 0) key = candidate;
  }

  MembershipTable revived = table;
  revived.MarkDead(2);
  revived.MarkAlive(2);
  Request push;
  push.op = OpCode::kMembershipPush;
  push.value = revived.EncodeDelta(table.epoch());
  push.server_origin = true;
  ASSERT_TRUE(server.Handle(std::move(push)).ok());

  Request read;
  read.op = OpCode::kLookup;
  read.key = key;
  read.replica_index = 1;
  read.epoch = table.epoch();
  Response stale = server.Handle(Request(read));
  EXPECT_EQ(stale.status_as_object().code(), StatusCode::kRedirect);
  EXPECT_FALSE(stale.membership.empty());
  read.epoch = revived.epoch();
  EXPECT_EQ(server.Handle(std::move(read)).status_as_object().code(),
            StatusCode::kNotFound);  // served: the key was never written
}

// ---- churn chaos schedule ------------------------------------------------

struct ChurnWorker {
  ZhtClient* client = nullptr;
  HistoryRecorder* recorder = nullptr;
  const std::vector<std::string>* keys = nullptr;
  std::uint64_t id = 0;
  std::atomic<bool>* stop = nullptr;
  std::uint64_t seq = 0;

  void Run() {
    Rng rng(7000 + id);
    while (!stop->load(std::memory_order_relaxed)) {
      const std::string& key = (*keys)[rng.Next() % keys->size()];
      const std::uint64_t pick = rng.Next() % 5;
      if (pick < 2) {
        // Register discipline: every insert value is unique for its key.
        const std::string value =
            "v_t" + std::to_string(id) + "_" + std::to_string(++seq);
        std::uint64_t op = recorder->Begin(id, OpCode::kInsert, key, value);
        recorder->End(op, client->Insert(key, value).code());
      } else if (pick == 2) {
        // A removed key that reads back later is a resurrection.
        std::uint64_t op = recorder->Begin(id, OpCode::kRemove, key, "");
        recorder->End(op, client->Remove(key).code());
      } else {
        std::uint64_t op = recorder->Begin(id, OpCode::kLookup, key, "");
        auto got = client->Lookup(key);
        recorder->End(op, got.status().code(), got.ok() ? *got : "");
      }
    }
  }
};

// Rolling join → kill+failure → rejoin → departure under recorded live
// traffic; the history checker is the oracle. Exercises migration handoff,
// chain-change repairs, and redirect/retry handling for the given policy.
// With `store_dir` set, every partition store is a group-commit NoVoHT log
// there: a log reopened at a used path must never replay removed keys.
void RunChurnSchedule(const std::string& policy,
                      const std::string& store_dir = "") {
  SCOPED_TRACE("policy=" + policy);
  LocalClusterOptions options;
  options.num_instances = 4;
  options.num_partitions = 48;
  options.cluster.num_replicas = 2;
  options.cluster.placement_policy = policy;
  if (!store_dir.empty()) {
    options.cluster.durability = DurabilityMode::kGroupCommit;
    options.store_factory = MakeNoVoHTStoreFactory(store_dir, options.cluster);
  }
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  std::vector<std::string> pool;
  for (int i = 0; i < 64; ++i) pool.push_back("churn_" + std::to_string(i));

  HistoryRecorder recorder;
  {
    auto loader = (*cluster)->CreateClient();
    for (const std::string& key : pool) {
      const std::string value = "v_seed_" + key;
      std::uint64_t op = recorder.Begin(99, OpCode::kInsert, key, value);
      StatusCode code = loader->Insert(key, value).code();
      recorder.End(op, code);
      ASSERT_EQ(code, StatusCode::kOk);
    }
  }

  ZhtClientOptions client_options;
  client_options.max_attempts = 16;
  client_options.failure_detector.failures_to_mark_dead = 4;
  client_options.failure_detector.initial_backoff = 0;
  client_options.sleep_on_backoff = false;

  constexpr int kThreads = 2;
  std::vector<ClientHandle> clients;
  std::vector<ChurnWorker> workers(kThreads);
  std::atomic<bool> stop{false};
  for (int t = 0; t < kThreads; ++t) {
    clients.push_back((*cluster)->CreateClient(client_options));
    workers[t].client = clients[static_cast<std::size_t>(t)].get();
    workers[t].recorder = &recorder;
    workers[t].keys = &pool;
    workers[t].id = static_cast<std::uint64_t>(t);
    workers[t].stop = &stop;
  }
  std::vector<std::thread> threads;
  for (auto& worker : workers) {
    threads.emplace_back([&worker] { worker.Run(); });
  }

  const auto settle = std::chrono::milliseconds(30);
  std::this_thread::sleep_for(settle);
  auto joined = (*cluster)->JoinNewInstance();
  EXPECT_TRUE(joined.ok()) << joined.status().ToString();
  std::this_thread::sleep_for(settle);
  (*cluster)->KillInstance(1);
  EXPECT_TRUE((*cluster)->manager(0)->HandleFailure(1).ok());
  std::this_thread::sleep_for(settle);
  auto rejoined = (*cluster)->RejoinInstance(1);
  EXPECT_TRUE(rejoined.ok()) << rejoined.status().ToString();
  std::this_thread::sleep_for(settle);
  if (joined.ok()) {
    EXPECT_TRUE((*cluster)->manager(0)->Depart(*joined).ok());
  }
  std::this_thread::sleep_for(settle);

  stop = true;
  for (auto& thread : threads) thread.join();
  // Quiesce outstanding replication/repair streams before the cluster
  // tears down (servers are destroyed in order; a peer's finisher must
  // not post into a dying mailbox).
  (*cluster)->FlushAllAsyncReplication();

  auto check = CheckHistory(recorder.Events());
  EXPECT_TRUE(check.ok()) << check.ToString();
  EXPECT_GT(check.events_checked, pool.size());
}

TEST(ChurnChaosTest, ContiguousScheduleIsLinearizable) {
  RunChurnSchedule("contiguous");
}

TEST(ChurnChaosTest, MementoScheduleIsLinearizable) {
  RunChurnSchedule("memento");
}

TEST(ChurnChaosTest, RendezvousScheduleIsLinearizable) {
  RunChurnSchedule("rendezvous");
}

TEST(ChurnChaosTest, PersistentScheduleIsLinearizable) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("zht_churn_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  RunChurnSchedule("memento", dir.string());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace zht
