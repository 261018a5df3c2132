// Asynchronous request API (`ctest -L concurrency`): HandleAsync routing
// through shard mailboxes, where whichever thread posts drains the shard
// and a post that finds its shard mid-drain is handed to that drainer.
// Covers:
//
//  1. a post into a shard whose drain another thread holds returns at
//     once, runs on the holding thread, and counts as one hand-off
//     (`ShardForwardedOps`, `reactor.forwards`);
//  2. BATCHes whose sub-ops span every shard owner, posted concurrently
//     from several threads, scatter per-shard groups and gather one
//     carrier response each;
//  3. a partition migrating away mid-traffic answers in-flight ops with
//     kMigrating (never a hang, a crash, or a dropped callback).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/zht_server.h"
#include "net/loopback.h"
#include "serialize/batch.h"
#include "shard_stall.h"

namespace zht {
namespace {

struct Rig {
  LoopbackNetwork network;
  std::vector<NodeAddress> addresses;
  std::unique_ptr<LoopbackTransport> transport;
  std::unique_ptr<ZhtServer> server;

  explicit Rig(std::size_t num_shards, std::uint32_t partitions = 16,
               StoreFactory store_factory = nullptr) {
    addresses.push_back(
        network.Register([](Request&&) { return Response{}; }));
    MembershipTable table = MembershipTable::CreateUniform(
        partitions, addresses, 1, HashKind::kFnv1a);
    ZhtServerOptions options;
    options.self = 0;
    options.cluster.num_replicas = 0;
    options.num_shards = num_shards;
    options.store_factory = std::move(store_factory);
    transport = std::make_unique<LoopbackTransport>(&network);
    server = std::make_unique<ZhtServer>(std::move(table), options,
                                         transport.get());
  }
};

Request DataOp(OpCode op, std::string key, std::string value,
               std::uint64_t seq) {
  Request request;
  request.op = op;
  request.key = std::move(key);
  request.value = std::move(value);
  request.seq = seq;
  return request;
}

// A key starting with `prefix` that hashes to `shard` (shard = partition %
// num_shards under the server's uniform layout).
std::string KeyOnShard(const ZhtServer& server, const MembershipTable& table,
                       std::size_t shard, const std::string& prefix = "k") {
  for (int i = 0;; ++i) {
    std::string key = prefix + std::to_string(i);
    if (table.PartitionOfKey(key) % server.num_shards() == shard) return key;
  }
}

TEST(AsyncApiTest, BusyShardHandsPostToItsDrainer) {
  ShardStall stall;
  Rig rig(/*num_shards=*/2, /*partitions=*/16, stall.Factory());
  const MembershipTable table = rig.server->table();
  const std::size_t shard = 1;
  const std::uint64_t before = rig.server->ShardForwardedOps(shard);

  // Thread A drains shard 1 and stops inside a store Put.
  const std::thread::id holder = stall.Hold(*rig.server, shard);

  // Thread B posts into the held shard: the post must not wait for A.
  std::atomic<bool> ran{false};
  std::thread::id ran_on;
  bool ok = false;
  std::thread poster([&] {
    rig.server->HandleAsync(
        DataOp(OpCode::kInsert, KeyOnShard(*rig.server, table, shard), "b", 1),
        [&](Response&& response) {
          ok = response.ok();
          ran_on = std::this_thread::get_id();
          ran.store(true, std::memory_order_release);
        });
  });
  poster.join();
  EXPECT_FALSE(ran.load(std::memory_order_acquire))
      << "the post ran although shard " << shard << " was held";
  EXPECT_EQ(rig.server->ShardForwardedOps(shard), before + 1);

  // Releasing A lets its drain run the handed-off task.
  stall.Release();
  ASSERT_TRUE(ran.load(std::memory_order_acquire));
  EXPECT_TRUE(ok);
  EXPECT_EQ(ran_on, holder);
  EXPECT_EQ(rig.server->ShardForwardedOps(shard), before + 1);
  EXPECT_EQ(rig.server->ShardForwardedOps(0), 0u);
  MetricsSnapshot snapshot = rig.server->MetricsSnapshotNow();
  EXPECT_EQ(snapshot.ValueOf("reactor.forwards"),
            static_cast<std::int64_t>(before + 1));
}

TEST(AsyncApiTest, OwnerSpanningBatchGathersAcrossShards) {
  Rig rig(/*num_shards=*/4, /*partitions=*/32);
  const MembershipTable table = rig.server->table();

  // Each poster thread sends one carrier with a sub-op per shard owner,
  // plus extras: each carrier scatters four per-shard groups, which race
  // the other posters' groups for the shard drains, and each gather must
  // produce one ordered response.
  constexpr int kPosters = 4;
  std::vector<std::vector<Request>> ops(kPosters);
  std::vector<Response> responses(kPosters);
  std::atomic<int> done{0};
  std::vector<std::thread> posters;
  for (int t = 0; t < kPosters; ++t) {
    const std::string tag = "t" + std::to_string(t);
    for (std::size_t s = 0; s < 4; ++s) {
      ops[t].push_back(
          DataOp(OpCode::kInsert, KeyOnShard(*rig.server, table, s, tag),
                 tag + "shard" + std::to_string(s),
                 static_cast<std::uint64_t>(s + 1)));
    }
    for (int i = 0; i < 12; ++i) {
      ops[t].push_back(DataOp(OpCode::kInsert, tag + "bulk" + std::to_string(i),
                              "x", static_cast<std::uint64_t>(100 + i)));
    }
    posters.emplace_back([&, t] {
      rig.server->HandleAsync(PackBatchRequest(ops[t], /*seq=*/7),
                              [&, t](Response&& response) {
                                responses[t] = std::move(response);
                                done.fetch_add(1, std::memory_order_release);
                              });
    });
  }
  for (std::thread& poster : posters) poster.join();
  for (int spin = 0; done.load(std::memory_order_acquire) < kPosters;
       ++spin) {
    ASSERT_LT(spin, 50000) << "batch gather never completed";
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  for (int t = 0; t < kPosters; ++t) {
    auto unpacked = UnpackBatchResponse(responses[t], ops[t].size());
    ASSERT_TRUE(unpacked.ok()) << unpacked.status().ToString();
    for (std::size_t i = 0; i < unpacked->size(); ++i) {
      EXPECT_TRUE((*unpacked)[i].ok()) << "poster " << t << " sub-op " << i;
    }
    for (std::size_t s = 0; s < 4; ++s) {
      Response got = rig.server->Handle(
          DataOp(OpCode::kLookup, ops[t][s].key, "", 900 + s));
      EXPECT_EQ(got.value, ops[t][s].value);
    }
  }
}

TEST(AsyncApiTest, MigrationMidTrafficAnswersMigratingNotLost) {
  // Two servers on one loopback network; partition P streams from source
  // to target while a writer hammers P through HandleAsync. Every
  // callback must fire, and each op must resolve to Ok (before/after the
  // migration window) or kMigrating (inside it).
  std::atomic<int> migrating_seen{0};
  LoopbackNetwork network;
  auto source_slot = std::make_shared<AsyncRequestHandler>();
  auto target_slot = std::make_shared<AsyncRequestHandler>();
  std::vector<NodeAddress> addresses;
  addresses.push_back(network.Register(
      [source_slot](Request&& req, ResponseCallback done) {
        (*source_slot)(std::move(req), std::move(done));
      }));
  addresses.push_back(network.Register(
      [target_slot, &migrating_seen](Request&& req, ResponseCallback done) {
        // The target holds the stream's End until a write has been
        // answered kMigrating (for at most 5 s): on a loaded machine the
        // writer may otherwise not run at all inside the window.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (req.op == OpCode::kTransferEnd &&
               migrating_seen.load(std::memory_order_acquire) == 0 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        (*target_slot)(std::move(req), std::move(done));
      }));
  MembershipTable table =
      MembershipTable::CreateUniform(8, addresses, 1, HashKind::kFnv1a);

  LoopbackTransport transport(&network);
  ZhtServerOptions source_options;
  source_options.self = 0;
  source_options.cluster.num_replicas = 0;
  source_options.num_shards = 2;
  ZhtServer source(table, source_options, &transport);
  *source_slot = source.AsyncHandler();
  ZhtServerOptions target_options;
  target_options.self = 1;
  target_options.cluster.num_replicas = 0;
  ZhtServer target(table, target_options, &transport);
  *target_slot = target.AsyncHandler();

  // A key owned by instance 0, seeded with enough pairs that the stream
  // takes multiple MigrateData batches.
  std::string key;
  for (int i = 0;; ++i) {
    key = "mig" + std::to_string(i);
    if (table.OwnerOf(table.PartitionOfKey(key)) == 0) break;
  }
  PartitionId partition = table.PartitionOfKey(key);
  // Seed the migrating partition itself with enough bulk that the stream
  // spans several MigrateData batches.
  for (int i = 0, seeded = 0; seeded < 64; ++i) {
    std::string seed_key = "seed" + std::to_string(i);
    if (table.PartitionOfKey(seed_key) != partition) continue;
    ++seeded;
    ASSERT_TRUE(source
                    .Handle(DataOp(OpCode::kInsert, seed_key,
                                   std::string(1024, 'd'),
                                   static_cast<std::uint64_t>(seeded)))
                    .ok());
  }
  network.SetLatency(200 * 1000);  // widen the migration window

  std::atomic<bool> stop{false};
  std::atomic<int> completions{0};
  std::atomic<int> dispatched{0};
  std::atomic<int> unexpected{0};
  std::thread writer([&] {
    for (int i = 0; !stop.load(std::memory_order_acquire); ++i) {
      dispatched.fetch_add(1, std::memory_order_relaxed);
      Request put = DataOp(OpCode::kInsert, key, "w" + std::to_string(i),
                           static_cast<std::uint64_t>(1000 + i));
      source.HandleAsync(std::move(put), [&](Response&& response) {
        if (response.status == Status(StatusCode::kMigrating).raw()) {
          migrating_seen.fetch_add(1, std::memory_order_relaxed);
        } else if (!response.ok()) {
          unexpected.fetch_add(1, std::memory_order_relaxed);
        }
        completions.fetch_add(1, std::memory_order_relaxed);
      });
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  Status migrated = source.MigratePartitionTo(partition, addresses[1]);
  stop.store(true, std::memory_order_release);
  writer.join();
  network.SetLatency(0);

  EXPECT_TRUE(migrated.ok()) << migrated.ToString();
  for (int spin = 0;
       completions.load(std::memory_order_acquire) <
       dispatched.load(std::memory_order_acquire);
       ++spin) {
    ASSERT_LT(spin, 50000) << "write callback lost during migration";
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_GT(target.TotalEntries(), 0u);
  EXPECT_GT(source.stats().migrations_out, 0u);
  // The window was real: the stream is slow enough that at least one
  // in-flight write observed the partition mid-migration.
  EXPECT_GT(migrating_seen.load(), 0)
      << dispatched.load() << " writes dispatched";
}

}  // namespace
}  // namespace zht
