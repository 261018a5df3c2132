// Traffic survival kit (`ctest -L traffic`): the skewed/heavy-traffic
// pieces end to end —
//   * workload generators: zipf + flash-crowd distribution shape pinned
//     against the exact mass function, determinism under seeds;
//   * tail percentiles: p999 interpolation and the exact order statistic
//     on small samples (the interpolation cases benches rely on);
//   * HotKeyCache unit behavior: fill, refresh, invalidate, partition
//     drop, eviction, size accounting, the disabled (capacity 0) mode;
//   * the staleness contract through ZhtServer: write/append/remove
//     invalidation before ack, migration and rebuild dropping entries,
//     membership pushes clearing the cache; a cached lookup, alone or in
//     a BATCH, answered while its shard's drain is held;
//   * admission control: kUnavailable + retry-after past the budget
//     (slots and bytes), server-origin exemption, unbounded growth with
//     the budget off, and the client honoring the hint;
//   * the new cache/shed counters across the versioned STATS wire format
//     (round-trip + negative);
//   * a flash-crowd schedule over a replicated LocalCluster validated by
//     the history checker.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/workload.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/hot_key_cache.h"
#include "core/local_cluster.h"
#include "core/zht_server.h"
#include "history_checker.h"
#include "net/loopback.h"
#include "serialize/batch.h"
#include "serialize/metrics_codec.h"
#include "serialize/wire.h"
#include "shard_stall.h"

namespace zht {
namespace {

// ---- workload generators -------------------------------------------------

TEST(ZipfGeneratorTest, EmpiricalFrequencyMatchesExactMass) {
  const std::size_t n = 64;
  bench::ZipfGenerator zipf(n, 1.1, /*seed=*/42);
  ASSERT_EQ(zipf.n(), n);
  EXPECT_DOUBLE_EQ(zipf.s(), 1.1);

  double total = 0;
  for (std::size_t k = 0; k < n; ++k) total += zipf.ProbabilityOf(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
  for (std::size_t k = 1; k < n; ++k) {
    EXPECT_LT(zipf.ProbabilityOf(k), zipf.ProbabilityOf(k - 1));
  }

  const std::size_t draws = 200000;
  std::vector<std::size_t> freq(n, 0);
  for (std::size_t i = 0; i < draws; ++i) ++freq[zipf.Next()];
  // 200k draws put the sampling error of the head ranks well under 1%.
  for (std::size_t k = 0; k < 5; ++k) {
    const double observed =
        static_cast<double>(freq[k]) / static_cast<double>(draws);
    EXPECT_NEAR(observed, zipf.ProbabilityOf(k), 0.01)
        << "rank " << k << " off its exact mass";
  }
}

TEST(ZipfGeneratorTest, SZeroDegeneratesToUniform) {
  const std::size_t n = 16;
  bench::ZipfGenerator zipf(n, 0.0, /*seed=*/3);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(zipf.ProbabilityOf(k), 1.0 / static_cast<double>(n), 1e-12);
  }
  const std::size_t draws = 80000;
  std::vector<std::size_t> freq(n, 0);
  for (std::size_t i = 0; i < draws; ++i) ++freq[zipf.Next()];
  for (std::size_t k = 0; k < n; ++k) {
    const double observed =
        static_cast<double>(freq[k]) / static_cast<double>(draws);
    EXPECT_NEAR(observed, 1.0 / static_cast<double>(n), 0.01);
  }
}

TEST(ZipfGeneratorTest, DeterministicUnderSeed) {
  bench::ZipfGenerator a(100, 0.9, 7), b(100, 0.9, 7), c(100, 0.9, 8);
  bool differs = false;
  for (int i = 0; i < 1000; ++i) {
    const std::size_t from_a = a.Next();
    EXPECT_EQ(from_a, b.Next());
    if (from_a != c.Next()) differs = true;
  }
  EXPECT_TRUE(differs) << "different seeds produced identical streams";
}

TEST(FlashCrowdGeneratorTest, HotFractionConcentratesOnHotRank) {
  const std::size_t n = 50;
  bench::FlashCrowdGenerator flash(n, 0.9, /*seed=*/7);
  EXPECT_EQ(flash.hot_rank(), 0u);
  const std::size_t draws = 100000;
  std::vector<std::size_t> freq(n, 0);
  for (std::size_t i = 0; i < draws; ++i) ++freq[flash.Next()];
  const double hot =
      static_cast<double>(freq[0]) / static_cast<double>(draws);
  EXPECT_NEAR(hot, 0.9, 0.01);
  // Cold mass (0.1) spread over the other 49 ranks: ~0.2% each.
  for (std::size_t k = 1; k < n; ++k) {
    EXPECT_LT(static_cast<double>(freq[k]) / static_cast<double>(draws), 0.01);
  }
}

TEST(FlashCrowdGeneratorTest, RespectsExplicitHotRank) {
  bench::FlashCrowdGenerator flash(10, 1.0, /*seed=*/3, /*hot_rank=*/7);
  EXPECT_EQ(flash.hot_rank(), 7u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(flash.Next(), 7u);
}

TEST(WorkloadFactoryTest, KeySetAndValueAreSizedAndDeterministic) {
  auto keys = bench::MakeKeySet(32, 15, /*seed=*/5);
  ASSERT_EQ(keys.size(), 32u);
  for (const std::string& k : keys) EXPECT_EQ(k.size(), 15u);
  EXPECT_EQ(keys, bench::MakeKeySet(32, 15, 5));
  EXPECT_NE(keys, bench::MakeKeySet(32, 15, 6));
  EXPECT_EQ(bench::MakeValue(134, 9).size(), 134u);
  EXPECT_EQ(bench::MakeValue(134, 9), bench::MakeValue(134, 9));
}

// ---- tail percentiles ----------------------------------------------------

TEST(LatencyStatsTailTest, P999InterpolationPinnedOnSmallSamples) {
  LatencyStats empty;
  EXPECT_EQ(empty.P999(), 0);

  LatencyStats one;
  one.Record(7);
  EXPECT_EQ(one.P999(), 7);

  // Two samples: the 99.9th percentile interpolates 99.9% of the way from
  // 100 to 200 (exclusive definition), rounding to 200.
  LatencyStats two;
  two.Record(100);
  two.Record(200);
  EXPECT_EQ(two.P999(), 200);
  EXPECT_EQ(two.Percentile(50), 150);

  // 1..1000: rank 0.999 * 999 = 998.001 lands between 999 and 1000;
  // interpolated 999.001 rounds to 999.
  LatencyStats thousand;
  for (Nanos v = 1000; v >= 1; --v) thousand.Record(v);  // unsorted insert
  EXPECT_EQ(thousand.P999(), 999);
  EXPECT_EQ(thousand.Percentile(0), 1);
  EXPECT_EQ(thousand.Percentile(100), 1000);
}

TEST(LatencyStatsTailTest, TailExactReturnsObservedOrderStatistic) {
  LatencyStats empty;
  EXPECT_EQ(empty.TailExact(99.9), 0);

  LatencyStats ten;
  for (Nanos v = 10; v <= 100; v += 10) ten.Record(v);
  // ceil(0.999 * 10) = 10th sample, an actually-observed value (no
  // interpolation): 100. The median order statistic is the 5th: 50.
  EXPECT_EQ(ten.TailExact(99.9), 100);
  EXPECT_EQ(ten.TailExact(50), 50);
  EXPECT_EQ(ten.TailExact(0), 10);
  EXPECT_EQ(ten.TailExact(100), 100);

  // 99.9/100 * 1000 computes to just over 999.0 in binary floating point,
  // so the ceil lands on the 1000th order statistic — pin that boundary.
  LatencyStats thousand;
  for (Nanos v = 1; v <= 1000; ++v) thousand.Record(v);
  EXPECT_EQ(thousand.TailExact(99.9), 1000);
  EXPECT_EQ(thousand.TailExact(99.8), 998);  // 998.0 exact: the 998th sample
}

// ---- HotKeyCache unit behavior -------------------------------------------

TEST(HotKeyCacheTest, FillHitInvalidateAndSizeAccounting) {
  HotKeyCache cache(64);
  ASSERT_TRUE(cache.enabled());
  std::string value;
  EXPECT_FALSE(cache.TryGet("k", &value));
  cache.Put("k", /*partition=*/3, "v1");
  ASSERT_TRUE(cache.TryGet("k", &value));
  EXPECT_EQ(value, "v1");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.Invalidate("k"));
  EXPECT_FALSE(cache.TryGet("k", &value));
  EXPECT_FALSE(cache.Invalidate("k"));  // already gone
  EXPECT_EQ(cache.size(), 0u);
}

TEST(HotKeyCacheTest, PutRefreshesExistingKeyInPlace) {
  HotKeyCache cache(64);
  cache.Put("k", 1, "old");
  cache.Put("k", 1, "new");
  std::string value;
  ASSERT_TRUE(cache.TryGet("k", &value));
  EXPECT_EQ(value, "new");
  EXPECT_EQ(cache.size(), 1u);
}

TEST(HotKeyCacheTest, DropPartitionRemovesOnlyThatPartition) {
  HotKeyCache cache(64);
  cache.Put("a", 1, "va");
  cache.Put("b", 2, "vb");
  cache.Put("c", 1, "vc");
  EXPECT_EQ(cache.DropPartition(1), 2u);
  std::string value;
  EXPECT_FALSE(cache.TryGet("a", &value));
  EXPECT_FALSE(cache.TryGet("c", &value));
  ASSERT_TRUE(cache.TryGet("b", &value));
  EXPECT_EQ(value, "vb");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Clear(), 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(HotKeyCacheTest, EvictsLeastRecentWayWhenSetIsFull) {
  HotKeyCache cache(4);  // one 4-way set: every key collides
  ASSERT_EQ(cache.capacity(), 4u);
  for (int i = 0; i < 5; ++i) {
    cache.Put("key" + std::to_string(i), 0, "v" + std::to_string(i));
  }
  EXPECT_EQ(cache.size(), 4u);
  std::string value;
  EXPECT_FALSE(cache.TryGet("key0", &value));  // oldest tick evicted
  for (int i = 1; i < 5; ++i) {
    ASSERT_TRUE(cache.TryGet("key" + std::to_string(i), &value)) << i;
    EXPECT_EQ(value, "v" + std::to_string(i));
  }
}

TEST(HotKeyCacheTest, CapacityZeroDisablesEverything) {
  HotKeyCache cache(0);
  EXPECT_FALSE(cache.enabled());
  EXPECT_EQ(cache.capacity(), 0u);
  cache.Put("k", 0, "v");  // no-op
  std::string value;
  EXPECT_FALSE(cache.TryGet("k", &value));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Clear(), 0u);
}

// ---- the staleness contract through ZhtServer ----------------------------

// Single-instance table: every key is owned, no redirects, so cache and
// admission behavior is exercised in isolation.
class TrafficServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    addresses_ = {NodeAddress{"10.0.0.1", 50000}};
    table_ = MembershipTable::CreateUniform(16, addresses_);
    transport_ = std::make_unique<LoopbackTransport>(&network_);
  }

  std::unique_ptr<ZhtServer> MakeServer(std::size_t cache_entries,
                                        std::size_t shed_budget = 0,
                                        StoreFactory store_factory = nullptr) {
    ZhtServerOptions options;
    options.store_factory = std::move(store_factory);
    options.self = 0;
    options.num_shards = 1;  // deterministic mailbox accounting
    options.cluster.hot_cache_entries = cache_entries;
    options.cluster.shed_queue_budget = shed_budget;
    return std::make_unique<ZhtServer>(table_, options, transport_.get());
  }

  Request DataRequest(OpCode op, const std::string& key,
                      const std::string& value = "") {
    Request request;
    request.op = op;
    request.seq = ++seq_;
    request.key = key;
    request.value = value;
    request.epoch = table_.epoch();
    return request;
  }

  std::vector<NodeAddress> addresses_;
  MembershipTable table_;
  LoopbackNetwork network_;
  std::unique_ptr<LoopbackTransport> transport_;
  std::uint64_t seq_ = 0;
};

TEST_F(TrafficServerTest, CacheHitServesAndEveryMutationInvalidates) {
  auto server = MakeServer(/*cache_entries=*/64);
  ASSERT_TRUE(server->Handle(DataRequest(OpCode::kInsert, "k", "v1")).ok());

  Response first = server->Handle(DataRequest(OpCode::kLookup, "k"));
  EXPECT_EQ(first.value, "v1");  // miss: fills the cache
  Response second = server->Handle(DataRequest(OpCode::kLookup, "k"));
  EXPECT_EQ(second.value, "v1");  // hit
  EXPECT_EQ(server->stats().hot_cache_hits, 1u);
  EXPECT_EQ(server->stats().hot_cache_misses, 1u);

  // Overwrite invalidates before the ack: the next read must see v2.
  ASSERT_TRUE(server->Handle(DataRequest(OpCode::kInsert, "k", "v2")).ok());
  EXPECT_EQ(server->stats().hot_cache_invalidations, 1u);
  EXPECT_EQ(server->Handle(DataRequest(OpCode::kLookup, "k")).value, "v2");
  EXPECT_EQ(server->Handle(DataRequest(OpCode::kLookup, "k")).value, "v2");

  // Append invalidates too (the cached value is a strict prefix now).
  ASSERT_TRUE(server->Handle(DataRequest(OpCode::kAppend, "k", "+t")).ok());
  EXPECT_EQ(server->Handle(DataRequest(OpCode::kLookup, "k")).value, "v2+t");

  // Remove invalidates; a later lookup is a clean NotFound, not a cached
  // ghost.
  server->Handle(DataRequest(OpCode::kLookup, "k"));  // re-fill
  ASSERT_TRUE(server->Handle(DataRequest(OpCode::kRemove, "k")).ok());
  EXPECT_EQ(server->Handle(DataRequest(OpCode::kLookup, "k"))
                .status_as_object()
                .code(),
            StatusCode::kNotFound);
}

// A cached lookup answers at ingress whether it comes alone or inside a
// BATCH: neither waits for its shard's drain, here held by a ShardStall.
TEST_F(TrafficServerTest, CachedLookupSkipsAStalledShardAloneAndInABatch) {
  ShardStall stall;
  auto server = MakeServer(/*cache_entries=*/64, /*shed_budget=*/0,
                           stall.Factory());
  ASSERT_TRUE(server->Handle(DataRequest(OpCode::kInsert, "k", "v")).ok());
  ASSERT_EQ(server->Handle(DataRequest(OpCode::kLookup, "k")).value, "v");
  stall.Hold(*server, 0);

  std::atomic<int> answered{0};
  Response single;
  server->HandleAsync(DataRequest(OpCode::kLookup, "k"),
                      [&](Response&& resp) {
                        single = std::move(resp);
                        ++answered;
                      });
  EXPECT_EQ(answered.load(), 1) << "the single-key lookup waited";

  Request lookup = DataRequest(OpCode::kLookup, "k");
  Response carrier;
  server->HandleAsync(PackBatchRequest({&lookup, 1}, lookup.seq),
                      [&](Response&& resp) {
                        carrier = std::move(resp);
                        ++answered;
                      });
  EXPECT_EQ(answered.load(), 2) << "the batched lookup waited for the stall";
  stall.Release();

  EXPECT_EQ(single.value, "v");
  auto subs = UnpackBatchResponse(carrier, 1);
  ASSERT_TRUE(subs.ok()) << subs.status().ToString();
  EXPECT_EQ(subs->front().value, "v");
  EXPECT_EQ(server->stats().hot_cache_hits, 2u);
}

TEST_F(TrafficServerTest, ReadYourWritesHoldsUnderCacheChurn) {
  auto server = MakeServer(/*cache_entries=*/16);  // small: force evictions
  Rng rng(11);
  std::vector<std::string> keys;
  std::vector<std::string> model(8);
  for (int i = 0; i < 8; ++i) keys.push_back("churn" + std::to_string(i));
  for (int round = 0; round < 400; ++round) {
    const std::size_t k = rng.Below(keys.size());
    if (rng.Chance(0.3)) {
      model[k] = "v" + std::to_string(round);
      ASSERT_TRUE(
          server->Handle(DataRequest(OpCode::kInsert, keys[k], model[k]))
              .ok());
    } else {
      Response resp = server->Handle(DataRequest(OpCode::kLookup, keys[k]));
      if (model[k].empty()) {
        EXPECT_EQ(resp.status_as_object().code(), StatusCode::kNotFound);
      } else {
        ASSERT_TRUE(resp.ok());
        EXPECT_EQ(resp.value, model[k]) << "stale read of " << keys[k];
      }
    }
  }
  EXPECT_GT(server->stats().hot_cache_hits, 0u);
}

TEST_F(TrafficServerTest, RebuildBeginDropsCachedEntriesOfThePartition) {
  auto server = MakeServer(/*cache_entries=*/64);
  ASSERT_TRUE(server->Handle(DataRequest(OpCode::kInsert, "rk", "v")).ok());
  server->Handle(DataRequest(OpCode::kLookup, "rk"));  // fill
  ASSERT_EQ(server->HotCacheEntriesNow(), 1u);

  Request begin;
  begin.op = OpCode::kTransferBegin;
  begin.seq = ++seq_;
  begin.partition = table_.PartitionOfKey("rk");
  begin.server_origin = true;
  ASSERT_TRUE(server->Handle(std::move(begin)).ok());
  EXPECT_EQ(server->HotCacheEntriesNow(), 0u);
  EXPECT_GE(server->stats().hot_cache_drops, 1u);
}

TEST_F(TrafficServerTest, MembershipPushClearsTheWholeCache) {
  // Two instances so the delta can actually move a partition.
  std::vector<NodeAddress> addresses = {NodeAddress{"10.0.0.1", 50000},
                                        NodeAddress{"10.0.0.2", 50000}};
  MembershipTable table = MembershipTable::CreateUniform(16, addresses);
  ZhtServerOptions options;
  options.self = 0;
  options.cluster.hot_cache_entries = 64;
  ZhtServer server(table, options, transport_.get());

  std::string key;
  for (int i = 0; i < 10000 && key.empty(); ++i) {
    std::string candidate = "mk" + std::to_string(i);
    if (table.OwnerOf(table.PartitionOfKey(candidate)) == 0) key = candidate;
  }
  ASSERT_FALSE(key.empty());
  Request insert;
  insert.op = OpCode::kInsert;
  insert.seq = 1;
  insert.key = key;
  insert.value = "v";
  insert.epoch = table.epoch();
  ASSERT_TRUE(server.Handle(std::move(insert)).ok());
  Request lookup;
  lookup.op = OpCode::kLookup;
  lookup.seq = 2;
  lookup.key = key;
  lookup.epoch = table.epoch();
  ASSERT_TRUE(server.Handle(std::move(lookup)).ok());
  ASSERT_EQ(server.HotCacheEntriesNow(), 1u);

  MembershipTable updated = table;
  updated.SetOwner(3, 1);
  Request push;
  push.op = OpCode::kMembershipPush;
  push.seq = 3;
  push.value = updated.EncodeDelta(table.epoch());
  push.server_origin = true;
  ASSERT_TRUE(server.Handle(std::move(push)).ok());
  EXPECT_EQ(server.HotCacheEntriesNow(), 0u);
  EXPECT_GE(server.stats().hot_cache_drops, 1u);
}

TEST_F(TrafficServerTest, MigrationOutDropsSourceCacheEntries) {
  std::vector<NodeAddress> addresses = {NodeAddress{"10.0.0.1", 50000},
                                        NodeAddress{"10.0.0.2", 50000}};
  MembershipTable table = MembershipTable::CreateUniform(16, addresses);
  ZhtServerOptions source_options;
  source_options.self = 0;
  source_options.cluster.hot_cache_entries = 64;
  ZhtServer source(table, source_options, transport_.get());

  auto target_slot = std::make_shared<AsyncRequestHandler>();
  NodeAddress target_address =
      network_.Register([target_slot](Request&& req, ResponseCallback done) {
        (*target_slot)(std::move(req), std::move(done));
      });
  ZhtServerOptions target_options;
  target_options.self = 1;
  ZhtServer target(table, target_options, transport_.get());
  *target_slot = target.AsyncHandler();

  std::string key;
  for (int i = 0; i < 10000 && key.empty(); ++i) {
    std::string candidate = "gk" + std::to_string(i);
    if (table.OwnerOf(table.PartitionOfKey(candidate)) == 0) key = candidate;
  }
  ASSERT_FALSE(key.empty());
  Request insert;
  insert.op = OpCode::kInsert;
  insert.seq = 1;
  insert.key = key;
  insert.value = "mv";
  insert.epoch = table.epoch();
  ASSERT_TRUE(source.Handle(std::move(insert)).ok());
  Request lookup;
  lookup.op = OpCode::kLookup;
  lookup.seq = 2;
  lookup.key = key;
  lookup.epoch = table.epoch();
  ASSERT_TRUE(source.Handle(std::move(lookup)).ok());
  ASSERT_EQ(source.HotCacheEntriesNow(), 1u);

  ASSERT_TRUE(
      source.MigratePartitionTo(table.PartitionOfKey(key), target_address)
          .ok());
  EXPECT_EQ(source.HotCacheEntriesNow(), 0u);
  EXPECT_GE(source.stats().hot_cache_drops, 1u);
  EXPECT_EQ(target.TotalEntries(), 1u);
}

// ---- admission control ---------------------------------------------------
//
// The overload fixture: a ShardStall holds the shard's drain on a helper
// thread, inside a store Put, so posted work piles up in the mailbox exactly
// as it would behind a slow drain and shedding at ingress is observable
// synchronously. Release() lets the helper run everything queued.

TEST_F(TrafficServerTest, ShedsPastBudgetWithRetryAfterAndRecovers) {
  ShardStall stall;
  auto server = MakeServer(/*cache_entries=*/0, /*shed_budget=*/4,
                           stall.Factory());
  stall.Hold(*server, 0);
  int completed = 0;
  int unavailable = 0;
  std::uint32_t last_hint = 0;
  auto issue = [&](const std::string& key, bool server_origin) {
    Request req = DataRequest(OpCode::kInsert, key, "v");
    req.server_origin = server_origin;
    server->HandleAsync(std::move(req), [&](Response&& resp) {
      ++completed;
      if (resp.status_as_object().code() == StatusCode::kUnavailable) {
        ++unavailable;
        last_hint = resp.retry_after_us;
      }
    });
  };
  for (int i = 0; i < 4; ++i) issue("sk" + std::to_string(i), false);
  EXPECT_EQ(completed, 0);  // all queued behind the stalled drain
  issue("sk-over", false);
  EXPECT_EQ(completed, 1);  // shed synchronously at ingress
  EXPECT_EQ(unavailable, 1);
  EXPECT_GE(last_hint, 1000u);  // the retry-after hint travels
  issue("sk-replica", true);    // server-origin traffic is never shed
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(server->stats().sheds, 1u);

  stall.Release();
  EXPECT_EQ(completed, 6);    // 4 queued + 1 shed + 1 server-origin
  EXPECT_EQ(unavailable, 1);  // drained ops all succeeded
}

TEST_F(TrafficServerTest, BudgetZeroNeverShedsAndQueuesUnboundedly) {
  ShardStall stall;
  auto server = MakeServer(/*cache_entries=*/0, /*shed_budget=*/0,
                           stall.Factory());
  stall.Hold(*server, 0);
  int completed = 0;
  for (int i = 0; i < 100; ++i) {
    server->HandleAsync(DataRequest(OpCode::kInsert, "z" + std::to_string(i),
                                    "v"),
                        [&](Response&&) { ++completed; });
  }
  EXPECT_EQ(completed, 0);
  EXPECT_EQ(server->stats().sheds, 0u);
  std::uint64_t queued = 0;
  for (std::size_t s = 0; s < server->num_shards(); ++s) {
    queued += server->ShardQueuedNow(s);
  }
  EXPECT_EQ(queued, 100u);  // mailbox growth is unbounded with the knob off
  stall.Release();
  EXPECT_EQ(completed, 100);
}

TEST_F(TrafficServerTest, ByteBudgetShedsBeforeSlotBudget) {
  // budget 4 slots => 4 * 128 KiB in-flight bytes. One 600 KiB value
  // exceeds that alone, so the second op sheds with 3 slots still free.
  ShardStall stall;
  auto server = MakeServer(/*cache_entries=*/0, /*shed_budget=*/4,
                           stall.Factory());
  stall.Hold(*server, 0);
  int completed = 0;
  int unavailable = 0;
  std::string big(600 * 1024, 'x');
  server->HandleAsync(DataRequest(OpCode::kInsert, "big", big),
                      [&](Response&&) { ++completed; });
  EXPECT_EQ(completed, 0);  // admitted, queued
  server->HandleAsync(DataRequest(OpCode::kInsert, "small", "v"),
                      [&](Response&& resp) {
                        ++completed;
                        if (resp.status_as_object().code() ==
                            StatusCode::kUnavailable) {
                          ++unavailable;
                          EXPECT_GT(resp.retry_after_us, 0u);
                        }
                      });
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(unavailable, 1);
  EXPECT_EQ(server->stats().sheds, 1u);
  stall.Release();
  EXPECT_EQ(completed, 2);
}

// ---- the client honors retry-after ---------------------------------------

class ScriptedShedTransport : public ClientTransport {
 public:
  explicit ScriptedShedTransport(int sheds) : remaining_(sheds) {}

  Result<Response> Call(const NodeAddress&, const Request& request,
                        Nanos) override {
    ++calls_;
    Response resp;
    resp.seq = request.seq;
    if (remaining_-- > 0) {
      resp.status = Status(StatusCode::kUnavailable, "shard over budget").raw();
      resp.retry_after_us = 750;
      return resp;
    }
    resp.status = Status::Ok().raw();
    if (request.op == OpCode::kLookup) resp.value = "v";
    return resp;
  }

  int calls() const { return calls_; }

 private:
  int remaining_;
  int calls_ = 0;
};

TEST(ClientShedBackoffTest, RetriesOnRetryAfterHintThenSucceeds) {
  MembershipTable table =
      MembershipTable::CreateUniform(8, {NodeAddress{"10.0.0.1", 50000}});
  ScriptedShedTransport transport(/*sheds=*/2);
  ZhtClientOptions options;
  options.max_attempts = 6;
  options.sleep_on_backoff = false;
  ZhtClient client(table, options, &transport);

  auto got = client.Lookup("k");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "v");
  EXPECT_EQ(client.stats().shed_backoffs, 2u);
  EXPECT_GE(client.stats().retries, 2u);
  EXPECT_EQ(transport.calls(), 3);
}

TEST(ClientShedBackoffTest, PersistentShedSurfacesUnavailable) {
  MembershipTable table =
      MembershipTable::CreateUniform(8, {NodeAddress{"10.0.0.1", 50000}});
  ScriptedShedTransport transport(/*sheds=*/1000);
  ZhtClientOptions options;
  options.max_attempts = 4;
  options.sleep_on_backoff = false;
  ZhtClient client(table, options, &transport);

  auto got = client.Lookup("k");
  ASSERT_FALSE(got.ok());
  // The final attempt's shed response stands (kUnavailable, not kTimeout).
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(client.stats().shed_backoffs,
            static_cast<std::uint64_t>(options.max_attempts - 1));
}

// ---- cache/shed counters across the STATS wire format --------------------

TEST_F(TrafficServerTest, StatsCarriesCacheAndShedCountersRoundTrip) {
  auto server = MakeServer(/*cache_entries=*/64, /*shed_budget=*/8);
  ASSERT_TRUE(server->Handle(DataRequest(OpCode::kInsert, "k", "v1")).ok());
  server->Handle(DataRequest(OpCode::kLookup, "k"));  // miss + fill
  server->Handle(DataRequest(OpCode::kLookup, "k"));  // hit
  server->Handle(DataRequest(OpCode::kInsert, "k", "v2"));  // invalidate

  Request stats_req;
  stats_req.op = OpCode::kStats;
  stats_req.seq = ++seq_;
  Response resp = server->Handle(std::move(stats_req));
  ASSERT_TRUE(resp.ok());

  auto snapshot = DecodeMetricsSnapshot(resp.value);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->ValueOf("server.cache.hit"), 1);
  EXPECT_EQ(snapshot->ValueOf("server.cache.miss"), 1);
  EXPECT_EQ(snapshot->ValueOf("server.cache.invalidate"), 1);
  ASSERT_NE(snapshot->Find("server.cache.drop"), nullptr);
  ASSERT_NE(snapshot->Find("server.admission.shed"), nullptr);
  EXPECT_EQ(snapshot->ValueOf("server.admission.shed"), 0);

  // Round-trip: re-encode the decoded snapshot; the counters survive.
  auto again = DecodeMetricsSnapshot(EncodeMetricsSnapshot(*snapshot));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->ValueOf("server.cache.hit"), 1);
  EXPECT_EQ(again->ValueOf("server.cache.miss"), 1);
  EXPECT_EQ(again->ValueOf("server.cache.invalidate"), 1);
  EXPECT_EQ(again->ValueOf("server.admission.shed"), 0);

  // Negative: a truncated STATS payload must be rejected, not misread.
  std::string truncated = resp.value.substr(0, resp.value.size() - 3);
  EXPECT_FALSE(DecodeMetricsSnapshot(truncated).ok());
}

TEST(CacheCountersCodecTest, FutureVersionCarryingCacheCountersIsRejected) {
  std::string entry;
  {
    wire::Writer ew(&entry);
    ew.PutStringField(1, "server.cache.hit");
    ew.PutVarintField(2, static_cast<std::uint64_t>(MetricKind::kCounter));
    ew.PutSignedField(3, 7);
  }
  std::string encoded;
  {
    wire::Writer w(&encoded);
    w.PutVarintField(1, kMetricsWireVersion + 1);
    w.PutStringField(2, entry);
  }
  auto decoded = DecodeMetricsSnapshot(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

// ---- flash-crowd schedule, history-checked -------------------------------

TEST(TrafficHistoryTest, FlashCrowdMixStaysCleanWithCacheAndReplication) {
  LocalClusterOptions options;
  options.num_instances = 3;
  options.num_partitions = 24;
  options.cluster.num_replicas = 1;
  options.cluster.hot_cache_entries = 128;
  options.cluster.shed_queue_budget = 256;
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  constexpr int kRegisterKeys = 10;
  constexpr int kLedgerKeys = 4;
  auto register_key = [](std::size_t i) {
    return "reg" + std::to_string(i);
  };
  auto ledger_key = [](std::size_t i) { return "led" + std::to_string(i); };

  HistoryRecorder recorder;
  ZhtClientOptions client_options;
  client_options.sleep_on_backoff = false;

  struct ScriptedClient {
    std::uint64_t id;
    ClientHandle handle;
    bench::FlashCrowdGenerator reg;   // 90% of register traffic on one key
    bench::ZipfGenerator led;         // skewed ledger appends
    Rng rng;
    int counter = 0;
  };
  std::vector<ScriptedClient> clients;
  for (std::uint64_t c = 1; c <= 2; ++c) {
    clients.push_back(ScriptedClient{
        c, (*cluster)->CreateClient(client_options),
        bench::FlashCrowdGenerator(kRegisterKeys, 0.9, /*seed=*/c),
        bench::ZipfGenerator(kLedgerKeys, 1.1, /*seed=*/c + 10),
        Rng(100 + c)});
  }

  // Fixed single-threaded interleaving, one op per client per round: the
  // hot register key absorbs most reads (cache hits) while its writes keep
  // invalidating — exactly the churn the staleness contract must survive.
  for (int round = 0; round < 300; ++round) {
    for (ScriptedClient& client : clients) {
      ZhtClient& zht = *client.handle.get();
      const double dice = client.rng.NextDouble();
      if (dice < 0.30) {
        std::string key = register_key(client.reg.Next());
        std::string value = "v" + std::to_string(client.id) + "_" +
                            std::to_string(++client.counter);
        std::uint64_t op =
            recorder.Begin(client.id, OpCode::kInsert, key, value);
        recorder.End(op, zht.Insert(key, value).code());
      } else if (dice < 0.70) {
        std::string key = register_key(client.reg.Next());
        std::uint64_t op = recorder.Begin(client.id, OpCode::kLookup, key, "");
        auto got = zht.Lookup(key);
        recorder.End(op, got.status().code(), got.ok() ? *got : "");
      } else if (dice < 0.78) {
        std::string key = register_key(client.reg.Next());
        std::uint64_t op = recorder.Begin(client.id, OpCode::kRemove, key, "");
        recorder.End(op, zht.Remove(key).code());
      } else if (dice < 0.92) {
        std::string key = ledger_key(client.led.Next());
        std::string token = "c" + std::to_string(client.id) + "t" +
                            std::to_string(++client.counter) + ";";
        std::uint64_t op =
            recorder.Begin(client.id, OpCode::kAppend, key, token);
        recorder.End(op, zht.Append(key, token).code());
      } else {
        std::string key = ledger_key(client.led.Next());
        std::uint64_t op = recorder.Begin(client.id, OpCode::kLookup, key, "");
        auto got = zht.Lookup(key);
        recorder.End(op, got.status().code(), got.ok() ? *got : "");
      }
    }
  }

  (*cluster)->FlushAllAsyncReplication();
  auto reader = (*cluster)->CreateClient(client_options);
  for (int i = 0; i < kRegisterKeys; ++i) {
    std::uint64_t op =
        recorder.Begin(999, OpCode::kLookup, register_key(i), "");
    auto got = reader->Lookup(register_key(i));
    recorder.End(op, got.status().code(), got.ok() ? *got : "");
  }
  for (int i = 0; i < kLedgerKeys; ++i) {
    std::uint64_t op = recorder.Begin(999, OpCode::kLookup, ledger_key(i), "");
    auto got = reader->Lookup(ledger_key(i));
    recorder.End(op, got.status().code(), got.ok() ? *got : "");
  }

  auto result = CheckHistory(recorder.Events());
  EXPECT_TRUE(result.ok()) << result.ToString();
  EXPECT_GT(result.events_checked, 600u);

  // The schedule really exercised the cache: hits on at least one server.
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < (*cluster)->instance_count(); ++i) {
    hits += (*cluster)->server(i)->stats().hot_cache_hits;
  }
  EXPECT_GT(hits, 0u);
}

}  // namespace
}  // namespace zht
