// Unit tests of ZhtServer::Handle — the protocol state machine exercised
// directly, without a cluster harness: ownership checks and REDIRECT
// payloads, epoch piggybacking, MIGRATING responses, replica traffic,
// membership pull/push, the partition transfer, and the append dedup
// window. PersistentTransferTest runs the transfer on persistent stores,
// InstanceLogServerTest runs servers on the shared instance log and
// TransferStreamTest cancels a stream whose Begin failed (ctest label
// `recovery`).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <set>
#include <thread>

#include "core/zht_server.h"
#include "net/loopback.h"
#include "novoht/novoht.h"
#include "serialize/metrics_codec.h"

namespace zht {
namespace {

class ZhtServerUnitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    addresses_ = {NodeAddress{"10.0.0.1", 50000},
                  NodeAddress{"10.0.0.2", 50000},
                  NodeAddress{"10.0.0.3", 50000}};
    table_ = MembershipTable::CreateUniform(24, addresses_);
    transport_ = std::make_unique<LoopbackTransport>(&network_);
  }

  std::unique_ptr<ZhtServer> MakeServer(InstanceId self, int replicas = 0) {
    ZhtServerOptions options;
    options.self = self;
    options.cluster.num_replicas = replicas;
    return std::make_unique<ZhtServer>(table_, options, transport_.get());
  }

  // A key owned by the given instance (brute-force search).
  std::string KeyOwnedBy(InstanceId owner) {
    for (int i = 0; i < 10000; ++i) {
      std::string key = "key-" + std::to_string(i);
      if (table_.OwnerOf(table_.PartitionOfKey(key)) == owner) return key;
    }
    ADD_FAILURE() << "no key found for instance " << owner;
    return "";
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

TEST_F(ZhtServerUnitTest, OwnerServesAndEchoesSeq) {
  auto server = MakeServer(0);
  std::string key = KeyOwnedBy(0);
  Response resp = server->Handle(DataRequest(OpCode::kInsert, key, "v"));
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(resp.seq, seq_);
  resp = server->Handle(DataRequest(OpCode::kLookup, key));
  EXPECT_EQ(resp.value, "v");
}

TEST_F(ZhtServerUnitTest, WrongOwnerRedirectsWithOwnerAddress) {
  auto server = MakeServer(0);
  std::string key = KeyOwnedBy(2);
  Response resp = server->Handle(DataRequest(OpCode::kInsert, key, "v"));
  EXPECT_EQ(resp.status_as_object().code(), StatusCode::kRedirect);
  EXPECT_EQ(resp.redirect_host, "10.0.0.3");
  EXPECT_EQ(resp.redirect_port, 50000);
  EXPECT_FALSE(resp.membership.empty());  // piggybacked table for the
                                          // lazy client update
  EXPECT_EQ(server->stats().redirects, 1u);
  EXPECT_EQ(server->stats().ops, 0u);  // nothing applied
}

TEST_F(ZhtServerUnitTest, RedirectMembershipIsApplicable) {
  auto server = MakeServer(0);
  std::string key = KeyOwnedBy(1);
  Request request = DataRequest(OpCode::kLookup, key);
  request.epoch = 0;  // very stale client
  Response resp = server->Handle(std::move(request));
  ASSERT_EQ(resp.status_as_object().code(), StatusCode::kRedirect);
  MembershipTable fresh;
  EXPECT_TRUE(fresh.ApplyUpdate(resp.membership).ok());
  EXPECT_EQ(fresh.instance_count(), 3u);
}

TEST_F(ZhtServerUnitTest, PingReportsEpoch) {
  auto server = MakeServer(0);
  Request ping;
  ping.op = OpCode::kPing;
  ping.seq = 9;
  Response resp = server->Handle(std::move(ping));
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(resp.epoch, table_.epoch());
}

TEST_F(ZhtServerUnitTest, ReplicaTrafficBypassesOwnershipCheck) {
  auto server = MakeServer(0);
  std::string key = KeyOwnedBy(2);  // not ours
  Request request = DataRequest(OpCode::kInsert, key, "copy");
  request.server_origin = true;
  request.replica_index = 1;
  Response resp = server->Handle(std::move(request));
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(server->TotalEntries(), 1u);
}

TEST_F(ZhtServerUnitTest, ClientFailoverReadServedByChainMember) {
  // Instance 1 is the first successor of instance 0's partitions.
  auto server = MakeServer(1, /*replicas=*/1);
  std::string key = KeyOwnedBy(0);
  // Seed the replica copy.
  Request seed = DataRequest(OpCode::kInsert, key, "v");
  seed.server_origin = true;
  seed.replica_index = 1;
  EXPECT_TRUE(server->Handle(std::move(seed)).ok());
  // Client failover read: replica_index=1, not server-origin.
  Request read = DataRequest(OpCode::kLookup, key);
  read.replica_index = 1;
  Response resp = server->Handle(std::move(read));
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(resp.value, "v");
}

TEST_F(ZhtServerUnitTest, FailoverToNonChainMemberStillRedirects) {
  // Instance 2 is NOT in the 2-member chain of instance 0's partitions.
  auto server = MakeServer(2, /*replicas=*/1);
  std::string key = KeyOwnedBy(0);
  Request read = DataRequest(OpCode::kLookup, key);
  read.replica_index = 1;
  Response resp = server->Handle(std::move(read));
  EXPECT_EQ(resp.status_as_object().code(), StatusCode::kRedirect);
}

TEST_F(ZhtServerUnitTest, MembershipPullFullAndDelta) {
  auto server = MakeServer(0);
  Request pull;
  pull.op = OpCode::kMembershipPull;
  pull.seq = 1;
  pull.epoch = 0;  // wants a full snapshot
  Response resp = server->Handle(std::move(pull));
  auto full = MembershipTable::DecodeFull(resp.membership);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(*full, table_);

  Request delta_pull;
  delta_pull.op = OpCode::kMembershipPull;
  delta_pull.seq = 2;
  delta_pull.epoch = table_.epoch();  // up to date: empty delta
  resp = server->Handle(std::move(delta_pull));
  MembershipTable copy = table_;
  EXPECT_TRUE(copy.ApplyUpdate(resp.membership).ok());
  EXPECT_EQ(copy, table_);
}

TEST_F(ZhtServerUnitTest, MembershipPushAdvancesEpoch) {
  auto server = MakeServer(0);
  MembershipTable updated = table_;
  updated.SetOwner(3, 1);
  Request push;
  push.op = OpCode::kMembershipPush;
  push.seq = 1;
  push.value = updated.EncodeDelta(table_.epoch());
  push.server_origin = true;
  Response resp = server->Handle(std::move(push));
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(resp.epoch, updated.epoch());
  EXPECT_EQ(server->table().OwnerOf(3), 1u);
}

TEST_F(ZhtServerUnitTest, MigrationTrioMovesPairs) {
  auto source = MakeServer(0);
  auto target_slot = std::make_shared<AsyncRequestHandler>();
  NodeAddress target_address = network_.Register(
      [target_slot](Request&& req, ResponseCallback done) {
        (*target_slot)(std::move(req), std::move(done));
      });
  ZhtServerOptions target_options;
  target_options.self = 1;
  ZhtServer target(table_, target_options, transport_.get());
  *target_slot = target.AsyncHandler();

  std::string key = KeyOwnedBy(0);
  ASSERT_TRUE(source->Handle(DataRequest(OpCode::kInsert, key, "mv")).ok());
  PartitionId p = table_.PartitionOfKey(key);

  ASSERT_TRUE(source->MigratePartitionTo(p, target_address).ok());
  EXPECT_EQ(source->TotalEntries(), 0u);
  EXPECT_EQ(target.TotalEntries(), 1u);
  EXPECT_EQ(source->stats().migrations_out, 1u);
  EXPECT_EQ(target.stats().migrations_in, 1u);
}

TEST_F(ZhtServerUnitTest, SecondMigrationOfSamePartitionWhileActiveFails) {
  auto source = MakeServer(0);
  // Target that never answers: migration will hang on timeout — instead
  // use a down address so TransferBegin fails fast and the lock releases.
  NodeAddress dead = network_.Register([](Request&& req) {
    Response resp;
    resp.seq = req.seq;
    return resp;
  });
  network_.SetDown(dead, true);
  std::string key = KeyOwnedBy(0);
  source->Handle(DataRequest(OpCode::kInsert, key, "v"));
  PartitionId p = table_.PartitionOfKey(key);
  EXPECT_FALSE(source->MigratePartitionTo(p, dead).ok());
  // Lock released after failure: data still there and servable.
  Response resp = source->Handle(DataRequest(OpCode::kLookup, key));
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(resp.value, "v");
}

TEST_F(ZhtServerUnitTest, DuplicateAppendDroppedOnce) {
  auto server = MakeServer(0);
  std::string key = KeyOwnedBy(0);
  Request append = DataRequest(OpCode::kAppend, key, "x");
  append.client_id = 77;
  Request duplicate = append;  // identical (client_id, seq): a retransmit
  EXPECT_TRUE(server->Handle(std::move(append)).ok());
  EXPECT_TRUE(server->Handle(std::move(duplicate)).ok());
  Response resp = server->Handle(DataRequest(OpCode::kLookup, key));
  EXPECT_EQ(resp.value, "x");  // applied exactly once
  EXPECT_EQ(server->stats().duplicate_appends_dropped, 1u);
}

TEST_F(ZhtServerUnitTest, DistinctSeqAppendsBothApply) {
  auto server = MakeServer(0);
  std::string key = KeyOwnedBy(0);
  Request a = DataRequest(OpCode::kAppend, key, "x");
  a.client_id = 77;
  Request b = DataRequest(OpCode::kAppend, key, "y");  // new seq
  b.client_id = 77;
  server->Handle(std::move(a));
  server->Handle(std::move(b));
  EXPECT_EQ(server->Handle(DataRequest(OpCode::kLookup, key)).value, "xy");
}

TEST_F(ZhtServerUnitTest, AnonymousAppendsNeverDeduped) {
  auto server = MakeServer(0);
  std::string key = KeyOwnedBy(0);
  Request a = DataRequest(OpCode::kAppend, key, "x");
  a.client_id = 0;  // no identity: dedup impossible by design
  Request b = a;
  server->Handle(std::move(a));
  server->Handle(std::move(b));
  EXPECT_EQ(server->Handle(DataRequest(OpCode::kLookup, key)).value, "xx");
}

TEST_F(ZhtServerUnitTest, BroadcastAppliesLocally) {
  auto server = MakeServer(0);
  Request bcast;
  bcast.op = OpCode::kBroadcast;
  bcast.seq = 1;
  bcast.key = "bkey";
  bcast.value = "bval";
  Response resp = server->Handle(std::move(bcast));
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(server->stats().broadcasts, 1u);
  server->FlushAsyncReplication();
}

TEST_F(ZhtServerUnitTest, RemoveMissingKeyNotFound) {
  auto server = MakeServer(0);
  std::string key = KeyOwnedBy(0);
  Response resp = server->Handle(DataRequest(OpCode::kRemove, key));
  EXPECT_EQ(resp.status_as_object().code(), StatusCode::kNotFound);
}

// STATS answers with the versioned structured metrics encoding: the
// instance-level gauges plus one `server.*` name per event.
TEST_F(ZhtServerUnitTest, StatsReturnsDecodableStructuredMetrics) {
  auto server = MakeServer(0);
  std::string key = KeyOwnedBy(0);
  EXPECT_TRUE(server->Handle(DataRequest(OpCode::kInsert, key, "v")).ok());
  EXPECT_TRUE(server->Handle(DataRequest(OpCode::kLookup, key)).ok());

  Request stats_req;
  stats_req.op = OpCode::kStats;
  stats_req.seq = 99;
  Response resp = server->Handle(std::move(stats_req));
  ASSERT_TRUE(resp.ok());

  auto snapshot = DecodeMetricsSnapshot(resp.value);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->ValueOf("instance"), 0);
  EXPECT_EQ(snapshot->ValueOf("entries"), 1);
  EXPECT_GE(snapshot->ValueOf("server.ops"), 2);
  // Acceptance: at least one per-opcode latency histogram with samples.
  const MetricValue* insert_hist =
      snapshot->Find("server.op.insert.latency_ns");
  ASSERT_NE(insert_hist, nullptr);
  EXPECT_EQ(insert_hist->kind, MetricKind::kHistogram);
  EXPECT_EQ(insert_hist->histogram.count, 1u);
  const MetricValue* lookup_hist =
      snapshot->Find("server.op.lookup.latency_ns");
  ASSERT_NE(lookup_hist, nullptr);
  EXPECT_EQ(lookup_hist->histogram.count, 1u);
}

// Scripted ops → exact counter deltas, via two STATS snapshots.
TEST_F(ZhtServerUnitTest, StatsCountersTrackScriptedOps) {
  auto server = MakeServer(0);
  auto snapshot_now = [&] {
    Request req;
    req.op = OpCode::kStats;
    req.seq = ++seq_;
    Response resp = server->Handle(std::move(req));
    auto snapshot = DecodeMetricsSnapshot(resp.value);
    EXPECT_TRUE(snapshot.ok());
    return std::move(*snapshot);
  };

  MetricsSnapshot before = snapshot_now();
  std::string key = KeyOwnedBy(0);
  std::string other = KeyOwnedBy(1);  // not ours: redirected, not served
  EXPECT_TRUE(server->Handle(DataRequest(OpCode::kInsert, key, "v")).ok());
  EXPECT_TRUE(server->Handle(DataRequest(OpCode::kAppend, key, "w")).ok());
  EXPECT_TRUE(server->Handle(DataRequest(OpCode::kLookup, key)).ok());
  server->Handle(DataRequest(OpCode::kInsert, other, "x"));
  MetricsSnapshot after = snapshot_now();

  // `server.ops` counts store-applied operations only — the redirected
  // insert never reaches the store; the per-opcode histograms time every
  // handled request (what a client waits for), so the redirect IS in there.
  EXPECT_EQ(after.ValueOf("server.ops") - before.ValueOf("server.ops"), 3);
  EXPECT_EQ(after.ValueOf("server.redirects") -
                before.ValueOf("server.redirects"),
            1);
  auto hist_count = [](const MetricsSnapshot& snapshot, const char* name) {
    const MetricValue* entry = snapshot.Find(name);
    return entry == nullptr ? std::uint64_t{0} : entry->histogram.count;
  };
  EXPECT_EQ(hist_count(after, "server.op.insert.latency_ns") -
                hist_count(before, "server.op.insert.latency_ns"),
            2u);
  EXPECT_EQ(hist_count(after, "server.op.append.latency_ns") -
                hist_count(before, "server.op.append.latency_ns"),
            1u);
  EXPECT_EQ(hist_count(after, "server.op.lookup.latency_ns") -
                hist_count(before, "server.op.lookup.latency_ns"),
            1u);
}

// Replication fan-out lands in the histogram and sync/async counters; the
// rebuild, anti-entropy and migration counters reach STATS as well, and
// STATS names each event once, with the value stats() reports for it.
TEST_F(ZhtServerUnitTest, StatsReplicationMetrics) {
  // The chain members of instance 0's partitions, reachable over loopback.
  std::vector<std::unique_ptr<ZhtServer>> peers;
  for (InstanceId id : {1u, 2u}) {
    peers.push_back(MakeServer(id, /*replicas=*/2));
    network_.Register(addresses_[id], peers.back()->AsyncHandler());
  }
  auto server = MakeServer(0, /*replicas=*/2);
  std::string key = KeyOwnedBy(0);
  EXPECT_TRUE(server->Handle(DataRequest(OpCode::kInsert, key, "v")).ok());
  server->FlushAsyncReplication();

  MetricsSnapshot snapshot = server->MetricsSnapshotNow();
  const MetricValue* fanout = snapshot.Find("server.replication.fanout");
  ASSERT_NE(fanout, nullptr);
  EXPECT_EQ(fanout->histogram.count, 1u);
  EXPECT_EQ(fanout->histogram.sum, 2u);  // two replicas per chain write
  EXPECT_EQ(snapshot.ValueOf("server.replication.sync"), 1);
  EXPECT_EQ(snapshot.ValueOf("server.replication.async"), 1);

  // A repair of the in-sync chain only probes; after a stray write to the
  // secondary the next repair rebuilds it; then the partition migrates.
  const PartitionId p = table_.PartitionOfKey(key);
  ASSERT_TRUE(server->RepairPartition(p).ok());
  std::string stray;
  for (int i = 0; stray.empty(); ++i) {
    std::string candidate = "stray-" + std::to_string(i);
    if (table_.PartitionOfKey(candidate) == p) stray = candidate;
  }
  Request leg = DataRequest(OpCode::kInsert, stray, "x");
  leg.server_origin = true;
  leg.replica_index = 1;
  ASSERT_TRUE(peers[0]->Handle(std::move(leg)).ok());
  ASSERT_TRUE(server->RepairPartition(p).ok());
  ASSERT_TRUE(server->MigratePartitionTo(p, addresses_[1]).ok());
  server->FlushAsyncReplication();

  snapshot = server->MetricsSnapshotNow();
  std::set<std::string> names;
  for (const MetricValue& entry : snapshot.entries) {
    EXPECT_TRUE(names.insert(entry.name).second) << entry.name << " twice";
  }
  const ZhtServerStats stats = server->stats();
  EXPECT_EQ(stats.antientropy_probes, 4u);
  EXPECT_EQ(stats.antientropy_clean, 3u);
  EXPECT_EQ(stats.rebuilds_started, 1u);
  EXPECT_EQ(stats.rebuilds_completed, 1u);
  EXPECT_EQ(stats.rebuild_pairs_streamed, 1u);
  EXPECT_EQ(stats.migrations_out, 1u);
  EXPECT_EQ(stats.migration_pairs_streamed, 1u);
  const std::pair<const char*, std::uint64_t> fields[] = {
      {"server.ops", stats.ops},
      {"server.redirects", stats.redirects},
      {"server.replication.sync", stats.replications_sync},
      {"server.replication.async", stats.replications_async},
      {"server.migrations.out", stats.migrations_out},
      {"server.migrations.in", stats.migrations_in},
      {"server.migration.pairs_streamed", stats.migration_pairs_streamed},
      {"server.migration.bytes_streamed", stats.migration_bytes_streamed},
      {"server.broadcasts", stats.broadcasts},
      {"server.appends.duplicate_dropped", stats.duplicate_appends_dropped},
      {"server.antientropy.probes", stats.antientropy_probes},
      {"server.antientropy.clean", stats.antientropy_clean},
      {"server.rebuild.started", stats.rebuilds_started},
      {"server.rebuild.completed", stats.rebuilds_completed},
      {"server.rebuild.pairs_streamed", stats.rebuild_pairs_streamed},
      {"server.rebuild.retries", stats.rebuild_retries},
      {"server.cache.hit", stats.hot_cache_hits},
      {"server.cache.miss", stats.hot_cache_misses},
      {"server.cache.invalidate", stats.hot_cache_invalidations},
      {"server.cache.drop", stats.hot_cache_drops},
      {"server.admission.shed", stats.sheds},
  };
  for (const auto& [name, value] : fields) {
    ASSERT_NE(snapshot.Find(name), nullptr) << name;
    EXPECT_EQ(snapshot.ValueOf(name), static_cast<std::int64_t>(value))
        << name;
  }
  // Besides the instance-level gauges, every name carries its component.
  for (const MetricValue& entry : snapshot.entries) {
    if (entry.name == "instance" || entry.name == "epoch" ||
        entry.name == "partitions_held" || entry.name == "entries") {
      continue;
    }
    EXPECT_NE(entry.name.find('.'), std::string::npos) << entry.name;
  }
}

// ---- Partition transfer on persistent stores -----------------------------
//
// A NoVoHT log outlives its store object, so a store reopened at a used
// path replays whatever the log still holds. Neither end of a transfer may
// ever let that bring back pairs the transfer replaced or handed off.

namespace fs = std::filesystem;
using Pairs = std::vector<std::pair<std::string, std::string>>;

class PersistentTransferTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("zht_transfer_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    addresses_ = {NodeAddress{"10.0.0.1", 50000},
                  NodeAddress{"10.0.0.2", 50000},
                  NodeAddress{"10.0.0.3", 50000}};
    table_ = MembershipTable::CreateUniform(24, addresses_);
    transport_ = std::make_unique<LoopbackTransport>(&network_);
  }

  void TearDown() override {
    servers_.clear();
    fs::remove_all(dir_);
  }

  // A group-commit persistent server for `self`, reachable at its table
  // address over the loopback network.
  ZhtServer& Start(InstanceId self, int replicas = 0) {
    ZhtServerOptions options;
    options.self = self;
    options.cluster.num_replicas = replicas;
    options.cluster.durability = DurabilityMode::kGroupCommit;
    options.store_factory =
        MakeNoVoHTStoreFactory(dir_.string(), options.cluster);
    servers_.push_back(
        std::make_unique<ZhtServer>(table_, options, transport_.get()));
    network_.Register(addresses_[self], servers_.back()->AsyncHandler());
    return *servers_.back();
  }

  // `count` distinct keys of `partition`.
  std::vector<std::string> KeysIn(PartitionId partition, std::size_t count) {
    std::vector<std::string> keys;
    for (int i = 0; i < 100000 && keys.size() < count; ++i) {
      std::string key = "pk-" + std::to_string(i);
      if (table_.PartitionOfKey(key) == partition) keys.push_back(key);
    }
    EXPECT_EQ(keys.size(), count) << "partition " << partition;
    return keys;
  }

  Request Write(const std::string& key, const std::string& value,
                bool replica_leg) {
    Request request;
    request.op = OpCode::kInsert;
    request.seq = ++seq_;
    request.key = key;
    request.value = value;
    request.epoch = table_.epoch();
    request.server_origin = replica_leg;
    request.replica_index = replica_leg ? 1 : 0;
    return request;
  }

  static std::size_t OpenFds() {
    std::size_t count = 0;
    for ([[maybe_unused]] const auto& entry :
         fs::directory_iterator("/proc/self/fd")) {
      ++count;
    }
    return count;
  }

  fs::path dir_;
  std::vector<NodeAddress> addresses_;
  MembershipTable table_;
  LoopbackNetwork network_;
  std::unique_ptr<LoopbackTransport> transport_;
  std::vector<std::unique_ptr<ZhtServer>> servers_;
  std::uint64_t seq_ = 0;
};

TEST_F(PersistentTransferTest, SecondStreamReplacesTheFirstCopy) {
  ZhtServer& first = Start(0);
  ZhtServer& second = Start(2);
  ZhtServer& dest = Start(1);
  const PartitionId p = table_.PartitionsOf(0).front();
  const std::vector<std::string> keys = KeysIn(p, 2);
  ASSERT_TRUE(first.Handle(Write(keys[0], "a1", true)).ok());
  ASSERT_TRUE(first.Handle(Write(keys[1], "b1", true)).ok());
  ASSERT_TRUE(second.Handle(Write(keys[0], "a2", true)).ok());

  ASSERT_TRUE(first.MigratePartitionTo(p, addresses_[1]).ok());
  EXPECT_EQ(dest.PartitionPairs(p).size(), 2u);
  ASSERT_TRUE(second.MigratePartitionTo(p, addresses_[1]).ok());
  // Exactly the second stream: the first one's log must not replay.
  EXPECT_EQ(dest.PartitionPairs(p), (Pairs{{keys[0], "a2"}}));
  EXPECT_EQ(dest.stats().migrations_in, 2u);

  // The source learns the new owner, then takes a replica write for the
  // partition: reopening its store must not replay the handed-off pairs.
  MembershipTable moved = table_;
  moved.SetOwner(p, 1);
  Request push;
  push.op = OpCode::kMembershipPush;
  push.seq = ++seq_;
  push.value = moved.EncodeDelta(table_.epoch());
  push.server_origin = true;
  ASSERT_TRUE(first.Handle(std::move(push)).ok());
  ASSERT_TRUE(first.Handle(Write(keys[1], "b3", true)).ok());
  EXPECT_EQ(first.PartitionPairs(p), (Pairs{{keys[1], "b3"}}));
}

TEST_F(PersistentTransferTest, RepairsLeaveNoLandingStoreOpen) {
  ZhtServer& owner = Start(0, /*replicas=*/1);
  ZhtServer& replica = Start(1, /*replicas=*/1);  // 0's chain successor
  const std::vector<PartitionId> partitions = table_.PartitionsOf(0);
  ASSERT_GE(partitions.size(), 4u);
  // Seed every partition through the owner (its sync leg opens the
  // replica's store), then diverge the replica so each repair streams.
  for (PartitionId p : partitions) {
    const std::vector<std::string> keys = KeysIn(p, 2);
    ASSERT_TRUE(owner.Handle(Write(keys[0], "v", false)).ok());
    ASSERT_TRUE(replica.Handle(Write(keys[1], "stray", true)).ok());
  }
  const std::size_t fds_before = OpenFds();
  for (PartitionId p : partitions) {
    ASSERT_TRUE(owner.RepairPartition(p).ok());
    EXPECT_EQ(replica.PartitionPairs(p), owner.PartitionPairs(p));
  }
  EXPECT_EQ(owner.stats().rebuilds_completed, partitions.size());
  EXPECT_EQ(OpenFds(), fds_before);
}

// Servers whose partition stores share one instance log
// (MakeNoVoHTStoreFactory): restart, thread count and telemetry.
class InstanceLogServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("zht_instance_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    transport_ = std::make_unique<LoopbackTransport>(&network_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  // A single-instance group-commit server over `partitions` partitions.
  std::unique_ptr<ZhtServer> Start(PartitionId partitions,
                                   StoreFactory factory = nullptr) {
    table_ = MembershipTable::CreateUniform(
        partitions, {NodeAddress{"10.0.0.1", 50000}});
    ZhtServerOptions options;
    options.self = 0;
    options.cluster.durability = DurabilityMode::kGroupCommit;
    options.store_factory =
        factory ? std::move(factory)
                : MakeNoVoHTStoreFactory(dir_.string(), options.cluster);
    return std::make_unique<ZhtServer>(table_, options, transport_.get());
  }

  // One key per partition, found by brute force.
  std::vector<std::string> KeyPerPartition() const {
    std::vector<std::string> keys(table_.num_partitions());
    std::size_t found = 0;
    for (int i = 0; found < keys.size() && i < 1000000; ++i) {
      std::string key = "ik-" + std::to_string(i);
      std::string& slot = keys[table_.PartitionOfKey(key)];
      if (slot.empty()) {
        slot = std::move(key);
        ++found;
      }
    }
    EXPECT_EQ(found, keys.size());
    return keys;
  }

  Request Op(OpCode op, const std::string& key, const std::string& value) {
    Request request;
    request.op = op;
    request.seq = ++seq_;
    request.key = key;
    request.value = value;
    request.epoch = table_.epoch();
    return request;
  }

  static std::size_t Threads() {
    std::size_t count = 0;
    for ([[maybe_unused]] const auto& entry :
         fs::directory_iterator("/proc/self/task")) {
      ++count;
    }
    return count;
  }

  fs::path dir_;
  MembershipTable table_;
  LoopbackNetwork network_;
  std::unique_ptr<LoopbackTransport> transport_;
  std::uint64_t seq_ = 0;
};

TEST_F(InstanceLogServerTest, RestartRecoversIdenticalStateFromCheckpoints) {
  constexpr PartitionId kParts = 16;
  std::vector<std::vector<std::pair<std::string, std::string>>> before;
  {
    auto server = Start(kParts);
    for (int i = 0; i < 200; ++i) {
      const std::string key = "rk-" + std::to_string(i % 60);
      const OpCode op = i % 7 == 3   ? OpCode::kRemove
                        : i % 5 == 1 ? OpCode::kAppend
                                     : OpCode::kInsert;
      const Response resp = server->Handle(Op(op, key, std::to_string(i)));
      ASSERT_TRUE(resp.ok() ||
                  resp.status_as_object().code() == StatusCode::kNotFound);
    }
    for (PartitionId p = 0; p < kParts; ++p) {
      before.push_back(server->PartitionPairs(p));
    }
  }  // the server and its factory close: every partition checkpointed

  // Every checkpoint opens standalone and holds its partition's pairs.
  for (PartitionId p = 0; p < kParts; ++p) {
    if (before[p].empty()) continue;
    NoVoHTOptions standalone;
    standalone.path =
        (dir_ / ("i0_p" + std::to_string(p) + ".novoht")).string();
    auto store = NoVoHT::Open(standalone);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->Size(), before[p].size()) << "partition " << p;
    for (const auto& [key, value] : before[p]) {
      EXPECT_EQ((*store)->Get(key).value(), value);
    }
  }

  // Stores open lazily: a lookup of every key opens them all.
  auto reopened = Start(kParts);
  for (int i = 0; i < 60; ++i) {
    reopened->Handle(Op(OpCode::kLookup, "rk-" + std::to_string(i), ""));
  }
  for (PartitionId p = 0; p < kParts; ++p) {
    EXPECT_EQ(reopened->PartitionPairs(p), before[p]) << "partition " << p;
  }
}

TEST_F(InstanceLogServerTest, ThousandPartitionsAddConstantThreads) {
  auto server = Start(1024);
  const std::vector<std::string> keys = KeyPerPartition();
  const std::size_t threads_before = Threads();
  struct Pending {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t left = 0;
    std::size_t failed = 0;
  } pending;
  pending.left = keys.size();
  for (const std::string& key : keys) {
    server->HandleAsync(Op(OpCode::kInsert, key, "v"), [&](Response&& resp) {
      std::lock_guard<std::mutex> lock(pending.mu);
      if (!resp.ok()) ++pending.failed;
      if (--pending.left == 0) pending.cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(pending.mu);
    pending.cv.wait(lock, [&] { return pending.left == 0; });
  }
  EXPECT_EQ(pending.failed, 0u);
  EXPECT_EQ(server->TotalEntries(), keys.size());
  // One log and one flusher for all 1,024 partition stores.
  EXPECT_LE(Threads(), threads_before + 2);
}

TEST_F(InstanceLogServerTest, DurabilityTelemetryCountsTheLogOnce) {
  constexpr PartitionId kParts = 64;
  // Keeps the first store so the test can read the log's own figures.
  auto first = std::make_shared<KVStore*>(nullptr);
  ClusterOptions cluster;
  cluster.durability = DurabilityMode::kGroupCommit;
  StoreFactory inner = MakeNoVoHTStoreFactory(dir_.string(), cluster);
  StoreFactory spy = [inner, first](InstanceId self, PartitionId p) {
    std::unique_ptr<KVStore> store = inner(self, p);
    if (*first == nullptr) *first = store.get();
    return store;
  };
  auto server = Start(kParts, spy);
  const std::vector<std::string> keys = KeyPerPartition();
  for (int round = 0; round < 3; ++round) {
    for (const std::string& key : keys) {
      ASSERT_TRUE(server->Handle(Op(OpCode::kInsert, key, "v")).ok());
    }
  }
  const MetricsSnapshot snapshot = server->MetricsSnapshotNow();
  ASSERT_NE(*first, nullptr);
  StoreDurabilityMetrics log;
  ASSERT_TRUE((*first)->durability_metrics(&log));
  EXPECT_GT(log.group_commits, 0u);
  EXPECT_EQ(snapshot.ValueOf("novoht.group_commits"),
            static_cast<std::int64_t>(log.group_commits));
  EXPECT_EQ(snapshot.Find("novoht.group_commit.fsync_micros")->histogram.count,
            log.fsync_micros.count);
}

// A peer that never answers: every call waits out its timeout.
class BlackholeTransport : public ClientTransport {
 public:
  Result<Response> Call(const NodeAddress&, const Request&,
                        Nanos timeout) override {
    calls.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::nanoseconds(timeout));
    return Status(StatusCode::kTimeout, "blackhole");
  }
  std::atomic<int> calls{0};
};

TEST(TransferStreamTest, FailedBeginCancelsTheRestOfTheStream) {
  const std::vector<NodeAddress> addresses = {NodeAddress{"10.0.0.1", 50000},
                                              NodeAddress{"10.0.0.2", 50000}};
  const MembershipTable table = MembershipTable::CreateUniform(8, addresses);
  BlackholeTransport blackhole;
  ZhtServerOptions options;
  options.self = 0;
  // Long enough that snapshotting the partition (slow under sanitizers)
  // stays small beside it.
  options.cluster.peer_timeout = 300 * kNanosPerMilli;
  ZhtServer server(table, options, &blackhole);
  const PartitionId p = table.PartitionsOf(0).front();
  // About 2 MiB of pairs: eight or more Data carriers of 256 KiB.
  const std::string value(64 * 1024, 'x');
  int stored = 0;
  for (int i = 0; stored < 36 && i < 100000; ++i) {
    const std::string key = "big-" + std::to_string(i);
    if (table.PartitionOfKey(key) != p) continue;
    Request request;
    request.op = OpCode::kInsert;
    request.seq = static_cast<std::uint64_t>(i) + 1;
    request.key = key;
    request.value = value;
    request.epoch = table.epoch();
    ASSERT_TRUE(server.Handle(std::move(request)).ok());
    ++stored;
  }
  ASSERT_EQ(stored, 36);

  const auto start = std::chrono::steady_clock::now();
  const Status status = server.MigratePartitionTo(p, addresses[1]);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(status.ok());
  // Begin's timeout, not one per leg (Begin + 9 Data + End).
  EXPECT_EQ(blackhole.calls.load(), 1);
  EXPECT_LT(elapsed, std::chrono::milliseconds(900));
  // The partition stays with its owner, whole.
  EXPECT_EQ(server.PartitionPairs(p).size(), 36u);
}

}  // namespace
}  // namespace zht
