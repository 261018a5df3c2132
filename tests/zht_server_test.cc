// Unit tests of ZhtServer::Handle — the protocol state machine exercised
// directly, without a cluster harness: ownership checks and REDIRECT
// payloads, epoch piggybacking, MIGRATING responses, replica traffic,
// membership pull/push, the partition transfer, and the append dedup
// window. PersistentTransferTest runs the transfer on persistent stores,
// InstanceLogServerTest runs servers on the shared instance log and
// TransferStreamTest cancels a stream whose Begin failed and checks that
// no leg of a write a stream carries lands after that stream (ctest label
// `recovery`). ReplicatedAckTest covers the ack of a replicated write: a
// failed sync leg is counted, and the leg runs beside the group commit.
// DataOpParityTest checks that a single-key request and the same op alone
// in a BATCH get the same answer (a redirect, a migrating partition, a
// missing key, a duplicate append, a failover write, a cache hit, a shed,
// a replicated write and a failed sync), and DurableDedupTest that a
// retransmitted append is not acked before the original is durable.
// ReplicatedAckTest, DurableDedupTest and DataOpParityTest carry the ctest
// label `ack`.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <mutex>
#include <set>
#include <thread>

#include "core/local_cluster.h"
#include "core/zht_server.h"
#include "net/fault_injection.h"
#include "net/loopback.h"
#include "novoht/novoht.h"
#include "serialize/batch.h"
#include "serialize/metrics_codec.h"
#include "shard_stall.h"

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

// A partition-addressed message naming a partition past the table is
// malformed: it is refused, and no record or landing store is made for it.
TEST_F(ZhtServerUnitTest, PartitionPastTheTableIsRefused) {
  auto server = MakeServer(0);
  for (OpCode op : {OpCode::kMigrateOut, OpCode::kRepair, OpCode::kDigest,
                    OpCode::kTransferBegin, OpCode::kTransferData,
                    OpCode::kTransferEnd}) {
    Request request;
    request.op = op;
    request.seq = ++seq_;
    request.partition = table_.num_partitions();
    request.server_origin = true;
    if (op == OpCode::kMigrateOut) request.value = addresses_[1].ToString();
    Response resp = server->Handle(std::move(request));
    EXPECT_EQ(resp.status, Status(StatusCode::kInvalidArgument).raw())
        << OpCodeName(op);
  }
  std::string key = KeyOwnedBy(0);
  EXPECT_TRUE(server->Handle(DataRequest(OpCode::kInsert, key, "v")).ok());
  EXPECT_EQ(server->Handle(DataRequest(OpCode::kLookup, key)).value, "v");
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

// ---- One data-op path --------------------------------------------------
//
// A single-key request and the same op as the only sub-op of a BATCH run
// through the same in-shard step, so they must get the same answer and
// leave the same effects.

class DataOpParityTest;

struct DataOpCase {
  const char* name;
  Response (*run)(DataOpParityTest&, bool);

  // Prints the case by name, so the listed test name holds no address and
  // stays the same from one build or run to the next.
  friend void PrintTo(const DataOpCase& c, std::ostream* os) { *os << c.name; }
};

class DataOpParityTest : public ZhtServerUnitTest,
                         public ::testing::WithParamInterface<DataOpCase> {
 public:
  using Pairs = std::vector<std::pair<std::string, std::string>>;

  // Sends `request` to `server` as a plain request, or alone in a BATCH.
  static Response Send(ZhtServer& server, Request request, bool batched) {
    if (!batched) return server.Handle(std::move(request));
    Request carrier = PackBatchRequest({&request, 1}, request.seq);
    auto subs = UnpackBatchResponse(server.Handle(std::move(carrier)), 1);
    EXPECT_TRUE(subs.ok()) << subs.status().ToString();
    return subs.ok() ? std::move(subs->front()) : Response{};
  }

  // Each case builds its servers from scratch, sends one request and
  // checks its effects.
  static Response RedirectWithDelta(DataOpParityTest& t, bool batched) {
    auto server = t.MakeServer(0);
    Request request = t.DataRequest(OpCode::kInsert, t.KeyOwnedBy(1), "v");
    request.epoch = 0;  // a stale client: the redirect carries a delta
    Response resp = Send(*server, std::move(request), batched);
    EXPECT_EQ(resp.status_as_object().code(), StatusCode::kRedirect);
    EXPECT_FALSE(resp.membership.empty());
    return resp;
  }

  static Response Migrating(DataOpParityTest& t, bool batched) {
    auto server = t.MakeServer(0);
    const std::string key = t.KeyOwnedBy(0);
    Request begin;
    begin.op = OpCode::kTransferBegin;
    begin.seq = 1000;
    begin.partition = t.table_.PartitionOfKey(key);
    begin.server_origin = true;
    EXPECT_TRUE(server->Handle(std::move(begin)).ok());
    Response resp =
        Send(*server, t.DataRequest(OpCode::kInsert, key, "v"), batched);
    EXPECT_EQ(resp.status_as_object().code(), StatusCode::kMigrating);
    return resp;
  }

  static Response RemoveMissing(DataOpParityTest& t, bool batched) {
    auto server = t.MakeServer(0);
    Response resp = Send(
        *server, t.DataRequest(OpCode::kRemove, t.KeyOwnedBy(0)), batched);
    EXPECT_EQ(resp.status_as_object().code(), StatusCode::kNotFound);
    return resp;
  }

  static Response DuplicateAppend(DataOpParityTest& t, bool batched) {
    auto server = t.MakeServer(0);
    const std::string key = t.KeyOwnedBy(0);
    Request append = t.DataRequest(OpCode::kAppend, key, "x");
    append.client_id = 77;
    EXPECT_TRUE(server->Handle(Request(append)).ok());
    Response resp = Send(*server, std::move(append), batched);
    EXPECT_EQ(server->Handle(t.DataRequest(OpCode::kLookup, key)).value, "x");
    EXPECT_EQ(server->stats().duplicate_appends_dropped, 1u);
    return resp;
  }

  static Response FailoverWriteAtSecondary(DataOpParityTest& t, bool batched) {
    // Instance 1 is the secondary of instance 0's partitions. The client
    // skipped instance 0, which is in fact alive: the write must reach it.
    auto owner = t.MakeServer(0, /*replicas=*/1);
    auto secondary = t.MakeServer(1, /*replicas=*/1);
    t.network_.Register(t.addresses_[0], owner->AsyncHandler());
    t.network_.Register(t.addresses_[1], secondary->AsyncHandler());
    const std::string key = t.KeyOwnedBy(0);
    Request write = t.DataRequest(OpCode::kInsert, key, "fv");
    write.replica_index = 1;
    Response resp = Send(*secondary, std::move(write), batched);
    EXPECT_TRUE(resp.ok());
    const Pairs expected = {{key, "fv"}};
    EXPECT_EQ(owner->PartitionPairs(t.table_.PartitionOfKey(key)), expected);
    EXPECT_EQ(secondary->stats().replications_sync, 1u);
    t.network_.Unregister(t.addresses_[0]);
    t.network_.Unregister(t.addresses_[1]);
    return resp;
  }

  // Instance 0 of the fixture's table, built with `options`.
  std::unique_ptr<ZhtServer> MakeServerWith(ZhtServerOptions options) {
    options.self = 0;
    return std::make_unique<ZhtServer>(table_, options, transport_.get());
  }

  static Response CacheHit(DataOpParityTest& t, bool batched) {
    ZhtServerOptions options;
    options.cluster.hot_cache_entries = 64;
    auto server = t.MakeServerWith(options);
    const std::string key = t.KeyOwnedBy(0);
    EXPECT_TRUE(server->Handle(t.DataRequest(OpCode::kInsert, key, "v")).ok());
    EXPECT_TRUE(server->Handle(t.DataRequest(OpCode::kLookup, key)).ok());
    Response resp = Send(*server, t.DataRequest(OpCode::kLookup, key), batched);
    EXPECT_EQ(resp.value, "v");
    EXPECT_EQ(server->stats().hot_cache_hits, 1u);
    return resp;
  }

  static Response Shed(DataOpParityTest& t, bool batched) {
    // The shard's drain is held and one op waits behind it: with a budget
    // of one slot, the next op is over budget.
    ShardStall stall;
    ZhtServerOptions options;
    options.num_shards = 1;
    options.cluster.shed_queue_budget = 1;
    options.store_factory = stall.Factory();
    auto server = t.MakeServerWith(options);
    stall.Hold(*server, 0);
    const std::string key = t.KeyOwnedBy(0);
    server->HandleAsync(t.DataRequest(OpCode::kInsert, key, "queued"),
                        [](Response&&) {});
    Response resp =
        Send(*server, t.DataRequest(OpCode::kInsert, key, "v"), batched);
    EXPECT_EQ(resp.status_as_object().code(), StatusCode::kUnavailable);
    EXPECT_EQ(resp.retry_after_us, 1000u);
    EXPECT_EQ(server->stats().sheds, 1u);
    stall.Release();
    return resp;
  }

  static Response ReplicatedWrite(DataOpParityTest& t, bool batched) {
    auto owner = t.MakeServer(0, /*replicas=*/1);
    auto secondary = t.MakeServer(1, /*replicas=*/1);
    t.network_.Register(t.addresses_[0], owner->AsyncHandler());
    t.network_.Register(t.addresses_[1], secondary->AsyncHandler());
    const std::string key = t.KeyOwnedBy(0);
    Response resp =
        Send(*owner, t.DataRequest(OpCode::kInsert, key, "rv"), batched);
    EXPECT_TRUE(resp.ok());
    const Pairs expected = {{key, "rv"}};
    EXPECT_EQ(secondary->PartitionPairs(t.table_.PartitionOfKey(key)),
              expected);
    EXPECT_EQ(owner->stats().replications_sync, 1u);
    t.network_.Unregister(t.addresses_[0]);
    t.network_.Unregister(t.addresses_[1]);
    return resp;
  }

  static Response FailedSync(DataOpParityTest& t, bool batched) {
    // A group-commit store whose fsyncs fail once armed: the write applied
    // but never became durable, so it is not acked.
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        ("zht_failed_sync_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    auto fail = std::make_shared<std::atomic<bool>>(false);
    ZhtServerOptions options;
    options.cluster.durability = DurabilityMode::kGroupCommit;
    options.store_factory = [dir, fail](InstanceId self, PartitionId p)
        -> std::unique_ptr<KVStore> {
      NoVoHTOptions store;
      store.path = (dir / ("i" + std::to_string(self) + "_p" +
                           std::to_string(p)))
                       .string();
      store.durability = DurabilityMode::kGroupCommit;
      store.wait_for_durable = false;
      store.fsync_hook = [fail](int fd) {
        return fail->load() ? -1 : ::fdatasync(fd);
      };
      auto opened = NoVoHT::Open(store);
      return opened.ok() ? std::move(*opened) : nullptr;
    };
    Response resp;
    {
      auto server = t.MakeServerWith(options);
      const std::string key = t.KeyOwnedBy(0);
      // Opens the store before its fsyncs fail.
      EXPECT_TRUE(
          server->Handle(t.DataRequest(OpCode::kInsert, key, "warm")).ok());
      fail->store(true);
      resp = Send(*server, t.DataRequest(OpCode::kInsert, key, "v"), batched);
      EXPECT_EQ(resp.status_as_object().code(), StatusCode::kInternal);
    }
    std::filesystem::remove_all(dir);
    return resp;
  }
};

TEST_P(DataOpParityTest, SingleKeyEqualsOneOpBatch) {
  auto fields = [](const Response& r) {
    return std::make_tuple(r.status, r.seq, r.epoch, r.value, r.membership,
                           r.redirect_host, r.redirect_port,
                           r.retry_after_us);
  };
  seq_ = 0;
  const Response single = GetParam().run(*this, /*batched=*/false);
  seq_ = 0;
  const Response batched = GetParam().run(*this, /*batched=*/true);
  EXPECT_EQ(fields(single), fields(batched));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DataOpParityTest,
    ::testing::Values(
        DataOpCase{"RedirectWithDelta", &DataOpParityTest::RedirectWithDelta},
        DataOpCase{"Migrating", &DataOpParityTest::Migrating},
        DataOpCase{"RemoveMissing", &DataOpParityTest::RemoveMissing},
        DataOpCase{"DuplicateAppend", &DataOpParityTest::DuplicateAppend},
        DataOpCase{"FailoverWriteAtSecondary",
                   &DataOpParityTest::FailoverWriteAtSecondary},
        DataOpCase{"CacheHit", &DataOpParityTest::CacheHit},
        DataOpCase{"Shed", &DataOpParityTest::Shed},
        DataOpCase{"ReplicatedWrite", &DataOpParityTest::ReplicatedWrite},
        DataOpCase{"FailedSync", &DataOpParityTest::FailedSync}),
    [](const auto& info) { return std::string(info.param.name); });

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
      {"server.replication.sync_failed", stats.replications_sync_failed},
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

// ---- Ack of a replicated write -------------------------------------------

// Two instances, one replica: instance 0 is the primary of the partitions it
// owns and instance 1 their sync secondary.
LocalClusterOptions TwoInstancesOneReplica() {
  LocalClusterOptions options;
  options.num_instances = 2;
  options.num_partitions = 16;
  options.cluster.num_replicas = 1;
  return options;
}

// `count` keys of one partition that instance 0 owns.
std::vector<std::string> KeysOfOnePrimaryPartition(const MembershipTable& table,
                                                   std::size_t count) {
  std::vector<std::string> keys;
  PartitionId partition = 0;
  for (int i = 0; keys.size() < count && i < 100000; ++i) {
    std::string key = "ack-" + std::to_string(i);
    const PartitionId p = table.PartitionOfKey(key);
    if (table.OwnerOf(p) != 0 || (!keys.empty() && p != partition)) continue;
    partition = p;
    keys.push_back(std::move(key));
  }
  EXPECT_EQ(keys.size(), count);
  return keys;
}

TEST(ReplicatedAckTest, FailedSyncLegsAreCountedAndTheOpStillAcks) {
  LocalClusterOptions options = TwoInstancesOneReplica();
  options.fault_plan = std::make_shared<FaultPlan>(17);
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  const MembershipTable table = (*cluster)->TableSnapshot();
  const std::vector<std::string> keys = KeysOfOnePrimaryPartition(table, 4);
  const PartitionId p = table.PartitionOfKey(keys[0]);
  ZhtServer& primary = *(*cluster)->server(0);
  ZhtServer& replica = *(*cluster)->server(1);
  auto client = (*cluster)->CreateClient();

  // The single-key leg to the replica is lost: the op acks with the
  // primary's copy, and the lost leg is counted.
  const int single = options.fault_plan->AddRule(
      {.kind = FaultKind::kDropRequest,
       .to = (*cluster)->instance_address(1),
       .op = OpCode::kInsert,
       .max_faults = 1});
  ASSERT_TRUE(client->Insert(keys[0], "v0").ok());
  options.fault_plan->RemoveRule(single);
  EXPECT_EQ(primary.stats().replications_sync_failed, 1u);
  EXPECT_TRUE(replica.PartitionPairs(p).empty());

  // A batch's sync leg is one carrier per target: losing it counts each of
  // its ops. The keys share a partition, so they form one shard group.
  const int batch = options.fault_plan->AddRule(
      {.kind = FaultKind::kDropRequest,
       .to = (*cluster)->instance_address(1),
       .op = OpCode::kBatch,
       .max_faults = 1});
  const std::vector<KeyValue> pairs = {
      {keys[1], "v1"}, {keys[2], "v2"}, {keys[3], "v3"}};
  for (const Status& status : client->MultiInsert(pairs)) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  options.fault_plan->RemoveRule(batch);
  EXPECT_EQ(primary.stats().replications_sync_failed, 4u);
  EXPECT_EQ(primary.MetricsSnapshotNow().ValueOf(
                "server.replication.sync_failed"),
            4);
  EXPECT_TRUE(replica.PartitionPairs(p).empty());

  // Legs that land are not failures.
  ASSERT_TRUE(client->Insert(keys[0], "v4").ok());
  EXPECT_EQ(primary.stats().replications_sync_failed, 4u);
  EXPECT_EQ(replica.PartitionPairs(p).size(), 1u);
}

// The primary's group commit must not hold back its sync leg: its fsync
// waits until the replica holds the write and only then syncs. If the leg
// started only after that fsync, the wait would run out.
TEST(ReplicatedAckTest, SyncLegOverlapsTheLocalGroupCommit) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("zht_overlap_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  struct Gate {
    std::atomic<bool> armed{false};
    std::atomic<int> held{0};        // fsyncs that waited for the replica
    std::atomic<bool> timed_out{false};
    PartitionId partition = 0;
    std::function<bool()> replica_holds;  // set before arming
  };
  auto gate = std::make_shared<Gate>();

  LocalClusterOptions options = TwoInstancesOneReplica();
  options.cluster.durability = DurabilityMode::kGroupCommit;
  // Longer than the gate's bound, so the bound alone decides the outcome.
  options.cluster.op_timeout = 5 * kNanosPerSec;
  options.store_factory = [dir, gate](InstanceId self, PartitionId p)
      -> std::unique_ptr<KVStore> {
    NoVoHTOptions store;
    store.path = (dir / ("i" + std::to_string(self) + "_p" +
                         std::to_string(p)))
                     .string();
    store.durability = DurabilityMode::kGroupCommit;
    store.wait_for_durable = false;
    if (self == 0) {
      store.fsync_hook = [gate, p](int fd) {
        // `partition` and `replica_holds` are written before `armed`.
        if (gate->armed.load() && p == gate->partition &&
            gate->armed.exchange(false)) {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(2);
          while (!gate->replica_holds()) {
            if (std::chrono::steady_clock::now() > deadline) {
              gate->timed_out = true;
              break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          gate->held.fetch_add(1);
        }
        return ::fdatasync(fd);
      };
    }
    auto opened = NoVoHT::Open(store);
    return opened.ok() ? std::move(*opened) : nullptr;
  };
  {
    auto cluster = LocalCluster::Start(options);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    const std::string key =
        KeysOfOnePrimaryPartition((*cluster)->TableSnapshot(), 1)[0];
    const PartitionId p = (*cluster)->TableSnapshot().PartitionOfKey(key);
    ZhtServer* replica = (*cluster)->server(1);
    auto client = (*cluster)->CreateClient();
    // Opens both stores before the gate is armed.
    ASSERT_TRUE(client->Insert(key, "warm").ok());

    gate->partition = p;
    gate->replica_holds = [replica, p, key] {
      for (const auto& [k, v] : replica->PartitionPairs(p)) {
        if (k == key) return v == "overlapped";
      }
      return false;
    };
    gate->armed = true;
    const Status inserted = client->Insert(key, "overlapped");
    EXPECT_TRUE(inserted.ok()) << inserted.ToString();
    EXPECT_EQ(gate->held.load(), 1);
    EXPECT_FALSE(gate->timed_out.load())
        << "the sync leg did not start until the primary's fsync returned";
    EXPECT_EQ(*client->Lookup(key), "overlapped");
  }
  fs::remove_all(dir);
}

// A retransmitted append must not be acked before the original is
// durable: the first fsync is held, the retransmit arrives meanwhile, and
// then that fsync fails. Acking the retransmit at once would answer OK for
// an append a crash then loses.
TEST(DurableDedupTest, RetransmittedAppendWaitsForTheOriginalsFsync) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("zht_dedup_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool armed = false;
    bool entered = false;
    bool released = false;
  };
  auto gate = std::make_shared<Gate>();

  ZhtServerOptions options;
  options.cluster.durability = DurabilityMode::kGroupCommit;
  options.num_shards = 1;
  options.store_factory = [dir, gate](InstanceId self, PartitionId p)
      -> std::unique_ptr<KVStore> {
    NoVoHTOptions store;
    store.path = (dir / ("i" + std::to_string(self) + "_p" +
                         std::to_string(p)))
                     .string();
    store.durability = DurabilityMode::kGroupCommit;
    store.wait_for_durable = false;
    store.fsync_hook = [gate](int fd) {
      std::unique_lock<std::mutex> lock(gate->mu);
      if (!gate->armed) return ::fdatasync(fd);
      gate->armed = false;
      gate->entered = true;
      gate->cv.notify_all();
      gate->cv.wait(lock, [&] { return gate->released; });
      return -1;  // the held fsync fails
    };
    auto opened = NoVoHT::Open(store);
    return opened.ok() ? std::move(*opened) : nullptr;
  };
  {
    LoopbackNetwork network;
    LoopbackTransport transport(&network);
    ZhtServer server(MembershipTable::CreateUniform(
                         8, {NodeAddress{"10.0.0.1", 50000}}),
                     options, &transport);
    Request append;
    append.op = OpCode::kAppend;
    append.seq = 5;
    append.key = "k";
    append.value = "x";
    append.client_id = 77;
    // Opens the store before the gate is armed.
    Request warm = append;
    warm.seq = 4;
    ASSERT_TRUE(server.Handle(std::move(warm)).ok());

    {
      std::lock_guard<std::mutex> lock(gate->mu);
      gate->armed = true;
    }
    std::promise<Response> first;
    std::promise<Response> second;
    server.HandleAsync(Request(append), [&first](Response&& resp) {
      first.set_value(std::move(resp));
    });
    {
      std::unique_lock<std::mutex> lock(gate->mu);
      ASSERT_TRUE(gate->cv.wait_for(lock, std::chrono::seconds(5),
                                    [&] { return gate->entered; }));
    }
    server.HandleAsync(Request(append), [&second](Response&& resp) {
      second.set_value(std::move(resp));
    });
    {
      std::lock_guard<std::mutex> lock(gate->mu);
      gate->released = true;
    }
    gate->cv.notify_all();
    const Response original = first.get_future().get();
    const Response retransmit = second.get_future().get();
    EXPECT_FALSE(original.ok());
    EXPECT_FALSE(retransmit.ok())
        << "the retransmit was acked before the original was durable";
    EXPECT_EQ(server.stats().duplicate_appends_dropped, 1u);
  }
  fs::remove_all(dir);
}

// ---- Transfer ordering ----------------------------------------------------
//
// A partition streamed to a member of its own replica chain must not be
// followed by a leg of a write the stream already carried: the target
// would apply that write twice. Appends show it ("ab" becomes "abb").

// A key of `partition`, named from `prefix`.
std::string KeyIn(const MembershipTable& table, PartitionId partition,
                  const std::string& prefix) {
  for (int i = 0; i < 100000; ++i) {
    std::string key = prefix + std::to_string(i);
    if (table.PartitionOfKey(key) == partition) return key;
  }
  ADD_FAILURE() << "no key found for partition " << partition;
  return "";
}

std::string ValueAt(ZhtServer& server, PartitionId partition,
                    const std::string& key) {
  for (const auto& [k, v] : server.PartitionPairs(partition)) {
    if (k == key) return v;
  }
  return "<missing>";
}

Request ClientOp(OpCode op, const std::string& key, const std::string& value,
                 std::uint64_t seq, std::uint32_t epoch) {
  Request request;
  request.op = op;
  request.seq = seq;
  request.key = key;
  request.value = value;
  request.epoch = epoch;
  request.client_id = 91;
  return request;
}

// Two servers on one loopback network, instance 0 the primary and
// instance 1 the secondary of instance 0's partitions, each with two
// shards. Instance 0's peer calls go through a FaultPlan.
struct TwoServerChain {
  explicit TwoServerChain(StoreFactory factory = nullptr) {
    for (InstanceId self : {0u, 1u}) {
      ZhtServerOptions options;
      options.self = self;
      options.num_shards = 2;
      options.cluster.num_replicas = 1;
      options.cluster.peer_timeout = 2 * kNanosPerSec;
      options.store_factory = factory;
      servers.push_back(std::make_unique<ZhtServer>(
          table, options,
          self == 0 ? static_cast<ClientTransport*>(&faulty) : &plain));
      network.Register(addresses[self], servers.back()->AsyncHandler());
    }
  }
  ~TwoServerChain() {
    for (const NodeAddress& address : addresses) network.Unregister(address);
  }

  const std::vector<NodeAddress> addresses = {NodeAddress{"10.0.0.1", 50000},
                                              NodeAddress{"10.0.0.2", 50000}};
  const MembershipTable table = MembershipTable::CreateUniform(16, addresses);
  LoopbackNetwork network;
  LoopbackTransport plain{&network};
  std::shared_ptr<FaultPlan> plan = std::make_shared<FaultPlan>(19);
  FaultInjectingTransport faulty{std::make_unique<LoopbackTransport>(&network),
                                 plan};
  std::vector<std::unique_ptr<ZhtServer>> servers;
};

// A sync leg still on its way when its partition is streamed to the leg's
// own target must land before the stream's Begin, not after its End.
TEST(TransferStreamTest, SyncLegInFlightLandsBeforeTheStreamToItsTarget) {
  LocalClusterOptions options = TwoInstancesOneReplica();
  options.cluster.op_timeout = 2 * kNanosPerSec;
  options.fault_plan = std::make_shared<FaultPlan>(19);
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  const MembershipTable table = (*cluster)->TableSnapshot();
  const std::string key = KeysOfOnePrimaryPartition(table, 1)[0];
  const PartitionId p = table.PartitionOfKey(key);
  ZhtServer& primary = *(*cluster)->server(0);
  auto client = (*cluster)->CreateClient();
  ASSERT_TRUE(client->Insert(key, "a").ok());

  options.fault_plan->AddRule({.kind = FaultKind::kDelay,
                               .to = (*cluster)->instance_address(1),
                               .op = OpCode::kAppend,
                               .delay = 300 * kNanosPerMilli});
  std::thread appender([&] { EXPECT_TRUE(client->Append(key, "b").ok()); });
  // The primary has applied the append; its leg is still delayed.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (ValueAt(primary, p, key) != "ab" &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(ValueAt(primary, p, key), "ab");
  EXPECT_TRUE(
      primary.MigratePartitionTo(p, (*cluster)->instance_address(1)).ok());
  appender.join();
  options.fault_plan->Clear();
  primary.FlushAsyncReplication();
  EXPECT_EQ(ValueAt(*(*cluster)->server(1), p, key), "ab");
}

// The same for a BATCH carrier whose other shard group applies only after
// the snapshot: the carrier's legs leave once every group has applied, and
// the stream's Begin must wait for them.
TEST(TransferStreamTest, BatchLegsHeldByAStalledShardLandBeforeTheStream) {
  ShardStall stall;
  TwoServerChain chain(stall.Factory());
  ZhtServer& primary = *chain.servers[0];
  const PartitionId p = chain.table.PartitionsOf(0).front();
  PartitionId other = p;
  for (PartitionId q : chain.table.PartitionsOf(0)) {
    if (q % 2 != p % 2) other = q;
  }
  ASSERT_NE(other % 2, p % 2);
  const std::string key = KeyIn(chain.table, p, "bp-");
  const std::uint32_t epoch = chain.table.epoch();
  ASSERT_TRUE(
      primary.Handle(ClientOp(OpCode::kInsert, key, "a", 1, epoch)).ok());

  stall.Hold(primary, other % 2);
  const std::vector<Request> ops = {
      ClientOp(OpCode::kAppend, key, "b", 2, epoch),
      ClientOp(OpCode::kInsert, KeyIn(chain.table, other, "bo-"), "x", 3,
               epoch)};
  Request carrier = PackBatchRequest(ops, 4, /*server_origin=*/false);
  carrier.epoch = epoch;
  std::promise<Response> acked;
  primary.HandleAsync(std::move(carrier), [&acked](Response&& resp) {
    acked.set_value(std::move(resp));
  });
  EXPECT_EQ(ValueAt(primary, p, key), "ab");  // p's group has applied

  std::promise<Status> migrated;
  std::thread migrator([&] {
    migrated.set_value(primary.MigratePartitionTo(p, chain.addresses[1]));
  });
  std::future<Status> migration = migrated.get_future();
  // The migration waits for the carrier (it cannot finish first), or
  // streams ahead of the carrier's legs.
  migration.wait_for(std::chrono::milliseconds(300));
  stall.Release();
  migrator.join();
  EXPECT_TRUE(migration.get().ok());
  EXPECT_TRUE(acked.get_future().get().ok());
  primary.FlushAsyncReplication();
  EXPECT_EQ(ValueAt(*chain.servers[1], p, key), "ab");
}

// A write applied while a rebuild probes its target diverts its leg onto
// the lane behind the stream. The snapshot already holds that write, so
// the leg must leave ahead of Begin, not after End, even when every
// thread that used to send legs is busy.
TEST(TransferStreamTest, DivertedLegOfASnapshottedWriteLandsBeforeTheStream) {
  TwoServerChain chain;
  ZhtServer& primary = *chain.servers[0];
  const std::vector<PartitionId> owned = chain.table.PartitionsOf(0);
  const PartitionId p = owned[0];
  const std::string key = KeyIn(chain.table, p, "dp-");
  const std::uint32_t epoch = chain.table.epoch();
  std::uint64_t seq = 0;
  ASSERT_TRUE(
      primary.Handle(ClientOp(OpCode::kInsert, key, "a", ++seq, epoch)).ok());
  // A pair only the primary holds, so the probe finds the secondary stale.
  Request stray = ClientOp(OpCode::kInsert, KeyIn(chain.table, p, "ds-"),
                           "x", ++seq, epoch);
  stray.server_origin = true;
  stray.replica_index = 1;
  ASSERT_TRUE(primary.Handle(std::move(stray)).ok());

  chain.plan->AddRule({.kind = FaultKind::kDelay,
                       .to = chain.addresses[1],
                       .op = OpCode::kDigest,
                       .delay = 300 * kNanosPerMilli});
  chain.plan->AddRule({.kind = FaultKind::kDelay,
                       .to = chain.addresses[1],
                       .op = OpCode::kInsert,
                       .delay = 600 * kNanosPerMilli});
  std::promise<Status> rebuilt;
  primary.StartRebuild(p, [&rebuilt](Status status) {
    rebuilt.set_value(std::move(status));
  });
  // Sync legs to other partitions hold the other threads.
  std::vector<std::promise<Response>> inserts(2);
  for (std::size_t i = 0; i < inserts.size(); ++i) {
    const PartitionId q = owned[1 + i];
    primary.HandleAsync(
        ClientOp(OpCode::kInsert, KeyIn(chain.table, q, "dq-"), "y", ++seq,
                 epoch),
        [&inserts, i](Response&& resp) { inserts[i].set_value(resp); });
  }
  EXPECT_TRUE(
      primary.Handle(ClientOp(OpCode::kAppend, key, "b", ++seq, epoch)).ok());
  EXPECT_TRUE(rebuilt.get_future().get().ok());
  for (auto& insert : inserts) EXPECT_TRUE(insert.get_future().get().ok());
  chain.plan->Clear();
  primary.FlushAsyncReplication();
  EXPECT_EQ(ValueAt(*chain.servers[1], p, key), "ab");
  EXPECT_EQ(chain.servers[1]->PartitionPairs(p).size(), 2u);
}

}  // namespace
}  // namespace zht
