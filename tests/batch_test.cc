// Tests of the batched request path: the BATCH envelope, transport
// CallBatch implementations (loopback delivery, TCP chunked pipelining,
// UDP MTU fragmenting), server-side unit application (migration locks and
// redirects per sub-op, append dedup across retransmitted carriers), and
// the client Multi* API end-to-end. BatchServerTest and
// BatchReplicationTest carry the ctest label `ack`.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <set>
#include <thread>

#include "common/rng.h"
#include "core/local_cluster.h"
#include "core/zht_server.h"
#include "net/fault_injection.h"
#include "net/loopback.h"
#include "net/tcp_client.h"
#include "net/udp_client.h"
#include "serialize/batch.h"

namespace zht {
namespace {

Request DataOp(OpCode op, const std::string& key, const std::string& value,
               std::uint64_t seq) {
  Request request;
  request.op = op;
  request.seq = seq;
  request.key = key;
  request.value = value;
  request.client_id = 7;
  return request;
}

TEST(BatchEnvelopeTest, EmptyBatchRoundTrips) {
  BatchRequest empty;
  auto decoded = BatchRequest::Decode(empty.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->ops.empty());

  LoopbackNetwork network;
  LoopbackTransport transport(&network);
  auto responses = transport.CallBatch(NodeAddress{"loop", 1}, {}, kNanosPerSec);
  ASSERT_TRUE(responses.ok());
  EXPECT_TRUE(responses->empty());
}

TEST(BatchEnvelopeTest, ChunkBatchStaysUnderBudget) {
  std::vector<Request> ops;
  for (int i = 0; i < 100; ++i) {
    ops.push_back(DataOp(OpCode::kInsert, "key-" + std::to_string(i),
                         std::string(50, 'v'), static_cast<std::uint64_t>(i)));
  }
  auto chunks = ChunkBatch(ops, 256);
  EXPECT_GT(chunks.size(), 1u);
  std::size_t total = 0;
  for (const auto& chunk : chunks) {
    ASSERT_FALSE(chunk.empty());
    total += chunk.size();
  }
  EXPECT_EQ(total, ops.size());

  // A budget smaller than any single op still makes progress: one per chunk.
  auto tiny = ChunkBatch(ops, 1);
  EXPECT_EQ(tiny.size(), ops.size());
}

TEST(BatchClientTest, MultiOpsRoundTripAndAmortizeMessages) {
  LocalClusterOptions options;
  options.num_instances = 4;
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->CreateClient();

  std::vector<KeyValue> pairs;
  std::vector<std::string> keys;
  Rng rng(17);
  for (int i = 0; i < 64; ++i) {
    std::string key = rng.AsciiString(15);
    pairs.push_back(KeyValue{key, "value-" + std::to_string(i)});
    keys.push_back(key);
  }

  auto inserted = client->MultiInsert(pairs);
  ASSERT_EQ(inserted.size(), pairs.size());
  for (const Status& status : inserted) EXPECT_TRUE(status.ok());

  // 64 lookups sharded over 4 instances must travel as a handful of BATCH
  // messages, not 64 round-trips.
  std::uint64_t before = (*cluster)->network().delivered();
  auto values = client->MultiLookup(keys);
  std::uint64_t delta = (*cluster)->network().delivered() - before;
  EXPECT_LE(delta, 8u);

  ASSERT_EQ(values.size(), keys.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_TRUE(values[i].ok()) << values[i].status().ToString();
    EXPECT_EQ(*values[i], pairs[i].value);
  }

  auto removed = client->MultiRemove(keys);
  for (const Status& status : removed) EXPECT_TRUE(status.ok());
  auto gone = client->MultiLookup(keys);
  for (const auto& value : gone) {
    EXPECT_EQ(value.status().code(), StatusCode::kNotFound);
  }

  // Empty inputs: no network traffic, empty outputs.
  EXPECT_TRUE(client->MultiInsert({}).empty());
  EXPECT_TRUE(client->MultiLookup({}).empty());
  EXPECT_TRUE(client->MultiRemove({}).empty());
}

TEST(BatchClientTest, BatchSpanningMovedPartitionsFollowsRedirects) {
  LocalClusterOptions options;
  options.num_instances = 3;
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->CreateClient();

  std::vector<KeyValue> pairs;
  std::vector<std::string> keys;
  Rng rng(23);
  for (int i = 0; i < 48; ++i) {
    std::string key = rng.AsciiString(12);
    pairs.push_back(KeyValue{key, std::to_string(i)});
    keys.push_back(key);
  }
  for (const Status& status : client->MultiInsert(pairs)) {
    ASSERT_TRUE(status.ok());
  }

  // A join moves partitions; the client's table is now stale, so some
  // sub-ops land on the old owner and REDIRECT inside the batch.
  ASSERT_TRUE((*cluster)->JoinNewInstance().ok());
  auto values = client->MultiLookup(keys);
  ASSERT_EQ(values.size(), keys.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_TRUE(values[i].ok()) << values[i].status().ToString();
    EXPECT_EQ(*values[i], pairs[i].value);
  }
  EXPECT_GT(client->stats().redirects_followed, 0u);
  // The redirect was consumed inside the call: the client's table caught up.
  EXPECT_EQ(client->table().epoch(), (*cluster)->TableSnapshot().epoch());
}

TEST(BatchServerTest, MigratingPartitionRejectsOnlyItsSubOps) {
  // One server, one remote peer whose TransferBegin handler blocks: the
  // partition stays locked while we drive a BATCH at the source.
  LoopbackNetwork network;
  std::promise<void> locked;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  bool signalled = false;
  NodeAddress peer = network.Register(
      [&](Request&& request) -> Response {
        Response resp;
        resp.seq = request.seq;
        if (request.op == OpCode::kTransferBegin && !signalled) {
          signalled = true;
          locked.set_value();
          release_future.wait();
        }
        return resp;
      });

  std::vector<NodeAddress> addresses = {NodeAddress{"10.0.0.1", 50000}, peer};
  MembershipTable table = MembershipTable::CreateUniform(8, addresses);
  LoopbackTransport transport(&network);
  ZhtServerOptions options;
  options.self = 0;
  ZhtServer server(table, options, &transport);

  // Two keys owned by instance 0 in different partitions.
  std::string migrating_key, steady_key;
  PartitionId migrating_partition = 0;
  for (int i = 0; i < 10000 && (migrating_key.empty() || steady_key.empty());
       ++i) {
    std::string key = "key-" + std::to_string(i);
    PartitionId partition = table.PartitionOfKey(key);
    if (table.OwnerOf(partition) != 0) continue;
    if (migrating_key.empty()) {
      migrating_key = key;
      migrating_partition = partition;
    } else if (partition != migrating_partition) {
      steady_key = key;
    }
  }
  ASSERT_FALSE(migrating_key.empty());
  ASSERT_FALSE(steady_key.empty());

  std::thread migrator(
      [&] { server.MigratePartitionTo(migrating_partition, peer); });
  locked.get_future().wait();

  std::vector<Request> ops = {DataOp(OpCode::kInsert, migrating_key, "a", 1),
                              DataOp(OpCode::kInsert, steady_key, "b", 2)};
  Response carrier = server.Handle(PackBatchRequest(ops, 1));
  auto subs = UnpackBatchResponse(carrier, ops.size());
  ASSERT_TRUE(subs.ok());
  EXPECT_EQ((*subs)[0].status, Status(StatusCode::kMigrating).raw());
  EXPECT_EQ((*subs)[1].status, Status::Ok().raw());

  release.set_value();
  migrator.join();
}

TEST(BatchServerTest, RetransmittedBatchAppendsApplyOnce) {
  LoopbackNetwork network;
  std::vector<NodeAddress> addresses = {NodeAddress{"10.0.0.1", 50000}};
  MembershipTable table = MembershipTable::CreateUniform(8, addresses);
  LoopbackTransport transport(&network);
  ZhtServerOptions options;
  options.self = 0;
  ZhtServer server(table, options, &transport);

  std::vector<Request> ops = {DataOp(OpCode::kAppend, "log", "first;", 11),
                              DataOp(OpCode::kAppend, "log", "second;", 12)};
  Request carrier = PackBatchRequest(ops, 1);
  Request retransmit = carrier;  // same carrier bytes, as a UDP retry sends

  auto first = UnpackBatchResponse(server.Handle(std::move(carrier)), 2);
  ASSERT_TRUE(first.ok());
  auto second = UnpackBatchResponse(server.Handle(std::move(retransmit)), 2);
  ASSERT_TRUE(second.ok());
  for (const Response& sub : *second) EXPECT_TRUE(sub.ok());

  Request lookup = DataOp(OpCode::kLookup, "log", "", 13);
  Response value = server.Handle(std::move(lookup));
  EXPECT_EQ(value.value, "first;second;");
  EXPECT_EQ(server.stats().duplicate_appends_dropped, 2u);
}

TEST(BatchServerTest, NonDataSubOpsRejectedIndividually) {
  LoopbackNetwork network;
  std::vector<NodeAddress> addresses = {NodeAddress{"10.0.0.1", 50000}};
  MembershipTable table = MembershipTable::CreateUniform(8, addresses);
  LoopbackTransport transport(&network);
  ZhtServerOptions options;
  options.self = 0;
  ZhtServer server(table, options, &transport);

  std::vector<Request> inner = {DataOp(OpCode::kInsert, "k", "v", 21)};
  std::vector<Request> ops = {DataOp(OpCode::kInsert, "ok-key", "v", 22),
                              PackBatchRequest(inner, 23)};  // nested batch
  auto subs = UnpackBatchResponse(server.Handle(PackBatchRequest(ops, 2)), 2);
  ASSERT_TRUE(subs.ok());
  EXPECT_TRUE((*subs)[0].ok());
  EXPECT_EQ((*subs)[1].status, Status(StatusCode::kInvalidArgument).raw());
}

TEST(BatchTransportTest, TcpPipelinesChunksUnderTinyFrameBudget) {
  LocalClusterOptions options;
  options.num_instances = 2;
  options.transport = ClusterTransport::kTcp;
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok());

  // A 64-byte budget forces a many-frame pipeline for 32 ops.
  TcpClientOptions tcp;
  tcp.max_batch_bytes = 64;
  TcpClient transport(tcp);
  ZhtClientOptions client_options;
  ZhtClient client((*cluster)->TableSnapshot(), client_options, &transport);

  std::vector<KeyValue> pairs;
  std::vector<std::string> keys;
  for (int i = 0; i < 32; ++i) {
    pairs.push_back(KeyValue{"tcp-key-" + std::to_string(i),
                             "tcp-value-" + std::to_string(i)});
    keys.push_back(pairs.back().key);
  }
  for (const Status& status : client.MultiInsert(pairs)) {
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  auto values = client.MultiLookup(keys);
  ASSERT_EQ(values.size(), keys.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_TRUE(values[i].ok()) << values[i].status().ToString();
    EXPECT_EQ(*values[i], pairs[i].value);
  }
}

TEST(BatchTransportTest, UdpFragmentsBatchesUnderMtu) {
  LocalClusterOptions options;
  options.num_instances = 2;
  options.transport = ClusterTransport::kUdp;
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok());

  UdpClientOptions udp;
  udp.max_datagram_bytes = 200;  // forces fragmenting for 32 ops
  UdpClient transport(udp);
  ZhtClientOptions client_options;
  ZhtClient client((*cluster)->TableSnapshot(), client_options, &transport);

  std::vector<KeyValue> pairs;
  std::vector<std::string> keys;
  for (int i = 0; i < 32; ++i) {
    pairs.push_back(KeyValue{"udp-key-" + std::to_string(i),
                             "udp-value-" + std::to_string(i)});
    keys.push_back(pairs.back().key);
  }
  for (const Status& status : client.MultiInsert(pairs)) {
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  auto values = client.MultiLookup(keys);
  ASSERT_EQ(values.size(), keys.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_TRUE(values[i].ok()) << values[i].status().ToString();
    EXPECT_EQ(*values[i], pairs[i].value);
  }
}

TEST(BatchReplicationTest, BatchedInsertsReachAllReplicas) {
  LocalClusterOptions options;
  options.num_instances = 4;
  options.cluster.num_replicas = 2;
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->CreateClient();

  std::vector<KeyValue> pairs;
  Rng rng(31);
  for (int i = 0; i < 40; ++i) {
    pairs.push_back(KeyValue{rng.AsciiString(14), rng.AsciiString(40)});
  }
  for (const Status& status : client->MultiInsert(pairs)) {
    ASSERT_TRUE(status.ok());
  }
  (*cluster)->FlushAllAsyncReplication();

  // Every pair must exist on primary + 2 replicas.
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < (*cluster)->instance_count(); ++i) {
    total += (*cluster)->server(i)->TotalEntries();
  }
  EXPECT_EQ(total, pairs.size() * 3);
}

// A carrier whose sub-ops land in every shard group of the primary still
// replicates as one sync carrier to its replica, not one per group.
TEST(BatchReplicationTest, ShardSpanningCarrierSendsOneLegCarrier) {
  LoopbackNetwork network;
  const std::vector<NodeAddress> addresses = {NodeAddress{"10.0.0.1", 50000},
                                              NodeAddress{"10.0.0.2", 50000}};
  const MembershipTable table = MembershipTable::CreateUniform(16, addresses);
  LoopbackTransport transport(&network);
  ZhtServerOptions options;
  options.cluster.num_replicas = 1;
  options.num_shards = 4;
  options.self = 1;
  ZhtServer replica(table, options, &transport);
  std::atomic<int> leg_carriers{0};
  network.Register(addresses[1],
                   [&leg_carriers, handler = replica.AsyncHandler()](
                       Request&& request, ResponseCallback done) {
                     if (request.op == OpCode::kBatch) ++leg_carriers;
                     handler(std::move(request), std::move(done));
                   });
  options.self = 0;
  ZhtServer primary(table, options, &transport);

  // One key per shard of instance 0 (partition p runs on shard p % 4).
  std::vector<Request> ops;
  std::set<std::size_t> shards;
  for (int i = 0; shards.size() < options.num_shards && i < 100000; ++i) {
    const std::string key = "span-" + std::to_string(i);
    const PartitionId p = table.PartitionOfKey(key);
    if (table.OwnerOf(p) != 0 || !shards.insert(p % 4).second) continue;
    ops.push_back(DataOp(OpCode::kInsert, key, "v", ops.size() + 1));
  }
  ASSERT_EQ(ops.size(), options.num_shards);

  auto subs = UnpackBatchResponse(
      primary.Handle(PackBatchRequest(ops, 1)), ops.size());
  ASSERT_TRUE(subs.ok());
  for (const Response& sub : *subs) EXPECT_TRUE(sub.ok());
  EXPECT_EQ(leg_carriers.load(), 1);
  EXPECT_EQ(replica.TotalEntries(), ops.size());
  EXPECT_EQ(primary.stats().replications_sync, ops.size());
}

// ---- Batches under injected faults -------------------------------------

// A single-instance server exposed on a loopback network, reached through
// a FaultInjectingTransport — the minimal rig for carrier-level faults.
class BatchFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    address_ = NodeAddress{"10.0.0.1", 50000};
    table_ = MembershipTable::CreateUniform(8, {address_});
    peer_transport_ = std::make_unique<LoopbackTransport>(&network_);
    ZhtServerOptions options;
    options.self = 0;
    server_ = std::make_unique<ZhtServer>(table_, options,
                                          peer_transport_.get());
    network_.Register(address_, server_->AsyncHandler());
    plan_ = std::make_shared<FaultPlan>(/*seed=*/9);
    faulty_ = std::make_unique<FaultInjectingTransport>(
        std::make_unique<LoopbackTransport>(&network_), plan_);
  }

  std::string Ledger() {
    Request lookup = DataOp(OpCode::kLookup, "log", "", 99);
    auto response = faulty_->Call(address_, lookup, kNanosPerSec);
    return response.ok() ? response->value : "<" + response.status().ToString() + ">";
  }

  LoopbackNetwork network_;
  NodeAddress address_;
  MembershipTable table_{8, HashKind::kFnv1a};
  std::unique_ptr<LoopbackTransport> peer_transport_;
  std::unique_ptr<ZhtServer> server_;
  std::shared_ptr<FaultPlan> plan_;
  std::unique_ptr<FaultInjectingTransport> faulty_;
};

TEST_F(BatchFaultTest, DuplicatedBatchCarrierAppliesAppendsOnce) {
  // A duplicated UDP carrier delivers every sub-op twice; the dedup window
  // must absorb the second application of each append.
  plan_->AddRule({.kind = FaultKind::kDuplicate, .op = OpCode::kBatch});
  std::vector<Request> ops = {DataOp(OpCode::kAppend, "log", "first;", 11),
                              DataOp(OpCode::kAppend, "log", "second;", 12)};
  auto responses = faulty_->CallBatch(address_, ops, kNanosPerSec);
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  for (const Response& sub : *responses) EXPECT_TRUE(sub.ok());
  plan_->Clear();
  EXPECT_EQ(Ledger(), "first;second;");
  EXPECT_EQ(server_->stats().duplicate_appends_dropped, 2u);
}

TEST_F(BatchFaultTest, BatchRetryAfterDroppedResponseDoesNotDoubleApply) {
  // The whole batch applied but its ack was lost; the client-level retry
  // resends the identical carrier and every sub-op must dedup.
  plan_->AddRule({.kind = FaultKind::kDropResponse,
                  .op = OpCode::kBatch,
                  .max_faults = 1});
  std::vector<Request> ops = {DataOp(OpCode::kAppend, "log", "first;", 21),
                              DataOp(OpCode::kAppend, "log", "second;", 22)};
  auto lost = faulty_->CallBatch(address_, ops, kNanosPerSec);
  EXPECT_EQ(lost.status().code(), StatusCode::kTimeout);
  auto retry = faulty_->CallBatch(address_, ops, kNanosPerSec);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  for (const Response& sub : *retry) EXPECT_TRUE(sub.ok());
  EXPECT_EQ(Ledger(), "first;second;");
  EXPECT_EQ(server_->stats().duplicate_appends_dropped, 2u);
}

TEST(BatchClientFaultTest, PartialBatchDropRetriesOnlyTheLostShard) {
  // A multi-shard MultiInsert where exactly one shard's carrier is lost:
  // the other shards land on their first attempt and the lost one succeeds
  // on the client's internal retry.
  LocalClusterOptions options;
  options.num_instances = 4;
  options.fault_plan = std::make_shared<FaultPlan>(/*seed=*/4);
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok());
  ZhtClientOptions client_options;
  client_options.failure_detector.failures_to_mark_dead = 20;
  client_options.failure_detector.initial_backoff = 0;
  client_options.sleep_on_backoff = false;
  auto client = (*cluster)->CreateClient(client_options);

  options.fault_plan->AddRule({.kind = FaultKind::kDropRequest,
                               .to = (*cluster)->instance_address(2),
                               .op = OpCode::kBatch,
                               .max_faults = 1});
  std::vector<KeyValue> pairs;
  std::vector<std::string> keys;
  Rng rng(23);
  for (int i = 0; i < 64; ++i) {
    std::string key = rng.AsciiString(14);
    pairs.push_back(KeyValue{key, "value-" + std::to_string(i)});
    keys.push_back(key);
  }
  for (const Status& status : client->MultiInsert(pairs)) {
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  EXPECT_EQ(options.fault_plan->stats().dropped_requests, 1u);
  EXPECT_GT(client->stats().retries, 0u);

  auto values = client->MultiLookup(keys);
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_TRUE(values[i].ok());
    EXPECT_EQ(*values[i], pairs[i].value);
  }
}

}  // namespace
}  // namespace zht
