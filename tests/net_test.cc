#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>

#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "net/epoll_server.h"
#include "net/fault_injection.h"
#include "net/framing.h"
#include "net/loopback.h"
#include "net/tcp_client.h"
#include "net/threaded_server.h"
#include "net/udp_client.h"

namespace zht {
namespace {

constexpr Nanos kTestTimeout = 2 * kNanosPerSec;

Response EchoHandler(Request&& request) {
  Response resp;
  resp.seq = request.seq;
  resp.value = request.key + "|" + request.value;
  return resp;
}

TEST(FramingTest, RoundTrip) {
  std::string buffer = FrameMessage("hello");
  bool malformed = false;
  auto payload = ExtractFrame(buffer, &malformed);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "hello");
  EXPECT_TRUE(buffer.empty());
  EXPECT_FALSE(malformed);
}

TEST(FramingTest, PartialFrameWaits) {
  std::string full = FrameMessage("payload");
  std::string buffer = full.substr(0, 6);
  bool malformed = false;
  EXPECT_FALSE(ExtractFrame(buffer, &malformed).has_value());
  EXPECT_FALSE(malformed);
  buffer += full.substr(6);
  auto payload = ExtractFrame(buffer, &malformed);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "payload");
}

TEST(FramingTest, MultipleFramesInOneBuffer) {
  std::string buffer = FrameMessage("a") + FrameMessage("bb");
  bool malformed = false;
  EXPECT_EQ(*ExtractFrame(buffer, &malformed), "a");
  EXPECT_EQ(*ExtractFrame(buffer, &malformed), "bb");
  EXPECT_FALSE(ExtractFrame(buffer, &malformed).has_value());
}

TEST(FramingTest, OversizedFrameMalformed) {
  std::string buffer = "\xff\xff\xff\xff payload";
  bool malformed = false;
  EXPECT_FALSE(ExtractFrame(buffer, &malformed).has_value());
  EXPECT_TRUE(malformed);
}

TEST(FramingTest, EmptyPayloadFrame) {
  std::string buffer = FrameMessage("");
  bool malformed = false;
  auto payload = ExtractFrame(buffer, &malformed);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "");
}

// ---- Loopback --------------------------------------------------------

TEST(LoopbackTest, DeliversToHandler) {
  LoopbackNetwork network;
  NodeAddress address = network.Register(EchoHandler);
  LoopbackTransport transport(&network);
  Request request;
  request.op = OpCode::kLookup;
  request.seq = 5;
  request.key = "k";
  request.value = "v";
  auto response = transport.Call(address, request, kTestTimeout);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->seq, 5u);
  EXPECT_EQ(response->value, "k|v");
  EXPECT_EQ(network.delivered(), 1u);
}

TEST(LoopbackTest, UnknownAddressFails) {
  LoopbackNetwork network;
  LoopbackTransport transport(&network);
  Request request;
  request.op = OpCode::kPing;
  auto response =
      transport.Call(NodeAddress{"loop", 999}, request, kTestTimeout);
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kNetwork);
}

TEST(LoopbackTest, DownNodeTimesOut) {
  LoopbackNetwork network;
  NodeAddress address = network.Register(EchoHandler);
  network.SetDown(address, true);
  LoopbackTransport transport(&network);
  Request request;
  request.op = OpCode::kPing;
  auto response = transport.Call(address, request, kTestTimeout);
  EXPECT_EQ(response.status().code(), StatusCode::kTimeout);
  network.SetDown(address, false);
  EXPECT_TRUE(transport.Call(address, request, kTestTimeout).ok());
}

TEST(LoopbackTest, UnregisterRemoves) {
  LoopbackNetwork network;
  NodeAddress address = network.Register(EchoHandler);
  network.Unregister(address);
  LoopbackTransport transport(&network);
  Request request;
  request.op = OpCode::kPing;
  EXPECT_EQ(transport.Call(address, request, kTestTimeout).status().code(),
            StatusCode::kNetwork);
}

// ---- Fault injection ---------------------------------------------------

// A handler that counts deliveries: the proof that a "dropped response"
// still mutated server-side state while a "dropped request" never arrived.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    plan_ = std::make_shared<FaultPlan>(/*seed=*/42);
    address_ = network_.Register([this](Request&& request) {
      delivered_.fetch_add(1, std::memory_order_relaxed);
      return EchoHandler(std::move(request));
    });
    transport_ = std::make_unique<FaultInjectingTransport>(
        std::make_unique<LoopbackTransport>(&network_), plan_);
  }

  Result<Response> Ping(OpCode op = OpCode::kPing) {
    Request request;
    request.op = op;
    request.key = "k";
    return transport_->Call(address_, request, kTestTimeout);
  }

  LoopbackNetwork network_;
  std::shared_ptr<FaultPlan> plan_;
  NodeAddress address_;
  std::unique_ptr<FaultInjectingTransport> transport_;
  std::atomic<std::uint64_t> delivered_{0};
};

TEST_F(FaultInjectionTest, DropRequestNeverReachesHandler) {
  plan_->AddRule({.kind = FaultKind::kDropRequest});
  EXPECT_EQ(Ping().status().code(), StatusCode::kTimeout);
  EXPECT_EQ(delivered_.load(), 0u);
  plan_->Clear();
  EXPECT_TRUE(Ping().ok());
  EXPECT_EQ(plan_->stats().dropped_requests, 1u);
}

TEST_F(FaultInjectionTest, DropResponseStillAppliesServerState) {
  plan_->AddRule({.kind = FaultKind::kDropResponse});
  EXPECT_EQ(Ping().status().code(), StatusCode::kTimeout);
  // The handler ran: the op applied even though the caller saw a timeout.
  EXPECT_EQ(delivered_.load(), 1u);
  EXPECT_EQ(plan_->stats().dropped_responses, 1u);
}

TEST_F(FaultInjectionTest, DuplicateDeliversTwice) {
  plan_->AddRule({.kind = FaultKind::kDuplicate});
  auto response = Ping();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->value, "k|");
  EXPECT_EQ(delivered_.load(), 2u);
  EXPECT_EQ(plan_->stats().duplicates, 1u);
}

TEST_F(FaultInjectionTest, DelayPausesDelivery) {
  plan_->AddRule({.kind = FaultKind::kDelay, .delay = 20 * kNanosPerMilli});
  auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(Ping().ok());
  auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_GE(elapsed, 20 * kNanosPerMilli);
  EXPECT_EQ(delivered_.load(), 1u);
  EXPECT_EQ(plan_->stats().delays, 1u);
}

TEST_F(FaultInjectionTest, WindowSkipsFirstAndCapsFaults) {
  // Let one call through, then drop exactly one, then stand down.
  plan_->AddRule({.kind = FaultKind::kDropRequest,
                  .skip_first = 1,
                  .max_faults = 1});
  EXPECT_TRUE(Ping().ok());
  EXPECT_EQ(Ping().status().code(), StatusCode::kTimeout);
  EXPECT_TRUE(Ping().ok());
  EXPECT_TRUE(Ping().ok());
  EXPECT_EQ(plan_->stats().dropped_requests, 1u);
}

TEST_F(FaultInjectionTest, FiltersMatchDestinationAndOpcode) {
  NodeAddress other = network_.Register(EchoHandler);
  plan_->AddRule({.kind = FaultKind::kDropRequest,
                  .to = address_,
                  .op = OpCode::kInsert});
  EXPECT_EQ(Ping(OpCode::kInsert).status().code(), StatusCode::kTimeout);
  EXPECT_TRUE(Ping(OpCode::kLookup).ok());  // wrong opcode
  Request request;
  request.op = OpCode::kInsert;
  EXPECT_TRUE(transport_->Call(other, request, kTestTimeout).ok());
}

TEST_F(FaultInjectionTest, RemoveRuleStopsInjection) {
  int id = plan_->AddRule({.kind = FaultKind::kDropRequest});
  EXPECT_FALSE(Ping().ok());
  plan_->RemoveRule(id);
  EXPECT_TRUE(Ping().ok());
}

TEST_F(FaultInjectionTest, PartitionBlocksBothDirectionsButNotClients) {
  NodeAddress peer = network_.Register(EchoHandler);
  FaultInjectingTransport from_self(
      std::make_unique<LoopbackTransport>(&network_), plan_, address_);
  FaultInjectingTransport from_peer(
      std::make_unique<LoopbackTransport>(&network_), plan_, peer);
  int id = plan_->AddPartition({address_}, {peer});

  Request request;
  request.op = OpCode::kPing;
  EXPECT_EQ(from_self.Call(peer, request, kTestTimeout).status().code(),
            StatusCode::kTimeout);
  EXPECT_EQ(from_peer.Call(address_, request, kTestTimeout).status().code(),
            StatusCode::kTimeout);
  // A transport with no identity (a client outside both groups) is unaffected.
  EXPECT_TRUE(transport_->Call(peer, request, kTestTimeout).ok());
  EXPECT_EQ(plan_->stats().partition_blocks, 2u);

  plan_->RemovePartition(id);
  EXPECT_TRUE(from_self.Call(peer, request, kTestTimeout).ok());
}

TEST_F(FaultInjectionTest, ProbabilisticRulesReplayFromSeed) {
  // The same seed must reproduce the same drop pattern call-for-call; a
  // different seed is allowed (and overwhelmingly likely) to differ.
  auto pattern = [this](std::uint64_t seed) {
    auto plan = std::make_shared<FaultPlan>(seed);
    plan->AddRule({.kind = FaultKind::kDropRequest, .probability = 0.5});
    FaultInjectingTransport transport(
        std::make_unique<LoopbackTransport>(&network_), plan);
    std::string bits;
    Request request;
    request.op = OpCode::kPing;
    for (int i = 0; i < 64; ++i) {
      bits += transport.Call(address_, request, kTestTimeout).ok() ? '1' : '0';
    }
    return bits;
  };
  std::string first = pattern(7);
  EXPECT_EQ(first, pattern(7));
  EXPECT_NE(first, std::string(64, '0'));
  EXPECT_NE(first, std::string(64, '1'));
}

TEST_F(FaultInjectionTest, BatchSuffersOneDecision) {
  plan_->AddRule({.kind = FaultKind::kDropResponse, .op = OpCode::kBatch});
  std::vector<Request> requests(3);
  for (auto& r : requests) r.op = OpCode::kLookup;
  auto responses = transport_->CallBatch(address_, requests, kTestTimeout);
  EXPECT_EQ(responses.status().code(), StatusCode::kTimeout);
  // The batch crossed the wire as one carrier, delivered before the reply
  // was discarded — so the peer applied it even though the caller timed out.
  EXPECT_EQ(delivered_.load(), 1u);
}

TEST_F(FaultInjectionTest, OneRequestBatchMatchesItsOwnOpcode) {
  // A one-request batch crosses the wire as the plain request, so a rule
  // keyed on that request's opcode applies to it.
  plan_->AddRule({.kind = FaultKind::kDropResponse, .op = OpCode::kAppend});
  std::vector<Request> requests(1);
  requests[0].op = OpCode::kAppend;
  requests[0].key = "k";
  auto responses = transport_->CallBatch(address_, requests, kTestTimeout);
  EXPECT_EQ(responses.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(delivered_.load(), 1u);
  EXPECT_EQ(plan_->stats().dropped_responses, 1u);
}

// ---- Real sockets -----------------------------------------------------

class EpollServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto server = EpollServer::Create(EpollServerOptions{}, EchoHandler);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
    ASSERT_TRUE(server_->Start().ok());
  }

  std::unique_ptr<EpollServer> server_;
};

TEST_F(EpollServerTest, TcpRequestResponse) {
  TcpClient client;
  Request request;
  request.op = OpCode::kInsert;
  request.seq = 11;
  request.key = "alpha";
  request.value = "beta";
  auto response = client.Call(server_->address(), request, kTestTimeout);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->seq, 11u);
  EXPECT_EQ(response->value, "alpha|beta");
  EXPECT_EQ(server_->requests_served(), 1u);
}

TEST_F(EpollServerTest, ConnectionCacheReusesSocket) {
  TcpClient client;
  Request request;
  request.op = OpCode::kPing;
  for (int i = 0; i < 10; ++i) {
    request.seq = static_cast<std::uint64_t>(i + 1);
    ASSERT_TRUE(client.Call(server_->address(), request, kTestTimeout).ok());
  }
  EXPECT_EQ(client.connects(), 1u);
  EXPECT_EQ(client.cache_hits(), 9u);
  EXPECT_EQ(server_->connections_accepted(), 1u);
}

TEST_F(EpollServerTest, NoCacheConnectsEveryCall) {
  TcpClient client(TcpClientOptions{.cache_connections = false});
  Request request;
  request.op = OpCode::kPing;
  for (int i = 0; i < 5; ++i) {
    request.seq = static_cast<std::uint64_t>(i + 1);
    ASSERT_TRUE(client.Call(server_->address(), request, kTestTimeout).ok());
  }
  EXPECT_EQ(client.connects(), 5u);
  EXPECT_EQ(client.cache_hits(), 0u);
  EXPECT_EQ(client.evictions(), 0u);
}

// LRU pressure: a 2-socket cache cycling over 3 peers evicts on every call
// after warm-up and never hits; bumping the capacity to 3 stops evictions.
TEST_F(EpollServerTest, CacheEvictionCounterUnderLruPressure) {
  std::vector<std::unique_ptr<EpollServer>> peers;
  std::vector<NodeAddress> addresses{server_->address()};
  for (int i = 0; i < 2; ++i) {
    auto peer = EpollServer::Create(EpollServerOptions{}, EchoHandler);
    ASSERT_TRUE(peer.ok());
    ASSERT_TRUE((*peer)->Start().ok());
    addresses.push_back((*peer)->address());
    peers.push_back(std::move(*peer));
  }

  TcpClient client(TcpClientOptions{.cache_capacity = 2});
  Request request;
  request.op = OpCode::kPing;
  constexpr int kRounds = 4;
  for (int i = 0; i < kRounds * 3; ++i) {
    request.seq = static_cast<std::uint64_t>(i + 1);
    ASSERT_TRUE(
        client.Call(addresses[static_cast<std::size_t>(i) % 3], request,
                    kTestTimeout)
            .ok());
  }
  // Round-robin over 3 peers with room for 2: every call past the first
  // two misses, and each miss closes the least-recently-used socket.
  EXPECT_EQ(client.cache_hits(), 0u);
  EXPECT_EQ(client.connects(), static_cast<std::uint64_t>(kRounds) * 3);
  EXPECT_EQ(client.evictions(), kRounds * 3 - 2u);

  TcpClient roomy(TcpClientOptions{.cache_capacity = 3});
  for (int i = 0; i < kRounds * 3; ++i) {
    request.seq = static_cast<std::uint64_t>(i + 1);
    ASSERT_TRUE(
        roomy.Call(addresses[static_cast<std::size_t>(i) % 3], request,
                   kTestTimeout)
            .ok());
  }
  EXPECT_EQ(roomy.connects(), 3u);
  EXPECT_EQ(roomy.cache_hits(), kRounds * 3 - 3u);
  EXPECT_EQ(roomy.evictions(), 0u);
  for (auto& peer : peers) peer->Stop();
}

TEST_F(EpollServerTest, LargePayloadRoundTrip) {
  TcpClient client;
  Request request;
  request.op = OpCode::kInsert;
  request.seq = 1;
  request.key = "big";
  request.value.assign(2 << 20, 'x');  // 2 MiB crosses many read() calls
  auto response = client.Call(server_->address(), request, kTestTimeout);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->value.size(), request.value.size() + 4);
}

TEST_F(EpollServerTest, UdpRequestResponse) {
  UdpClient client;
  Request request;
  request.op = OpCode::kLookup;
  request.seq = 21;
  request.key = "u";
  request.value = "dp";
  auto response = client.Call(server_->address(), request, kTestTimeout);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->seq, 21u);
  EXPECT_EQ(response->value, "u|dp");
}

TEST_F(EpollServerTest, UdpTimesOutAgainstDeadPort) {
  UdpClient client(UdpClientOptions{.max_attempts = 2,
                                    .initial_rto = 20 * kNanosPerMilli});
  Request request;
  request.op = OpCode::kPing;
  // Very likely unused port.
  auto response = client.Call(NodeAddress{"127.0.0.1", 1},
                              request, 200 * kNanosPerMilli);
  EXPECT_FALSE(response.ok());
  EXPECT_GE(client.retransmits(), 1u);
}

TEST_F(EpollServerTest, TcpConnectRefusedFails) {
  TcpClient client;
  Request request;
  request.op = OpCode::kPing;
  auto response =
      client.Call(NodeAddress{"127.0.0.1", 1}, request, kTestTimeout);
  EXPECT_FALSE(response.ok());
}

TEST_F(EpollServerTest, ServerSurvivesGarbageBytes) {
  // Hand-roll a socket sending junk; the server must close it and keep
  // serving real clients.
  TcpClient junk_sender(TcpClientOptions{.cache_connections = false});
  Request ping;
  ping.op = OpCode::kPing;
  ping.seq = 1;
  ASSERT_TRUE(junk_sender.Call(server_->address(), ping, kTestTimeout).ok());

  // Oversized length prefix = malformed stream.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->address().port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char junk[] = "\xff\xff\xff\xff garbage";
  ASSERT_GT(::write(fd, junk, sizeof(junk)), 0);
  ::close(fd);

  TcpClient client;
  ping.seq = 2;
  EXPECT_TRUE(client.Call(server_->address(), ping, kTestTimeout).ok());
}

TEST_F(EpollServerTest, StopIsIdempotentAndRestartable) {
  server_->Stop();
  server_->Stop();
  EXPECT_TRUE(server_->Start().ok());
  TcpClient client;
  Request ping;
  ping.op = OpCode::kPing;
  ping.seq = 3;
  EXPECT_TRUE(client.Call(server_->address(), ping, kTestTimeout).ok());
}

TEST(ThreadedServerTest, ServesRequests) {
  std::atomic<int> served{0};
  auto server = ThreadedServer::Create(
      "127.0.0.1", 0, [&served](Request&& request) {
        ++served;
        return EchoHandler(std::move(request));
      });
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  TcpClient client(TcpClientOptions{.cache_connections = false});
  Request request;
  request.op = OpCode::kInsert;
  for (int i = 0; i < 8; ++i) {
    request.seq = static_cast<std::uint64_t>(i + 1);
    request.key = "k" + std::to_string(i);
    auto response = client.Call((*server)->address(), request, kTestTimeout);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
  }
  EXPECT_EQ(served.load(), 8);
  (*server)->Stop();
}

// A response completed after its client hung up must cost the connection,
// not the process: a plain write(2) to a closed peer raises SIGPIPE, whose
// default action kills the server. The handler holds each "hold" request's
// `done` until the client's socket is closed, then the test completes it.
// Two pipelined requests: the first response draws the closed peer's RST,
// so the second write hits EPIPE.
TEST(ThreadedServerTest, ResponseToClosedClientKeepsServing) {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<ResponseCallback> held;
  AsyncRequestHandler handler = [&](Request&& request, ResponseCallback done) {
    if (request.key != "hold") {
      done(EchoHandler(std::move(request)));
      return;
    }
    std::lock_guard<std::mutex> lock(mu);
    held.push_back(std::move(done));
    cv.notify_all();
  };
  auto wait_held = [&](std::size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(5),
                       [&] { return held.size() >= n; });
  };
  auto release = [&](std::size_t i) {
    ResponseCallback done;
    {
      std::lock_guard<std::mutex> lock(mu);
      done = held[i];
    }
    Response response;
    response.seq = i + 1;
    done(std::move(response));
  };
  auto server = ThreadedServer::Create("127.0.0.1", 0, handler);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons((*server)->address().port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string frames;
  for (std::uint64_t seq = 1; seq <= 2; ++seq) {
    Request request;
    request.op = OpCode::kInsert;
    request.seq = seq;
    request.key = "hold";
    frames += FrameMessage(request.Encode());
  }
  ASSERT_EQ(::write(fd, frames.data(), frames.size()),
            static_cast<ssize_t>(frames.size()));
  ASSERT_TRUE(wait_held(1));
  ::close(fd);
  release(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(wait_held(2));
  release(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  TcpClient client(TcpClientOptions{.cache_connections = false});
  Request request;
  request.op = OpCode::kInsert;
  request.seq = 3;
  request.key = "next";
  auto response = client.Call((*server)->address(), request, kTestTimeout);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->value, "next|");
  (*server)->Stop();
}

TEST(EpollStressTest, ManyConcurrentCachedClients) {
  // One single-threaded epoll loop absorbing several concurrent cached
  // TCP clients; every request must be answered and counted.
  auto server = EpollServer::Create(EpollServerOptions{}, EchoHandler);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  constexpr int kThreads = 6;
  constexpr int kOpsEach = 400;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TcpClient client;
      Request request;
      request.op = OpCode::kInsert;
      for (int i = 0; i < kOpsEach; ++i) {
        request.seq = static_cast<std::uint64_t>(t) * kOpsEach + i + 1;
        request.key = "k" + std::to_string(i);
        request.value = std::string(132, 'v');
        auto response =
            client.Call((*server)->address(), request, 5 * kNanosPerSec);
        if (!response.ok() || response->seq != request.seq) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ((*server)->requests_served(),
            static_cast<std::uint64_t>(kThreads) * kOpsEach);
  EXPECT_EQ((*server)->connections_accepted(),
            static_cast<std::uint64_t>(kThreads));  // one cached conn each
}

TEST(TcpClientTest, CacheEvictionClosesOldest) {
  // Three servers, cache capacity 2: talking to the third evicts the first.
  std::vector<std::unique_ptr<EpollServer>> servers;
  for (int i = 0; i < 3; ++i) {
    auto server = EpollServer::Create(EpollServerOptions{}, EchoHandler);
    ASSERT_TRUE(server.ok());
    ASSERT_TRUE((*server)->Start().ok());
    servers.push_back(std::move(*server));
  }
  TcpClient client(TcpClientOptions{.cache_connections = true,
                                    .cache_capacity = 2});
  Request ping;
  ping.op = OpCode::kPing;
  ping.seq = 1;
  for (auto& server : servers) {
    ASSERT_TRUE(client.Call(server->address(), ping, kTestTimeout).ok());
  }
  EXPECT_EQ(client.connects(), 3u);
  // Server 0 was evicted → reconnect; servers 1,2 still cached.
  ASSERT_TRUE(client.Call(servers[0]->address(), ping, kTestTimeout).ok());
  EXPECT_EQ(client.connects(), 4u);
}

TEST(TcpClientTest, StaleCachedConnectionRecovers) {
  auto server = EpollServer::Create(EpollServerOptions{}, EchoHandler);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  NodeAddress address = (*server)->address();

  TcpClient client;
  Request ping;
  ping.op = OpCode::kPing;
  ping.seq = 1;
  ASSERT_TRUE(client.Call(address, ping, kTestTimeout).ok());

  // Destroy and restart the server on the same port: the cached socket
  // goes stale (Stop alone keeps the listen fd; destruction releases it).
  (*server).reset();
  EpollServerOptions options;
  options.port = address.port;
  auto reborn = EpollServer::Create(options, EchoHandler);
  ASSERT_TRUE(reborn.ok()) << reborn.status().ToString();
  ASSERT_TRUE((*reborn)->Start().ok());

  ping.seq = 2;
  auto response = client.Call(address, ping, kTestTimeout);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
}

}  // namespace

// Reaches EpollServer internals (declared a friend) so tests can drive
// ProcessBuffered deterministically — single-threaded, no Start() — and
// force the reactor's connection map to rehash mid-drain.
struct EpollServerTestPeer {
  static void InjectConnection(EpollServer& server, int fd) {
    server.reactors_[0]->connections.emplace(fd, EpollServer::Connection{});
  }
  static void FeedBytes(EpollServer& server, int fd, std::string_view bytes) {
    server.reactors_[0]->connections[fd].in.append(bytes.data(), bytes.size());
  }
  static void Process(EpollServer& server, int fd) {
    server.ProcessBuffered(*server.reactors_[0], fd);
  }
  static std::size_t ConnectionCount(const EpollServer& server) {
    return server.reactors_[0]->connections.size();
  }
};

namespace {

// Regression: the handler may grow this reactor's connection map (here via
// the test peer; in production a reentrant accept), rehashing it and
// invalidating any Connection reference held across the call. The drain
// loop must re-find the connection after every handler invocation, or this
// reads freed memory (caught by ASan before the fix).
TEST(EpollServerProcessTest, SurvivesConnectionMapRehashMidDrain) {
  EpollServerOptions options;
  options.enable_tcp = false;
  options.enable_udp = false;

  EpollServer* raw_server = nullptr;
  int fake_fd = 1 << 20;  // far above any real descriptor
  auto handler = [&raw_server, &fake_fd](Request&& request) {
    // 16 inserts per request: the map outgrows its bucket array many
    // times while the drain below is mid-loop.
    for (int i = 0; i < 16; ++i) {
      EpollServerTestPeer::InjectConnection(*raw_server, fake_fd++);
    }
    Response resp;
    resp.seq = request.seq;
    resp.value = request.key;
    return resp;
  };
  auto server = EpollServer::Create(options, handler);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  raw_server = server->get();

  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  EpollServerTestPeer::InjectConnection(**server, pair[0]);

  constexpr int kRequests = 64;
  std::string inbound;
  for (int i = 0; i < kRequests; ++i) {
    Request request;
    request.op = OpCode::kInsert;
    request.seq = static_cast<std::uint64_t>(i + 1);
    request.key = "k" + std::to_string(i);
    inbound += FrameMessage(request.Encode());
  }
  EpollServerTestPeer::FeedBytes(**server, pair[0], inbound);
  EpollServerTestPeer::Process(**server, pair[0]);

  // Every request was handled (1 real + 64*16 injected connections prove
  // the rehashes happened) and every framed response is intact.
  EXPECT_EQ(EpollServerTestPeer::ConnectionCount(**server),
            1u + kRequests * 16);
  std::string outbound;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::recv(pair[1], buf, sizeof(buf), MSG_DONTWAIT);
    if (n <= 0) break;
    outbound.append(buf, static_cast<std::size_t>(n));
  }
  std::size_t offset = 0;
  bool malformed = false;
  for (int i = 0; i < kRequests; ++i) {
    auto payload = ExtractFrameAt(outbound, &offset, &malformed);
    ASSERT_TRUE(payload.has_value()) << "response " << i << " missing";
    ASSERT_FALSE(malformed);
    auto response = Response::Decode(*payload);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->seq, static_cast<std::uint64_t>(i + 1));
    EXPECT_EQ(response->value, "k" + std::to_string(i));
  }
  EXPECT_FALSE(ExtractFrameAt(outbound, &offset, &malformed).has_value());
  ::close(pair[1]);
}

// The epoll front end's form of ThreadedServerTest.ResponseToClosedClient-
// KeepsServing: the held response completes after the client's end of the
// socket pair closed (inline, before Start(), so the write is certain to
// happen); the server must drop that connection and go on serving.
TEST(EpollServerProcessTest, ResponseToClosedClientKeepsServing) {
  ResponseCallback held;
  AsyncRequestHandler handler = [&held](Request&& request,
                                        ResponseCallback done) {
    if (request.key == "hold") {
      held = std::move(done);
      return;
    }
    done(EchoHandler(std::move(request)));
  };
  auto server = EpollServer::Create(EpollServerOptions{}, handler);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  EpollServerTestPeer::InjectConnection(**server, pair[0]);
  Request request;
  request.op = OpCode::kInsert;
  request.seq = 1;
  request.key = "hold";
  EpollServerTestPeer::FeedBytes(**server, pair[0],
                                 FrameMessage(request.Encode()));
  EpollServerTestPeer::Process(**server, pair[0]);
  ASSERT_TRUE(held);
  ::close(pair[1]);
  Response response;
  response.seq = 1;
  held(std::move(response));
  EXPECT_EQ(EpollServerTestPeer::ConnectionCount(**server), 0u);

  ASSERT_TRUE((*server)->Start().ok());
  TcpClient client;
  request.seq = 2;
  request.key = "next";
  auto next = client.Call((*server)->address(), request, kTestTimeout);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->value, "next|");
}

// A 10k-frame burst drains in one pass over the buffer: the cursor never
// mutates the underlying string (no per-frame front erase), and a single
// compact at the end consumes everything.
TEST(FramingTest, CursorDrainsTenThousandFramesInOnePass) {
  constexpr int kFrames = 10000;
  std::string buffer;
  for (int i = 0; i < kFrames; ++i) {
    buffer += FrameMessage("payload-" + std::to_string(i));
  }
  const std::string snapshot = buffer;

  std::size_t offset = 0;
  bool malformed = false;
  for (int i = 0; i < kFrames; ++i) {
    auto payload = ExtractFrameAt(buffer, &offset, &malformed);
    ASSERT_TRUE(payload.has_value()) << "frame " << i;
    ASSERT_FALSE(malformed);
    ASSERT_EQ(*payload, "payload-" + std::to_string(i));
  }
  EXPECT_FALSE(ExtractFrameAt(buffer, &offset, &malformed).has_value());
  EXPECT_EQ(offset, buffer.size());
  EXPECT_EQ(buffer, snapshot) << "drain must not mutate the buffer";
  buffer.erase(0, offset);  // the caller's single compact
  EXPECT_TRUE(buffer.empty());
}

// Multi-reactor smoke: four event loops behind one listener; cached
// clients land round-robin across all reactors and every request is
// answered on whichever reactor owns its connection.
TEST(EpollServerProcessTest, MultiReactorServesAndDistributes) {
  EpollServerOptions options;
  options.num_reactors = 4;
  auto server = EpollServer::Create(options, EchoHandler);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE((*server)->Start().ok());
  EXPECT_EQ((*server)->num_reactors(), 4);

  constexpr int kClients = 8;
  constexpr int kOpsEach = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      TcpClient client;  // one cached connection per client
      Request request;
      request.op = OpCode::kInsert;
      for (int i = 0; i < kOpsEach; ++i) {
        request.seq = static_cast<std::uint64_t>(t) * kOpsEach + i + 1;
        request.key = "k" + std::to_string(t) + "_" + std::to_string(i);
        request.value = "v";
        auto response =
            client.Call((*server)->address(), request, 5 * kNanosPerSec);
        if (!response.ok() || response->seq != request.seq) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ((*server)->requests_served(),
            static_cast<std::uint64_t>(kClients) * kOpsEach);
  std::uint64_t assigned = 0;
  for (int i = 0; i < 4; ++i) {
    EXPECT_GE((*server)->connections_assigned(i), 1u)
        << "reactor " << i << " never received a connection";
    assigned += (*server)->connections_assigned(i);
  }
  EXPECT_EQ(assigned, (*server)->connections_accepted());
  (*server)->Stop();
}

// Sends `count` requests keyed `prefix<i>` on one fresh TCP connection in a
// single write (pipelined behind the first frame) and returns the responses
// in arrival order.
std::vector<Response> PipelineOnNewConnection(const NodeAddress& address,
                                              const std::string& prefix,
                                              int count) {
  std::vector<Response> responses;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return responses;
  timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(address.port);
  ::inet_pton(AF_INET, address.host.c_str(), &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return responses;
  }
  std::string outbound;
  for (int i = 0; i < count; ++i) {
    Request request;
    request.op = OpCode::kInsert;
    request.seq = static_cast<std::uint64_t>(i + 1);
    request.key = prefix + std::to_string(i);
    outbound += FrameMessage(request.Encode());
  }
  if (::send(fd, outbound.data(), outbound.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(outbound.size())) {
    ::close(fd);
    return responses;
  }
  std::string inbound;
  std::size_t offset = 0;
  bool malformed = false;
  char buf[1 << 16];
  while (static_cast<int>(responses.size()) < count && !malformed) {
    auto payload = ExtractFrameAt(inbound, &offset, &malformed);
    if (payload) {
      auto response = Response::Decode(*payload);
      if (!response.ok()) break;
      responses.push_back(std::move(*response));
      continue;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    inbound.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return responses;
}

// Placement re-homes a connection at its first decoded request: the
// buffered first frame and the frames pipelined behind it move with the
// connection and are answered, in order, on the new reactor. A placement
// of -1 or an index past the last reactor leaves the connection where
// accept-time round-robin put it.
TEST(EpollServerProcessTest, PlacementRehomesConnectionWithPipelinedFrames) {
  std::mutex mu;
  std::map<std::string, std::set<std::thread::id>> handled_on;  // by prefix
  auto handler = [&](Request&& request) {
    {
      std::lock_guard<std::mutex> lock(mu);
      handled_on[request.key.substr(0, 3)].insert(std::this_thread::get_id());
    }
    return EchoHandler(std::move(request));
  };
  EpollServerOptions options;
  options.num_reactors = 2;
  options.enable_udp = false;
  auto server = EpollServer::Create(options, RequestHandler(handler));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  (*server)->SetPlacement([](const Request& request) {
    if (request.key.rfind("one", 0) == 0) return 1;
    if (request.key.rfind("big", 0) == 0) return 2;  // == num_reactors
    return -1;
  });
  ASSERT_TRUE((*server)->Start().ok());

  // Connections are accepted round-robin: reactor 0, 1, then 0 again.
  constexpr int kFrames = 8;
  for (const std::string prefix : {"neg", "big", "one"}) {
    std::vector<Response> responses =
        PipelineOnNewConnection((*server)->address(), prefix, kFrames);
    ASSERT_EQ(responses.size(), static_cast<std::size_t>(kFrames)) << prefix;
    for (int i = 0; i < kFrames; ++i) {
      EXPECT_EQ(responses[i].seq, static_cast<std::uint64_t>(i + 1)) << prefix;
      EXPECT_EQ(responses[i].value, prefix + std::to_string(i) + "|");
    }
    if (prefix != "one") {
      EXPECT_EQ((*server)->connections_rehomed(), 0u) << prefix;
    }
  }
  EXPECT_EQ((*server)->connections_rehomed(), 1u);
  EXPECT_EQ((*server)->connections_assigned(0), 2u);
  EXPECT_EQ((*server)->connections_assigned(1), 1u);
  (*server)->Stop();

  // Each connection was served by one reactor thread: "neg" stayed on
  // reactor 0, "big" on reactor 1, and "one" moved from reactor 0 to 1.
  ASSERT_EQ(handled_on["neg"].size(), 1u);
  ASSERT_EQ(handled_on["big"].size(), 1u);
  ASSERT_EQ(handled_on["one"].size(), 1u);
  EXPECT_NE(*handled_on["neg"].begin(), *handled_on["big"].begin());
  EXPECT_EQ(*handled_on["one"].begin(), *handled_on["big"].begin());
}

}  // namespace
}  // namespace zht
