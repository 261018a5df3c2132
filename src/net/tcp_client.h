// TcpClient: synchronous TCP RPC with an LRU connection cache (§III.F —
// "we implemented a LRU cache for TCP connections, which makes TCP work
// almost as fast as UDP"). With caching disabled, every call pays a fresh
// connect/teardown, the configuration the paper's "TCP without connection
// caching" series measures.
//
// Thread-safe: calls are NOT globally serialized. The cache is a
// per-destination pool of idle sockets under one registry mutex that is
// held only for pool bookkeeping — never across connect() or request I/O.
// A caller pops an idle socket (or opens a fresh one) and owns it
// exclusively for the duration of the RPC, so N concurrent callers — e.g.
// N server reactors doing sync replication plus the async-replication
// worker — proceed in parallel even toward the same peer, each on its own
// socket.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/transport.h"

namespace zht {

struct TcpClientOptions {
  bool cache_connections = true;
  std::size_t cache_capacity = 64;  // idle sockets kept per client
  // CallBatch splits batches into BATCH-envelope frames of at most this
  // payload size; the frames are written back-to-back (one send for the
  // common single-frame case) and their responses read pipelined.
  std::size_t max_batch_bytes = 1u << 20;
};

class TcpClient final : public ClientTransport {
 public:
  explicit TcpClient(TcpClientOptions options = {}) : options_(options) {}
  ~TcpClient() override;

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  Result<Response> Call(const NodeAddress& to, const Request& request,
                        Nanos timeout) override;

  void Invalidate(const NodeAddress& to) override;

  // Cache telemetry (§III.F): a miss opens a fresh connection (so misses
  // == connects when caching is on); evictions count idle sockets closed
  // to stay within cache_capacity.
  std::uint64_t connects() const {
    return connects_.load(std::memory_order_relaxed);
  }
  std::uint64_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  // Pipelined batch: every BATCH-envelope frame goes out before the first
  // response is read, so the batch pays one round-trip (per frame chunk)
  // instead of one per operation.
  Result<std::vector<Response>> CallMany(const NodeAddress& to,
                                         std::span<const Request> requests,
                                         Nanos timeout) override;

  // Pops an idle pooled socket to `to` or opens a fresh one (the connect
  // happens with no lock held). The caller owns the returned fd until
  // Release/close.
  Result<int> Acquire(const NodeAddress& to, const Clock& clock,
                      Nanos deadline, bool* from_cache);
  void Release(const NodeAddress& to, int fd, bool healthy);
  void EvictLruLocked();  // caller holds cache_mu_

  TcpClientOptions options_;

  // Idle-socket registry. cache_mu_ guards lru_/idle_ only; sockets in use
  // are owned exclusively by their caller and appear in neither.
  std::mutex cache_mu_;
  struct IdleSocket {
    NodeAddress to;
    int fd;
  };
  // Most-recently-released at the front; evict from the back.
  std::list<IdleSocket> lru_;
  // Per-destination pool: iterators into lru_, most-recent at the back.
  std::unordered_map<NodeAddress, std::vector<std::list<IdleSocket>::iterator>>
      idle_;

  std::atomic<std::uint64_t> connects_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace zht
