// Loopback transport: an in-process "network" mapping addresses to request
// handlers. Lets a whole ZHT cluster (servers + managers + clients) run in
// one process with zero kernel round-trips. Infrastructure-level failure
// (down nodes) and latency modeling live here; message-level faults (drops,
// duplicates, partitions) are injected by wrapping any transport — this one
// included — in FaultInjectingTransport (net/fault_injection.h).
#pragma once

#include <atomic>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "net/transport.h"
#include "serialize/batch.h"

namespace zht {

class LoopbackNetwork {
 public:
  // Registers a handler and returns its synthetic address ("loop" host,
  // sequential ports). Handlers are stored in asynchronous form; the
  // RequestHandler overloads wrap via ToAsync.
  NodeAddress Register(AsyncRequestHandler handler);
  NodeAddress Register(RequestHandler handler);
  void Register(const NodeAddress& address, AsyncRequestHandler handler);
  void Register(const NodeAddress& address, RequestHandler handler);
  void Unregister(const NodeAddress& address);

  // Infrastructure failure: a down node times out every delivery.
  void SetDown(const NodeAddress& address, bool down);
  bool IsDown(const NodeAddress& address) const;
  // Fixed artificial one-way latency applied twice per call (slows real
  // time; use only in small tests).
  void SetLatency(Nanos latency) { latency_ = latency; }

  // Delivers a request (called by LoopbackTransport).
  Result<Response> Deliver(const NodeAddress& to, const Request& request);

  std::uint64_t delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<NodeAddress, AsyncRequestHandler> handlers_;
  std::unordered_map<NodeAddress, bool> down_;
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<Nanos> latency_{0};
  std::uint16_t next_port_ = 1;
};

class LoopbackTransport final : public ClientTransport {
 public:
  explicit LoopbackTransport(LoopbackNetwork* network) : network_(network) {}

  Result<Response> Call(const NodeAddress& to, const Request& request,
                        Nanos timeout) override {
    (void)timeout;  // loopback failures surface as kTimeout directly
    return network_->Deliver(to, request);
  }

 private:
  // One delivery for the whole batch: the BATCH envelope crosses the
  // in-process "wire" as a single message, matching a single frame on TCP.
  Result<std::vector<Response>> CallMany(const NodeAddress& to,
                                         std::span<const Request> requests,
                                         Nanos timeout) override {
    Request carrier = PackBatchRequest(requests, requests.front().seq);
    auto response = network_->Deliver(to, carrier);
    if (!response.ok()) return response.status();
    if (response->status ==
            Status(StatusCode::kInvalidArgument).raw() &&
        response->value.empty()) {
      // Peer does not speak BATCH (e.g. a manager): fall back to per-op.
      return ClientTransport::CallMany(to, requests, timeout);
    }
    return UnpackBatchResponse(*response, requests.size());
  }

  LoopbackNetwork* network_;
};

}  // namespace zht
