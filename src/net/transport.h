// Transport interfaces. ZHT separates protocol logic from byte movement so
// the same client/server code runs over TCP (with or without connection
// caching), UDP (ack-based), or the in-process loopback used by tests.
#pragma once

#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/await.h"
#include "common/clock.h"
#include "net/address.h"
#include "serialize/envelope.h"

namespace zht {

// Server-side handler surface. Every server front-end (epoll, threaded,
// loopback) consumes the asynchronous form; the synchronous form exists for
// tests and simple components (managers, baselines) and is adapted with
// ToAsync — there is exactly one definition of each, here.
//
// RequestHandler: invoked once per decoded request; the return value is
// sent back to the requester. May be called concurrently and must be
// thread-safe when bound to a multi-reactor server.
using RequestHandler = std::function<Response(Request&&)>;

// Completion for one asynchronous request. Invoked exactly once, possibly
// on a different thread than the handler call (a reactor draining its
// mailbox, a durability flusher, a replication finisher). Front-ends must
// tolerate any invoking thread.
using ResponseCallback = std::function<void(Response&&)>;

// Asynchronous request entry point (ZhtServer::HandleAsync). The handler
// takes ownership of the request and promises to invoke `done` exactly
// once; it must not block the calling thread on I/O or replication.
using AsyncRequestHandler =
    std::function<void(Request&&, ResponseCallback)>;

// Lifts a synchronous handler into the asynchronous contract (completes
// inline on the calling thread).
inline AsyncRequestHandler ToAsync(RequestHandler handler) {
  return [handler = std::move(handler)](Request&& request,
                                        ResponseCallback done) {
    done(handler(std::move(request)));
  };
}

// Drives one asynchronous call to completion, blocking the calling thread.
inline Response CallBlocking(const AsyncRequestHandler& handler,
                             Request&& request) {
  return Await<Response>([&](auto done) {
    handler(std::move(request), std::move(done));
  });
}

// Client-side synchronous RPC. Implementations used as server peer links
// (replication, migration) are called from every reactor plus the async-
// replication worker, so the bundled transports are thread-safe: TcpClient
// uses a per-destination connection pool, and loopback delivery is
// re-entrant. Per-call state stays on the caller's stack.
class ClientTransport {
 public:
  virtual ~ClientTransport() = default;

  virtual Result<Response> Call(const NodeAddress& to, const Request& request,
                                Nanos timeout) = 0;

  // Batched RPC: sends `requests` to one destination and returns exactly
  // requests.size() responses in order, or a batch-level error (transport
  // failure / undecodable reply) in which case no partial results are
  // surfaced. `timeout` covers the whole batch. A batch of one request is
  // one Call() on every transport: the wire carries the plain request, and
  // decorators see its own opcode. Larger batches go to CallMany.
  Result<std::vector<Response>> CallBatch(const NodeAddress& to,
                                          std::span<const Request> requests,
                                          Nanos timeout) {
    if (requests.size() > 1) return CallMany(to, requests, timeout);
    std::vector<Response> responses;
    if (requests.empty()) return responses;
    auto response = Call(to, requests.front(), timeout);
    if (!response.ok()) return response.status();
    responses.push_back(std::move(*response));
    return responses;
  }

  // Drops any cached connection to `to` (used when a node is marked dead).
  virtual void Invalidate(const NodeAddress& /*to*/) {}

 protected:
  // CallBatch for two or more requests. The default walks the batch with
  // one Call() per request, so every transport is batch-correct;
  // transports override it to put many sub-requests on the wire per frame
  // (TCP: one framed write + pipelined reads, UDP: MTU-sized fragments,
  // loopback: a single delivery).
  virtual Result<std::vector<Response>> CallMany(
      const NodeAddress& to, std::span<const Request> requests,
      Nanos timeout) {
    std::vector<Response> responses;
    responses.reserve(requests.size());
    for (const Request& request : requests) {
      auto response = Call(to, request, timeout);
      if (!response.ok()) return response.status();
      responses.push_back(std::move(*response));
    }
    return responses;
  }
};

}  // namespace zht
