// EpollServer: the event-driven server architecture the paper converged on
// (§III.D) after finding thread-per-request 3× slower. The paper runs one
// single-threaded event loop per ZHT instance and scales across cores by
// deploying multiple instances per node (§IV.G); this implementation
// generalizes that to a multi-reactor design — `num_reactors` event-loop
// threads, each with its own epoll fd and its own connection map:
//
//  - reactor 0 owns the TCP listener; accepted connections are assigned
//    round-robin and handed off through a per-reactor eventfd + queue;
//  - the UDP socket is owned by one designated reactor (the last), so
//    datagram reads never race (response sendto is per-datagram atomic);
//  - each connection lives on exactly one reactor at a time, which alone
//    reads, decodes and dispatches its requests.
//
// The request path is asynchronous: decoded requests are dispatched through
// an AsyncRequestHandler and the response arrives later via callback. A
// connection pipelines many requests; responses are written back in request
// order through per-connection completion slots (out-of-order completions
// park until their turn). Each connection is a shared record: its reactor
// owns the input side, and a per-connection mutex guards the output side
// (the `out` buffer, the flushed slot, the parked responses and whether
// EPOLLOUT is armed). Whichever thread completes a response — the reactor
// inline, a log flusher, a finisher — frames it into its slot and sends
// what is now in order itself; only on a full socket buffer does it arm
// EPOLLOUT in the owner's epoll set, and the owning reactor sends the rest.
// The connection mutex is a leaf: it is taken under any lock and holds
// none (DESIGN.md §9).
//
// Partition-affine routing: an optional placement function inspects the
// first request decoded on a connection and, if it prefers a different
// reactor, the whole connection (fd + buffered bytes) is re-homed to that
// reactor before the request is dispatched. ZhtServer drains a shard on
// whichever thread posts to it, so with placement mapping each key's shard
// to one reactor (LocalCluster::WireReactors), a client that shards its
// connections by key has every request executed on the reactor that read
// it, and the shard mailboxes see almost no hand-offs (DESIGN.md §9).
//
// With num_reactors = 1 this degenerates to the paper's architecture.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/address.h"
#include "net/transport.h"

namespace zht {

struct EpollServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = pick an ephemeral port
  bool enable_tcp = true;
  bool enable_udp = true;
  int listen_backlog = 128;
  // Event-loop threads. Values < 1 are clamped to 1. The handler runs on
  // whichever reactor owns the connection (or the UDP socket), so any
  // handler used with num_reactors > 1 must be thread-safe.
  int num_reactors = 1;
};

class EpollServer {
 public:
  static Result<std::unique_ptr<EpollServer>> Create(
      const EpollServerOptions& options, AsyncRequestHandler handler);
  // Convenience for synchronous handlers (tests, echo servers): wrapped via
  // ToAsync, so every response completes inline on the reactor.
  static Result<std::unique_ptr<EpollServer>> Create(
      const EpollServerOptions& options, RequestHandler handler);

  ~EpollServer();

  EpollServer(const EpollServer&) = delete;
  EpollServer& operator=(const EpollServer&) = delete;

  // Routes connections to reactors (pre-Start only): called once per
  // connection with its first decoded request; a return in
  // [0, num_reactors) re-homes the connection to that reactor, anything
  // else leaves it where accept-time round-robin put it.
  void SetPlacement(std::function<int(const Request&)> placement);

  // Spawns the event-loop threads. Idempotent.
  Status Start();
  // Stops the loops and joins the threads. Idempotent. Sockets stay open
  // (closed by the destructor) so late completion callbacks from a handler
  // that is still winding down never touch a recycled fd.
  void Stop();

  // Bound address (with the actual port when 0 was requested).
  const NodeAddress& address() const { return address_; }

  int num_reactors() const { return static_cast<int>(reactors_.size()); }

  std::uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }
  std::uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  // Readiness-loop telemetry: epoll_wait returns that delivered at least
  // one event (summed over reactors), and UDP datagrams pulled off the
  // socket.
  std::uint64_t loop_wakeups() const {
    return loop_wakeups_.load(std::memory_order_relaxed);
  }
  std::uint64_t udp_datagrams() const {
    return udp_datagrams_.load(std::memory_order_relaxed);
  }
  // Connections ever assigned to reactor `i` (accept-time distribution).
  std::uint64_t connections_assigned(int i) const {
    return reactors_[static_cast<std::size_t>(i)]->assigned.load(
        std::memory_order_relaxed);
  }
  // Connections re-homed to the placement-preferred reactor.
  std::uint64_t connections_rehomed() const {
    return connections_rehomed_.load(std::memory_order_relaxed);
  }

 private:
  EpollServer(EpollServerOptions options, AsyncRequestHandler handler);

  // One client connection, shared by its reactor and by the callbacks of
  // its requests in flight, so a late completion finds the record even
  // after the connection closed.
  struct Connection {
    int fd = -1;
    // Input side: touched only by the owning reactor's thread.
    std::string in;
    std::size_t in_offset = 0;    // consumed-frame cursor into `in`
    std::uint64_t next_slot = 0;  // next request's slot
    bool placed = false;          // placement consulted for this connection

    // Output side, guarded by `mu`. Requests are assigned slots in arrival
    // order; responses are framed into `out` strictly by slot. A completion
    // for a slot ahead of `flushed_slot` parks until the gap fills.
    std::mutex mu;
    int epoll_fd = -1;  // the owning reactor's set (set at adoption)
    std::string out;
    std::size_t out_offset = 0;
    std::uint64_t flushed_slot = 0;  // first slot not yet framed
    std::unordered_map<std::uint64_t, std::string> parked;
    bool want_write = false;  // EPOLLOUT armed: the reactor sends the rest
    // False once the fd is closed or shut down after a failed send: later
    // completions are dropped and never touch a recycled fd.
    bool open = true;
  };

  // One event loop: epoll fd + wake eventfd + the connections it owns.
  // Everything except `handoff` and the connections' output sides is
  // touched only by this reactor's thread.
  struct Reactor {
    int index = 0;
    int epoll_fd = -1;
    int wake_fd = -1;
    std::thread thread;
    std::unordered_map<int, std::shared_ptr<Connection>> connections;
    std::atomic<std::uint64_t> assigned{0};
    // Accepted or re-homed connections (with any buffered state) parked
    // here until this reactor adopts them.
    std::mutex handoff_mu;
    std::vector<std::shared_ptr<Connection>> handoff;
  };

  Status Setup();
  void Loop(Reactor& r);
  void AcceptAll();           // reactor 0 only
  void AdoptHandoff(Reactor& r);
  void HandleReadable(Reactor& r, int fd);
  void HandleWritable(Reactor& r, int fd);  // on EPOLLOUT
  void HandleUdp();           // UDP reactor only
  void CloseConnection(Reactor& r, int fd);
  void ProcessBuffered(Reactor& r, int fd);
  // Detaches the connection from `r` and parks it (with its buffered input
  // rewound to `rewind_offset`) on `target`'s handoff queue.
  void MoveConnection(Reactor& r, int fd, std::size_t rewind_offset,
                      Reactor& target);
  // Frames `encoded` into the connection's slot, drains any consecutive
  // parked successors and sends what is in order. Runs on whichever thread
  // completes the response.
  static void Complete(Connection& conn, std::uint64_t slot,
                       std::string encoded);
  // Sends `out` until it is empty or the socket is full (then arms
  // EPOLLOUT); a failed send shuts the socket down, and its reactor closes
  // it on the hangup. The caller holds conn.mu.
  static void SendLocked(Connection& conn);

  friend struct EpollServerTestPeer;  // reaches ProcessBuffered in tests

  EpollServerOptions options_;
  AsyncRequestHandler handler_;
  std::function<int(const Request&)> placement_;
  NodeAddress address_;

  int listen_fd_ = -1;
  int udp_fd_ = -1;
  std::size_t udp_reactor_ = 0;  // which reactor owns udp_fd_

  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::size_t next_reactor_ = 0;  // acceptor's round-robin cursor

  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> loop_wakeups_{0};
  std::atomic<std::uint64_t> udp_datagrams_{0};
  std::atomic<std::uint64_t> connections_rehomed_{0};
};

}  // namespace zht
