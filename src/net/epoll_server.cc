#include "net/epoll_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/log.h"
#include "net/framing.h"

namespace zht {
namespace {

Status MakeNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status(StatusCode::kInternal, "fcntl O_NONBLOCK failed");
  }
  return Status::Ok();
}

Result<sockaddr_in> ResolveIpv4(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status(StatusCode::kInvalidArgument, "not an IPv4 address: " + host);
  }
  return addr;
}

}  // namespace

EpollServer::EpollServer(EpollServerOptions options,
                         AsyncRequestHandler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {}

Result<std::unique_ptr<EpollServer>> EpollServer::Create(
    const EpollServerOptions& options, AsyncRequestHandler handler) {
  std::unique_ptr<EpollServer> server(
      new EpollServer(options, std::move(handler)));
  Status status = server->Setup();
  if (!status.ok()) return status;
  return server;
}

Result<std::unique_ptr<EpollServer>> EpollServer::Create(
    const EpollServerOptions& options, RequestHandler handler) {
  return Create(options, ToAsync(std::move(handler)));
}

Status EpollServer::Setup() {
  auto addr = ResolveIpv4(options_.host, options_.port);
  if (!addr.ok()) return addr.status();

  const int n_reactors = options_.num_reactors < 1 ? 1 : options_.num_reactors;
  for (int i = 0; i < n_reactors; ++i) {
    auto r = std::make_unique<Reactor>();
    r->index = i;
    r->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (r->epoll_fd < 0) return Status(StatusCode::kInternal, "epoll_create1");
    r->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (r->wake_fd < 0) return Status(StatusCode::kInternal, "eventfd");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = r->wake_fd;
    ::epoll_ctl(r->epoll_fd, EPOLL_CTL_ADD, r->wake_fd, &ev);
    reactors_.push_back(std::move(r));
  }
  // The UDP socket is owned by the last reactor: distinct from the acceptor
  // when N > 1, and the same single loop when N == 1.
  udp_reactor_ = reactors_.size() - 1;

  std::uint16_t bound_port = options_.port;

  if (options_.enable_tcp) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) return Status(StatusCode::kInternal, "socket");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&*addr),
               sizeof(*addr)) < 0) {
      return Status(StatusCode::kInternal,
                    std::string("bind: ") + std::strerror(errno));
    }
    if (::listen(listen_fd_, options_.listen_backlog) < 0) {
      return Status(StatusCode::kInternal, "listen");
    }
    Status s = MakeNonBlocking(listen_fd_);
    if (!s.ok()) return s;

    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&actual), &len);
    bound_port = ntohs(actual.sin_port);

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    ::epoll_ctl(reactors_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);
  }

  if (options_.enable_udp) {
    udp_fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
    if (udp_fd_ < 0) return Status(StatusCode::kInternal, "udp socket");
    sockaddr_in udp_addr = *addr;
    udp_addr.sin_port = htons(bound_port);  // share the TCP port number
    if (::bind(udp_fd_, reinterpret_cast<sockaddr*>(&udp_addr),
               sizeof(udp_addr)) < 0) {
      return Status(StatusCode::kInternal,
                    std::string("udp bind: ") + std::strerror(errno));
    }
    if (bound_port == 0) {
      sockaddr_in actual{};
      socklen_t len = sizeof(actual);
      ::getsockname(udp_fd_, reinterpret_cast<sockaddr*>(&actual), &len);
      bound_port = ntohs(actual.sin_port);
    }
    Status s = MakeNonBlocking(udp_fd_);
    if (!s.ok()) return s;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = udp_fd_;
    ::epoll_ctl(reactors_[udp_reactor_]->epoll_fd, EPOLL_CTL_ADD, udp_fd_,
                &ev);
  }

  address_ = NodeAddress{options_.host, bound_port};
  return Status::Ok();
}

EpollServer::~EpollServer() {
  Stop();
  // A completion still in flight holds its connection's record: mark each
  // closed before its fd goes.
  auto close_record = [](Connection& conn) {
    std::lock_guard<std::mutex> lock(conn.mu);
    conn.open = false;
    ::close(conn.fd);
  };
  for (auto& r : reactors_) {
    for (auto& [fd, conn] : r->connections) close_record(*conn);
    {
      std::lock_guard<std::mutex> lock(r->handoff_mu);
      for (auto& conn : r->handoff) close_record(*conn);
      r->handoff.clear();
    }
    if (r->wake_fd >= 0) ::close(r->wake_fd);
    if (r->epoll_fd >= 0) ::close(r->epoll_fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (udp_fd_ >= 0) ::close(udp_fd_);
}

void EpollServer::SetPlacement(std::function<int(const Request&)> placement) {
  placement_ = std::move(placement);
}

Status EpollServer::Start() {
  if (running_.exchange(true)) return Status::Ok();
  for (auto& r : reactors_) {
    Reactor* raw = r.get();
    raw->thread = std::thread([this, raw] { Loop(*raw); });
  }
  return Status::Ok();
}

void EpollServer::Stop() {
  if (!running_.exchange(false)) return;
  for (auto& r : reactors_) {
    std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(r->wake_fd, &one, sizeof(one));
    if (r->thread.joinable()) r->thread.join();
  }
}

void EpollServer::Loop(Reactor& r) {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (running_.load(std::memory_order_relaxed)) {
    int n = ::epoll_wait(r.epoll_fd, events, kMaxEvents, 100);
    if (n < 0) {
      if (errno == EINTR) continue;
      ZHT_ERROR << "epoll_wait failed: " << std::strerror(errno);
      break;
    }
    if (n > 0) loop_wakeups_.fetch_add(1, std::memory_order_relaxed);
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      std::uint32_t mask = events[i].events;
      if (fd == r.wake_fd) {
        std::uint64_t drained;
        [[maybe_unused]] ssize_t rd =
            ::read(r.wake_fd, &drained, sizeof(drained));
        AdoptHandoff(r);
        continue;
      }
      if (fd == listen_fd_) {
        AcceptAll();
        continue;
      }
      if (fd == udp_fd_) {
        HandleUdp();
        continue;
      }
      if (mask & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(r, fd);
        continue;
      }
      if (mask & EPOLLIN) HandleReadable(r, fd);
      if (mask & EPOLLOUT) HandleWritable(r, fd);
    }
  }
}

void EpollServer::AcceptAll() {
  Reactor& r0 = *reactors_[0];
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);

    auto conn = std::make_shared<Connection>();
    conn->fd = fd;

    // Round-robin distribution: reactor 0 adopts its own share directly;
    // every other reactor gets the fd through its handoff queue and is
    // woken via its eventfd, registering the fd in its own epoll set.
    Reactor& target = *reactors_[next_reactor_ % reactors_.size()];
    ++next_reactor_;
    target.assigned.fetch_add(1, std::memory_order_relaxed);
    if (&target == &r0) {
      conn->epoll_fd = r0.epoll_fd;
      r0.connections.emplace(fd, std::move(conn));
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      ::epoll_ctl(r0.epoll_fd, EPOLL_CTL_ADD, fd, &ev);
    } else {
      {
        std::lock_guard<std::mutex> lock(target.handoff_mu);
        target.handoff.push_back(std::move(conn));
      }
      std::uint64_t one_ev = 1;
      [[maybe_unused]] ssize_t n =
          ::write(target.wake_fd, &one_ev, sizeof(one_ev));
    }
  }
}

void EpollServer::AdoptHandoff(Reactor& r) {
  std::vector<std::shared_ptr<Connection>> adopted;
  {
    std::lock_guard<std::mutex> lock(r.handoff_mu);
    adopted.swap(r.handoff);
  }
  for (auto& conn : adopted) {
    const int fd = conn->fd;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->epoll_fd = r.epoll_fd;
    }
    r.connections.emplace(fd, std::move(conn));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(r.epoll_fd, EPOLL_CTL_ADD, fd, &ev);
    // A re-homed connection arrives with its first frame already buffered
    // (rewound by MoveConnection); consume it now rather than waiting for
    // more bytes.
    ProcessBuffered(r, fd);
  }
}

void EpollServer::HandleReadable(Reactor& r, int fd) {
  auto it = r.connections.find(fd);
  if (it == r.connections.end()) return;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      it->second->in.append(buf, static_cast<std::size_t>(n));
      // A short read drained the socket; the set is level-triggered, so
      // bytes that arrive later are reported again.
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {  // peer closed
      CloseConnection(r, fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(r, fd);
    return;
  }
  ProcessBuffered(r, fd);
}

void EpollServer::MoveConnection(Reactor& r, int fd, std::size_t rewind_offset,
                                 Reactor& target) {
  auto it = r.connections.find(fd);
  if (it == r.connections.end()) return;
  std::shared_ptr<Connection> moved = std::move(it->second);
  moved->in_offset = rewind_offset;  // target re-decodes the triggering frame
  ::epoll_ctl(r.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  r.connections.erase(it);
  connections_rehomed_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(target.handoff_mu);
    target.handoff.push_back(std::move(moved));
  }
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(target.wake_fd, &one, sizeof(one));
}

void EpollServer::ProcessBuffered(Reactor& r, int fd) {
  // Frames are consumed through the connection's cursor (no per-frame
  // erase); the buffer compacts once after the drain. `handler_` may be
  // reentrant (it can stop the server, complete inline, or, indirectly,
  // grow this reactor's connection map, rehashing it), so the drain holds
  // the connection's record, not a reference into the map.
  auto it = r.connections.find(fd);
  if (it == r.connections.end()) return;
  const std::shared_ptr<Connection> conn = it->second;
  bool malformed = false;
  for (;;) {
    const std::size_t pre_offset = conn->in_offset;
    auto payload = ExtractFrameAt(conn->in, &conn->in_offset, &malformed);
    if (!payload) break;
    auto request = Request::Decode(*payload);  // copies out of conn->in
    if (!request.ok()) {
      Response response;
      response.status = Status(StatusCode::kCorruption).raw();
      Complete(*conn, conn->next_slot++, FrameMessage(response.Encode()));
      continue;
    }
    if (!conn->placed) {
      conn->placed = true;
      if (placement_) {
        int preferred = placement_(*request);
        bool idle = false;
        {
          std::lock_guard<std::mutex> lock(conn->mu);
          idle = conn->out.empty() && conn->parked.empty() &&
                 conn->next_slot == conn->flushed_slot;
        }
        if (preferred >= 0 &&
            preferred < static_cast<int>(reactors_.size()) &&
            preferred != r.index && idle) {
          // Re-home the whole connection to the reactor that owns this
          // request's partition; it will re-decode this frame itself.
          MoveConnection(r, fd, pre_offset, *reactors_[preferred]);
          return;
        }
      }
    }
    const std::uint64_t slot = conn->next_slot++;
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    handler_(std::move(*request), [conn, slot](Response&& response) {
      Complete(*conn, slot, FrameMessage(response.Encode()));
    });
  }
  if (malformed) {
    CloseConnection(r, fd);
    return;
  }
  if (conn->in_offset > 0) {
    conn->in.erase(0, conn->in_offset);
    conn->in_offset = 0;
  }
}

void EpollServer::Complete(Connection& conn, std::uint64_t slot,
                           std::string encoded) {
  std::lock_guard<std::mutex> lock(conn.mu);
  // The connection may have died (and its fd been recycled) while this
  // response was in flight: drop the orphaned completion.
  if (!conn.open) return;
  if (slot != conn.flushed_slot) {
    conn.parked.emplace(slot, std::move(encoded));  // out-of-order: park
    return;
  }
  if (conn.out.empty()) {
    conn.out = std::move(encoded);
  } else {
    conn.out += encoded;
  }
  ++conn.flushed_slot;
  // Drain any successors that completed early and parked behind this slot.
  for (auto parked = conn.parked.find(conn.flushed_slot);
       parked != conn.parked.end();
       parked = conn.parked.find(conn.flushed_slot)) {
    conn.out += parked->second;
    conn.parked.erase(parked);
    ++conn.flushed_slot;
  }
  // With EPOLLOUT armed the socket is full and the reactor sends the rest.
  if (!conn.want_write) SendLocked(conn);
}

void EpollServer::SendLocked(Connection& conn) {
  while (conn.out_offset < conn.out.size()) {
    // MSG_NOSIGNAL: a client that already closed must cost one
    // connection (EPIPE), not the process (SIGPIPE).
    ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_offset,
                       conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_offset += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!conn.want_write) {
        conn.want_write = true;
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLOUT;
        ev.data.fd = conn.fd;
        ::epoll_ctl(conn.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
      }
      return;
    }
    // Only the owning reactor closes the fd (it also owns the connection
    // map); shutting the socket down reports a hangup to it.
    conn.open = false;
    ::shutdown(conn.fd, SHUT_RDWR);
    conn.out.clear();
    conn.out_offset = 0;
    conn.parked.clear();
    return;
  }
  conn.out.clear();
  conn.out_offset = 0;
  if (conn.want_write) {
    conn.want_write = false;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = conn.fd;
    ::epoll_ctl(conn.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  }
}

void EpollServer::HandleWritable(Reactor& r, int fd) {
  auto it = r.connections.find(fd);
  if (it == r.connections.end()) return;
  Connection& conn = *it->second;
  std::lock_guard<std::mutex> lock(conn.mu);
  if (conn.open) SendLocked(conn);
}

void EpollServer::HandleUdp() {
  char buf[64 << 10];
  for (;;) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    ssize_t n = ::recvfrom(udp_fd_, buf, sizeof(buf), 0,
                           reinterpret_cast<sockaddr*>(&peer), &peer_len);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    udp_datagrams_.fetch_add(1, std::memory_order_relaxed);
    auto request = Request::Decode(std::string_view(buf, static_cast<std::size_t>(n)));
    const int fd = udp_fd_;
    // The response datagram doubles as the acknowledgement (§III.F); sendto
    // is per-datagram atomic, so completing from any thread is safe. The
    // peer address travels by value inside the callback.
    auto reply = [fd, peer, peer_len](Response&& response) {
      std::string payload = response.Encode();
      ::sendto(fd, payload.data(), payload.size(), 0,
               reinterpret_cast<const sockaddr*>(&peer), peer_len);
    };
    if (request.ok()) {
      requests_served_.fetch_add(1, std::memory_order_relaxed);
      handler_(std::move(*request), reply);
    } else {
      Response response;
      response.status = Status(StatusCode::kCorruption).raw();
      reply(std::move(response));
    }
  }
}

void EpollServer::CloseConnection(Reactor& r, int fd) {
  auto it = r.connections.find(fd);
  if (it == r.connections.end()) return;
  {
    std::lock_guard<std::mutex> lock(it->second->mu);
    it->second->open = false;
    ::epoll_ctl(r.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
  }
  r.connections.erase(it);
}

}  // namespace zht
