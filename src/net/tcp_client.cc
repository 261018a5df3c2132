#include "net/tcp_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "net/framing.h"
#include "serialize/batch.h"

namespace zht {
namespace {

// Blocking-with-deadline write of the whole buffer.
Status WriteWithDeadline(int fd, std::string_view data, const Clock& clock,
                         Nanos deadline) {
  std::size_t written = 0;
  while (written < data.size()) {
    Nanos remaining = deadline - clock.Now();
    if (remaining <= 0) return Status(StatusCode::kTimeout, "write timeout");
    pollfd pfd{fd, POLLOUT, 0};
    int pr = ::poll(&pfd, 1, static_cast<int>(remaining / kNanosPerMilli) + 1);
    if (pr < 0 && errno != EINTR) {
      return Status(StatusCode::kNetwork, "poll failed");
    }
    if (pr <= 0) continue;
    ssize_t n = ::send(fd, data.data() + written, data.size() - written,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return Status(StatusCode::kNetwork,
                    std::string("send: ") + std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

// Reads one frame. `carry` accumulates stream bytes across calls;
// `carry_offset` is the consumed-frame cursor (frames are not erased per
// read — the pipelined CallBatch loop drains many frames from one buffer,
// and a per-frame front erase would make that quadratic).
Result<std::string> ReadFrameWithDeadline(int fd, const Clock& clock,
                                          Nanos deadline, std::string* carry,
                                          std::size_t* carry_offset) {
  char buf[1 << 16];
  for (;;) {
    bool malformed = false;
    if (auto payload = ExtractFrameAt(*carry, carry_offset, &malformed)) {
      return std::string(*payload);
    }
    if (malformed) return Status(StatusCode::kCorruption, "bad frame");

    Nanos remaining = deadline - clock.Now();
    if (remaining <= 0) return Status(StatusCode::kTimeout, "read timeout");
    pollfd pfd{fd, POLLIN, 0};
    int pr = ::poll(&pfd, 1, static_cast<int>(remaining / kNanosPerMilli) + 1);
    if (pr < 0 && errno != EINTR) {
      return Status(StatusCode::kNetwork, "poll failed");
    }
    if (pr <= 0) continue;
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n == 0) return Status(StatusCode::kNetwork, "peer closed");
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return Status(StatusCode::kNetwork,
                    std::string("read: ") + std::strerror(errno));
    }
    carry->append(buf, static_cast<std::size_t>(n));
  }
}

Result<int> ConnectTo(const NodeAddress& to, const Clock& clock,
                      Nanos deadline) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(to.port);
  if (::inet_pton(AF_INET, to.host.c_str(), &addr.sin_addr) != 1) {
    return Status(StatusCode::kInvalidArgument, "bad host: " + to.host);
  }
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status(StatusCode::kNetwork, "socket failed");
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno != EINPROGRESS) {
    ::close(fd);
    return Status(StatusCode::kNetwork,
                  std::string("connect: ") + std::strerror(errno));
  }
  if (rc < 0) {
    // Await completion with the deadline.
    for (;;) {
      Nanos remaining = deadline - clock.Now();
      if (remaining <= 0) {
        ::close(fd);
        return Status(StatusCode::kTimeout, "connect timeout");
      }
      pollfd pfd{fd, POLLOUT, 0};
      int pr =
          ::poll(&pfd, 1, static_cast<int>(remaining / kNanosPerMilli) + 1);
      if (pr < 0 && errno != EINTR) {
        ::close(fd);
        return Status(StatusCode::kNetwork, "poll failed");
      }
      if (pr > 0) break;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      ::close(fd);
      return Status(StatusCode::kNetwork,
                    std::string("connect: ") + std::strerror(err));
    }
  }
  return fd;
}

}  // namespace

TcpClient::~TcpClient() {
  for (auto& idle : lru_) ::close(idle.fd);
}

void TcpClient::EvictLruLocked() {
  if (lru_.empty()) return;
  IdleSocket victim = lru_.back();
  auto victim_it = std::prev(lru_.end());
  auto pool = idle_.find(victim.to);
  if (pool != idle_.end()) {
    auto& slots = pool->second;
    slots.erase(std::remove(slots.begin(), slots.end(), victim_it),
                slots.end());
    if (slots.empty()) idle_.erase(pool);
  }
  lru_.pop_back();
  ::close(victim.fd);
  evictions_.fetch_add(1, std::memory_order_relaxed);
}

void TcpClient::Release(const NodeAddress& to, int fd, bool healthy) {
  if (!healthy || !options_.cache_connections) {
    ::close(fd);
    return;
  }
  std::lock_guard<std::mutex> lock(cache_mu_);
  while (lru_.size() >= options_.cache_capacity) EvictLruLocked();
  lru_.push_front(IdleSocket{to, fd});
  idle_[to].push_back(lru_.begin());
}

void TcpClient::Invalidate(const NodeAddress& to) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto pool = idle_.find(to);
  if (pool == idle_.end()) return;
  for (auto it : pool->second) {
    ::close(it->fd);
    lru_.erase(it);
  }
  idle_.erase(pool);
}

Result<int> TcpClient::Acquire(const NodeAddress& to, const Clock& clock,
                               Nanos deadline, bool* from_cache) {
  *from_cache = false;
  if (options_.cache_connections) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto pool = idle_.find(to);
    if (pool != idle_.end() && !pool->second.empty()) {
      // Most-recently-released socket first (it is the least likely to
      // have gone stale behind an idle timeout).
      auto it = pool->second.back();
      pool->second.pop_back();
      if (pool->second.empty()) idle_.erase(pool);
      int fd = it->fd;
      lru_.erase(it);
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      *from_cache = true;
      return fd;
    }
  }
  connects_.fetch_add(1, std::memory_order_relaxed);
  return ConnectTo(to, clock, deadline);
}

Result<Response> TcpClient::Call(const NodeAddress& to, const Request& request,
                                 Nanos timeout) {
  const Clock& clock = SystemClock::Instance();
  const Nanos deadline = clock.Now() + timeout;
  const std::string frame = FrameMessage(request.Encode());

  // A cached connection may have gone stale (server restarted, idle
  // timeout): a failure on a cached socket earns exactly one retry on a
  // fresh connection. Failures on a fresh connection are definitive.
  for (int round = 0; round < 2; ++round) {
    bool from_cache = false;
    auto acquired = Acquire(to, clock, deadline, &from_cache);
    if (!acquired.ok()) return acquired.status();
    int fd = *acquired;
    if (round > 0) from_cache = false;

    Status status = WriteWithDeadline(fd, frame, clock, deadline);
    if (status.ok()) {
      std::string carry;
      std::size_t carry_offset = 0;
      auto payload =
          ReadFrameWithDeadline(fd, clock, deadline, &carry, &carry_offset);
      if (payload.ok()) {
        auto response = Response::Decode(*payload);
        if (!response.ok()) {
          ::close(fd);
          return response.status();
        }
        Release(to, fd, /*healthy=*/true);
        return *response;
      }
      status = payload.status();
    }
    ::close(fd);
    if (from_cache && status.code() == StatusCode::kNetwork) {
      continue;  // stale cached socket: one fresh retry
    }
    return status;
  }
  return Status(StatusCode::kNetwork, "unreachable");
}

Result<std::vector<Response>> TcpClient::CallMany(
    const NodeAddress& to, std::span<const Request> requests, Nanos timeout) {
  const Clock& clock = SystemClock::Instance();
  const Nanos deadline = clock.Now() + timeout;

  // Chunk under the frame budget, then concatenate every chunk's BATCH
  // frame: one write puts the whole pipeline on the wire before the first
  // response is read.
  auto chunks = ChunkBatch(requests, options_.max_batch_bytes);
  std::string wire_bytes;
  std::uint64_t seq = requests.front().seq != 0 ? requests.front().seq : 1;
  for (const auto& chunk : chunks) {
    Request carrier = PackBatchRequest(chunk, seq++);
    wire_bytes += FrameMessage(carrier.Encode());
  }

  for (int round = 0; round < 2; ++round) {
    bool from_cache = false;
    auto acquired = Acquire(to, clock, deadline, &from_cache);
    if (!acquired.ok()) return acquired.status();
    int fd = *acquired;
    if (round > 0) from_cache = false;

    Status status = WriteWithDeadline(fd, wire_bytes, clock, deadline);
    if (status.ok()) {
      std::string carry;
      std::size_t carry_offset = 0;
      std::vector<Response> responses;
      responses.reserve(requests.size());
      for (const auto& chunk : chunks) {
        auto payload =
            ReadFrameWithDeadline(fd, clock, deadline, &carry, &carry_offset);
        if (!payload.ok()) {
          status = payload.status();
          break;
        }
        auto carrier = Response::Decode(*payload);
        if (!carrier.ok()) {
          ::close(fd);
          return carrier.status();
        }
        auto subs = UnpackBatchResponse(*carrier, chunk.size());
        if (!subs.ok()) {
          ::close(fd);
          return subs.status();
        }
        for (auto& sub : *subs) responses.push_back(std::move(sub));
      }
      if (responses.size() == requests.size()) {
        Release(to, fd, /*healthy=*/true);
        return responses;
      }
    }
    ::close(fd);
    if (from_cache && status.code() == StatusCode::kNetwork) {
      continue;  // stale cached socket: one fresh retry
    }
    return status;
  }
  return Status(StatusCode::kNetwork, "unreachable");
}

}  // namespace zht
