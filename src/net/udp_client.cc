#include "net/udp_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "serialize/batch.h"

namespace zht {

UdpClient::UdpClient(UdpClientOptions options) : options_(options) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
}

UdpClient::~UdpClient() {
  if (fd_ >= 0) ::close(fd_);
}

Result<Response> UdpClient::Call(const NodeAddress& to, const Request& request,
                                 Nanos timeout) {
  std::lock_guard<std::mutex> lock(call_mu_);
  if (fd_ < 0) return Status(StatusCode::kNetwork, "udp socket unavailable");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(to.port);
  if (::inet_pton(AF_INET, to.host.c_str(), &addr.sin_addr) != 1) {
    return Status(StatusCode::kInvalidArgument, "bad host: " + to.host);
  }

  // Ensure a matchable sequence number (callers usually set one already).
  Request sent = request;
  if (sent.seq == 0) sent.seq = next_seq_++;
  std::string payload = sent.Encode();

  const Clock& clock = SystemClock::Instance();
  Nanos deadline = clock.Now() + timeout;
  Nanos rto = options_.initial_rto;

  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) ++retransmits_;
    if (::sendto(fd_, payload.data(), payload.size(), 0,
                 reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      return Status(StatusCode::kNetwork,
                    std::string("sendto: ") + std::strerror(errno));
    }

    Nanos attempt_deadline = std::min(deadline, clock.Now() + rto);
    rto *= 2;  // exponential back-off

    char buf[64 << 10];
    for (;;) {
      Nanos remaining = attempt_deadline - clock.Now();
      if (remaining <= 0) break;  // retransmit
      pollfd pfd{fd_, POLLIN, 0};
      int pr =
          ::poll(&pfd, 1, static_cast<int>(remaining / kNanosPerMilli) + 1);
      if (pr < 0 && errno != EINTR) {
        return Status(StatusCode::kNetwork, "poll failed");
      }
      if (pr <= 0) continue;
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        return Status(StatusCode::kNetwork,
                      std::string("recv: ") + std::strerror(errno));
      }
      auto response =
          Response::Decode(std::string_view(buf, static_cast<std::size_t>(n)));
      if (!response.ok()) continue;  // garbage datagram
      if (response->seq != sent.seq) continue;  // stale duplicate
      return *response;
    }
    if (clock.Now() >= deadline) break;
  }
  return Status(StatusCode::kTimeout,
                "no acknowledgement from " + to.ToString());
}

Result<std::vector<Response>> UdpClient::CallMany(
    const NodeAddress& to, std::span<const Request> requests, Nanos timeout) {
  const Clock& clock = SystemClock::Instance();
  const Nanos deadline = clock.Now() + timeout;

  auto chunks = ChunkBatch(requests, options_.max_datagram_bytes);
  std::vector<Response> responses;
  responses.reserve(requests.size());
  for (const auto& chunk : chunks) {
    Nanos remaining = deadline - clock.Now();
    if (remaining <= 0) return Status(StatusCode::kTimeout, "batch timeout");
    // Call() assigns the carrier's datagram seq, acks it, and retransmits
    // on loss; a retransmitted carrier re-applies sub-ops whose own seqs
    // are unchanged, so server-side append dedup still holds.
    Request carrier = PackBatchRequest(chunk, /*seq=*/0);
    auto reply = Call(to, carrier, remaining);
    if (!reply.ok()) return reply.status();
    auto subs = UnpackBatchResponse(*reply, chunk.size());
    if (!subs.ok()) return subs.status();
    for (auto& sub : *subs) responses.push_back(std::move(sub));
  }
  return responses;
}

}  // namespace zht
