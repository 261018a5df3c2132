// UdpClient: acknowledgement-based UDP RPC (§III.F — "every time a message
// is sent, the sender is waiting for an acknowledge message"; the response
// datagram is the acknowledgement). Lost datagrams are retransmitted with
// exponential back-off; stale responses are discarded by sequence number.
#pragma once

#include <cstdint>
#include <mutex>

#include "net/transport.h"

namespace zht {

struct UdpClientOptions {
  int max_attempts = 4;           // initial send + retransmits
  Nanos initial_rto = 50 * kNanosPerMilli;  // doubles per retransmit
  // CallBatch packs sub-requests into BATCH-envelope datagrams of at most
  // this payload size, kept under a typical Ethernet MTU so no fragment
  // relies on IP-level fragmentation.
  std::size_t max_datagram_bytes = 1400;
};

class UdpClient final : public ClientTransport {
 public:
  explicit UdpClient(UdpClientOptions options = {});
  ~UdpClient() override;

  UdpClient(const UdpClient&) = delete;
  UdpClient& operator=(const UdpClient&) = delete;

  Result<Response> Call(const NodeAddress& to, const Request& request,
                        Nanos timeout) override;

  std::uint64_t retransmits() const { return retransmits_; }

 private:
  // Fragments the batch into MTU-sized BATCH datagrams; each fragment is an
  // independent ack'd exchange (a lost fragment retransmits alone). Safe
  // across retransmits: append dedup keys on each sub-op's (client, seq).
  Result<std::vector<Response>> CallMany(const NodeAddress& to,
                                         std::span<const Request> requests,
                                         Nanos timeout) override;

  UdpClientOptions options_;
  std::mutex call_mu_;  // one in-flight datagram exchange at a time
  int fd_ = -1;
  std::uint64_t next_seq_ = 1;
  std::uint64_t retransmits_ = 0;
};

}  // namespace zht
