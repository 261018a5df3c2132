// Tracing for the benchmark's traced run. Spans are recorded from outside
// the program, by decorators around the public boundaries of each layer:
//
//   kOp        one ZhtClient call, timed by the load thread;
//   kTransport one ClientTransport::Call of a client (TcpClient underneath);
//   kServer    one AsyncRequestHandler invocation (ZhtServer::HandleAsync)
//              until its ResponseCallback fires;
//   kStore     one KVStore Put/Get/Append/Remove (NoVoHT underneath);
//   kDurable   KVStore::NotifyDurable until its callback fires;
//   kPeer      one ClientTransport::Call of a server's peer link.
//
// Spans stay in per-thread memory buffers and are joined after the run:
// transport ↔ server on (client_id, seq), and store/durable/peer ↔ server
// on (instance, key) inside the server span's interval.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/zht_server.h"
#include "net/transport.h"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kOp, kTransport, kServer, kStore, kDurable, kPeer
};

// Store span sub-kinds (Span::detail for kStore).
enum StoreOp : std::uint8_t { kStorePut, kStoreGet, kStoreAppend, kStoreRemove };

struct Span {
  SpanKind kind = SpanKind::kOp;
  std::uint8_t detail = 0;     // kStore: StoreOp; kServer: OpCode, 0x80 =
                               // server origin; kOp: benchmark Op
  std::uint16_t instance = 0;  // server-side spans
  std::uint64_t client_id = 0;
  std::uint64_t seq = 0;
  std::uint64_t key_hash = 0;
  std::int64_t start = 0;      // steady_clock ns
  std::int64_t end = 0;
};

std::int64_t NowNs();
std::uint64_t HashKey(std::string_view key);

// Global recording switch (decorators are pass-through while off).
bool TracingOn();
void SetTracing(bool on);
void RecordSpan(const Span& span);
// Every span recorded so far, from every thread's buffer. Call only while
// no thread records.
std::vector<Span> CollectSpans();
void ClearSpans();

// --- decorators ---

// Records a kTransport (client side) or kPeer (server peer link, with the
// sending instance) span around every Call.
class TracingTransport final : public zht::ClientTransport {
 public:
  TracingTransport(std::unique_ptr<zht::ClientTransport> inner, SpanKind kind,
                   std::uint16_t instance)
      : inner_(std::move(inner)), kind_(kind), instance_(instance) {}
  zht::Result<zht::Response> Call(const zht::NodeAddress& to,
                                  const zht::Request& request,
                                  zht::Nanos timeout) override;
  void Invalidate(const zht::NodeAddress& to) override {
    inner_->Invalidate(to);
  }

 private:
  std::unique_ptr<zht::ClientTransport> inner_;
  SpanKind kind_;
  std::uint16_t instance_;
};

// Wraps a server's request handler with kServer spans.
zht::AsyncRequestHandler TraceHandler(zht::AsyncRequestHandler inner,
                                      std::uint16_t instance);

// Fault knobs for the benchmark's self-tests (never set in measured runs).
struct Faults {
  // Serve the value a key held before its latest overwrite on 1 in N gets
  // (0 = never): a stale read the model must flag.
  std::uint32_t stale_get_every = 0;
  // Acknowledge but skip 1 in N removes (0 = never): the removed key stays
  // readable, as a resurrected key would.
  std::uint32_t skip_remove_every = 0;
  // Lose the reply of 1 in N removes that found their key (0 = never), so
  // the client resends an applied remove: an honest kNotFound.
  std::uint32_t lose_remove_reply_every = 0;
};

// Decorates every store the inner factory builds: kStore / kDurable spans
// (when tracing), the live-store count, and the optional faults.
zht::StoreFactory DecorateStoreFactory(zht::StoreFactory inner,
                                       Faults faults);
std::int64_t OpenStores();

// A client transport that loses replies as Faults::lose_remove_reply_every
// says: the server applied the remove, the caller sees a timeout.
class LossyTransport final : public zht::ClientTransport {
 public:
  LossyTransport(std::unique_ptr<zht::ClientTransport> inner,
                 std::uint32_t every)
      : inner_(std::move(inner)), every_(every) {}
  zht::Result<zht::Response> Call(const zht::NodeAddress& to,
                                  const zht::Request& request,
                                  zht::Nanos timeout) override;
  void Invalidate(const zht::NodeAddress& to) override {
    inner_->Invalidate(to);
  }

 private:
  std::unique_ptr<zht::ClientTransport> inner_;
  std::uint32_t every_;
  std::uint64_t found_removes_ = 0;
};

// --- span arithmetic ---

// Nanoseconds of [start, end) covered by the union of `children`
// (clipped to the parent interval). Children may overlap.
std::int64_t CoveredNs(std::int64_t start, std::int64_t end,
                       std::vector<std::pair<std::int64_t, std::int64_t>>
                           children);

// Parent duration minus the union of its children: the layer's own time.
// Invariant: SelfNs + CoveredNs == end - start.
inline std::int64_t SelfNs(
    std::int64_t start, std::int64_t end,
    std::vector<std::pair<std::int64_t, std::int64_t>> children) {
  return (end - start) - CoveredNs(start, end, std::move(children));
}

}  // namespace perfbench
