#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <type_traits>
#include <unordered_map>

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t HashKey(std::string_view key) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (unsigned char c : key) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

std::atomic<bool> g_tracing{false};

// Per-thread span storage in fixed malloc'd chunks: appends never move
// recorded spans and never go through operator new, so the traced run's
// allocation counts exclude the tracer's own memory.
constexpr std::size_t kChunkSpans = 4096;
struct Chunk {
  Span spans[kChunkSpans];
  std::size_t used = 0;
  Chunk* next = nullptr;
};
struct Buffer {
  Chunk* head = nullptr;  // newest first
};

std::mutex g_buffers_mu;
std::vector<Buffer*>& Buffers() {
  static std::vector<Buffer*> buffers;  // leaked with the process
  return buffers;
}
thread_local Buffer* t_buffer = nullptr;

Buffer* ThreadBuffer() {
  if (t_buffer == nullptr) {
    t_buffer = static_cast<Buffer*>(std::calloc(1, sizeof(Buffer)));
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    Buffers().push_back(t_buffer);
  }
  return t_buffer;
}

}  // namespace

bool TracingOn() { return g_tracing.load(std::memory_order_relaxed); }
void SetTracing(bool on) { g_tracing.store(on, std::memory_order_seq_cst); }

void RecordSpan(const Span& span) {
  Buffer* buffer = ThreadBuffer();
  if (buffer->head == nullptr || buffer->head->used == kChunkSpans) {
    auto* chunk = static_cast<Chunk*>(std::malloc(sizeof(Chunk)));
    if (chunk == nullptr) return;
    chunk->used = 0;
    chunk->next = buffer->head;
    buffer->head = chunk;
  }
  buffer->head->spans[buffer->head->used++] = span;
}

std::vector<Span> CollectSpans() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<Span> out;
  for (Buffer* buffer : Buffers()) {
    for (Chunk* c = buffer->head; c; c = c->next) {
      out.insert(out.end(), c->spans, c->spans + c->used);
    }
  }
  return out;
}

void ClearSpans() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (Buffer* buffer : Buffers()) {
    for (Chunk* c = buffer->head; c;) {
      Chunk* next = c->next;
      std::free(c);
      c = next;
    }
    buffer->head = nullptr;
  }
}

zht::Result<zht::Response> TracingTransport::Call(
    const zht::NodeAddress& to, const zht::Request& request,
    zht::Nanos timeout) {
  if (!TracingOn()) return inner_->Call(to, request, timeout);
  Span span;
  span.kind = kind_;
  span.instance = instance_;
  span.client_id = request.client_id;
  span.seq = request.seq;
  span.key_hash = HashKey(request.key);
  span.start = NowNs();
  auto result = inner_->Call(to, request, timeout);
  span.end = NowNs();
  RecordSpan(span);
  return result;
}

zht::Result<zht::Response> LossyTransport::Call(const zht::NodeAddress& to,
                                                const zht::Request& request,
                                                zht::Nanos timeout) {
  auto result = inner_->Call(to, request, timeout);
  if (request.op == zht::OpCode::kRemove && result.ok() &&
      static_cast<zht::StatusCode>(result->status) == zht::StatusCode::kOk &&
      found_removes_++ % every_ == 0) {
    return zht::Status(zht::StatusCode::kTimeout, "reply lost (self-test)");
  }
  return result;
}

zht::AsyncRequestHandler TraceHandler(zht::AsyncRequestHandler inner,
                                      std::uint16_t instance) {
  return [inner = std::move(inner), instance](zht::Request&& request,
                                              zht::ResponseCallback done) {
    if (!TracingOn()) {
      inner(std::move(request), std::move(done));
      return;
    }
    Span span;
    span.kind = SpanKind::kServer;
    span.detail = static_cast<std::uint8_t>(
        (request.server_origin ? 0x80 : 0) | static_cast<std::uint8_t>(request.op));
    span.instance = instance;
    span.client_id = request.client_id;
    span.seq = request.seq;
    span.key_hash = HashKey(request.key);
    span.start = NowNs();
    inner(std::move(request),
          [span, done = std::move(done)](zht::Response&& response) mutable {
            span.end = NowNs();
            RecordSpan(span);
            done(std::move(response));
          });
  };
}

namespace {

std::atomic<std::int64_t> g_open_stores{0};

class TracedStore final : public zht::KVStore {
 public:
  TracedStore(std::unique_ptr<zht::KVStore> inner, std::uint16_t instance,
              Faults faults)
      : inner_(std::move(inner)), instance_(instance), faults_(faults) {
    g_open_stores.fetch_add(1, std::memory_order_relaxed);
  }
  ~TracedStore() override {
    g_open_stores.fetch_sub(1, std::memory_order_relaxed);
  }
  TracedStore(const TracedStore&) = delete;
  TracedStore& operator=(const TracedStore&) = delete;

  zht::Status Put(std::string_view key, std::string_view value) override {
    if (faults_.stale_get_every != 0) RememberPrevious(key);
    return Timed(kStorePut, key, [&] { return inner_->Put(key, value); });
  }
  zht::Result<std::string> Get(std::string_view key) override {
    auto result =
        Timed(kStoreGet, key, [&] { return inner_->Get(key); });
    if (faults_.stale_get_every != 0 && result.ok() &&
        gets_.fetch_add(1, std::memory_order_relaxed) %
                faults_.stale_get_every ==
            0) {
      std::lock_guard<std::mutex> lock(fault_mu_);
      auto it = previous_.find(std::string(key));
      if (it != previous_.end() && it->second != *result) return it->second;
    }
    return result;
  }
  zht::Status Remove(std::string_view key) override {
    if (faults_.skip_remove_every != 0 &&
        removes_.fetch_add(1, std::memory_order_relaxed) %
                faults_.skip_remove_every ==
            0) {
      if (inner_->Get(key).ok()) return zht::Status::Ok();
    }
    return Timed(kStoreRemove, key, [&] { return inner_->Remove(key); });
  }
  zht::Status Append(std::string_view key, std::string_view value) override {
    if (faults_.stale_get_every != 0) RememberPrevious(key);
    return Timed(kStoreAppend, key,
                 [&] { return inner_->Append(key, value); });
  }
  zht::Status Clear() override { return inner_->Clear(); }
  std::uint64_t Size() const override { return inner_->Size(); }
  void ForEach(const std::function<void(std::string_view, std::string_view)>&
                   fn) const override {
    inner_->ForEach(fn);
  }
  bool persistent() const override { return inner_->persistent(); }
  bool supports_append() const override { return inner_->supports_append(); }
  std::uint64_t last_commit_token() const override {
    return inner_->last_commit_token();
  }
  zht::Status WaitDurable(std::uint64_t token) override {
    return inner_->WaitDurable(token);
  }
  void NotifyDurable(std::uint64_t token,
                     std::function<void(zht::Status)> done) override {
    if (!TracingOn()) {
      inner_->NotifyDurable(token, std::move(done));
      return;
    }
    // The server mutates, then asks for durability of that mutation on the
    // same shard thread, so the wait belongs to the last mutated key.
    Span span;
    span.kind = SpanKind::kDurable;
    span.instance = instance_;
    span.key_hash = last_key_.load(std::memory_order_relaxed);
    span.start = NowNs();
    inner_->NotifyDurable(
        token, [span, done = std::move(done)](zht::Status status) mutable {
          span.end = NowNs();
          RecordSpan(span);
          done(status);
        });
  }
  bool durability_metrics(zht::StoreDurabilityMetrics* out) const override {
    return inner_->durability_metrics(out);
  }

 private:
  template <typename Fn>
  std::invoke_result_t<Fn&> Timed(StoreOp op, std::string_view key, Fn&& fn) {
    if (!TracingOn()) return fn();
    Span span;
    span.kind = SpanKind::kStore;
    span.detail = op;
    span.instance = instance_;
    span.key_hash = HashKey(key);
    if (op != kStoreGet) {
      last_key_.store(span.key_hash, std::memory_order_relaxed);
    }
    span.start = NowNs();
    auto result = fn();
    span.end = NowNs();
    RecordSpan(span);
    return result;
  }

  void RememberPrevious(std::string_view key) {
    auto current = inner_->Get(key);
    if (!current.ok()) return;
    std::lock_guard<std::mutex> lock(fault_mu_);
    previous_[std::string(key)] = std::move(*current);
  }

  std::unique_ptr<zht::KVStore> inner_;
  std::uint16_t instance_;
  Faults faults_;
  std::atomic<std::uint64_t> last_key_{0};
  std::atomic<std::uint64_t> gets_{0};
  std::atomic<std::uint64_t> removes_{0};
  std::mutex fault_mu_;
  std::unordered_map<std::string, std::string> previous_;
};

}  // namespace

zht::StoreFactory DecorateStoreFactory(zht::StoreFactory inner,
                                       Faults faults) {
  return [inner = std::move(inner), faults](
             zht::InstanceId self,
             zht::PartitionId partition) -> std::unique_ptr<zht::KVStore> {
    auto store = inner(self, partition);
    if (!store) return nullptr;
    return std::make_unique<TracedStore>(
        std::move(store), static_cast<std::uint16_t>(self), faults);
  };
}

std::int64_t OpenStores() {
  return g_open_stores.load(std::memory_order_relaxed);
}

std::int64_t CoveredNs(
    std::int64_t start, std::int64_t end,
    std::vector<std::pair<std::int64_t, std::int64_t>> children) {
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t cursor = start;
  for (auto [lo, hi] : children) {
    lo = std::max(lo, cursor);
    hi = std::min(hi, end);
    if (hi <= lo) continue;
    covered += hi - lo;
    cursor = hi;
  }
  return covered;
}

}  // namespace perfbench
