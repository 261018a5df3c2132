// Deterministic fault injection (§III.H, §III.I): a decorator over any
// ClientTransport that applies a seeded, scripted FaultPlan — per-destination
// and per-opcode request drops, drop-response-after-apply (the server state
// mutates but the caller sees a timeout), fixed/jittered delays, duplicate
// delivery (a retransmission whose first copy also arrived), bounded fault
// windows, and symmetric network partitions.
//
// Decisions are pure functions of (seed, rule id, per-rule match index), not
// of a shared RNG stream, so a schedule whose probabilistic rules match only
// single-threaded traffic replays bit-for-bit from its seed. Rules matching
// probability 1.0 are deterministic under any interleaving.
//
// HistoryRecorder rides along: it stamps client operations with logical
// invocation/completion timestamps so a checker (tests/history_checker.h)
// can validate the recorded history against a sequential map model.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "net/transport.h"

namespace zht {

enum class FaultKind : std::uint8_t {
  kDropRequest,   // fail before delivery: the peer never sees the message
  kDropResponse,  // deliver (peer state applies), then discard the reply
  kDelay,         // deliver after a fixed + jittered pause
  kDuplicate,     // deliver twice back-to-back (retransmit with a lost ack)
};

std::string_view FaultKindName(FaultKind kind);

// One scripted fault. Unset matchers mean "any"; `skip_first`/`max_faults`
// bound the rule to an N-call window of its own matches.
struct FaultRule {
  FaultKind kind = FaultKind::kDropRequest;
  std::optional<NodeAddress> to;  // match a single destination
  std::optional<OpCode> op;       // match a single opcode (a batch of two
                                  // or more: kBatch)
  bool client_only = false;       // skip server_origin (peer/manager) traffic
  double probability = 1.0;       // per matching call
  Nanos delay = 0;                // kDelay: fixed part
  Nanos delay_jitter = 0;         // kDelay: uniform extra in [0, jitter)
  std::uint64_t skip_first = 0;   // let this many matches through unfaulted
  std::uint64_t max_faults = std::numeric_limits<std::uint64_t>::max();
};

// What a single call should suffer (the union of every matching rule).
struct FaultDecision {
  bool drop_request = false;
  bool drop_response = false;
  bool duplicate = false;
  Nanos delay = 0;
};

struct FaultPlanStats {
  std::uint64_t decisions = 0;
  std::uint64_t dropped_requests = 0;   // includes partition blocks
  std::uint64_t dropped_responses = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t delays = 0;
  std::uint64_t partition_blocks = 0;
};

// A thread-safe, shareable fault script. Every FaultInjectingTransport of a
// cluster points at one plan, so a test scripts the whole deployment's
// network behavior in one place.
class FaultPlan {
 public:
  explicit FaultPlan(std::uint64_t seed = 0xfa'017'ab1eULL) : seed_(seed) {}

  // Returns a handle for RemoveRule.
  int AddRule(const FaultRule& rule);
  void RemoveRule(int id);

  // Symmetric partition: traffic between the two groups is blocked in both
  // directions (calls whose transport has no identity are never blocked).
  int AddPartition(std::vector<NodeAddress> group_a,
                   std::vector<NodeAddress> group_b);
  void RemovePartition(int id);

  // Removes every rule and partition (counters keep accumulating).
  void Clear();

  FaultDecision Decide(const std::optional<NodeAddress>& from,
                       const NodeAddress& to, OpCode op, bool server_origin);

  FaultPlanStats stats() const;

 private:
  struct ActiveRule {
    int id = 0;
    FaultRule rule;
    std::uint64_t matches = 0;   // calls that matched the rule's filters
    std::uint64_t injected = 0;  // faults actually applied
  };
  struct PartitionCut {
    int id = 0;
    std::vector<NodeAddress> group_a;
    std::vector<NodeAddress> group_b;
  };

  const std::uint64_t seed_;
  mutable std::mutex mu_;
  std::vector<ActiveRule> rules_;
  std::vector<PartitionCut> partitions_;
  int next_id_ = 1;
  FaultPlanStats stats_;
};

// The decorator. Owns the wrapped transport; shares the plan. `self`
// identifies which node's traffic this transport carries (used by
// partitions; clients typically have no identity).
class FaultInjectingTransport final : public ClientTransport {
 public:
  FaultInjectingTransport(std::unique_ptr<ClientTransport> inner,
                          std::shared_ptr<FaultPlan> plan,
                          std::optional<NodeAddress> self = std::nullopt)
      : inner_(std::move(inner)), plan_(std::move(plan)),
        self_(std::move(self)) {}

  Result<Response> Call(const NodeAddress& to, const Request& request,
                        Nanos timeout) override;

  void Invalidate(const NodeAddress& to) override { inner_->Invalidate(to); }

  ClientTransport* inner() { return inner_.get(); }

 private:
  // A batch of two or more shares one carrier on the wire, so it suffers
  // one decision (matched as OpCode::kBatch): a dropped request loses every
  // sub-op, a dropped response loses every ack after every sub-op applied.
  // A one-request batch is a plain Call and matches its own opcode.
  Result<std::vector<Response>> CallMany(const NodeAddress& to,
                                         std::span<const Request> requests,
                                         Nanos timeout) override;

  std::unique_ptr<ClientTransport> inner_;
  std::shared_ptr<FaultPlan> plan_;
  std::optional<NodeAddress> self_;
};

// ---- History recording --------------------------------------------------

// One client-visible operation. Timestamps are ticks of a recorder-global
// logical clock: `invoked` when the client issued the call, `completed`
// when it returned (0 while still pending). The operation's true effect
// point, if any, lies somewhere in [invoked, completed].
struct HistoryEvent {
  std::uint64_t id = 0;      // 1-based, assigned by Begin
  std::uint64_t client = 0;  // logical client issuing the op
  OpCode op = OpCode::kPing;
  std::string key;
  std::string argument;      // insert/append payload
  std::uint64_t invoked = 0;
  std::uint64_t completed = 0;
  // Pending events (completed == 0) are treated like timeouts: the op may
  // or may not have taken effect.
  StatusCode result = StatusCode::kTimeout;
  std::string returned;      // lookup payload
};

// Thread-safe log of operations for the history checker. The recorder does
// not interpose on the transport: callers bracket each logical operation
// with Begin/End so the window covers the client's whole retry loop (which
// is what a linearizability window must span).
class HistoryRecorder {
 public:
  std::uint64_t Begin(std::uint64_t client, OpCode op, std::string_view key,
                      std::string_view argument);
  void End(std::uint64_t id, StatusCode result, std::string_view returned = {});

  std::vector<HistoryEvent> Events() const;
  std::size_t size() const;
  void Clear();

 private:
  mutable std::mutex mu_;
  std::uint64_t next_time_ = 1;
  std::vector<HistoryEvent> events_;
};

}  // namespace zht
