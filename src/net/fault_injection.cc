#include "net/fault_injection.h"

#include <algorithm>
#include <thread>

namespace zht {
namespace {

// splitmix64: the decision for a rule's k-th match is a pure function of
// (plan seed, rule id, k), independent of how calls interleave with other
// rules or threads.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double MixToUnit(std::uint64_t x) {  // [0, 1)
  return static_cast<double>(Mix(x) >> 11) * (1.0 / 9007199254740992.0);
}

bool Contains(const std::vector<NodeAddress>& group, const NodeAddress& a) {
  return std::find(group.begin(), group.end(), a) != group.end();
}

}  // namespace

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDropRequest: return "drop-request";
    case FaultKind::kDropResponse: return "drop-response";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kDuplicate: return "duplicate";
  }
  return "unknown";
}

int FaultPlan::AddRule(const FaultRule& rule) {
  std::lock_guard<std::mutex> lock(mu_);
  rules_.push_back(ActiveRule{next_id_, rule, 0, 0});
  return next_id_++;
}

void FaultPlan::RemoveRule(int id) {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(rules_, [id](const ActiveRule& r) { return r.id == id; });
}

int FaultPlan::AddPartition(std::vector<NodeAddress> group_a,
                            std::vector<NodeAddress> group_b) {
  std::lock_guard<std::mutex> lock(mu_);
  partitions_.push_back(
      PartitionCut{next_id_, std::move(group_a), std::move(group_b)});
  return next_id_++;
}

void FaultPlan::RemovePartition(int id) {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(partitions_,
                [id](const PartitionCut& p) { return p.id == id; });
}

void FaultPlan::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  rules_.clear();
  partitions_.clear();
}

FaultDecision FaultPlan::Decide(const std::optional<NodeAddress>& from,
                                const NodeAddress& to, OpCode op,
                                bool server_origin) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.decisions;
  FaultDecision decision;

  if (from) {
    for (const PartitionCut& cut : partitions_) {
      const bool a_to_b = Contains(cut.group_a, *from) &&
                          Contains(cut.group_b, to);
      const bool b_to_a = Contains(cut.group_b, *from) &&
                          Contains(cut.group_a, to);
      if (a_to_b || b_to_a) {
        decision.drop_request = true;
        ++stats_.partition_blocks;
        ++stats_.dropped_requests;
        return decision;  // blocked outright; no point evaluating rules
      }
    }
  }

  for (ActiveRule& active : rules_) {
    const FaultRule& rule = active.rule;
    if (rule.to && *rule.to != to) continue;
    if (rule.op && *rule.op != op) continue;
    if (rule.client_only && server_origin) continue;
    const std::uint64_t match = active.matches++;
    if (match < rule.skip_first) continue;
    if (active.injected >= rule.max_faults) continue;
    const std::uint64_t draw =
        seed_ ^ (static_cast<std::uint64_t>(active.id) << 32) ^ match;
    if (rule.probability < 1.0 && MixToUnit(draw) >= rule.probability) {
      continue;
    }
    ++active.injected;
    switch (rule.kind) {
      case FaultKind::kDropRequest:
        decision.drop_request = true;
        ++stats_.dropped_requests;
        break;
      case FaultKind::kDropResponse:
        decision.drop_response = true;
        ++stats_.dropped_responses;
        break;
      case FaultKind::kDuplicate:
        decision.duplicate = true;
        ++stats_.duplicates;
        break;
      case FaultKind::kDelay: {
        Nanos jitter = rule.delay_jitter > 0
                           ? static_cast<Nanos>(MixToUnit(Mix(draw)) *
                                                static_cast<double>(
                                                    rule.delay_jitter))
                           : 0;
        decision.delay += rule.delay + jitter;
        ++stats_.delays;
        break;
      }
    }
  }
  return decision;
}

FaultPlanStats FaultPlan::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Result<Response> FaultInjectingTransport::Call(const NodeAddress& to,
                                               const Request& request,
                                               Nanos timeout) {
  FaultDecision d =
      plan_->Decide(self_, to, request.op, request.server_origin);
  if (d.drop_request) {
    return Status(StatusCode::kTimeout, "injected: request dropped");
  }
  if (d.delay > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(d.delay));
  }
  auto response = inner_->Call(to, request, timeout);
  if (d.duplicate) {
    // The retransmitted copy also reaches the peer; the caller still gets
    // one reply (the first), as with a duplicated datagram.
    auto second = inner_->Call(to, request, timeout);
    if (!response.ok()) response = std::move(second);
  }
  if (d.drop_response) {
    return Status(StatusCode::kTimeout, "injected: response dropped");
  }
  return response;
}

Result<std::vector<Response>> FaultInjectingTransport::CallMany(
    const NodeAddress& to, std::span<const Request> requests, Nanos timeout) {
  FaultDecision d = plan_->Decide(self_, to, OpCode::kBatch,
                                  requests.front().server_origin);
  if (d.drop_request) {
    return Status(StatusCode::kTimeout, "injected: batch dropped");
  }
  if (d.delay > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(d.delay));
  }
  auto responses = inner_->CallBatch(to, requests, timeout);
  if (d.duplicate) {
    auto second = inner_->CallBatch(to, requests, timeout);
    if (!responses.ok()) responses = std::move(second);
  }
  if (d.drop_response) {
    return Status(StatusCode::kTimeout, "injected: batch response dropped");
  }
  return responses;
}

// ---- History recording --------------------------------------------------

std::uint64_t HistoryRecorder::Begin(std::uint64_t client, OpCode op,
                                     std::string_view key,
                                     std::string_view argument) {
  std::lock_guard<std::mutex> lock(mu_);
  HistoryEvent event;
  event.id = events_.size() + 1;
  event.client = client;
  event.op = op;
  event.key.assign(key);
  event.argument.assign(argument);
  event.invoked = next_time_++;
  events_.push_back(std::move(event));
  return events_.back().id;
}

void HistoryRecorder::End(std::uint64_t id, StatusCode result,
                          std::string_view returned) {
  std::lock_guard<std::mutex> lock(mu_);
  HistoryEvent& event = events_.at(id - 1);
  event.completed = next_time_++;
  event.result = result;
  event.returned.assign(returned);
}

std::vector<HistoryEvent> HistoryRecorder::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::size_t HistoryRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void HistoryRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  next_time_ = 1;
}

}  // namespace zht
