#include "serialize/envelope.h"

#include "common/crc32.h"
#include "serialize/wire.h"

namespace zht {
namespace {

// Field numbers are part of the wire contract; never renumber.
enum ReqField : std::uint32_t {
  kReqOp = 1,
  kReqSeq = 2,
  kReqKey = 3,
  kReqValue = 4,
  kReqEpoch = 5,
  kReqPartition = 6,
  kReqReplicaIndex = 7,
  kReqServerOrigin = 8,
  kReqClientId = 9,
};

enum RespField : std::uint32_t {
  kRespSeq = 1,
  kRespStatus = 2,
  kRespValue = 3,
  kRespEpoch = 4,
  kRespMembership = 5,
  kRespRedirectHost = 6,
  kRespRedirectPort = 7,
  kRespRetryAfter = 8,
};

}  // namespace

std::string_view OpCodeName(OpCode op) {
  switch (op) {
    case OpCode::kInsert: return "INSERT";
    case OpCode::kLookup: return "LOOKUP";
    case OpCode::kRemove: return "REMOVE";
    case OpCode::kAppend: return "APPEND";
    case OpCode::kPing: return "PING";
    case OpCode::kMembershipPull: return "MEMBERSHIP_PULL";
    case OpCode::kMembershipPush: return "MEMBERSHIP_PUSH";
    case OpCode::kJoinRequest: return "JOIN_REQUEST";
    case OpCode::kDepartRequest: return "DEPART_REQUEST";
    case OpCode::kBroadcast: return "BROADCAST";
    case OpCode::kMigrateOut: return "MIGRATE_OUT";
    case OpCode::kRepair: return "REPAIR";
    case OpCode::kStats: return "STATS";
    case OpCode::kBatch: return "BATCH";
    case OpCode::kDigest: return "DIGEST";
    case OpCode::kTransferBegin: return "TRANSFER_BEGIN";
    case OpCode::kTransferData: return "TRANSFER_DATA";
    case OpCode::kTransferEnd: return "TRANSFER_END";
  }
  return "UNKNOWN";
}

void PartitionDigest::Add(std::string_view key, std::string_view value) {
  ++count;
  // Chain the key's CRC into the value's seed so the pair hashes as a unit
  // ((ab, c) and (a, bc) differ); XOR keeps the fold order-free.
  crc ^= Crc32c(value, Crc32c(key));
}

std::string PartitionDigest::Encode() const {
  std::string out;
  wire::Writer w(&out);
  w.PutVarintField(1, count);
  w.PutVarintField(2, crc);
  return out;
}

Result<PartitionDigest> PartitionDigest::Decode(std::string_view data) {
  PartitionDigest digest;
  wire::Reader r(data);
  while (!r.AtEnd()) {
    std::uint32_t field;
    wire::WireType type;
    if (!r.GetTag(&field, &type)) {
      return Status(StatusCode::kCorruption, "bad digest tag");
    }
    std::uint64_t v = 0;
    switch (field) {
      case 1:
        if (!r.GetVarint(&v)) return Status(StatusCode::kCorruption, "count");
        digest.count = v;
        break;
      case 2:
        if (!r.GetVarint(&v)) return Status(StatusCode::kCorruption, "crc");
        digest.crc = static_cast<std::uint32_t>(v);
        break;
      default:
        if (!r.SkipValue(type)) {
          return Status(StatusCode::kCorruption, "unknown digest field");
        }
    }
  }
  return digest;
}

std::uint64_t Request::DedupKey() const {
  if (client_id == 0 || seq == 0) return 0;
  return client_id * 0x9e3779b97f4a7c15ull ^ seq * 0xff51afd7ed558ccdull ^
         replica_index;
}

std::string Request::Encode() const {
  std::string out;
  wire::Writer w(&out);
  w.PutVarintField(kReqOp, static_cast<std::uint64_t>(op));
  if (seq != 0) w.PutVarintField(kReqSeq, seq);
  if (!key.empty()) w.PutStringField(kReqKey, key);
  if (!value.empty()) w.PutStringField(kReqValue, value);
  if (epoch != 0) w.PutVarintField(kReqEpoch, epoch);
  if (partition != 0) w.PutVarintField(kReqPartition, partition);
  if (replica_index != 0) w.PutVarintField(kReqReplicaIndex, replica_index);
  if (server_origin) w.PutVarintField(kReqServerOrigin, 1);
  if (client_id != 0) w.PutVarintField(kReqClientId, client_id);
  return out;
}

Result<Request> Request::Decode(std::string_view data) {
  Request req;
  wire::Reader r(data);
  bool saw_op = false;
  while (!r.AtEnd()) {
    std::uint32_t field;
    wire::WireType type;
    if (!r.GetTag(&field, &type)) {
      return Status(StatusCode::kCorruption, "bad request tag");
    }
    std::uint64_t v = 0;
    std::string_view s;
    switch (field) {
      case kReqOp:
        if (!r.GetVarint(&v)) return Status(StatusCode::kCorruption, "op");
        if (v < 1 || v > 22) {
          return Status(StatusCode::kCorruption, "unknown opcode");
        }
        req.op = static_cast<OpCode>(v);
        saw_op = true;
        break;
      case kReqSeq:
        if (!r.GetVarint(&v)) return Status(StatusCode::kCorruption, "seq");
        req.seq = v;
        break;
      case kReqKey:
        if (!r.GetLengthDelimited(&s)) {
          return Status(StatusCode::kCorruption, "key");
        }
        req.key.assign(s);
        break;
      case kReqValue:
        if (!r.GetLengthDelimited(&s)) {
          return Status(StatusCode::kCorruption, "value");
        }
        req.value.assign(s);
        break;
      case kReqEpoch:
        if (!r.GetVarint(&v)) return Status(StatusCode::kCorruption, "epoch");
        req.epoch = static_cast<std::uint32_t>(v);
        break;
      case kReqPartition:
        if (!r.GetVarint(&v)) {
          return Status(StatusCode::kCorruption, "partition");
        }
        req.partition = static_cast<std::uint32_t>(v);
        break;
      case kReqReplicaIndex:
        if (!r.GetVarint(&v)) {
          return Status(StatusCode::kCorruption, "replica_index");
        }
        req.replica_index = static_cast<std::uint8_t>(v);
        break;
      case kReqServerOrigin:
        if (!r.GetVarint(&v)) {
          return Status(StatusCode::kCorruption, "server_origin");
        }
        req.server_origin = (v != 0);
        break;
      case kReqClientId:
        if (!r.GetVarint(&v)) {
          return Status(StatusCode::kCorruption, "client_id");
        }
        req.client_id = v;
        break;
      default:
        // Unknown field: skip for forward compatibility.
        if (!r.SkipValue(type)) {
          return Status(StatusCode::kCorruption, "unknown field");
        }
    }
  }
  if (!saw_op) return Status(StatusCode::kCorruption, "missing opcode");
  return req;
}

std::string Response::Encode() const {
  std::string out;
  wire::Writer w(&out);
  if (seq != 0) w.PutVarintField(kRespSeq, seq);
  if (status != 0) {
    w.PutVarintField(kRespStatus, static_cast<std::uint64_t>(
                                      static_cast<std::uint32_t>(status)));
  }
  if (!value.empty()) w.PutStringField(kRespValue, value);
  if (epoch != 0) w.PutVarintField(kRespEpoch, epoch);
  if (!membership.empty()) w.PutStringField(kRespMembership, membership);
  if (!redirect_host.empty()) {
    w.PutStringField(kRespRedirectHost, redirect_host);
  }
  if (redirect_port != 0) w.PutVarintField(kRespRedirectPort, redirect_port);
  if (retry_after_us != 0) w.PutVarintField(kRespRetryAfter, retry_after_us);
  return out;
}

Result<Response> Response::Decode(std::string_view data) {
  Response resp;
  wire::Reader r(data);
  while (!r.AtEnd()) {
    std::uint32_t field;
    wire::WireType type;
    if (!r.GetTag(&field, &type)) {
      return Status(StatusCode::kCorruption, "bad response tag");
    }
    std::uint64_t v = 0;
    std::string_view s;
    switch (field) {
      case kRespSeq:
        if (!r.GetVarint(&v)) return Status(StatusCode::kCorruption, "seq");
        resp.seq = v;
        break;
      case kRespStatus:
        if (!r.GetVarint(&v)) {
          return Status(StatusCode::kCorruption, "status");
        }
        resp.status = static_cast<std::int32_t>(v);
        break;
      case kRespValue:
        if (!r.GetLengthDelimited(&s)) {
          return Status(StatusCode::kCorruption, "value");
        }
        resp.value.assign(s);
        break;
      case kRespEpoch:
        if (!r.GetVarint(&v)) return Status(StatusCode::kCorruption, "epoch");
        resp.epoch = static_cast<std::uint32_t>(v);
        break;
      case kRespMembership:
        if (!r.GetLengthDelimited(&s)) {
          return Status(StatusCode::kCorruption, "membership");
        }
        resp.membership.assign(s);
        break;
      case kRespRedirectHost:
        if (!r.GetLengthDelimited(&s)) {
          return Status(StatusCode::kCorruption, "redirect_host");
        }
        resp.redirect_host.assign(s);
        break;
      case kRespRedirectPort:
        if (!r.GetVarint(&v)) {
          return Status(StatusCode::kCorruption, "redirect_port");
        }
        resp.redirect_port = static_cast<std::uint16_t>(v);
        break;
      case kRespRetryAfter:
        if (!r.GetVarint(&v)) {
          return Status(StatusCode::kCorruption, "retry_after");
        }
        resp.retry_after_us = static_cast<std::uint32_t>(v);
        break;
      default:
        if (!r.SkipValue(type)) {
          return Status(StatusCode::kCorruption, "unknown field");
        }
    }
  }
  return resp;
}

}  // namespace zht
