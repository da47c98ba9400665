#include "net/frame.h"

#include <unordered_map>

namespace prkb::net {
namespace {

/// Smallest encodings of one EvalManyReq trapdoor (u32 attr, u8 kind, u64
/// uid, 1-byte blob length) and one item (1-byte varint index, u32 tid).
constexpr uint64_t kMinTrapdoorBytes = 4 + 1 + 8 + 1;
constexpr uint64_t kMinItemBytes = 1 + 4;

bool KnownType(uint8_t t) {
  return t >= static_cast<uint8_t>(MsgType::kEvalManyReq) &&
         t <= static_cast<uint8_t>(MsgType::kStatsResp);
}

}  // namespace

void EncodeFrameHeader(MsgType type, uint64_t corr, uint32_t payload_len,
                       uint8_t* out) {
  size_t p = 0;
  for (int i = 0; i < 4; ++i) {
    out[p++] = static_cast<uint8_t>(kFrameMagic >> (8 * i));
  }
  out[p++] = static_cast<uint8_t>(type);
  for (int i = 0; i < 8; ++i) out[p++] = static_cast<uint8_t>(corr >> (8 * i));
  for (int i = 0; i < 4; ++i) {
    out[p++] = static_cast<uint8_t>(payload_len >> (8 * i));
  }
}

Status DecodeFrameHeader(const uint8_t* in, MsgType* type, uint64_t* corr,
                         uint32_t* payload_len) {
  size_t p = 0;
  uint32_t magic = 0;
  for (int i = 0; i < 4; ++i) magic |= static_cast<uint32_t>(in[p++]) << (8 * i);
  if (magic != kFrameMagic) return Status::Corruption("bad frame magic");
  const uint8_t raw_type = in[p++];
  if (!KnownType(raw_type)) {
    return Status::Corruption("unknown frame type " + std::to_string(raw_type));
  }
  uint64_t c = 0;
  for (int i = 0; i < 8; ++i) c |= static_cast<uint64_t>(in[p++]) << (8 * i);
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= static_cast<uint32_t>(in[p++]) << (8 * i);
  if (len > kMaxFramePayload) {
    return Status::Corruption("frame payload length " + std::to_string(len) +
                              " exceeds cap");
  }
  *type = static_cast<MsgType>(raw_type);
  *corr = c;
  *payload_len = len;
  return Status::Ok();
}

void EncodeTrapdoor(const edbms::Trapdoor& td, Encoder* enc) {
  enc->PutU32(td.attr);
  enc->PutU8(static_cast<uint8_t>(td.kind));
  enc->PutU64(td.uid);
  enc->PutBytes(td.blob);
}

Status DecodeTrapdoor(Decoder* dec, edbms::Trapdoor* out) {
  uint8_t kind = 0;
  PRKB_RETURN_IF_ERROR(dec->GetU32(&out->attr));
  PRKB_RETURN_IF_ERROR(dec->GetU8(&kind));
  if (kind > static_cast<uint8_t>(edbms::PredicateKind::kBetween)) {
    return Status::Corruption("bad predicate kind in trapdoor");
  }
  out->kind = static_cast<edbms::PredicateKind>(kind);
  PRKB_RETURN_IF_ERROR(dec->GetU64(&out->uid));
  PRKB_RETURN_IF_ERROR(dec->GetBytes(&out->blob));
  return Status::Ok();
}

std::vector<uint8_t> EncodeEvalManyReq(
    std::span<const edbms::ProbeRequest> reqs) {
  // Distinct trapdoors once, then (index, tid) pairs. Probe rounds reference
  // their trapdoors by pointer, so pointer identity is the dedup key.
  Encoder enc;
  std::vector<const edbms::Trapdoor*> tds;
  std::unordered_map<const edbms::Trapdoor*, uint32_t> index_of;
  for (const auto& req : reqs) {
    if (index_of.try_emplace(req.td, static_cast<uint32_t>(tds.size())).second) {
      tds.push_back(req.td);
    }
  }
  enc.PutVarint(tds.size());
  for (const edbms::Trapdoor* td : tds) EncodeTrapdoor(*td, &enc);
  enc.PutVarint(reqs.size());
  for (const auto& req : reqs) {
    enc.PutVarint(index_of.at(req.td));
    enc.PutU32(req.tid);
  }
  return enc.Release();
}

Status DecodeEvalManyReq(std::span<const uint8_t> payload, ManyReq* out) {
  Decoder dec(payload.data(), payload.size());
  uint64_t num_tds = 0;
  PRKB_RETURN_IF_ERROR(dec.GetVarint(&num_tds));
  // Bound each count by its entries' minimum encoded size before trusting
  // it, so a hostile count cannot force an allocation the payload does not
  // pay for.
  if (num_tds > dec.remaining() / kMinTrapdoorBytes) {
    return Status::Corruption("EvalManyReq trapdoor count exceeds payload");
  }
  out->tds.clear();
  for (uint64_t i = 0; i < num_tds; ++i) {
    edbms::Trapdoor td;
    PRKB_RETURN_IF_ERROR(DecodeTrapdoor(&dec, &td));
    out->tds.push_back(std::move(td));
  }
  uint64_t num_items = 0;
  PRKB_RETURN_IF_ERROR(dec.GetVarint(&num_items));
  if (num_items > dec.remaining() / kMinItemBytes) {
    return Status::Corruption("EvalManyReq item count exceeds payload");
  }
  out->items.clear();
  out->items.reserve(num_items);
  for (uint64_t i = 0; i < num_items; ++i) {
    uint64_t td_index = 0;
    edbms::TupleId tid = 0;
    PRKB_RETURN_IF_ERROR(dec.GetVarint(&td_index));
    PRKB_RETURN_IF_ERROR(dec.GetU32(&tid));
    if (td_index >= num_tds) {
      return Status::Corruption("EvalManyReq trapdoor index out of range");
    }
    out->items.push_back(
        ManyReq::Item{static_cast<uint32_t>(td_index), tid});
  }
  if (!dec.Done()) return Status::Corruption("trailing bytes in EvalManyReq");
  return Status::Ok();
}

std::vector<uint8_t> EncodeResultResp(const BitVector& bits) {
  Encoder enc;
  enc.PutVarint(bits.size());
  uint8_t acc = 0;
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits.Get(i)) acc |= static_cast<uint8_t>(1u << (i & 7));
    if ((i & 7) == 7) {
      enc.PutU8(acc);
      acc = 0;
    }
  }
  if (bits.size() & 7) enc.PutU8(acc);
  return enc.Release();
}

Status DecodeResultResp(std::span<const uint8_t> payload, BitVector* out) {
  Decoder dec(payload.data(), payload.size());
  uint64_t n = 0;
  PRKB_RETURN_IF_ERROR(dec.GetVarint(&n));
  const uint64_t bytes = (n + 7) / 8;
  if (bytes != dec.remaining()) {
    return Status::Corruption("ResultResp bit payload size mismatch");
  }
  out->Resize(0);
  out->Resize(n);
  for (uint64_t b = 0; b < bytes; ++b) {
    uint8_t byte = 0;
    PRKB_RETURN_IF_ERROR(dec.GetU8(&byte));
    for (int j = 0; j < 8; ++j) {
      const uint64_t i = b * 8 + static_cast<uint64_t>(j);
      if (i >= n) break;
      out->Assign(i, (byte >> j) & 1);
    }
  }
  if (!dec.Done()) return Status::Corruption("trailing bytes in ResultResp");
  return Status::Ok();
}

std::vector<uint8_t> EncodeErrorResp(const Status& status) {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(status.code()));
  enc.PutString(status.message());
  return enc.Release();
}

Status DecodeErrorResp(std::span<const uint8_t> payload, Status* out) {
  Decoder dec(payload.data(), payload.size());
  uint8_t code = 0;
  std::string msg;
  PRKB_RETURN_IF_ERROR(dec.GetU8(&code));
  PRKB_RETURN_IF_ERROR(dec.GetString(&msg));
  if (!dec.Done()) return Status::Corruption("trailing bytes in ErrorResp");
  // Collapse unknown / OK codes to Internal: an error frame must decode to
  // an error, whatever a confused peer put in the code byte.
  switch (static_cast<Status::Code>(code)) {
    case Status::Code::kInvalidArgument:
      *out = Status::InvalidArgument(std::move(msg));
      break;
    case Status::Code::kNotFound:
      *out = Status::NotFound(std::move(msg));
      break;
    case Status::Code::kCorruption:
      *out = Status::Corruption(std::move(msg));
      break;
    case Status::Code::kNotSupported:
      *out = Status::NotSupported(std::move(msg));
      break;
    case Status::Code::kOutOfRange:
      *out = Status::OutOfRange(std::move(msg));
      break;
    case Status::Code::kIoError:
      *out = Status::IoError(std::move(msg));
      break;
    default:
      *out = Status::Internal(std::move(msg));
      break;
  }
  return Status::Ok();
}

std::vector<uint8_t> EncodeStatsResp(std::span<const StatsEntry> entries) {
  Encoder enc;
  enc.PutVarint(entries.size());
  for (const auto& [name, value] : entries) {
    enc.PutString(name);
    enc.PutU64(value);
  }
  return enc.Release();
}

Status DecodeStatsResp(std::span<const uint8_t> payload,
                       std::vector<StatsEntry>* out) {
  Decoder dec(payload.data(), payload.size());
  uint64_t n = 0;
  PRKB_RETURN_IF_ERROR(dec.GetVarint(&n));
  if (n > dec.remaining()) {
    return Status::Corruption("StatsResp entry count exceeds payload");
  }
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    StatsEntry entry;
    PRKB_RETURN_IF_ERROR(dec.GetString(&entry.first));
    PRKB_RETURN_IF_ERROR(dec.GetU64(&entry.second));
    out->push_back(std::move(entry));
  }
  if (!dec.Done()) return Status::Corruption("trailing bytes in StatsResp");
  return Status::Ok();
}

}  // namespace prkb::net
