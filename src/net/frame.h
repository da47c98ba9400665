#ifndef PRKB_NET_FRAME_H_
#define PRKB_NET_FRAME_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/bitvector.h"
#include "common/serial.h"
#include "common/status.h"
#include "edbms/encryption.h"
#include "edbms/qpf.h"
#include "obs/metrics.h"

namespace prkb::net {

/// Transport telemetry shared by Channel / QpfServer / QpfClient
/// (docs/OBSERVABILITY.md). `inflight` tracks correlation ids submitted but
/// not yet completed on the client side — the pipelining depth the async
/// completion queue sustains.
struct NetMetrics {
  obs::Counter* frames_sent;
  obs::Counter* frames_recv;
  obs::Counter* bytes_sent;
  obs::Counter* bytes_recv;
  obs::Counter* reconnects;
  obs::Counter* errors;
  obs::Gauge* inflight;

  static const NetMetrics& Get() {
    static const NetMetrics m = {
        obs::MetricsRegistry::Global().GetCounter("net.frames_sent"),
        obs::MetricsRegistry::Global().GetCounter("net.frames_recv"),
        obs::MetricsRegistry::Global().GetCounter("net.bytes_sent"),
        obs::MetricsRegistry::Global().GetCounter("net.bytes_recv"),
        obs::MetricsRegistry::Global().GetCounter("net.reconnects"),
        obs::MetricsRegistry::Global().GetCounter("net.errors"),
        obs::MetricsRegistry::Global().GetGauge("net.inflight"),
    };
    return m;
  }
};

/// Message kinds of the QPF wire protocol (DESIGN.md §12). Requests carry a
/// client-chosen correlation id; the matching response echoes it, which is
/// what lets one channel multiplex rounds from many concurrent selections.
/// Θ has one request type: a QPF round of any width is a kEvalManyReq.
/// Bytes 1 and 2 are retired (they were a scalar and a one-trapdoor request)
/// and a receiver rejects them like any unknown type.
enum class MsgType : uint8_t {
  kEvalManyReq = 3,   // Trapdoor table + (td, tid)*   → kResultResp
  kResultResp = 4,    // BitVector of Θ outcomes
  kErrorResp = 5,     // Status code + message
  kPingReq = 6,       // liveness probe                → kPongResp
  kPongResp = 7,
  kStatsReq = 8,      // server-side counter snapshot  → kStatsResp
  kStatsResp = 9,     // (name, value) pairs
};

/// Wire layout: a fixed 17-byte header — magic u32 | type u8 | corr u64 |
/// payload_len u32, all little-endian — followed by `payload_len` bytes of
/// payload encoded with common/serial.h. Length-prefixing keeps the reader a
/// dumb two-read loop (header, then exactly payload_len bytes), the same
/// shape Kunlun's stream_channel uses for its EC-point batches.
inline constexpr uint32_t kFrameMagic = 0x31465051;  // "QPF1"
inline constexpr size_t kFrameHeaderBytes = 17;
/// Upper bound a receiver enforces before trusting a length field. Generous
/// for any probe round (a 4096-tuple batch is ~16 KiB) while making a
/// corrupt or hostile length fail fast instead of allocating gigabytes.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

/// One decoded frame.
struct Frame {
  MsgType type = MsgType::kErrorResp;
  uint64_t corr = 0;
  std::vector<uint8_t> payload;
};

/// Serialises the header into `out[kFrameHeaderBytes]`.
void EncodeFrameHeader(MsgType type, uint64_t corr, uint32_t payload_len,
                       uint8_t* out);

/// Parses and validates a header: magic, known type, payload_len bound.
Status DecodeFrameHeader(const uint8_t* in, MsgType* type, uint64_t* corr,
                         uint32_t* payload_len);

/// --- Payload codecs -------------------------------------------------------
/// Encoders return the serialised payload; decoders validate exhaustively
/// (truncation, trailing garbage, out-of-range indices) and return
/// Corruption on any malformed input — a server must survive arbitrary
/// bytes without crashing.

void EncodeTrapdoor(const edbms::Trapdoor& td, Encoder* enc);
Status DecodeTrapdoor(Decoder* dec, edbms::Trapdoor* out);

/// One QPF round: distinct trapdoors are sent once, each request is a
/// (table index, tuple) pair — a scan chunk or a fused m-ary round re-uses
/// its few predicate trapdoors across many lanes, so the dedup dominates the
/// frame size.
struct ManyReq {
  std::vector<edbms::Trapdoor> tds;
  struct Item {
    uint32_t td_index;
    edbms::TupleId tid;
  };
  std::vector<Item> items;
};
std::vector<uint8_t> EncodeEvalManyReq(
    std::span<const edbms::ProbeRequest> reqs);
Status DecodeEvalManyReq(std::span<const uint8_t> payload, ManyReq* out);

std::vector<uint8_t> EncodeResultResp(const BitVector& bits);
Status DecodeResultResp(std::span<const uint8_t> payload, BitVector* out);

std::vector<uint8_t> EncodeErrorResp(const Status& status);
/// Returns the decoded remote status through `out` (always non-OK), or
/// Corruption if the payload itself is malformed.
Status DecodeErrorResp(std::span<const uint8_t> payload, Status* out);

using StatsEntry = std::pair<std::string, uint64_t>;
std::vector<uint8_t> EncodeStatsResp(std::span<const StatsEntry> entries);
Status DecodeStatsResp(std::span<const uint8_t> payload,
                       std::vector<StatsEntry>* out);

}  // namespace prkb::net

#endif  // PRKB_NET_FRAME_H_
