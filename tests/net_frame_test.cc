// Wire-protocol codec properties: randomized round trips for every payload
// kind, and malformed-frame handling — truncated headers and payloads,
// oversized lengths, bad indices — must come back as clean Corruption
// statuses, never a crash or an allocation of attacker-chosen size.

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "net/frame.h"

namespace prkb::net {
namespace {

using edbms::ProbeRequest;
using edbms::Trapdoor;
using edbms::TupleId;

Trapdoor RandomTrapdoor(Rng* rng) {
  Trapdoor td;
  td.attr = static_cast<edbms::AttrId>(rng->UniformInt64(0, 1000));
  td.kind = rng->UniformInt64(0, 1) == 0 ? edbms::PredicateKind::kComparison
                                         : edbms::PredicateKind::kBetween;
  td.uid = static_cast<uint64_t>(rng->UniformInt64(0, 1 << 30));
  const size_t blob_len = static_cast<size_t>(rng->UniformInt64(0, 64));
  td.blob.resize(blob_len);
  for (auto& b : td.blob) {
    b = static_cast<uint8_t>(rng->UniformInt64(0, 255));
  }
  return td;
}

bool SameTrapdoor(const Trapdoor& a, const Trapdoor& b) {
  return a.attr == b.attr && a.kind == b.kind && a.uid == b.uid &&
         a.blob == b.blob;
}

TEST(NetFrameTest, HeaderRoundTrip) {
  uint8_t buf[kFrameHeaderBytes];
  EncodeFrameHeader(MsgType::kEvalManyReq, 0xDEADBEEFCAFEF00DULL, 12345, buf);
  MsgType type;
  uint64_t corr = 0;
  uint32_t len = 0;
  ASSERT_TRUE(DecodeFrameHeader(buf, &type, &corr, &len).ok());
  EXPECT_EQ(type, MsgType::kEvalManyReq);
  EXPECT_EQ(corr, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(len, 12345u);
}

TEST(NetFrameTest, HeaderRejectsBadMagic) {
  uint8_t buf[kFrameHeaderBytes];
  EncodeFrameHeader(MsgType::kPingReq, 7, 0, buf);
  buf[0] ^= 0xFF;
  MsgType type;
  uint64_t corr;
  uint32_t len;
  const Status s = DecodeFrameHeader(buf, &type, &corr, &len);
  EXPECT_EQ(s.code(), Status::Code::kCorruption);
}

TEST(NetFrameTest, HeaderRejectsUnknownType) {
  uint8_t buf[kFrameHeaderBytes];
  EncodeFrameHeader(MsgType::kPingReq, 7, 0, buf);
  buf[4] = 0;  // below the first valid MsgType
  MsgType type;
  uint64_t corr;
  uint32_t len;
  EXPECT_EQ(DecodeFrameHeader(buf, &type, &corr, &len).code(),
            Status::Code::kCorruption);
  buf[4] = 200;  // above the last
  EXPECT_EQ(DecodeFrameHeader(buf, &type, &corr, &len).code(),
            Status::Code::kCorruption);
  for (const uint8_t retired : {1, 2}) {  // the retired Θ request types
    buf[4] = retired;
    EXPECT_EQ(DecodeFrameHeader(buf, &type, &corr, &len).code(),
              Status::Code::kCorruption)
        << "type byte " << int{retired};
  }
}

TEST(NetFrameTest, HeaderRejectsOversizedLength) {
  uint8_t buf[kFrameHeaderBytes];
  EncodeFrameHeader(MsgType::kEvalManyReq, 1, kMaxFramePayload + 1, buf);
  MsgType type;
  uint64_t corr;
  uint32_t len;
  EXPECT_EQ(DecodeFrameHeader(buf, &type, &corr, &len).code(),
            Status::Code::kCorruption);
}

TEST(NetFrameTest, EvalManyReqRoundTripRandomizedWithDedup) {
  Rng rng(303);
  for (int iter = 0; iter < 100; ++iter) {
    // A probe round's shape: few distinct trapdoors, many lanes referencing
    // them by pointer.
    std::vector<Trapdoor> tds(static_cast<size_t>(rng.UniformInt64(1, 6)));
    for (auto& td : tds) td = RandomTrapdoor(&rng);
    std::vector<ProbeRequest> reqs(
        static_cast<size_t>(rng.UniformInt64(1, 200)));
    for (auto& req : reqs) {
      req.td = &tds[static_cast<size_t>(
          rng.UniformInt64(0, static_cast<int64_t>(tds.size()) - 1))];
      req.tid = static_cast<TupleId>(rng.UniformInt64(0, 1 << 20));
    }
    const auto payload = EncodeEvalManyReq(reqs);
    ManyReq many;
    ASSERT_TRUE(DecodeEvalManyReq(payload, &many).ok());
    // Dedup must not exceed the distinct-trapdoor count.
    EXPECT_LE(many.tds.size(), tds.size());
    ASSERT_EQ(many.items.size(), reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
      ASSERT_LT(many.items[i].td_index, many.tds.size());
      EXPECT_TRUE(SameTrapdoor(*reqs[i].td, many.tds[many.items[i].td_index]));
      EXPECT_EQ(reqs[i].tid, many.items[i].tid);
    }
  }
}

TEST(NetFrameTest, ResultRespRoundTripRandomized) {
  Rng rng(404);
  for (int iter = 0; iter < 200; ++iter) {
    BitVector bits(static_cast<size_t>(rng.UniformInt64(0, 500)));
    for (size_t i = 0; i < bits.size(); ++i) {
      bits.Assign(i, rng.UniformInt64(0, 1) == 1);
    }
    const auto payload = EncodeResultResp(bits);
    BitVector bits2;
    ASSERT_TRUE(DecodeResultResp(payload, &bits2).ok());
    EXPECT_TRUE(bits == bits2);
  }
}

TEST(NetFrameTest, ErrorRespRoundTrip) {
  Status decoded;
  ASSERT_TRUE(
      DecodeErrorResp(EncodeErrorResp(Status::NotFound("no such chain")),
                      &decoded)
          .ok());
  EXPECT_EQ(decoded.code(), Status::Code::kNotFound);
  EXPECT_EQ(decoded.message(), "no such chain");
}

TEST(NetFrameTest, ErrorRespNeverDecodesToOk) {
  // A confused peer shipping code 0 (OK) in an error frame must still
  // surface as an error.
  Status decoded;
  ASSERT_TRUE(DecodeErrorResp(EncodeErrorResp(Status::Ok()), &decoded).ok());
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.code(), Status::Code::kInternal);
}

TEST(NetFrameTest, StatsRespRoundTrip) {
  const std::vector<StatsEntry> entries = {
      {"qpf.uses", 12345}, {"net.frames_sent", 678}, {"", 0}};
  std::vector<StatsEntry> decoded;
  ASSERT_TRUE(DecodeStatsResp(EncodeStatsResp(entries), &decoded).ok());
  EXPECT_EQ(entries, decoded);
}

TEST(NetFrameTest, TruncatedPayloadsAreCorruptionNotCrash) {
  Rng rng(505);
  const Trapdoor td = RandomTrapdoor(&rng);
  std::vector<ProbeRequest> reqs;
  for (const TupleId t : {1, 2, 3, 4, 5}) reqs.push_back(ProbeRequest{&td, t});
  BitVector bits(17, true);

  // Every strict prefix of a valid payload must fail its own decoder: the
  // length/count fields and the Done() check leave no prefix that parses.
  const auto check_prefixes = [](const std::vector<uint8_t>& full,
                                 auto&& decode) {
    for (size_t cut = 0; cut < full.size(); ++cut) {
      EXPECT_FALSE(decode(std::span<const uint8_t>(full.data(), cut)).ok())
          << "prefix of length " << cut << " of " << full.size()
          << " unexpectedly decoded";
    }
  };
  check_prefixes(EncodeEvalManyReq(reqs), [](std::span<const uint8_t> p) {
    ManyReq m;
    return DecodeEvalManyReq(p, &m);
  });
  check_prefixes(EncodeResultResp(bits), [](std::span<const uint8_t> p) {
    BitVector b;
    return DecodeResultResp(p, &b);
  });
  check_prefixes(EncodeErrorResp(Status::Internal("x")),
                 [](std::span<const uint8_t> p) {
                   Status s;
                   return DecodeErrorResp(p, &s);
                 });
  check_prefixes(EncodeStatsResp(std::vector<StatsEntry>{{"a", 1}, {"b", 2}}),
                 [](std::span<const uint8_t> p) {
                   std::vector<StatsEntry> e;
                   return DecodeStatsResp(p, &e);
                 });
}

TEST(NetFrameTest, TrailingGarbageIsCorruption) {
  Rng rng(606);
  const Trapdoor td = RandomTrapdoor(&rng);
  const ProbeRequest req{&td, 3};
  auto payload = EncodeEvalManyReq({&req, 1});
  payload.push_back(0xAB);
  ManyReq many;
  EXPECT_EQ(DecodeEvalManyReq(payload, &many).code(),
            Status::Code::kCorruption);
}

TEST(NetFrameTest, EvalManyRejectsOutOfRangeTrapdoorIndex) {
  // Hand-build a payload whose single item points past the trapdoor table.
  Rng rng(707);
  const Trapdoor td = RandomTrapdoor(&rng);
  Encoder enc;
  enc.PutVarint(1);
  EncodeTrapdoor(td, &enc);
  enc.PutVarint(1);
  enc.PutVarint(5);  // td_index 5 of a 1-entry table
  enc.PutU32(42);
  const auto payload = enc.Release();
  ManyReq many;
  EXPECT_EQ(DecodeEvalManyReq(payload, &many).code(),
            Status::Code::kCorruption);
}

TEST(NetFrameTest, ResultRespRejectsSizeMismatch) {
  // Claims 100 bits but carries only one byte of them.
  Encoder enc;
  enc.PutVarint(100);
  enc.PutU8(0xFF);
  const auto payload = enc.Release();
  BitVector bits;
  EXPECT_EQ(DecodeResultResp(payload, &bits).code(),
            Status::Code::kCorruption);
}

TEST(NetFrameTest, CountFieldCannotForceHugeAllocation) {
  // Each count must fit its entries' minimum encoded size (14 bytes per
  // trapdoor, 5 per item) in the bytes that follow it. The counts below fit
  // the bytes left but not that bound, so a count check that only compares
  // against the remaining bytes would allocate first (×40 for trapdoors) and
  // fail later on truncation; the bounded check refuses the count itself.
  const std::vector<uint8_t> filler(100, 0);
  const auto expect_count_rejected = [](const Encoder& enc,
                                        const std::string& what) {
    ManyReq many;
    const Status s = DecodeEvalManyReq(enc.buffer(), &many);
    EXPECT_EQ(s.code(), Status::Code::kCorruption);
    EXPECT_NE(s.message().find(what + " count exceeds payload"),
              std::string::npos)
        << s.ToString();
  };

  Encoder tds;
  tds.PutVarint(filler.size());  // 100 trapdoors in 100 bytes
  for (const uint8_t b : filler) tds.PutU8(b);
  expect_count_rejected(tds, "trapdoor");

  Encoder items;
  items.PutVarint(0);                // empty trapdoor table
  items.PutVarint(filler.size() / 2);  // 50 items in 100 bytes
  for (const uint8_t b : filler) items.PutU8(b);
  expect_count_rejected(items, "item");
}

}  // namespace
}  // namespace prkb::net
