#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/bitvector.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/serial.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "gtest/gtest.h"

namespace prkb {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  auto inner = []() { return Status::NotFound("x"); };
  auto outer = [&]() -> Status {
    PRKB_RETURN_IF_ERROR(inner());
    return Status::Ok();
  };
  EXPECT_EQ(outer().code(), Status::Code::kNotFound);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Ok(), Status::Ok());
  EXPECT_EQ(Status::IoError("a"), Status::IoError("a"));
  EXPECT_FALSE(Status::IoError("a") == Status::IoError("b"));
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.UniformInt(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformInt64HandlesNegativeRange) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt64(-50, -40);
    EXPECT_GE(v, -50);
    EXPECT_LE(v, -40);
  }
}

TEST(RngTest, UniformIntSingletonRange) {
  Rng rng(17);
  EXPECT_EQ(rng.UniformInt(5, 5), 5u);
  EXPECT_EQ(rng.UniformInt64(-3, -3), -3);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(19);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NormalHasApproximatelyUnitMoments) {
  Rng rng(23);
  double sum = 0, sumsq = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// ------------------------------------------------------------- BitVector

TEST(BitVectorTest, StartsAllClear) {
  BitVector bv(130);
  EXPECT_EQ(bv.size(), 130u);
  EXPECT_EQ(bv.Count(), 0u);
  for (size_t i = 0; i < bv.size(); ++i) EXPECT_FALSE(bv.Get(i));
}

TEST(BitVectorTest, SetClearGet) {
  BitVector bv(100);
  bv.Set(0);
  bv.Set(63);
  bv.Set(64);
  bv.Set(99);
  EXPECT_EQ(bv.Count(), 4u);
  EXPECT_TRUE(bv.Get(63));
  bv.Clear(63);
  EXPECT_FALSE(bv.Get(63));
  EXPECT_EQ(bv.Count(), 3u);
}

TEST(BitVectorTest, ResizeWithTrueFillsNewBitsOnly) {
  BitVector bv(10);
  bv.Set(3);
  bv.Resize(100, true);
  EXPECT_TRUE(bv.Get(3));
  EXPECT_FALSE(bv.Get(4));
  for (size_t i = 10; i < 100; ++i) EXPECT_TRUE(bv.Get(i));
  EXPECT_EQ(bv.Count(), 91u);
}

TEST(BitVectorTest, ToIndicesReturnsSortedSetBits) {
  BitVector bv(200);
  bv.Set(5);
  bv.Set(64);
  bv.Set(199);
  EXPECT_EQ(bv.ToIndices(), (std::vector<uint32_t>{5, 64, 199}));
}

TEST(BitVectorTest, AndOrSemantics) {
  BitVector a(70), b(70);
  a.Set(1);
  a.Set(65);
  b.Set(65);
  b.Set(2);
  BitVector both = a;
  both.And(b);
  EXPECT_EQ(both.ToIndices(), (std::vector<uint32_t>{65}));
  BitVector any = a;
  any.Or(b);
  EXPECT_EQ(any.ToIndices(), (std::vector<uint32_t>{1, 2, 65}));
}

TEST(BitVectorTest, ConstructAllTrueHasZeroedTail) {
  BitVector bv(70, true);
  EXPECT_EQ(bv.Count(), 70u);
}

// ------------------------------------------------------------- Histogram

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0}) h.Add(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 4.0);
  EXPECT_DOUBLE_EQ(h.Median(), 2.5);
}

TEST(HistogramTest, PercentileInterpolates) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  EXPECT_NEAR(h.Percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(h.Percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(h.Percentile(50), 50.5, 1e-9);
}

TEST(HistogramTest, StddevOfConstantIsZero) {
  Histogram h;
  for (int i = 0; i < 5; ++i) h.Add(7.0);
  EXPECT_DOUBLE_EQ(h.Stddev(), 0.0);
}

// ---------------------------------------------------------- TablePrinter

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter tp("demo");
  tp.SetHeader({"name", "value"});
  tp.AddRow({"a", "1"});
  tp.AddRow({"longer", "22"});
  const std::string s = tp.ToString();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("longer  22"), std::string::npos);
}

TEST(TablePrinterTest, FormatHelpers) {
  EXPECT_EQ(TablePrinter::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Fmt(uint64_t{42}), "42");
  EXPECT_EQ(TablePrinter::Fmt(int64_t{-7}), "-7");
}

// ---------------------------------------------------------------- Serial

TEST(SerialTest, RoundTripsAllTypes) {
  Encoder enc;
  enc.PutU8(0xAB);
  enc.PutU32(0xDEADBEEF);
  enc.PutU64(0x1122334455667788ULL);
  enc.PutVarint(300);
  enc.PutBytes({1, 2, 3});
  enc.PutString("hello");

  Decoder dec(enc.buffer());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64, vi;
  std::vector<uint8_t> bytes;
  std::string str;
  ASSERT_TRUE(dec.GetU8(&u8).ok());
  ASSERT_TRUE(dec.GetU32(&u32).ok());
  ASSERT_TRUE(dec.GetU64(&u64).ok());
  ASSERT_TRUE(dec.GetVarint(&vi).ok());
  ASSERT_TRUE(dec.GetBytes(&bytes).ok());
  ASSERT_TRUE(dec.GetString(&str).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x1122334455667788ULL);
  EXPECT_EQ(vi, 300u);
  EXPECT_EQ(bytes, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(str, "hello");
  EXPECT_TRUE(dec.Done());
}

TEST(SerialTest, VarintBoundaries) {
  for (uint64_t v : {uint64_t{0}, uint64_t{127}, uint64_t{128},
                     uint64_t{16383}, uint64_t{16384}, UINT64_MAX}) {
    Encoder enc;
    enc.PutVarint(v);
    Decoder dec(enc.buffer());
    uint64_t out;
    ASSERT_TRUE(dec.GetVarint(&out).ok());
    EXPECT_EQ(out, v);
  }
}

TEST(SerialTest, TruncatedInputIsCorruption) {
  Encoder enc;
  enc.PutU64(1);
  Decoder dec(enc.buffer().data(), 3);
  uint64_t out;
  EXPECT_EQ(dec.GetU64(&out).code(), Status::Code::kCorruption);
}

TEST(SerialTest, TruncatedBytesIsCorruption) {
  // A length prefix promising more bytes than remain, including 2^64-1, for
  // which pos + n wraps below the buffer size: only a check against the
  // remaining bytes rejects every one.
  for (const uint64_t n : {uint64_t{100}, UINT64_MAX}) {
    Encoder enc;
    enc.PutVarint(n);
    Decoder bytes_dec(enc.buffer());
    std::vector<uint8_t> bytes;
    EXPECT_EQ(bytes_dec.GetBytes(&bytes).code(), Status::Code::kCorruption)
        << n;
    Decoder string_dec(enc.buffer());
    std::string str;
    EXPECT_EQ(string_dec.GetString(&str).code(), Status::Code::kCorruption)
        << n;
  }
}

TEST(SerialTest, OverlongVarintIsCorruption) {
  std::vector<uint8_t> bad(11, 0x80);
  Decoder dec(bad);
  uint64_t out;
  EXPECT_FALSE(dec.GetVarint(&out).ok());
}

}  // namespace
}  // namespace prkb
