// Deferred-insert buffer tests (prkb/insert_buffer.h, DESIGN.md §14):
// buffer semantics on the chain, snapshot round trips, the eager-vs-buffered
// differential (flush route is byte-identical to eager placement, scan route
// is winner-identical), cap-triggered synchronous flushes, WAL crash
// recovery through buffered appends and mid-flush torn tails, and the
// stripe-locked concurrent append path.
#include "prkb/insert_buffer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/serial.h"
#include "edbms/cipherbase_qpf.h"
#include "edbms/service_provider.h"
#include "exec/calibrate.h"
#include "prkb/concurrent.h"
#include "prkb/fingerprint.h"
#include "prkb/pop.h"
#include "prkb/selection.h"
#include "prkb/wal.h"
#include "tests/test_util.h"

namespace prkb::core {
namespace {

namespace fs = std::filesystem;
using edbms::CompareOp;
using edbms::TupleId;

// ---- InsertBuffer unit tests ----------------------------------------------

TEST(InsertBufferTest, AppendRemoveKeepOrder) {
  InsertBuffer buf;
  EXPECT_TRUE(buf.Empty());
  buf.Append(7);
  buf.Append(3);
  buf.Append(11);
  EXPECT_EQ(buf.Size(), 3u);
  EXPECT_TRUE(buf.Contains(3));
  EXPECT_FALSE(buf.Contains(4));
  EXPECT_EQ(buf.order(), (std::vector<TupleId>{7, 3, 11}));

  EXPECT_TRUE(buf.Remove(3));
  EXPECT_FALSE(buf.Remove(3));  // already gone
  EXPECT_EQ(buf.order(), (std::vector<TupleId>{7, 11}));

  std::vector<TupleId> out = {99};
  buf.AppendTo(&out);
  EXPECT_EQ(out, (std::vector<TupleId>{99, 7, 11}));

  buf.Clear();
  EXPECT_TRUE(buf.Empty());
  EXPECT_FALSE(buf.Contains(7));
}

TEST(InsertBufferTest, EncodeDecodeRoundTrip) {
  InsertBuffer buf;
  buf.Append(42);
  buf.Append(1);
  buf.Append(100000);
  Encoder enc;
  buf.EncodeTo(&enc);

  InsertBuffer copy;
  copy.Append(555);  // DecodeFrom must clear pre-existing content
  Decoder dec(enc.buffer());
  ASSERT_TRUE(copy.DecodeFrom(&dec).ok());
  EXPECT_EQ(copy.order(), buf.order());
  EXPECT_FALSE(copy.Contains(555));
}

TEST(InsertBufferTest, DecodeRejectsDuplicateTuple) {
  Encoder enc;
  enc.PutVarint(2);
  enc.PutVarint(5);
  enc.PutVarint(5);
  InsertBuffer buf;
  Decoder dec(enc.buffer());
  EXPECT_FALSE(buf.DecodeFrom(&dec).ok());
}

TEST(InsertBufferTest, RemovalsInAnyOrderKeepAppendOrder) {
  // Tombstoned removals and the compactions they trigger must leave the
  // survivors in append order, whatever order tuples leave in.
  InsertBuffer buf;
  std::vector<TupleId> ref;
  for (TupleId t = 0; t < 600; ++t) {
    buf.Append(t * 7 + 1);
    ref.push_back(t * 7 + 1);
  }
  Rng rng(31);
  while (!ref.empty()) {
    // Mostly drain from the front, as a flush does; sometimes mid-buffer.
    const size_t i = rng.UniformInt(0, 3) == 0
                         ? static_cast<size_t>(rng.UniformInt(0, ref.size() - 1))
                         : 0;
    ASSERT_TRUE(buf.Remove(ref[i]));
    ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
    ASSERT_EQ(buf.Size(), ref.size());
    if (ref.size() % 37 == 0) {
      ASSERT_EQ(buf.order(), ref);
    }
  }
  EXPECT_TRUE(buf.Empty());
  buf.Append(5);  // reusable after a full drain
  EXPECT_EQ(buf.order(), (std::vector<TupleId>{5}));
}

TEST(InsertBufferTest, ScanRentResetsOnlyWhenTheBufferEmpties) {
  InsertBuffer buf;
  buf.Append(1);
  buf.Append(2);
  buf.AddScanRent(2, 1);
  buf.AddScanRent(2, 1);
  EXPECT_EQ(buf.rent_uses(), 4u);
  EXPECT_EQ(buf.rent_trips(), 2u);

  InsertBuffer copy = buf;  // value semantics carry the rent along
  EXPECT_EQ(copy.rent_uses(), 4u);

  buf.Remove(1);  // still non-empty: the rent stands
  EXPECT_EQ(buf.rent_uses(), 4u);
  buf.Remove(2);  // emptied: rent starts over
  EXPECT_EQ(buf.rent_uses(), 0u);
  EXPECT_EQ(buf.rent_trips(), 0u);

  copy.Clear();
  EXPECT_EQ(copy.rent_uses(), 0u);

  // Decoding replaces the contents, and rent is never encoded.
  InsertBuffer src;
  src.Append(9);
  src.AddScanRent(1, 1);
  Encoder enc;
  src.EncodeTo(&enc);
  InsertBuffer dst;
  dst.Append(3);
  dst.AddScanRent(1, 1);
  Decoder dec(enc.buffer());
  ASSERT_TRUE(dst.DecodeFrom(&dec).ok());
  EXPECT_EQ(dst.order(), (std::vector<TupleId>{9}));
  EXPECT_EQ(dst.rent_uses(), 0u);
  EXPECT_EQ(dst.rent_trips(), 0u);
}

// ---- Chain-level buffer semantics -----------------------------------------

class BufferSemanticsTest : public testing::Test {
 protected:
  void SetUp() override {
    Rng rng(2026);
    plain_ = testutil::RandomTable(240, 2, &rng, 0, 999);
    db_ = std::make_unique<edbms::CipherbaseEdbms>(
        edbms::CipherbaseEdbms::FromPlainTable(77, plain_));
  }

  TupleId Store(edbms::Value a, edbms::Value b) {
    plain_.AddRow({a, b});
    return db_->Insert({a, b});
  }

  edbms::PlainTable plain_{2};
  std::unique_ptr<edbms::CipherbaseEdbms> db_;
};

TEST_F(BufferSemanticsTest, BufferedTupleStaysOffChainUntilFlush) {
  PrkbOptions opts;
  opts.buffered_inserts = true;
  PrkbIndex index(db_.get(), opts);
  index.EnableAttr(0);
  index.Select(db_->MakeComparison(0, CompareOp::kGe, 500));

  const TupleId tid = Store(123, 456);
  index.PlaceStored(tid);
  const Pop& pop = index.pop(0);
  EXPECT_TRUE(pop.insert_buffer().Contains(tid));
  EXPECT_EQ(pop.partition_of(tid), Pop::kNoPartition);
  EXPECT_TRUE(pop.Validate().ok());

  index.FlushBuffered(0);
  EXPECT_TRUE(pop.insert_buffer().Empty());
  EXPECT_NE(pop.partition_of(tid), Pop::kNoPartition);
  EXPECT_TRUE(pop.Validate().ok());
  EXPECT_TRUE(pop.ValidateAgainstPlain(testutil::ColumnOf(plain_, 0)).ok());
}

TEST_F(BufferSemanticsTest, DeleteOfBufferedTupleJustDropsIt) {
  PrkbOptions opts;
  opts.buffered_inserts = true;
  PrkbIndex index(db_.get(), opts);
  index.EnableAttr(0);
  const TupleId tid = Store(321, 9);
  const uint64_t uses0 = db_->uses();
  index.PlaceStored(tid);
  index.EraseFromChains(tid);
  EXPECT_EQ(db_->uses(), uses0);  // append + unbuffer: zero QPF end to end
  EXPECT_FALSE(index.pop(0).insert_buffer().Contains(tid));
  EXPECT_EQ(index.pop(0).partition_of(tid), Pop::kNoPartition);
}

TEST_F(BufferSemanticsTest, CapTriggersSynchronousFlush) {
  PrkbOptions opts;
  opts.buffered_inserts = true;
  opts.max_buffered_inserts = 3;
  PrkbIndex index(db_.get(), opts);
  index.EnableAttr(0);
  index.Select(db_->MakeComparison(0, CompareOp::kGe, 500));

  std::vector<TupleId> tids;
  for (int i = 0; i < 3; ++i) tids.push_back(Store(100 + 17 * i, 0));
  index.PlaceStored(tids[0]);
  index.PlaceStored(tids[1]);
  EXPECT_EQ(index.pop(0).insert_buffer().Size(), 2u);
  index.PlaceStored(tids[2]);  // reaches the cap: flushes in place
  EXPECT_TRUE(index.pop(0).insert_buffer().Empty());
  for (const TupleId tid : tids) {
    EXPECT_NE(index.pop(0).partition_of(tid), Pop::kNoPartition);
  }
}

TEST_F(BufferSemanticsTest, SnapshotRoundTripPreservesBuffer) {
  PrkbOptions opts;
  opts.buffered_inserts = true;
  PrkbIndex index(db_.get(), opts);
  index.EnableAttr(0);
  index.Select(db_->MakeComparison(0, CompareOp::kGe, 500));
  index.PlaceStored(Store(42, 0));
  index.PlaceStored(Store(977, 0));
  ASSERT_EQ(index.pop(0).insert_buffer().Size(), 2u);

  Encoder enc;
  index.pop(0).EncodeTo(&enc);
  Pop copy;
  Decoder dec(enc.buffer());
  ASSERT_TRUE(copy.DecodeFrom(&dec).ok());
  EXPECT_EQ(copy.insert_buffer().order(), index.pop(0).insert_buffer().order());
  Encoder enc2;
  copy.EncodeTo(&enc2);
  EXPECT_EQ(enc2.buffer(), enc.buffer());
}

// ---- Eager vs buffered differential ---------------------------------------

/// Byte image of one chain (memberships, cuts, cache, buffer).
std::vector<uint8_t> PopBytes(const Pop& pop) {
  Encoder enc;
  pop.EncodeTo(&enc);
  return enc.Release();
}

class DifferentialTest : public BufferSemanticsTest {};

TEST_F(DifferentialTest, FlushRouteIsByteIdenticalToEagerPlacement) {
  // Two indexes over the SAME store see identical trapdoors and tuples, so
  // the buffered index's flush must reproduce the eager chains bit for bit
  // — and spend exactly as many QPF uses, just in fewer round trips.
  PrkbOptions eager_opts;
  PrkbOptions buf_opts;
  buf_opts.buffered_inserts = true;
  // High transport latency prices the one-off flush below the recurring
  // scan at the first query that touches the chain.
  eager_opts.rt_latency_hint_ns = 300000.0;
  buf_opts.rt_latency_hint_ns = 300000.0;
  PrkbIndex eager(db_.get(), eager_opts);
  PrkbIndex buffered(db_.get(), buf_opts);
  for (PrkbIndex* idx : {&eager, &buffered}) {
    idx->EnableAttr(0);
    idx->EnableAttr(1);
  }

  // Warm both chains with the same trapdoor objects (comparison-only: the
  // byte-identity contract excludes coarsen-merge fallbacks).
  for (const edbms::Value v : {300, 700, 150, 850, 500}) {
    const auto td0 = db_->MakeComparison(0, CompareOp::kGe, v);
    const auto td1 = db_->MakeComparison(1, CompareOp::kLt, v + 23);
    testutil::Sorted(eager.Select(td0));
    testutil::Sorted(buffered.Select(td0));
    eager.Select(td1);
    buffered.Select(td1);
  }

  // A batch of inserts: eager places now, buffered defers.
  std::vector<TupleId> fresh;
  Rng rng(99);
  for (int i = 0; i < 25; ++i) {
    fresh.push_back(
        Store(rng.UniformInt64(0, 999), rng.UniformInt64(0, 999)));
  }
  const uint64_t eager0 = db_->uses();
  for (const TupleId tid : fresh) eager.PlaceStored(tid);
  const uint64_t eager_spend = db_->uses() - eager0;
  const uint64_t buf0 = db_->uses();
  for (const TupleId tid : fresh) buffered.PlaceStored(tid);
  EXPECT_EQ(db_->uses(), buf0);  // appends are zero-QPF
  EXPECT_EQ(buffered.pop(0).insert_buffer().Size(), fresh.size());

  // The next selection flushes; after it both indexes must agree bit for bit.
  const auto td = db_->MakeComparison(0, CompareOp::kGe, 450);
  const uint64_t esel0 = db_->uses();
  const auto ewin = testutil::Sorted(eager.Select(td));
  const uint64_t eager_sel = db_->uses() - esel0;
  const uint64_t bsel0 = db_->uses();
  const auto bwin = testutil::Sorted(buffered.Select(td));
  const uint64_t buf_spend = db_->uses() - bsel0;

  EXPECT_EQ(bwin, ewin);
  const edbms::PlainPredicate pred{
      0, edbms::PredicateKind::kComparison, CompareOp::kGe, 450, 0};
  EXPECT_EQ(bwin, testutil::OracleSelect(plain_, pred, db_.get()));
  EXPECT_TRUE(buffered.pop(0).insert_buffer().Empty());
  EXPECT_EQ(PopBytes(buffered.pop(0)), PopBytes(eager.pop(0)));

  // Attribute 1 still holds its buffer; flushing it directly must also land
  // on the eager bytes.
  EXPECT_EQ(buffered.pop(1).insert_buffer().Size(), fresh.size());
  const uint64_t bf0 = db_->uses();
  buffered.FlushBuffered(1);
  const uint64_t buf_flush1 = db_->uses() - bf0;
  EXPECT_EQ(PopBytes(buffered.pop(1)), PopBytes(eager.pop(1)));
  // Same placement probes + same selection probes, deferred vs eager
  // (eager_spend covers both attributes' placements; the buffered side paid
  // attr 0 inside the select and attr 1 just now — fewer round trips, equal
  // QPF uses).
  EXPECT_EQ(buf_spend + buf_flush1, eager_spend + eager_sel);
}

TEST_F(DifferentialTest, ScanRouteAnswersExactlyWithoutFlushing) {
  PrkbOptions eager_opts;
  PrkbOptions buf_opts;
  buf_opts.buffered_inserts = true;
  PrkbIndex eager(db_.get(), eager_opts);
  PrkbIndex buffered(db_.get(), buf_opts);
  eager.EnableAttr(0);
  buffered.EnableAttr(0);
  for (const edbms::Value v : {250, 750, 500}) {
    const auto td = db_->MakeComparison(0, CompareOp::kGe, v);
    eager.Select(td);
    buffered.Select(td);
  }

  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    const TupleId tid = Store(rng.UniformInt64(0, 999), 0);
    eager.PlaceStored(tid);
    buffered.PlaceStored(tid);
  }
  ASSERT_EQ(buffered.pop(0).insert_buffer().Size(), 10u);

  // Fresh predicate: chain answer + buffer scan merge, buffer untouched.
  // Break-even keeps both queries below on the scan route: rent plus their
  // own scan, 10 then 20 uses, stays under a flush's 10 × min(k, 7) ≥ 40
  // placement probes on this k ≥ 4 chain.
  const auto td = db_->MakeComparison(0, CompareOp::kGe, 333);
  const auto expect = testutil::Sorted(eager.Select(td));
  EXPECT_EQ(testutil::Sorted(buffered.Select(td)), expect);
  EXPECT_EQ(buffered.pop(0).insert_buffer().Size(), 10u);

  // Repeat predicate: fast-path cache hit still merges the buffer scan.
  edbms::SelectionStats stats;
  EXPECT_EQ(testutil::Sorted(buffered.Select(td, &stats)), expect);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.qpf_uses, 10u);  // exactly one evaluation per buffered tuple
  EXPECT_EQ(buffered.pop(0).insert_buffer().Size(), 10u);
  EXPECT_TRUE(buffered.pop(0).Validate().ok());
}

// ---- WAL: buffered appends and mid-flush crashes --------------------------

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

std::vector<uint8_t> StateBytes(const PrkbIndex& index) {
  Encoder enc;
  for (edbms::AttrId attr : index.EnabledAttrs()) {
    enc.PutU32(attr);
    index.pop(attr).EncodeTo(&enc);
  }
  return enc.Release();
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void CloneWalDir(const std::string& src, const std::string& dst,
                 size_t log_bytes) {
  fs::remove_all(dst);
  fs::create_directories(dst);
  if (fs::exists(src + "/snapshot.prkb")) {
    fs::copy_file(src + "/snapshot.prkb", dst + "/snapshot.prkb");
  }
  auto log = ReadFile(src + "/wal.log");
  if (log_bytes < log.size()) log.resize(log_bytes);
  WriteFile(dst + "/wal.log", log);
}

class WalBufferTest : public BufferSemanticsTest {
 protected:
  static PrkbOptions BufferedOpts() {
    PrkbOptions opts;
    opts.buffered_inserts = true;
    opts.rt_latency_hint_ns = 300000.0;  // selections flush
    return opts;
  }
};

TEST_F(WalBufferTest, CrashRecoveryReplaysDeferredState) {
  const std::string dir = FreshDir("ibuf_wal_diff");
  PrkbIndex live(db_.get(), BufferedOpts());
  WalOptions wopts;
  wopts.fsync_on_commit = false;
  wopts.compact_threshold_bytes = 0;
  auto wal = PrkbWal::Open(&live, dir, wopts);
  ASSERT_TRUE(wal.ok()) << wal.status().message();
  live.EnableAttr(0);
  live.EnableAttr(1);
  ASSERT_TRUE((*wal)->Commit().ok());

  // Mixed workload: splits, buffered appends, a delete that unbuffers, a
  // flush-triggering selection, and a tail of appends left UNFLUSHED — the
  // deferred state itself must be durable.
  std::vector<std::vector<uint8_t>> states;
  std::vector<size_t> log_sizes;
  auto checkpoint = [&] {
    states.push_back(StateBytes(live));
    log_sizes.push_back(fs::file_size(dir + "/wal.log"));
  };
  for (const edbms::Value v : {200, 800, 500}) {
    live.Select(db_->MakeComparison(0, CompareOp::kGe, v));
    checkpoint();
  }
  std::vector<TupleId> fresh;
  for (int i = 0; i < 6; ++i) {
    fresh.push_back(Store(100 + 141 * i, 13 * i));
    live.PlaceStored(fresh.back());
    checkpoint();
  }
  live.EraseFromChains(fresh[2]);
  checkpoint();
  live.Select(db_->MakeComparison(0, CompareOp::kLt, 450));  // flushes attr 0
  checkpoint();
  live.PlaceStored(Store(999, 999));  // left pending at shutdown
  checkpoint();
  ASSERT_FALSE(live.pop(1).insert_buffer().Empty());

  for (size_t i = 0; i < states.size(); ++i) {
    const std::string rdir = FreshDir("ibuf_wal_replay");
    CloneWalDir(dir, rdir, log_sizes[i]);
    PrkbIndex recovered(db_.get(), BufferedOpts());
    const uint64_t qpf_before = db_->uses();
    auto rwal = PrkbWal::Open(&recovered, rdir, wopts);
    ASSERT_TRUE(rwal.ok()) << "checkpoint " << i << ": "
                           << rwal.status().message();
    EXPECT_EQ(db_->uses(), qpf_before) << "recovery re-paid QPF";
    EXPECT_EQ(StateBytes(recovered), states[i]) << "checkpoint " << i;
    for (edbms::AttrId attr : recovered.EnabledAttrs()) {
      EXPECT_TRUE(recovered.pop(attr).Validate().ok());
    }
  }
}

TEST_F(WalBufferTest, TornTailMidFlushRecoversValidPrefix) {
  const std::string dir = FreshDir("ibuf_wal_torn");
  WalOptions wopts;
  wopts.fsync_on_commit = false;
  wopts.compact_threshold_bytes = 0;
  {
    PrkbIndex live(db_.get(), BufferedOpts());
    auto wal = PrkbWal::Open(&live, dir, wopts);
    ASSERT_TRUE(wal.ok());
    live.EnableAttr(0);
    live.Select(db_->MakeComparison(0, CompareOp::kGe, 500));
    for (int i = 0; i < 8; ++i) live.PlaceStored(Store(991 - 113 * i, 0));
    // The flush emits add records then the kBufFlush marker; tearing
    // anywhere inside that run must leave a validly-buffered suffix.
    live.Select(db_->MakeComparison(0, CompareOp::kLt, 300));
    live.PlaceStored(Store(640, 0));
  }
  const auto log = ReadFile(dir + "/wal.log");
  ASSERT_GT(log.size(), 64u);

  for (size_t cut = 8; cut <= log.size(); cut += 7) {
    const std::string rdir = FreshDir("ibuf_wal_torn_replay");
    CloneWalDir(dir, rdir, cut);
    PrkbIndex recovered(db_.get(), BufferedOpts());
    auto rwal = PrkbWal::Open(&recovered, rdir, wopts);
    ASSERT_TRUE(rwal.ok()) << "cut at " << cut << ": "
                           << rwal.status().message();
    if (recovered.IsEnabled(0)) {
      ASSERT_TRUE(recovered.pop(0).Validate().ok()) << "cut at " << cut;
    }
    const auto once = StateBytes(recovered);
    PrkbIndex again(db_.get(), BufferedOpts());
    auto rwal2 = PrkbWal::Open(&again, rdir, wopts);
    ASSERT_TRUE(rwal2.ok());
    EXPECT_EQ(StateBytes(again), once);
  }
}

// ---- Break-even routing ---------------------------------------------------

/// A query flushes the buffer iff the scan rent paid since it was last empty
/// plus its own scan reaches the flush's one-off price, both priced with the
/// configured constants (eval 1000 ns, L = rt_latency_hint_ns) at the
/// configured fan-out m. Every case runs one chain of k = 4 partitions with
/// 10 buffered tuples, so the flush is 10 × min(k, (m−1)·⌈log_m k⌉)
/// placement probes over ⌈log_m 4⌉ = 1 round trip.
struct BreakEvenCase {
  double hint_ns;
  size_t batch;
  size_t fanout;
  int flush_at;  // the first repeat query that flushes
};

void PrintTo(const BreakEvenCase& c, std::ostream* os) {
  *os << "hint=" << c.hint_ns << " batch=" << c.batch << " m=" << c.fanout
      << " flush_at=" << c.flush_at;
}

class BreakEvenTest : public BufferSemanticsTest,
                      public testing::WithParamInterface<BreakEvenCase> {};

TEST_P(BreakEvenTest, FlushesExactlyWhenRentReachesTheFlushPrice) {
  const BreakEvenCase c = GetParam();
  PrkbOptions opts;
  opts.buffered_inserts = true;
  opts.rt_latency_hint_ns = c.hint_ns;
  opts.batch_size = c.batch;
  opts.probe_fanout = c.fanout;
  PrkbIndex index(db_.get(), opts);
  index.EnableAttr(0);
  // Repeats of a cached trapdoor keep k fixed: each query below costs its
  // buffer scan (or the flush) and nothing else.
  const auto td = db_->MakeComparison(0, CompareOp::kGe, 500);
  index.Select(db_->MakeComparison(0, CompareOp::kGe, 250));
  index.Select(db_->MakeComparison(0, CompareOp::kGe, 750));
  index.Select(td);
  ASSERT_EQ(index.pop(0).k(), 4u);
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    index.PlaceStored(Store(rng.UniformInt64(0, 999), 0));
  }
  const InsertBuffer& buf = index.pop(0).insert_buffer();
  ASSERT_EQ(buf.Size(), 10u);
  ASSERT_EQ(buf.rent_uses(), 0u);
  const uint64_t trips_per_scan = (10 + c.batch - 1) / c.batch;

  const edbms::PlainPredicate pred{
      0, edbms::PredicateKind::kComparison, CompareOp::kGe, 500, 0};
  for (int q = 1; q <= c.flush_at; ++q) {
    edbms::SelectionStats stats;
    EXPECT_EQ(testutil::Sorted(index.Select(td, &stats)),
              testutil::OracleSelect(plain_, pred, db_.get()))
        << "query " << q;
    EXPECT_EQ(stats.cache_hits, 1u);
    if (q < c.flush_at) {
      EXPECT_EQ(stats.qpf_uses, 10u) << "query " << q << " should scan";
      EXPECT_EQ(buf.Size(), 10u);
      EXPECT_EQ(buf.rent_uses(), 10u * q);
      EXPECT_EQ(buf.rent_trips(), trips_per_scan * q);
    } else {
      EXPECT_TRUE(buf.Empty()) << "query " << q << " should flush";
      EXPECT_EQ(buf.rent_uses(), 0u);
      EXPECT_EQ(buf.rent_trips(), 0u);
    }
  }
  EXPECT_TRUE(index.pop(0).Validate().ok());
  EXPECT_TRUE(
      index.pop(0).ValidateAgainstPlain(testutil::ColumnOf(plain_, 0)).ok());
}

// Prices per query, scan vs flush (flush = 10·p uses + 1 trip):
//   hint 0,      m=8, p=4: scan 10 uses; flush 40 → the 4th query flushes.
//   hint 0,      m=2, p=2: flush 20 → the 2nd query flushes.
//   hint 10 µs,  batch 4: scan 10 µs + 3 trips = 40 µs; flush 40 µs + 10 µs
//                = 50 µs → the 2nd query flushes (rent 40 + 40 ≥ 50).
//   hint 300 µs, batch 1: scan 10 µs + 10 trips of 300 µs ≫ flush 340 µs
//                → the 1st query flushes.
INSTANTIATE_TEST_SUITE_P(
    Rule, BreakEvenTest,
    testing::Values(BreakEvenCase{0.0, 1, 8, 4}, BreakEvenCase{0.0, 1, 2, 2},
                    BreakEvenCase{10000.0, 4, 8, 2},
                    BreakEvenCase{300000.0, 1, 8, 1}));

/// Warms a k = 4 chain and caches `td500_`; ScanOnce then re-sends it so
/// the pending buffer collects one scan's rent. A flush costs 4 probes per
/// buffered tuple there, so a single scan never reaches it.
class RentResetTest : public BufferSemanticsTest {
 protected:
  void Warm(PrkbIndex* index) {
    index->EnableAttr(0);
    index->Select(db_->MakeComparison(0, CompareOp::kGe, 250));
    index->Select(db_->MakeComparison(0, CompareOp::kGe, 750));
    td500_ = db_->MakeComparison(0, CompareOp::kGe, 500);
    index->Select(td500_);
    ASSERT_EQ(index->pop(0).k(), 4u);
  }
  void ScanOnce(PrkbIndex* index) { index->Select(td500_); }

  edbms::Trapdoor td500_;
};

TEST_F(RentResetTest, CapFlushResetsRent) {
  PrkbOptions opts;
  opts.buffered_inserts = true;
  opts.max_buffered_inserts = 3;
  PrkbIndex index(db_.get(), opts);
  Warm(&index);
  index.PlaceStored(Store(11, 0));
  index.PlaceStored(Store(902, 0));
  ScanOnce(&index);
  const InsertBuffer& buf = index.pop(0).insert_buffer();
  ASSERT_EQ(buf.Size(), 2u);
  ASSERT_EQ(buf.rent_uses(), 2u);
  index.PlaceStored(Store(455, 0));  // reaches the cap: flushes in place
  EXPECT_TRUE(buf.Empty());
  EXPECT_EQ(buf.rent_uses(), 0u);
  EXPECT_EQ(buf.rent_trips(), 0u);
  index.PlaceStored(Store(77, 0));  // a new buffer starts with no rent
  EXPECT_EQ(buf.rent_uses(), 0u);
}

TEST_F(RentResetTest, DeletingTheLastBufferedTupleResetsRent) {
  PrkbOptions opts;
  opts.buffered_inserts = true;
  PrkbIndex index(db_.get(), opts);
  Warm(&index);
  const TupleId a = Store(11, 0);
  const TupleId b = Store(902, 0);
  index.PlaceStored(a);
  index.PlaceStored(b);
  ScanOnce(&index);
  const InsertBuffer& buf = index.pop(0).insert_buffer();
  ASSERT_EQ(buf.rent_uses(), 2u);
  index.EraseFromChains(a);
  EXPECT_EQ(buf.rent_uses(), 2u);  // still buffered work: rent stands
  index.EraseFromChains(b);
  EXPECT_TRUE(buf.Empty());
  EXPECT_EQ(buf.rent_uses(), 0u);
  EXPECT_EQ(buf.rent_trips(), 0u);
}

TEST_F(RentResetTest, RecoveryStartsWithoutRent) {
  const std::string dir = FreshDir("ibuf_rent_recovery");
  PrkbOptions opts;
  opts.buffered_inserts = true;
  WalOptions wopts;
  wopts.fsync_on_commit = false;
  wopts.compact_threshold_bytes = 0;
  PrkbIndex live(db_.get(), opts);
  auto wal = PrkbWal::Open(&live, dir, wopts);
  ASSERT_TRUE(wal.ok()) << wal.status().message();
  Warm(&live);
  live.PlaceStored(Store(11, 0));
  live.PlaceStored(Store(902, 0));
  ScanOnce(&live);
  ASSERT_EQ(live.pop(0).insert_buffer().rent_uses(), 2u);
  ASSERT_TRUE((*wal)->Commit().ok());

  // Snapshot round trip: same buffer, no rent.
  Encoder enc;
  live.pop(0).EncodeTo(&enc);
  Pop copy;
  Decoder dec(enc.buffer());
  ASSERT_TRUE(copy.DecodeFrom(&dec).ok());
  EXPECT_EQ(copy.insert_buffer().order(), live.pop(0).insert_buffer().order());
  EXPECT_EQ(copy.insert_buffer().rent_uses(), 0u);
  EXPECT_EQ(copy.insert_buffer().rent_trips(), 0u);

  // WAL recovery: same buffer, no rent.
  const std::string rdir = dir + "_copy";
  CloneWalDir(dir, rdir, fs::file_size(dir + "/wal.log"));
  PrkbIndex recovered(db_.get(), opts);
  auto rwal = PrkbWal::Open(&recovered, rdir, wopts);
  ASSERT_TRUE(rwal.ok()) << rwal.status().message();
  EXPECT_EQ(PopBytes(recovered.pop(0)), PopBytes(live.pop(0)));
  EXPECT_EQ(recovered.pop(0).insert_buffer().Size(), 2u);
  EXPECT_EQ(recovered.pop(0).insert_buffer().rent_uses(), 0u);
  EXPECT_EQ(recovered.pop(0).insert_buffer().rent_trips(), 0u);
}

TEST_F(BufferSemanticsTest, SharedPathScansAddUpTheirRentExactly) {
  // Cache-hit selections over a buffered chain run under shared locks,
  // concurrently; each charges its scan to the buffer's rent atomically.
  // m = 32 prices a flush at 62 probes per tuple on a k ≥ 62 chain, so all
  // kThreads × kPerThread scans stay below it and none flushes.
  PrkbOptions opts;
  opts.buffered_inserts = true;
  opts.probe_fanout = 32;
  opts.batch_size = 3;
  ConcurrentPrkbIndex index(db_.get(), opts);
  index.EnableAttr(0);
  std::vector<edbms::Trapdoor> hot;
  for (edbms::Value v = 5; v < 1000; v += 12) {
    const auto td = db_->MakeComparison(0, CompareOp::kGe, v);
    index.Select(td);
    // A boundary-aligned predicate splits nothing and is not cached.
    const bool cached = index.WithLocked([&](PrkbIndex& inner) {
      return inner.pop(0).LookupFastPath(FingerprintTrapdoor(td)) != nullptr;
    });
    if (cached) hot.push_back(td);
  }
  ASSERT_GE(index.StatsFor(0).k, 62u);
  constexpr size_t kBuffered = 7;
  for (size_t i = 0; i < kBuffered; ++i) {
    index.Insert({static_cast<edbms::Value>(40 + 130 * i), 0});
  }

  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  const uint64_t retries0 = LockMetrics::Get().select_retries->value();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        index.Select(hot[(t * kPerThread + i) % hot.size()]);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(LockMetrics::Get().select_retries->value(), retries0)
      << "every cache hit should have stayed on the shared path";
  index.WithLocked([&](PrkbIndex& inner) {
    const InsertBuffer& buf = inner.pop(0).insert_buffer();
    EXPECT_EQ(buf.Size(), kBuffered);
    EXPECT_EQ(buf.rent_uses(), uint64_t{kThreads * kPerThread * kBuffered});
    EXPECT_EQ(buf.rent_trips(),
              uint64_t{kThreads * kPerThread * ((kBuffered + 2) / 3)});
    return 0;
  });
}

/// ROADMAP item 9's gate: the buffer route reads no host timing. One seeded
/// write-heavy op sequence runs against two indexes over the same store; the
/// second's calibrator is fed, before every op, samples that put the eval
/// cost 50× lower and the round-trip latency 50× higher than the first
/// index fitted. QPF uses, round trips and every chain's bytes must match.
TEST_F(BufferSemanticsTest, RoutingIgnoresTheCalibrator) {
  PrkbOptions opts;
  opts.buffered_inserts = true;
  opts.batch_size = 4;
  opts.max_buffered_inserts = 48;
  PrkbIndex a(db_.get(), opts);
  PrkbIndex b(db_.get(), opts);
  for (PrkbIndex* idx : {&a, &b}) {
    idx->EnableAttr(0);
    idx->EnableAttr(1);
  }

  struct Spend {
    uint64_t uses = 0;
    uint64_t trips = 0;
  };
  Spend spend_a;
  Spend spend_b;
  const auto run = [&](PrkbIndex* idx, Spend* spend, const auto& op) {
    const uint64_t u0 = db_->uses();
    const uint64_t t0 = db_->round_trips();
    op(idx);
    spend->uses += db_->uses() - u0;
    spend->trips += db_->round_trips() - t0;
  };
  // Whether every op of b ran with its calibrator at least 10× skewed both
  // ways (b's own executor refits between ops, so each op re-skews first).
  bool skewed = true;
  const auto skew = [&] {
    const double eval_a = a.calibrator().eval_ns();
    const double rt_a = std::max(a.calibrator().rt_latency_ns(), 1e3);
    exec::CostCalibrator& cal = b.calibrator();
    for (uint64_t i = 0; i < exec::CostCalibrator::kWarmupSamples; ++i) {
      cal.ObserveRoundTrips(1, static_cast<uint64_t>(50.0 * rt_a));
      cal.ObservePlan(1000.0, 0.0,
                      static_cast<uint64_t>(1000.0 * eval_a / 50.0));
    }
    skewed = skewed && cal.eval_ns() * 10.0 < eval_a &&
             cal.rt_latency_ns() > 10.0 * rt_a;
  };

  // 40% inserts, 5% deletes, 10% repeats, 25% `<`, 20% BETWEEN.
  constexpr std::string_view kPattern = "ILIBIRILIBDLIBIRILBL";
  Rng rng(2027);
  std::vector<TupleId> mine;
  std::vector<edbms::Trapdoor> issued;
  size_t flushes_seen = 0;
  size_t scans_seen = 0;
  for (size_t i = 0; i < 400; ++i) {
    const char kind = kPattern[i % kPattern.size()];
    const edbms::AttrId attr = static_cast<edbms::AttrId>(i % 2);
    if (kind == 'I' || (kind == 'D' && mine.empty())) {
      const TupleId tid =
          Store(rng.UniformInt64(0, 999), rng.UniformInt64(0, 999));
      mine.push_back(tid);
      run(&a, &spend_a, [&](PrkbIndex* idx) { idx->PlaceStored(tid); });
      skew();
      run(&b, &spend_b, [&](PrkbIndex* idx) { idx->PlaceStored(tid); });
      continue;
    }
    if (kind == 'D') {
      const size_t j = static_cast<size_t>(rng.UniformInt(0, mine.size() - 1));
      const TupleId tid = mine[j];
      mine[j] = mine.back();
      mine.pop_back();
      db_->Delete(tid);
      run(&a, &spend_a, [&](PrkbIndex* idx) { idx->EraseFromChains(tid); });
      skew();
      run(&b, &spend_b, [&](PrkbIndex* idx) { idx->EraseFromChains(tid); });
      continue;
    }
    edbms::Trapdoor td;
    if (kind == 'R' && !issued.empty()) {
      td = issued[static_cast<size_t>(rng.UniformInt(0, issued.size() - 1))];
    } else if (kind == 'B') {
      const edbms::Value lo = rng.UniformInt64(0, 874);
      td = db_->MakeBetween(attr, lo, lo + 125);
      issued.push_back(td);
    } else {
      td = db_->MakeComparison(attr, CompareOp::kLt, rng.UniformInt64(0, 999));
      issued.push_back(td);
    }
    const size_t before = a.pop(td.attr).insert_buffer().Size();
    std::vector<TupleId> win_a;
    std::vector<TupleId> win_b;
    run(&a, &spend_a, [&](PrkbIndex* idx) { win_a = idx->Select(td); });
    skew();
    run(&b, &spend_b, [&](PrkbIndex* idx) { win_b = idx->Select(td); });
    ASSERT_EQ(testutil::Sorted(win_b), testutil::Sorted(win_a)) << "op " << i;
    if (before != 0) {
      ++(a.pop(td.attr).insert_buffer().Empty() ? flushes_seen : scans_seen);
    }
    ASSERT_EQ(PopBytes(b.pop(td.attr)), PopBytes(a.pop(td.attr)))
        << "op " << i;
  }

  // The skew was in force, and the sequence exercised both routes.
  EXPECT_TRUE(skewed);
  EXPECT_GT(flushes_seen, 0u);
  EXPECT_GT(scans_seen, 0u);

  EXPECT_EQ(spend_b.uses, spend_a.uses);
  EXPECT_EQ(spend_b.trips, spend_a.trips);
  for (const edbms::AttrId attr : {0u, 1u}) {
    EXPECT_EQ(PopBytes(b.pop(attr)), PopBytes(a.pop(attr))) << "attr " << attr;
  }
}

// ---- Concurrent facade: stripe-locked appends -----------------------------

TEST_F(BufferSemanticsTest, ConcurrentBufferedInsertsStayExact) {
  PrkbOptions opts;
  opts.buffered_inserts = true;
  opts.rt_latency_hint_ns = 300000.0;
  ConcurrentPrkbIndex index(db_.get(), opts);
  index.EnableAttr(0);
  index.EnableAttr(1);
  index.Select(db_->MakeComparison(0, CompareOp::kGe, 500));
  index.Select(db_->MakeComparison(1, CompareOp::kLt, 500));

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 20;
  // Rows and trapdoors are produced up front: encryption and trapdoor
  // issuance live in the client-side DataOwner, which sits outside the
  // SP-side concurrency story (same idiom as bench_concurrent).
  std::vector<std::vector<std::vector<edbms::Value>>> rows(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    Rng rng(1000 + w);
    for (int i = 0; i < kPerWriter; ++i) {
      rows[w].push_back({rng.UniformInt64(0, 999), rng.UniformInt64(0, 999)});
    }
  }
  std::vector<std::vector<edbms::Trapdoor>> reader_tds(2);
  for (int r = 0; r < 2; ++r) {
    Rng rng(50 + r);
    for (int i = 0; i < 15; ++i) {
      reader_tds[r].push_back(db_->MakeComparison(
          static_cast<edbms::AttrId>(i % 2), CompareOp::kGe,
          rng.UniformInt64(0, 999)));
    }
  }

  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 2);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      ready.fetch_add(1);
      while (ready.load() < kWriters) {
      }
      for (const auto& row : rows[w]) index.Insert(row);
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      for (const auto& td : reader_tds[r]) index.Select(td);
    });
  }
  for (auto& t : threads) t.join();

  // Every chain still satisfies the off-chain-buffer invariant...
  index.WithLocked([](PrkbIndex& inner) {
    for (edbms::AttrId attr : inner.EnabledAttrs()) {
      EXPECT_TRUE(inner.pop(attr).Validate().ok());
    }
    return 0;
  });
  // ...and final answers match the exhaustive baseline exactly.
  for (const edbms::Value v : {111, 555, 888}) {
    for (const edbms::AttrId attr : {0u, 1u}) {
      const auto td = db_->MakeComparison(attr, CompareOp::kGe, v);
      const auto expect =
          testutil::Sorted(edbms::BaselineScanner(db_.get()).Select(td));
      EXPECT_EQ(testutil::Sorted(index.Select(td)), expect);
    }
  }
}

}  // namespace
}  // namespace prkb::core
