#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "edbms/cipherbase_qpf.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "prkb/selection.h"
#include "tests/test_util.h"

namespace prkb::core {
namespace {

using edbms::CipherbaseEdbms;
using edbms::CompareOp;
using edbms::PlainPredicate;
using edbms::PlainTable;
using edbms::SelectionStats;
using edbms::Trapdoor;
using edbms::TupleId;
using edbms::Value;
using testutil::OracleSelectAll;
using testutil::PaperProbes;
using testutil::RandomTable;
using testutil::Sorted;

constexpr uint64_t kSeed = 4242;

/// Builds the paper's canonical d-dimensional box query: two comparison
/// trapdoors per dimension, 'Xi > lo AND Xi < hi'.
struct BoxQuery {
  std::vector<Trapdoor> trapdoors;
  std::vector<PlainPredicate> plains;
};

BoxQuery MakeBox(CipherbaseEdbms* db, const std::vector<Value>& lo,
                 const std::vector<Value>& hi) {
  BoxQuery q;
  for (size_t d = 0; d < lo.size(); ++d) {
    const auto attr = static_cast<edbms::AttrId>(d);
    q.trapdoors.push_back(db->MakeComparison(attr, CompareOp::kGt, lo[d]));
    q.trapdoors.push_back(db->MakeComparison(attr, CompareOp::kLt, hi[d]));
    q.plains.push_back(
        PlainPredicate{.attr = attr, .op = CompareOp::kGt, .lo = lo[d]});
    q.plains.push_back(
        PlainPredicate{.attr = attr, .op = CompareOp::kLt, .lo = hi[d]});
  }
  return q;
}

TEST(MultidimTest, ColdMdQueryMatchesOracle2D) {
  Rng data_rng(1);
  PlainTable plain = RandomTable(300, 2, &data_rng, 0, 1000);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  index.EnableAttr(1);
  const auto q = MakeBox(&db, {200, 300}, {700, 800});
  const auto got = index.SelectRangeMd(q.trapdoors);
  EXPECT_EQ(Sorted(got), OracleSelectAll(plain, q.plains));
}

TEST(MultidimTest, SdPlusMatchesOracle2D) {
  Rng data_rng(2);
  PlainTable plain = RandomTable(300, 2, &data_rng, 0, 1000);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  index.EnableAttr(1);
  const auto q = MakeBox(&db, {200, 300}, {700, 800});
  const auto got = index.SelectRangeSdPlus(q.trapdoors);
  EXPECT_EQ(Sorted(got), OracleSelectAll(plain, q.plains));
}

TEST(MultidimTest, MdCheaperThanSdPlusOnWarmChains) {
  Rng data_rng(3);
  PlainTable plain = RandomTable(4000, 3, &data_rng, 0, 1000000);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);

  // Two identically warmed indexes.
  auto warm = [&](PrkbIndex* index) {
    Rng qrng(5);
    for (int i = 0; i < 120; ++i) {
      const auto attr = static_cast<edbms::AttrId>(qrng.UniformInt(0, 2));
      index->Select(db.MakeComparison(attr, CompareOp::kLt,
                                      qrng.UniformInt64(0, 1000000)));
    }
  };
  PrkbIndex a(&db), b(&db);
  for (edbms::AttrId attr = 0; attr < 3; ++attr) {
    a.EnableAttr(attr);
    b.EnableAttr(attr);
  }
  warm(&a);
  warm(&b);

  const auto q =
      MakeBox(&db, {100000, 200000, 300000}, {400000, 500000, 600000});
  SelectionStats md, sdp;
  const auto got_md = a.SelectRangeMd(q.trapdoors, &md);
  const auto got_sdp = b.SelectRangeSdPlus(q.trapdoors, &sdp);
  EXPECT_EQ(Sorted(got_md), Sorted(got_sdp));
  EXPECT_EQ(Sorted(got_md), OracleSelectAll(plain, q.plains));
  // Sec. 6.2's whole point: the grid prunes most NS-band tuples without QPF.
  EXPECT_LT(md.qpf_uses, sdp.qpf_uses);
}

TEST(MultidimTest, DegeneratesToOneDimension) {
  Rng data_rng(4);
  PlainTable plain = RandomTable(200, 1, &data_rng, 0, 500);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  const auto q = MakeBox(&db, {100}, {300});
  const auto got = index.SelectRangeMd(q.trapdoors);
  EXPECT_EQ(Sorted(got), OracleSelectAll(plain, q.plains));
}

TEST(MultidimTest, EmptyBoxReturnsNothing) {
  Rng data_rng(5);
  PlainTable plain = RandomTable(200, 2, &data_rng, 0, 500);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);
  index.EnableAttr(1);
  const auto q = MakeBox(&db, {400, 400}, {100, 100});  // hi < lo
  EXPECT_TRUE(index.SelectRangeMd(q.trapdoors).empty());
}

TEST(MultidimTest, FallsBackWhenAttrNotEnabled) {
  Rng data_rng(6);
  PlainTable plain = RandomTable(100, 2, &data_rng, 0, 500);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db);
  index.EnableAttr(0);  // attr 1 NOT enabled
  const auto q = MakeBox(&db, {100, 100}, {400, 400});
  const auto got = index.SelectRangeMd(q.trapdoors);
  EXPECT_EQ(Sorted(got), OracleSelectAll(plain, q.plains));
}

struct MdSweep {
  uint64_t seed;
  size_t rows;
  size_t dims;
  Value domain;
  bool eager;
};

class MultidimPropertyTest : public ::testing::TestWithParam<MdSweep> {};

TEST_P(MultidimPropertyTest, RandomBoxSequenceStaysExactAndConsistent) {
  const MdSweep param = GetParam();
  Rng data_rng(param.seed);
  PlainTable plain =
      RandomTable(param.rows, param.dims, &data_rng, 0, param.domain);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex index(&db, PrkbOptions{.seed = param.seed,
                                   .eager_md_update = param.eager});
  for (size_t d = 0; d < param.dims; ++d) {
    index.EnableAttr(static_cast<edbms::AttrId>(d));
  }

  Rng qrng(param.seed ^ 0xF00D);
  for (int i = 0; i < 40; ++i) {
    std::vector<Value> lo(param.dims), hi(param.dims);
    for (size_t d = 0; d < param.dims; ++d) {
      lo[d] = qrng.UniformInt64(0, param.domain);
      hi[d] = lo[d] + qrng.UniformInt64(0, param.domain / 2);
    }
    const auto q = MakeBox(&db, lo, hi);
    const auto got = index.SelectRangeMd(q.trapdoors);
    ASSERT_EQ(Sorted(got), OracleSelectAll(plain, q.plains))
        << "box query " << i;
    for (size_t d = 0; d < param.dims; ++d) {
      ASSERT_TRUE(index.pop(static_cast<edbms::AttrId>(d))
                      .ValidateAgainstPlain(plain.column(
                          static_cast<edbms::AttrId>(d)))
                      .ok())
          << "dim " << d << " after box query " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MultidimPropertyTest,
    ::testing::Values(MdSweep{1, 120, 2, 400, false},
                      MdSweep{2, 120, 2, 400, true},
                      MdSweep{3, 200, 3, 1000, false},
                      MdSweep{4, 200, 3, 1000, true},
                      MdSweep{5, 80, 4, 50, false},   // heavy duplication
                      MdSweep{6, 80, 4, 50, true},
                      MdSweep{7, 60, 1, 200, false},  // 1-D degenerate
                      MdSweep{8, 300, 2, 1000000, false}));

TEST(MultidimTest, EagerModeBuildsFinerChains) {
  Rng data_rng(9);
  PlainTable plain = RandomTable(1000, 3, &data_rng, 0, 100000);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  PrkbIndex lazy(&db, PrkbOptions{.seed = 1, .eager_md_update = false});
  PrkbIndex eager(&db, PrkbOptions{.seed = 1, .eager_md_update = true});
  for (edbms::AttrId a = 0; a < 3; ++a) {
    lazy.EnableAttr(a);
    eager.EnableAttr(a);
  }
  Rng qrng(10);
  for (int i = 0; i < 25; ++i) {
    std::vector<Value> lo(3), hi(3);
    for (size_t d = 0; d < 3; ++d) {
      lo[d] = qrng.UniformInt64(0, 100000);
      hi[d] = lo[d] + 30000;
    }
    const auto q = MakeBox(&db, lo, hi);
    lazy.SelectRangeMd(q.trapdoors);
    eager.SelectRangeMd(q.trapdoors);
  }
  size_t k_lazy = 0, k_eager = 0;
  for (edbms::AttrId a = 0; a < 3; ++a) {
    k_lazy += lazy.pop(a).k();
    k_eager += eager.pop(a).k();
  }
  EXPECT_GE(k_eager, k_lazy);
}

// ------------------------------------------------------ differential golden

/// FNV-1a over 64-bit words.
uint64_t Fold(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Chain order and exact membership of one chain, folded into `h`.
uint64_t FoldChainShape(uint64_t h, const Pop& pop) {
  h = Fold(h, pop.k());
  for (size_t pos = 0; pos < pop.k(); ++pos) {
    h = Fold(h, pop.members_at(pos).Size());
    pop.members_at(pos).ForEach([&](TupleId tid) { h = Fold(h, tid); });
  }
  return h;
}

struct MdGoldenParam {
  size_t batch_size;
  bool eager;
  /// The paper's serial search (testutil::PaperProbes: m = 2, no fusion, no
  /// speculation): every QFilter probe but the two chain ends, which share
  /// one round, is its own round trip.
  bool sequential;
  /// Recorded from the hash-map implementation of PrkbIndex::RunMd, which
  /// the bitmap assembly replaced: every QPF decision and every split must
  /// reproduce them exactly.
  uint64_t uses;
  uint64_t trips;
  uint64_t batches;
  uint64_t shape_hash;
  /// md.pruned_free over the sequence. Only the batch_size 1 values come
  /// from the old implementation, whose per-tuple loop was the only one
  /// that counted; the chunked loop must reproduce them.
  uint64_t pruned_free;
};

void PrintTo(const MdGoldenParam& p, std::ostream* os) {
  *os << "batch=" << p.batch_size << " eager=" << p.eager
      << " sequential=" << p.sequential;
}

/// The sorted winner sets of the whole sequence, folded. Winners do not
/// depend on the configuration.
constexpr uint64_t kGoldenWinnersHash = 0x9504C4C68EB775E0ULL;

class MdGoldenTest : public ::testing::TestWithParam<MdGoldenParam> {};

/// A seeded 200-query sequence of 2-D and 3-D boxes (two trapdoors per
/// attribute) over a table with deleted rows. Every fourth box that spans
/// attribute 0 re-sends a lower bound that a plain selection already cut
/// (a fast-path hit).
/// Winners must equal the oracle with no duplicates; QPF uses, round trips,
/// batches, the final shape of every chain and the winner sets must equal
/// the recorded values. The shape pins Step 5's split decisions and label
/// bookkeeping byte for byte.
TEST_P(MdGoldenTest, SeededSequenceMatchesOracleAndRecordedCounts) {
  const MdGoldenParam param = GetParam();
  constexpr Value kDomain = 5000;
  Rng data_rng(77);
  PlainTable plain = RandomTable(500, 3, &data_rng, 0, kDomain);
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  const PrkbOptions options{.seed = 11,
                            .eager_md_update = param.eager,
                            .batch_size = param.batch_size};
  PrkbIndex index(&db, param.sequential ? PaperProbes(options) : options);
  for (edbms::AttrId a = 0; a < 3; ++a) index.EnableAttr(a);
  for (TupleId tid = 3; tid < 500; tid += 17) index.Delete(tid);

  // Trapdoors are sealed with fresh randomness, so a fast-path hit needs the
  // very trapdoor that cut the chain, re-sent.
  const Value hot[] = {1000, 2500, 4000};
  std::vector<Trapdoor> hot_tds;
  for (const Value c : hot) {
    hot_tds.push_back(db.MakeComparison(0, CompareOp::kGt, c));
    index.Select(hot_tds.back());
  }
  const uint64_t hits_before = CacheMetrics::Get().hits->value();
  const obs::Counter* pruned_free =
      obs::MetricsRegistry::Global().GetCounter("md.pruned_free");
  const uint64_t pruned_before = pruned_free->value();

  uint64_t winners_hash = 0xCBF29CE484222325ULL;
  Rng qrng(0x60D);
  for (int i = 0; i < 200; ++i) {
    std::vector<edbms::AttrId> attrs = {0, 1, 2};
    if (qrng.UniformInt(0, 1) == 0) {
      attrs.erase(attrs.begin() + qrng.UniformInt(0, 2));
    }
    const bool hot_hit = attrs[0] == 0 && i % 4 == 0;
    std::vector<Value> lo, hi;
    for (const edbms::AttrId a : attrs) {
      lo.push_back(a == 0 && hot_hit ? hot[(i / 4) % 3]
                                     : qrng.UniformInt64(0, kDomain));
      hi.push_back(lo.back() + qrng.UniformInt64(0, kDomain / 2));
    }
    BoxQuery q;
    for (size_t d = 0; d < attrs.size(); ++d) {
      q.trapdoors.push_back(
          d == 0 && hot_hit
              ? hot_tds[(i / 4) % 3]
              : db.MakeComparison(attrs[d], CompareOp::kGt, lo[d]));
      q.trapdoors.push_back(
          db.MakeComparison(attrs[d], CompareOp::kLt, hi[d]));
      q.plains.push_back(
          PlainPredicate{.attr = attrs[d], .op = CompareOp::kGt, .lo = lo[d]});
      q.plains.push_back(
          PlainPredicate{.attr = attrs[d], .op = CompareOp::kLt, .lo = hi[d]});
    }
    if (i % 20 == 10) index.Delete(static_cast<TupleId>(5 + 23 * (i / 20)));

    const std::vector<TupleId> got = Sorted(index.SelectRangeMd(q.trapdoors));
    ASSERT_EQ(std::adjacent_find(got.begin(), got.end()), got.end())
        << "duplicate winner in box query " << i;
    ASSERT_EQ(got, OracleSelectAll(plain, q.plains, &db)) << "box query " << i;
    winners_hash = Fold(winners_hash, got.size());
    for (const TupleId tid : got) winners_hash = Fold(winners_hash, tid);
  }
  EXPECT_GT(CacheMetrics::Get().hits->value(), hits_before);

  uint64_t shape_hash = 0xCBF29CE484222325ULL;
  for (edbms::AttrId a = 0; a < 3; ++a) {
    shape_hash = FoldChainShape(shape_hash, index.pop(a));
  }
  EXPECT_EQ(db.uses(), param.uses);
  EXPECT_EQ(db.round_trips(), param.trips);
  EXPECT_EQ(db.batches(), param.batches);
  EXPECT_EQ(shape_hash, param.shape_hash);
  EXPECT_EQ(winners_hash, kGoldenWinnersHash);
  EXPECT_EQ(pruned_free->value() - pruned_before, param.pruned_free);
  if (param.sequential && param.batch_size == 1) {
    EXPECT_EQ(db.uses(), db.round_trips() + db.batches());
  }
}

// batch_size 1 with the paper's serial search is the scalar model: every
// eval is its own round trip except QFilter's two-lane chain-ends rounds, so
// uses == trips + batches (asserted above for these rows). Uses, shapes,
// winners and pruned_free were recorded on the pre-scheduler sequential
// path and stay; trips and batches were re-pinned when that path became
// this scheduler configuration.
INSTANTIATE_TEST_SUITE_P(
    Recorded, MdGoldenTest,
    ::testing::Values(
        MdGoldenParam{1, false, true, 32076, 31473, 603,
                      0x673044C69682D1ACULL, 70182},
        MdGoldenParam{1, true, true, 29233, 28266, 967,
                      0xDAACFFAF446DAC77ULL, 14069},
        MdGoldenParam{1, false, false, 34761, 28675, 573,
                      0x673044C69682D1ACULL, 70244},
        MdGoldenParam{1, true, false, 35226, 22556, 729,
                      0xDAACFFAF446DAC77ULL, 13897},
        MdGoldenParam{7, false, false, 34793, 11672, 6761,
                      0x673044C69682D1ACULL, 70232},
        MdGoldenParam{7, true, false, 35232, 6080, 4826,
                      0xDAACFFAF446DAC77ULL, 13897},
        MdGoldenParam{256, false, false, 34934, 2803, 2341,
                      0x110B36132898ECCAULL, 70222},
        MdGoldenParam{256, true, false, 35327, 3064, 2394,
                      0xDAACFFAF446DAC77ULL, 13881}));

}  // namespace
}  // namespace prkb::core
