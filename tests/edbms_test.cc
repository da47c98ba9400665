#include <thread>
#include <vector>

#include "edbms/cipherbase_qpf.h"
#include "edbms/sdb_qpf.h"
#include "edbms/service_provider.h"
#include "gtest/gtest.h"

namespace prkb::edbms {
namespace {

constexpr uint64_t kSeed = 0xC0FFEE;

PlainTable SmallTable() {
  PlainTable t(2);
  t.AddRow({10, 100});
  t.AddRow({20, 50});
  t.AddRow({-5, 200});
  t.AddRow({20, 0});
  return t;
}

/// A one-cell entry into the TM's predicate entry.
bool EvalOne(TrustedMachine& tm, const Trapdoor& td, const EncValue& cell,
             bool* ok = nullptr) {
  const ProbeRequest req{&td, 0};
  const EncValue* cells[] = {&cell};
  return tm.EvalPredicateMulti({&req, 1}, cells, ok).Get(0);
}

// ------------------------------------------------------------- Predicates

TEST(PlainPredicateTest, ComparisonSemantics) {
  PlainPredicate p{.attr = 0, .op = CompareOp::kLt, .lo = 10};
  EXPECT_TRUE(p.Satisfies(9));
  EXPECT_FALSE(p.Satisfies(10));
  p.op = CompareOp::kLe;
  EXPECT_TRUE(p.Satisfies(10));
  p.op = CompareOp::kGt;
  EXPECT_FALSE(p.Satisfies(10));
  EXPECT_TRUE(p.Satisfies(11));
  p.op = CompareOp::kGe;
  EXPECT_TRUE(p.Satisfies(10));
}

TEST(PlainPredicateTest, BetweenIsInclusive) {
  PlainPredicate p{.attr = 0, .kind = PredicateKind::kBetween, .lo = 5,
                   .hi = 8};
  EXPECT_FALSE(p.Satisfies(4));
  EXPECT_TRUE(p.Satisfies(5));
  EXPECT_TRUE(p.Satisfies(8));
  EXPECT_FALSE(p.Satisfies(9));
}

TEST(PlainPredicateTest, ToStringMentionsOperator) {
  PlainPredicate p{.attr = 1, .op = CompareOp::kGe, .lo = 42};
  EXPECT_EQ(p.ToString(), "C1 >= 42");
  PlainPredicate b{.attr = 0, .kind = PredicateKind::kBetween, .lo = 1,
                   .hi = 2};
  EXPECT_EQ(b.ToString(), "C0 BETWEEN 1 AND 2");
}

// ------------------------------------------------------------- Encryption

TEST(EncryptionTest, ValueRoundTrip) {
  DataOwner owner(kSeed);
  for (Value v : {Value{0}, Value{1}, Value{-1}, Value{1LL << 40},
                  Value{-(1LL << 40)}}) {
    const auto row = owner.EncryptRow({v});
    EXPECT_EQ(owner.DecryptValue(row[0]), v);
  }
}

TEST(EncryptionTest, EqualPlaintextsGetDistinctCiphertexts) {
  DataOwner owner(kSeed);
  const auto a = owner.EncryptRow({42});
  const auto b = owner.EncryptRow({42});
  EXPECT_NE(a[0].nonce, b[0].nonce);
  EXPECT_NE(a[0].ct, b[0].ct);  // distinct nonces => distinct streams
}

TEST(EncryptionTest, TrustedMachineSharesKeys) {
  DataOwner owner(kSeed);
  TrustedMachine tm(kSeed);
  const auto row = owner.EncryptRow({1234});
  EXPECT_EQ(tm.DecryptValue(row[0]), 1234);
}

TEST(EncryptionTest, TamperedTrapdoorIsRejected) {
  DataOwner owner(kSeed);
  TrustedMachine tm(kSeed);
  Trapdoor td = owner.MakeComparison(0, CompareOp::kLt, 7);
  td.blob[10] ^= 0xFF;
  const auto cell = owner.EncryptRow({1})[0];
  bool ok = true;
  EvalOne(tm, td, cell, &ok);
  EXPECT_FALSE(ok);
}

TEST(EncryptionTest, TrapdoorBoundToAttrAndKind) {
  DataOwner owner(kSeed);
  TrustedMachine tm(kSeed);
  Trapdoor td = owner.MakeComparison(0, CompareOp::kLt, 7);
  td.attr = 1;  // relabeled by a malicious SP
  bool ok = true;
  EvalOne(tm, td, owner.EncryptRow({1, 1})[0], &ok);
  EXPECT_FALSE(ok);
}

TEST(TrustedMachineTest, VerifiedCacheStaysBoundedAndExact) {
  DataOwner owner(kSeed);
  TrustedMachine tm(kSeed);
  const auto cells = owner.EncryptRow({-3, 0, 7, 1000});
  const Value plain[] = {-3, 0, 7, 1000};
  constexpr size_t kIssued = 3 * TrustedMachine::kVerifiedCacheCapacity + 17;
  for (size_t i = 0; i < kIssued; ++i) {
    const Value c = static_cast<Value>(i % 11) - 2;
    const Trapdoor td = owner.MakeComparison(0, CompareOp::kLe, c);
    for (size_t j = 0; j < cells.size(); ++j) {
      bool ok = false;
      ASSERT_EQ(EvalOne(tm, td, cells[j], &ok), plain[j] <= c)
          << "trapdoor " << i;
      ASSERT_TRUE(ok);
    }
    ASSERT_LE(tm.verified_cache_size(),
              TrustedMachine::kVerifiedCacheCapacity);
  }
  EXPECT_EQ(tm.verified_cache_size(), TrustedMachine::kVerifiedCacheCapacity);
}

TEST(TrustedMachineTest, ForgedTrapdoorRejectedCachedOrEvicted) {
  DataOwner owner(kSeed);
  TrustedMachine tm(kSeed);
  const auto cell = owner.EncryptRow({1})[0];
  const Trapdoor genuine = owner.MakeComparison(0, CompareOp::kLt, 7);
  Trapdoor forged = genuine;  // same uid, tampered sealed bytes
  forged.blob[12] ^= 0x01;

  bool ok = false;
  EXPECT_TRUE(EvalOne(tm, genuine, cell, &ok));
  EXPECT_TRUE(ok);
  // While the genuine trapdoor is cached, its uid alone must not vouch for
  // a tampered copy.
  EvalOne(tm, forged, cell, &ok);
  EXPECT_FALSE(ok);

  // Evict it by filling every slot with other trapdoors.
  for (size_t i = 0; i < TrustedMachine::kVerifiedCacheCapacity; ++i) {
    EvalOne(tm, owner.MakeComparison(0, CompareOp::kGt, 0), cell);
  }
  EvalOne(tm, forged, cell, &ok);
  EXPECT_FALSE(ok);
  EXPECT_TRUE(EvalOne(tm, genuine, cell, &ok));
  EXPECT_TRUE(ok);
}

// --------------------------------------------------------------- Backends

template <typename T>
class EdbmsBackendTest : public ::testing::Test {
 public:
  static T MakeDb(const PlainTable& plain) {
    return T::FromPlainTable(kSeed, plain);
  }
};

using Backends = ::testing::Types<CipherbaseEdbms, SdbEdbms>;
TYPED_TEST_SUITE(EdbmsBackendTest, Backends);

TYPED_TEST(EdbmsBackendTest, QpfMatchesPlainEvaluation) {
  const PlainTable plain = SmallTable();
  auto db = TestFixture::MakeDb(plain);
  struct Case {
    AttrId attr;
    CompareOp op;
    Value c;
  };
  const Case cases[] = {
      {0, CompareOp::kLt, 15}, {0, CompareOp::kGt, 10},
      {0, CompareOp::kLe, 20}, {0, CompareOp::kGe, 20},
      {1, CompareOp::kLt, 60}, {1, CompareOp::kGt, 100},
  };
  for (const auto& c : cases) {
    const Trapdoor td = db.MakeComparison(c.attr, c.op, c.c);
    PlainPredicate p{.attr = c.attr, .op = c.op, .lo = c.c};
    for (TupleId tid = 0; tid < plain.num_rows(); ++tid) {
      EXPECT_EQ(db.Eval(td, tid), p.Satisfies(plain.at(c.attr, tid)))
          << p.ToString() << " tid=" << tid;
    }
  }
}

TYPED_TEST(EdbmsBackendTest, BetweenQpfMatchesPlainEvaluation) {
  const PlainTable plain = SmallTable();
  auto db = TestFixture::MakeDb(plain);
  const Trapdoor td = db.MakeBetween(1, 40, 120);
  PlainPredicate p{.attr = 1, .kind = PredicateKind::kBetween, .lo = 40,
                   .hi = 120};
  for (TupleId tid = 0; tid < plain.num_rows(); ++tid) {
    EXPECT_EQ(db.Eval(td, tid), p.Satisfies(plain.at(1, tid)));
  }
}

TYPED_TEST(EdbmsBackendTest, EvalManyOpensInterleavedTrapdoorsExactly) {
  const PlainTable plain = SmallTable();
  auto db = TestFixture::MakeDb(plain);
  const Trapdoor lt = db.MakeComparison(0, CompareOp::kLt, 15);
  const Trapdoor between = db.MakeBetween(1, 40, 120);
  Trapdoor forged = db.MakeComparison(0, CompareOp::kGt, -100);
  forged.blob[9] ^= 0x80;
  const PlainPredicate p_lt{.attr = 0, .op = CompareOp::kLt, .lo = 15};
  const PlainPredicate p_between{
      .attr = 1, .kind = PredicateKind::kBetween, .lo = 40, .hi = 120};

  std::vector<ProbeRequest> reqs;
  for (int pass = 0; pass < 2; ++pass) {
    for (TupleId tid = 0; tid < plain.num_rows(); ++tid) {
      reqs.push_back({&lt, tid});
      reqs.push_back({&between, tid});
      reqs.push_back({&forged, tid});
    }
  }
  const BitVector bits = db.EvalMany(reqs);
  ASSERT_EQ(bits.size(), reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    const TupleId tid = reqs[i].tid;
    if (reqs[i].td == &lt) {
      EXPECT_EQ(bits.Get(i), p_lt.Satisfies(plain.at(0, tid))) << i;
    } else if (reqs[i].td == &between) {
      EXPECT_EQ(bits.Get(i), p_between.Satisfies(plain.at(1, tid))) << i;
    } else {
      EXPECT_FALSE(bits.Get(i)) << "forged lane " << i;
    }
  }
}

TYPED_TEST(EdbmsBackendTest, EvaluatesWhileIssuing) {
  // Issuing trapdoors must not race with evaluating earlier ones: neither
  // backend keeps a per-trapdoor table that issuing writes.
  const PlainTable plain = SmallTable();
  auto db = TestFixture::MakeDb(plain);
  std::vector<Trapdoor> tds;
  for (Value c = -10; c < 30; ++c) {
    tds.push_back(db.MakeComparison(0, CompareOp::kLt, c));
  }
  std::thread issuer([&db] {
    for (int i = 0; i < 2000; ++i) db.MakeComparison(1, CompareOp::kGt, i);
  });
  size_t wrong = 0;
  for (int rep = 0; rep < 20; ++rep) {
    for (size_t i = 0; i < tds.size(); ++i) {
      const Value c = static_cast<Value>(i) - 10;
      for (TupleId tid = 0; tid < plain.num_rows(); ++tid) {
        if (db.Eval(tds[i], tid) != (plain.at(0, tid) < c)) ++wrong;
      }
    }
  }
  issuer.join();
  EXPECT_EQ(wrong, 0u);
}

TYPED_TEST(EdbmsBackendTest, UsesCounterCountsEveryEval) {
  auto db = TestFixture::MakeDb(SmallTable());
  const Trapdoor td = db.MakeComparison(0, CompareOp::kLt, 15);
  EXPECT_EQ(db.uses(), 0u);
  db.Eval(td, 0);
  db.Eval(td, 1);
  EXPECT_EQ(db.uses(), 2u);
  db.ResetUses();
  EXPECT_EQ(db.uses(), 0u);

  // The batch rule: every round counts its lanes as uses and one trip, and
  // counts as a batch only with two or more lanes.
  const ProbeRequest one{&td, 2};
  EXPECT_TRUE(db.EvalMany({&one, 1}).Get(0));  // -5 < 15
  EXPECT_EQ(db.uses(), 1u);
  EXPECT_EQ(db.round_trips(), 1u);
  EXPECT_EQ(db.batches(), 0u);

  db.ResetUses();
  const Trapdoor gt = db.MakeComparison(1, CompareOp::kGt, 60);
  const std::vector<ProbeRequest> reqs = {
      {&td, 0}, {&td, 1}, {&gt, 0}, {&gt, 1}, {&td, 3}};
  EXPECT_EQ(db.EvalMany(reqs).size(), reqs.size());
  EXPECT_EQ(db.uses(), reqs.size());
  EXPECT_EQ(db.round_trips(), 1u);
  EXPECT_EQ(db.batches(), 1u);
}

TYPED_TEST(EdbmsBackendTest, InsertAndDelete) {
  auto db = TestFixture::MakeDb(SmallTable());
  const TupleId tid = db.Insert({99, 1});
  EXPECT_EQ(tid, 4u);
  EXPECT_TRUE(db.IsLive(tid));
  const Trapdoor td = db.MakeComparison(0, CompareOp::kGt, 50);
  EXPECT_TRUE(db.Eval(td, tid));
  db.Delete(tid);
  EXPECT_FALSE(db.IsLive(tid));
}

TYPED_TEST(EdbmsBackendTest, StoredBytesGrowWithRows) {
  auto db = TestFixture::MakeDb(SmallTable());
  const size_t before = db.StoredBytes();
  db.Insert({1, 2});
  EXPECT_GT(db.StoredBytes(), before);
}

// ---------------------------------------------------------------- Baseline

TEST(BaselineScannerTest, SelectMatchesGroundTruth) {
  const PlainTable plain = SmallTable();
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  BaselineScanner scan(&db);
  const Trapdoor td = db.MakeComparison(0, CompareOp::kGe, 10);
  SelectionStats stats;
  const auto got = scan.Select(td, &stats);
  EXPECT_EQ(got, (std::vector<TupleId>{0, 1, 3}));
  EXPECT_EQ(stats.qpf_uses, plain.num_rows());
}

TEST(BaselineScannerTest, SkipsTombstonedRows) {
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, SmallTable());
  db.Delete(1);
  BaselineScanner scan(&db);
  const Trapdoor td = db.MakeComparison(0, CompareOp::kGe, 10);
  EXPECT_EQ(scan.Select(td), (std::vector<TupleId>{0, 3}));
}

TEST(BaselineScannerTest, ConjunctionShortCircuits) {
  const PlainTable plain = SmallTable();
  auto db = CipherbaseEdbms::FromPlainTable(kSeed, plain);
  BaselineScanner scan(&db);
  // First predicate matches only tuple 2; second is never evaluated for the
  // other three tuples.
  const Trapdoor a = db.MakeComparison(0, CompareOp::kLt, 0);
  const Trapdoor b = db.MakeComparison(1, CompareOp::kGt, 100);
  SelectionStats stats;
  const auto got = scan.SelectConjunction({a, b}, &stats);
  EXPECT_EQ(got, (std::vector<TupleId>{2}));
  EXPECT_EQ(stats.qpf_uses, 4u + 1u);
}

TEST(SdbEdbmsTest, TracksRoundsAndBytes) {
  auto db = SdbEdbms::FromPlainTable(kSeed, SmallTable());
  const Trapdoor td = db.MakeComparison(0, CompareOp::kLt, 100);
  db.Eval(td, 0);
  db.Eval(td, 1);
  EXPECT_EQ(db.rounds(), 2u);
  EXPECT_GT(db.bytes_transferred(), 0u);
}

}  // namespace
}  // namespace prkb::edbms
