// Shared-lock concurrency stress: mixed repeat/fresh selections racing
// inserts and deletes on ConcurrentPrkbIndex, cross-checked against a
// plaintext oracle. Sized to run under TSan in CI: the point is interleaving
// coverage (shared-shared on cache hits, shared-exclusive on mutation
// fallbacks, exclusive-exclusive on churn), not volume.
//
// Invariant exploited for mid-flight checking: churn never touches the
// initially-loaded tuples [0, kStableRows), and no partition can empty while
// every stable tuple survives — so the stable slice of every selection result
// must match the plaintext oracle exactly at any interleaving, and the warmed
// cuts (hence the fast-path cache entries) outlive the whole run.

#include <atomic>
#include <thread>
#include <vector>

#include "edbms/cipherbase_qpf.h"
#include "gtest/gtest.h"
#include "prkb/concurrent.h"
#include "tests/test_util.h"
#include "workload/query_gen.h"

namespace prkb {
namespace {

using edbms::CompareOp;
using edbms::PlainPredicate;
using edbms::TupleId;
using edbms::Value;

constexpr size_t kStableRows = 300;
constexpr int kSelectorThreads = 4;
constexpr int kOpsPerSelector = 40;

struct HotQuery {
  edbms::Trapdoor td;
  PlainPredicate pred;
  std::vector<TupleId> stable;  // oracle answer over the stable prefix
};

TEST(ConcurrentStressTest, MixedRepeatFreshChurnStaysExact) {
  Rng data_rng(21);
  auto plain = testutil::RandomTable(kStableRows, 1, &data_rng, 0, 1000);
  auto db = edbms::CipherbaseEdbms::FromPlainTable(42, plain);
  core::ConcurrentPrkbIndex index(&db);
  index.EnableAttr(0);

  // Hot set: warmed single-threaded so every repeat is a pure shared-lock
  // cache hit. One BETWEEN (warmed after a comparison boundary exists so
  // both its ends split and link).
  std::vector<HotQuery> hot;
  for (const Value c : {250, 500, 750}) {
    HotQuery q;
    q.pred.attr = 0;
    q.pred.op = CompareOp::kLt;
    q.pred.lo = c;
    q.td = db.MakeComparison(0, CompareOp::kLt, c);
    q.stable = testutil::OracleSelect(plain, q.pred);
    index.Select(q.td);
    hot.push_back(std::move(q));
  }
  {
    HotQuery q;
    q.pred.attr = 0;
    q.pred.kind = edbms::PredicateKind::kBetween;
    q.pred.lo = 300;
    q.pred.hi = 600;
    q.td = db.MakeBetween(0, 300, 600);
    q.stable = testutil::OracleSelect(plain, q.pred);
    index.Select(q.td);
    hot.push_back(std::move(q));
  }

  const uint64_t hits_before = core::CacheMetrics::Get().hits->value();

  // Fresh predicates, pre-issued per selector thread (the DataOwner is not
  // part of the SP-side concurrency story).
  std::vector<std::vector<HotQuery>> fresh(kSelectorThreads);
  workload::QueryGen gen(0, 1000, 3);
  for (int t = 0; t < kSelectorThreads; ++t) {
    for (int i = 0; i < 8; ++i) {
      HotQuery q;
      q.pred = gen.RandomComparison(0);
      q.td = db.MakeComparison(q.pred.attr, q.pred.op, q.pred.lo);
      q.stable = testutil::OracleSelect(plain, q.pred);
      fresh[t].push_back(std::move(q));
    }
  }

  std::atomic<int> failures{0};
  auto check = [&](const HotQuery& q, std::vector<TupleId> got) {
    // Stable slice must be oracle-exact; anything else must be churn-born.
    std::vector<TupleId> stable_got;
    for (TupleId tid : got) {
      if (tid < kStableRows) stable_got.push_back(tid);
    }
    if (testutil::Sorted(std::move(stable_got)) != q.stable) {
      failures.fetch_add(1);
    }
  };

  auto selector = [&](int t) {
    Rng rng(100 + t);
    for (int i = 0; i < kOpsPerSelector; ++i) {
      // ~75% repeats of the hot set, ~25% fresh predicates.
      if (rng.UniformInt64(0, 3) != 0) {
        const HotQuery& q = hot[rng.UniformInt64(0, hot.size() - 1)];
        check(q, index.Select(q.td));
      } else {
        const HotQuery& q = fresh[t][rng.UniformInt64(0, fresh[t].size() - 1)];
        check(q, index.Select(q.td));
      }
    }
  };

  // Churn thread: inserts fresh rows and deletes only rows it inserted, so
  // the stable prefix is never touched.
  std::vector<TupleId> churn_tids;
  std::vector<Value> churn_vals;
  auto churner = [&] {
    Rng rng(999);
    for (int i = 0; i < 30; ++i) {
      const Value v = rng.UniformInt64(0, 1000);
      churn_tids.push_back(index.Insert({v}));
      churn_vals.push_back(v);
      if (i % 3 == 2) index.Delete(churn_tids[churn_tids.size() - 2]);
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kSelectorThreads; ++t) threads.emplace_back(selector, t);
  threads.emplace_back(churner);
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(core::CacheMetrics::Get().hits->value(), hits_before);

  // Quiesced replay: every hot query re-answered single-threaded must match
  // the full oracle including surviving churn rows, off the cache.
  index.WithLocked([&](core::PrkbIndex& inner) {
    EXPECT_TRUE(inner.pop(0).Validate().ok());
    return 0;
  });
  for (const HotQuery& q : hot) {
    std::vector<TupleId> expect = q.stable;
    for (size_t i = 0; i < churn_tids.size(); ++i) {
      if (db.IsLive(churn_tids[i]) && q.pred.Satisfies(churn_vals[i])) {
        expect.push_back(churn_tids[i]);
      }
    }
    edbms::SelectionStats stats;
    EXPECT_EQ(testutil::Sorted(index.Select(q.td, &stats)),
              testutil::Sorted(std::move(expect)));
    EXPECT_EQ(stats.qpf_uses, 0u);  // warmed cuts survive the churn
  }
}

// PRKB(MD) boxes race single-attribute selections and churn. Churn rows take
// values above every box's and every comparison's domain, so no inserted row
// ever satisfies a query and every answer must equal the plaintext oracle
// over the stable rows at any interleaving.
TEST(ConcurrentStressTest, MdBoxesBesideSelectsAndChurnStayExact) {
  constexpr Value kDomain = 1000;
  Rng data_rng(23);
  auto plain = testutil::RandomTable(kStableRows, 2, &data_rng, 0, kDomain);
  auto db = edbms::CipherbaseEdbms::FromPlainTable(44, plain);
  core::ConcurrentPrkbIndex index(&db, core::PrkbOptions{.batch_size = 16});
  index.EnableAttr(0);
  index.EnableAttr(1);

  struct Query {
    std::vector<edbms::Trapdoor> tds;
    std::vector<TupleId> expect;
  };
  // Two box threads and one single-predicate thread, pre-issued.
  constexpr int kBoxThreads = 2;
  constexpr int kOps = 24;
  std::vector<std::vector<Query>> work(kBoxThreads + 1);
  Rng qrng(31);
  for (int t = 0; t < kBoxThreads; ++t) {
    for (int i = 0; i < kOps; ++i) {
      Query q;
      std::vector<PlainPredicate> plains;
      for (edbms::AttrId a = 0; a < 2; ++a) {
        const Value lo = qrng.UniformInt64(0, kDomain);
        const Value hi = lo + qrng.UniformInt64(0, kDomain / 2);
        q.tds.push_back(db.MakeComparison(a, CompareOp::kGt, lo));
        q.tds.push_back(db.MakeComparison(a, CompareOp::kLt, hi));
        plains.push_back({.attr = a, .op = CompareOp::kGt, .lo = lo});
        plains.push_back({.attr = a, .op = CompareOp::kLt, .lo = hi});
      }
      q.expect = testutil::OracleSelectAll(plain, plains);
      work[t].push_back(std::move(q));
    }
  }
  for (int i = 0; i < kOps; ++i) {
    Query q;
    const PlainPredicate pred{.attr = static_cast<edbms::AttrId>(i % 2),
                              .op = CompareOp::kLt,
                              .lo = qrng.UniformInt64(0, kDomain)};
    q.tds.push_back(db.MakeComparison(pred.attr, pred.op, pred.lo));
    q.expect = testutil::OracleSelect(plain, pred);
    work[kBoxThreads].push_back(std::move(q));
  }

  std::atomic<int> failures{0};
  auto runner = [&](int t) {
    for (const Query& q : work[t]) {
      std::vector<TupleId> got = t < kBoxThreads
                                     ? index.SelectRangeMd(q.tds)
                                     : index.Select(q.tds[0]);
      if (testutil::Sorted(std::move(got)) != q.expect) failures.fetch_add(1);
    }
  };
  std::vector<TupleId> churn_tids;
  auto churner = [&] {
    Rng rng(998);
    for (int i = 0; i < 30; ++i) {
      const Value v0 = rng.UniformInt64(2 * kDomain, 3 * kDomain);
      const Value v1 = rng.UniformInt64(2 * kDomain, 3 * kDomain);
      churn_tids.push_back(index.Insert({v0, v1}));
      if (i % 3 == 2) index.Delete(churn_tids[churn_tids.size() - 2]);
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t <= kBoxThreads; ++t) threads.emplace_back(runner, t);
  threads.emplace_back(churner);
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  index.WithLocked([&](core::PrkbIndex& inner) {
    for (edbms::AttrId a = 0; a < 2; ++a) {
      EXPECT_TRUE(inner.pop(a).Validate().ok()) << "attr " << a;
    }
    EXPECT_EQ(inner.pop(0).num_tuples(), kStableRows + 20);
    return 0;
  });
}

TEST(ConcurrentStressTest, ReadOnlyStatsRaceSelections) {
  Rng data_rng(22);
  auto plain = testutil::RandomTable(200, 1, &data_rng, 0, 1000);
  auto db = edbms::CipherbaseEdbms::FromPlainTable(43, plain);
  core::ConcurrentPrkbIndex index(&db);
  index.EnableAttr(0);

  const auto td = db.MakeComparison(0, CompareOp::kLt, 500);
  index.Select(td);

  std::thread reader([&] {
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(index.IsEnabled(0));
      ASSERT_EQ(index.EnabledAttrs(), std::vector<edbms::AttrId>{0});
      ASSERT_GT(index.StatsFor(0).tuples, 0u);
      ASSERT_GT(index.SizeBytes(), 0u);
    }
  });
  std::thread selector([&] {
    for (int i = 0; i < 200; ++i) index.Select(td);
  });
  std::thread inserter([&] {
    Rng rng(7);
    for (int i = 0; i < 20; ++i) index.Insert({rng.UniformInt64(0, 1000)});
  });
  reader.join();
  selector.join();
  inserter.join();

  index.WithLocked([&](core::PrkbIndex& inner) {
    EXPECT_TRUE(inner.pop(0).Validate().ok());
    EXPECT_EQ(inner.pop(0).num_tuples(), 220u);
    return 0;
  });
}

}  // namespace
}  // namespace prkb
