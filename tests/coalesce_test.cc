// Differential suite for the cross-query round bus (DESIGN.md §15): merged
// entries must change *when* bits travel, never *which* bits — winners stay
// byte-identical to an uncoalesced run and to the plaintext oracle, and
// per-selection accounting is preserved exactly. The bus keeps at most one
// backend entry in flight and merges whatever queues behind it; a fake
// backend that holds its first entry open makes those merges deterministic.
// The concurrent-submitter cases double as the TSan target for the
// collector-election protocol.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "edbms/cipherbase_qpf.h"
#include "gtest/gtest.h"
#include "net/coalesce.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "prkb/concurrent.h"
#include "prkb/selection.h"
#include "workload/query_gen.h"
#include "workload/synthetic_table.h"

namespace prkb {
namespace {

using edbms::ProbeRequest;
using edbms::SelectionStats;
using edbms::Trapdoor;
using edbms::TupleId;
using net::CoalescedEdbms;
using net::RoundBus;
using net::RoundBusOptions;

/// Deterministic Θ stand-in that records every backend entry it serves and
/// the most entries it ever saw in flight at once. HoldFirstEntry() makes the
/// next entry block inside the backend until Release(), so a test can queue
/// rounds behind it at will.
class FakeOracle : public edbms::QpfOracle {
 public:
  static bool Formula(const Trapdoor& td, TupleId tid) {
    return (td.uid + tid) % 3 == 0;
  }

  struct CapturedItem {
    const Trapdoor* td;
    uint64_t uid;
    TupleId tid;
  };

  uint64_t entries() const {
    return entries_.load(std::memory_order_relaxed);
  }
  uint64_t max_in_flight() const {
    return max_in_flight_.load(std::memory_order_relaxed);
  }
  std::vector<std::vector<CapturedItem>> captured() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return captured_;
  }

  void HoldFirstEntry() {
    const std::lock_guard<std::mutex> lock(mu_);
    hold_ = true;
  }
  /// Blocks until an entry is parked in the backend by HoldFirstEntry.
  void WaitUntilHeld() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return held_; });
  }
  void Release() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      hold_ = false;
    }
    cv_.notify_all();
  }

 private:
  BitVector DoEvalMany(std::span<const ProbeRequest> reqs) override {
    entries_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t now = in_flight_.fetch_add(1) + 1;
    uint64_t seen = max_in_flight_.load();
    while (seen < now && !max_in_flight_.compare_exchange_weak(seen, now)) {
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      auto& cap = captured_.emplace_back();
      cap.reserve(reqs.size());
      for (const ProbeRequest& r : reqs) {
        cap.push_back(CapturedItem{r.td, r.td->uid, r.tid});
      }
      if (hold_ && !held_) {
        held_ = true;
        cv_.notify_all();
        cv_.wait(lock, [&] { return !hold_; });
      }
    }
    BitVector out(reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
      out.Assign(i, Formula(*reqs[i].td, reqs[i].tid));
    }
    in_flight_.fetch_sub(1);
    return out;
  }

  std::atomic<uint64_t> entries_{0};
  std::atomic<uint64_t> in_flight_{0};
  std::atomic<uint64_t> max_in_flight_{0};
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool hold_ = false;
  bool held_ = false;
  std::vector<std::vector<CapturedItem>> captured_;
};

Trapdoor MakeFakeTrapdoor(uint64_t uid) {
  Trapdoor td;
  td.attr = static_cast<edbms::AttrId>(uid % 7);
  td.uid = uid;
  td.blob.assign(edbms::kTrapdoorBlobSize,
                 static_cast<uint8_t>(uid * 37 + 11));
  return td;
}

std::vector<ProbeRequest> RoundOf(const Trapdoor& td, TupleId first,
                                  size_t n) {
  std::vector<ProbeRequest> reqs;
  for (size_t i = 0; i < n; ++i) {
    reqs.push_back({&td, static_cast<TupleId>(first + i)});
  }
  return reqs;
}

bool MatchesFormula(const BitVector& bits,
                    std::span<const ProbeRequest> reqs) {
  if (bits.size() != reqs.size()) return false;
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (bits.Get(i) != FakeOracle::Formula(*reqs[i].td, reqs[i].tid)) {
      return false;
    }
  }
  return true;
}

/// Parks one round inside the fake backend as the bus's in-flight entry and
/// returns the thread carrying it; join it after fake.Release().
std::thread HoldOneEntry(FakeOracle& fake, RoundBus& bus,
                         const std::vector<ProbeRequest>& reqs,
                         std::atomic<bool>* ok) {
  fake.HoldFirstEntry();
  std::thread t([&bus, &reqs, ok] {
    *ok = MatchesFormula(bus.Exchange(reqs), reqs);
  });
  fake.WaitUntilHeld();
  return t;
}

TEST(RoundBusTest, LoneSubmissionIsPassthrough) {
  FakeOracle fake;
  RoundBus bus(&fake);

  const Trapdoor td = MakeFakeTrapdoor(5);
  const std::vector<ProbeRequest> reqs = RoundOf(td, 0, 9);

  EXPECT_TRUE(MatchesFormula(bus.Exchange(reqs), reqs));
  // Submit on an idle bus ships inline too: the ticket is complete already.
  const uint64_t t = bus.Submit(reqs);
  EXPECT_EQ(fake.entries(), 2u);
  EXPECT_TRUE(MatchesFormula(bus.Await(t), reqs));
  EXPECT_EQ(fake.entries(), 2u);
  const RoundBus::Stats st = bus.stats();
  EXPECT_EQ(st.rounds, 2u);
  EXPECT_EQ(st.entries, 2u);
  EXPECT_EQ(st.merged_rounds, 0u);
  EXPECT_EQ(st.in_flight, 0u);
  EXPECT_EQ(st.queued, 0u);
}

TEST(RoundBusTest, RoundsQueuedBehindTheInFlightEntryShipAsOneEntry) {
  FakeOracle fake;
  RoundBus bus(&fake);
  const Trapdoor held_td = MakeFakeTrapdoor(40);
  const std::vector<ProbeRequest> held = RoundOf(held_td, 0, 6);
  std::atomic<bool> held_ok{false};
  std::thread carrier = HoldOneEntry(fake, bus, held, &held_ok);

  // Three rounds arrive while the first entry is in flight: all queue.
  std::vector<Trapdoor> tds;
  for (uint64_t i = 0; i < 3; ++i) tds.push_back(MakeFakeTrapdoor(41 + i));
  std::vector<std::vector<ProbeRequest>> rounds;
  std::vector<uint64_t> tickets;
  for (size_t i = 0; i < tds.size(); ++i) {
    rounds.push_back(RoundOf(tds[i], static_cast<TupleId>(10 * i), 5));
    tickets.push_back(bus.Submit(rounds.back()));
  }
  RoundBus::Stats st = bus.stats();
  EXPECT_EQ(st.in_flight, 1u);
  EXPECT_EQ(st.queued, 3u);
  EXPECT_EQ(fake.entries(), 1u);

  fake.Release();
  for (size_t i = 0; i < rounds.size(); ++i) {
    EXPECT_TRUE(MatchesFormula(bus.Await(tickets[i]), rounds[i]));
  }
  carrier.join();
  EXPECT_TRUE(held_ok.load());

  // The held entry plus exactly one merged entry carrying all three rounds,
  // in submission order.
  EXPECT_EQ(fake.entries(), 2u);
  EXPECT_EQ(fake.max_in_flight(), 1u);
  const auto captured = fake.captured();
  ASSERT_EQ(captured.size(), 2u);
  ASSERT_EQ(captured[1].size(), 15u);
  for (size_t i = 0; i < captured[1].size(); ++i) {
    EXPECT_EQ(captured[1][i].uid, tds[i / 5].uid);
    EXPECT_EQ(captured[1][i].tid, rounds[i / 5][i % 5].tid);
  }
  st = bus.stats();
  EXPECT_EQ(st.rounds, 4u);
  EXPECT_EQ(st.entries, 2u);
  EXPECT_EQ(st.merged_rounds, 3u);
  EXPECT_EQ(st.in_flight, 0u);
  EXPECT_EQ(st.queued, 0u);
  EXPECT_GT(bus.factor(), 1.0);
}

TEST(RoundBusTest, ConcurrentSubmittersMergeIntoFewerEntries) {
  FakeOracle fake;
  RoundBus bus(&fake);

  constexpr size_t kThreads = 8;
  constexpr size_t kRoundsPerThread = 5;
  constexpr size_t kReqsPerRound = 16;

  std::vector<Trapdoor> tds;
  tds.reserve(kThreads);
  for (size_t i = 0; i < kThreads; ++i) {
    tds.push_back(MakeFakeTrapdoor(100 + i));
  }

  // Whichever thread ships first parks in the backend until every other
  // thread's first round has queued behind it, so at least those rounds
  // must share one entry.
  fake.HoldFirstEntry();
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (size_t r = 0; r < kRoundsPerThread; ++r) {
        const std::vector<ProbeRequest> reqs = RoundOf(
            tds[w], static_cast<TupleId>(r * kReqsPerRound), kReqsPerRound);
        if (!MatchesFormula(bus.Exchange(reqs), reqs)) wrong.fetch_add(1);
      }
    });
  }
  fake.WaitUntilHeld();
  while (bus.stats().queued < kThreads - 1) std::this_thread::yield();
  fake.Release();
  for (std::thread& t : workers) t.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(fake.max_in_flight(), 1u);
  const RoundBus::Stats st = bus.stats();
  EXPECT_EQ(st.rounds, kThreads * kRoundsPerThread);
  EXPECT_EQ(st.requests, kThreads * kRoundsPerThread * kReqsPerRound);
  EXPECT_EQ(st.entries, fake.entries());
  EXPECT_LE(fake.entries(), kThreads * kRoundsPerThread - (kThreads - 2));
  EXPECT_GE(st.merged_rounds, kThreads - 1);
}

TEST(RoundBusTest, ValueEqualTrapdoorsDedupAcrossRequests) {
  FakeOracle fake;
  RoundBus bus(&fake);
  const Trapdoor held_td = MakeFakeTrapdoor(76);
  const std::vector<ProbeRequest> held = RoundOf(held_td, 0, 2);
  std::atomic<bool> held_ok{false};
  std::thread carrier = HoldOneEntry(fake, bus, held, &held_ok);

  const Trapdoor original = MakeFakeTrapdoor(77);
  const Trapdoor copy = original;  // value-equal, distinct address
  ASSERT_NE(&original, &copy);
  const std::vector<ProbeRequest> r1 = RoundOf(original, 0, 4);
  const std::vector<ProbeRequest> r2 = RoundOf(copy, 4, 4);

  // Both rounds queue behind the held entry and ship together after it.
  const uint64_t t1 = bus.Submit(r1);
  const uint64_t t2 = bus.Submit(r2);
  fake.Release();
  EXPECT_TRUE(MatchesFormula(bus.Await(t1), r1));
  EXPECT_TRUE(MatchesFormula(bus.Await(t2), r2));
  carrier.join();
  EXPECT_TRUE(held_ok.load());

  EXPECT_EQ(fake.entries(), 2u);
  const auto captured = fake.captured();
  ASSERT_EQ(captured.size(), 2u);
  ASSERT_EQ(captured[1].size(), 8u);
  // The merged entry references one canonical trapdoor for both selections.
  const Trapdoor* canon = captured[1][0].td;
  for (const auto& item : captured[1]) {
    EXPECT_EQ(item.td, canon);
    EXPECT_EQ(item.uid, original.uid);
  }
  EXPECT_EQ(bus.stats().dedup_tds, 1u);
  EXPECT_EQ(bus.stats().merged_rounds, 2u);
}

TEST(RoundBusTest, OverflowSplitsStayUnderTheEntryBudget) {
  FakeOracle fake;
  RoundBusOptions opts;
  opts.max_entry_bytes = 512;  // force splits with a handful of trapdoors
  RoundBus bus(&fake, opts);

  std::vector<Trapdoor> tds;
  for (uint64_t i = 0; i < 10; ++i) tds.push_back(MakeFakeTrapdoor(200 + i));
  std::vector<ProbeRequest> reqs;
  for (size_t i = 0; i < 200; ++i) {
    reqs.push_back({&tds[i % tds.size()], static_cast<TupleId>(i)});
  }

  const BitVector bits = bus.Exchange(reqs);
  ASSERT_EQ(bits.size(), reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(bits.Get(i), FakeOracle::Formula(*reqs[i].td, reqs[i].tid));
  }
  EXPECT_GT(fake.entries(), 1u);
  EXPECT_GE(bus.stats().overflow_splits, 1u);

  // Every shipped chunk must actually encode under the budget — the byte
  // estimate is required to be conservative w.r.t. the real wire codec.
  for (const auto& chunk : fake.captured()) {
    std::vector<ProbeRequest> chunk_reqs;
    chunk_reqs.reserve(chunk.size());
    for (const auto& item : chunk) chunk_reqs.push_back({item.td, item.tid});
    EXPECT_LE(net::EncodeEvalManyReq(chunk_reqs).size(),
              opts.max_entry_bytes);
  }
}

TEST(CoalescedEdbmsTest, WinnersAndAccountingMatchUncoalescedAndPlaintext) {
  workload::SyntheticSpec spec;
  spec.rows = 20000;
  spec.seed = 61;
  const auto plain = workload::MakeSyntheticTable(spec);
  auto db = edbms::CipherbaseEdbms::FromPlainTable(3, plain);
  CoalescedEdbms bus_db(&db);

  // Twin indexes over the same encrypted store: identical options and seed,
  // one probing direct, one through the bus. Selections only mutate index
  // state, so the runs cannot influence each other.
  core::PrkbIndex direct(&db, core::PrkbOptions{.seed = 11});
  core::PrkbIndex coalesced(&bus_db, core::PrkbOptions{.seed = 11});
  direct.EnableAttr(0);
  coalesced.EnableAttr(0);

  workload::QueryGen gen(spec.domain_lo, spec.domain_hi, 13);
  for (int q = 0; q < 60; ++q) {
    const auto p = gen.RandomComparison(0);
    const Trapdoor td = db.MakeComparison(p.attr, p.op, p.lo);

    SelectionStats st_direct;
    SelectionStats st_bus;
    std::vector<TupleId> w_direct = direct.Select(td, &st_direct);
    std::vector<TupleId> w_bus = coalesced.Select(td, &st_bus);
    std::sort(w_direct.begin(), w_direct.end());
    std::sort(w_bus.begin(), w_bus.end());

    ASSERT_EQ(w_direct, w_bus) << "query " << q;
    std::vector<TupleId> w_plain;
    for (TupleId tid = 0; tid < plain.num_rows(); ++tid) {
      if (p.Satisfies(plain.at(0, tid))) w_plain.push_back(tid);
    }
    ASSERT_EQ(w_bus, w_plain) << "query " << q;

    // Logical accounting is preserved exactly: same uses, same logical
    // round trips, query by query.
    EXPECT_EQ(st_direct.qpf_uses, st_bus.qpf_uses) << "query " << q;
    EXPECT_EQ(st_direct.qpf_round_trips, st_bus.qpf_round_trips)
        << "query " << q;
  }
}

// The bus never lingers, so a lone stream sees linger-zero behaviour.
TEST(CoalescedEdbmsTest, LingerZeroPassthroughThroughPrkbIndex) {
  workload::SyntheticSpec spec;
  spec.rows = 5000;
  spec.seed = 67;
  const auto plain = workload::MakeSyntheticTable(spec);
  auto db = edbms::CipherbaseEdbms::FromPlainTable(5, plain);
  CoalescedEdbms bus_db(&db);
  EXPECT_EQ(bus_db.CoalescingFactor(), 1.0);

  core::PrkbIndex index(&bus_db, core::PrkbOptions{.seed = 3});
  index.EnableAttr(0);
  workload::QueryGen gen(spec.domain_lo, spec.domain_hi, 71);
  for (int q = 0; q < 20; ++q) {
    const auto p = gen.RandomComparison(0);
    std::vector<TupleId> got =
        index.Select(db.MakeComparison(p.attr, p.op, p.lo));
    std::sort(got.begin(), got.end());
    std::vector<TupleId> want;
    for (TupleId tid = 0; tid < plain.num_rows(); ++tid) {
      if (p.Satisfies(plain.at(0, tid))) want.push_back(tid);
    }
    ASSERT_EQ(got, want) << "query " << q;
  }
  // Single stream: no round ever finds an entry in flight, so every round
  // passes straight through as its own entry.
  const RoundBus::Stats st = bus_db.bus().stats();
  EXPECT_EQ(st.rounds, st.entries);
  EXPECT_EQ(st.merged_rounds, 0u);
}

TEST(CoalescedEdbmsTest, ConcurrentSelectionsStayExact) {
  // TSan target: many selections merging through one bus, against
  // ConcurrentPrkbIndex's shared-lock fast paths.
  workload::SyntheticSpec spec;
  spec.rows = 3000;
  spec.attrs = 4;
  spec.seed = 73;
  const auto plain = workload::MakeSyntheticTable(spec);
  auto db = edbms::CipherbaseEdbms::FromPlainTable(7, plain);
  CoalescedEdbms bus_db(&db);

  core::ConcurrentPrkbIndex index(&bus_db, core::PrkbOptions{.seed = 5});
  for (edbms::AttrId a = 0; a < 4; ++a) index.EnableAttr(a);

  constexpr size_t kThreads = 8;
  // Trapdoors are issued up front: the data owner's issuing side is a
  // single-client surface, and the concurrency under test is the bus.
  struct Op {
    edbms::PlainPredicate p;
    edbms::Trapdoor td;
  };
  std::vector<std::vector<Op>> ops(kThreads);
  for (size_t w = 0; w < kThreads; ++w) {
    workload::QueryGen gen(spec.domain_lo, spec.domain_hi, 100 + w);
    for (int q = 0; q < 10; ++q) {
      const auto attr = static_cast<edbms::AttrId>((w + q) % 4);
      const auto p = gen.RandomComparison(attr);
      ops[w].push_back(Op{p, db.MakeComparison(p.attr, p.op, p.lo)});
    }
  }
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (const Op& op : ops[w]) {
        std::vector<TupleId> got = index.Select(op.td);
        std::sort(got.begin(), got.end());
        std::vector<TupleId> want;
        for (TupleId tid = 0; tid < plain.num_rows(); ++tid) {
          if (op.p.Satisfies(plain.at(op.p.attr, tid))) want.push_back(tid);
        }
        if (got != want) wrong.fetch_add(1);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(wrong.load(), 0u);
}

}  // namespace
}  // namespace prkb
