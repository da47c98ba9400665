#ifndef PRKB_PRKB_CONCURRENT_H_
#define PRKB_PRKB_CONCURRENT_H_

#include <array>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "prkb/selection.h"
#include "prkb/wal.h"

namespace prkb::core {

/// Lock telemetry for ConcurrentPrkbIndex (docs/OBSERVABILITY.md):
/// acquisition counts per mode, time spent blocked acquiring any lock, and
/// how often an optimistic shared-lock Select had to fall back to the
/// exclusive mutation path.
struct LockMetrics {
  obs::Counter* shared_acquisitions;
  obs::Counter* exclusive_acquisitions;
  obs::Counter* select_retries;
  obs::LatencyHistogram* wait_ns;

  static const LockMetrics& Get() {
    static const LockMetrics m = {
        obs::MetricsRegistry::Global().GetCounter(
            "prkb.lock.shared_acquisitions"),
        obs::MetricsRegistry::Global().GetCounter(
            "prkb.lock.exclusive_acquisitions"),
        obs::MetricsRegistry::Global().GetCounter("prkb.lock.select_retries"),
        obs::MetricsRegistry::Global().GetHistogram("prkb.lock.wait_ns"),
    };
    return m;
  }
};

/// Thread-safe facade over PrkbIndex for multi-client service providers.
///
/// PRKB selections are *potential* writes: answering a fresh predicate may
/// split partitions (updatePRKB). But a repeated predicate is answerable from
/// the fast-path cache without touching the chain, and on realistic workloads
/// repeats dominate — so serialising everything behind one mutex wastes
/// nearly all available parallelism on the cheapest operations.
///
/// Locking protocol (two levels, strictly ordered — map before stripes,
/// stripes in ascending index, never upgraded in place):
///   - `map_mu_` guards the attr → chain map structure and, when held
///     exclusively, every chain at once. Multi-attribute operations (Insert,
///     Delete, MD/SD+ range queries, EnableAttr, WithLocked) take it
///     exclusively and need no stripe locks.
///   - 16 stripe locks (attr mod 16) guard individual chain contents among
///     concurrent readers of `map_mu_`. Single-predicate Select first runs
///     optimistically under map-shared + stripe-shared via
///     PrkbIndex::TrySelectShared, which builds the predicate's physical
///     plan and runs it only if it is provably read-only — cache hits, empty
///     chains and no-index baseline scans complete here, concurrently with
///     each other, even on the same attribute. When the plan might mutate
///     the chain, all locks are released and the operation retries under
///     map-shared + stripe-exclusive, which serialises mutations
///     per-attribute while leaving other attributes' selections running.
///
/// The retry is a fresh acquisition, not an upgrade, so another thread may
/// answer (and cache) the same predicate in between — the retry then simply
/// takes Select's own cache-hit branch. The underlying algorithms stay
/// single-threaded and auditable; sampling randomness is per-operation
/// (PrkbIndex::OpRng), so shared-lock readers never contend on RNG state.
class ConcurrentPrkbIndex {
 public:
  ConcurrentPrkbIndex(edbms::Edbms* db, PrkbOptions options = {})
      : index_(db, options) {}

  void EnableAttr(edbms::AttrId attr) {
    const auto lock = LockExclusive(map_mu_);
    index_.EnableAttr(attr);
    MaybeCompactWal();
  }

  /// Durable serving: opens (recovering) a WAL on the inner index, under the
  /// exclusive lock. auto_compact is forced off — compaction snapshots every
  /// chain at once, which is only safe under the exclusive map lock, so this
  /// facade runs deferred compactions itself at its exclusive points.
  Status OpenWal(const std::string& dir, WalOptions options = {}) {
    const auto lock = LockExclusive(map_mu_);
    if (wal_ != nullptr) {
      return Status::InvalidArgument("WAL already open");
    }
    options.auto_compact = false;
    PRKB_ASSIGN_OR_RETURN(wal_, PrkbWal::Open(&index_, dir, options));
    return Status::Ok();
  }

  /// The attached WAL (for `.wal` status lines), or nullptr.
  PrkbWal* wal() const { return wal_.get(); }

  Status CompactWal() {
    const auto lock = LockExclusive(map_mu_);
    if (wal_ == nullptr) return Status::InvalidArgument("no WAL open");
    return wal_->Compact();
  }

  /// Detaches and destroys the WAL (committing pending records first).
  void CloseWal() {
    const auto lock = LockExclusive(map_mu_);
    wal_.reset();
  }

  std::vector<edbms::TupleId> Select(const edbms::Trapdoor& td,
                                     edbms::SelectionStats* stats = nullptr) {
    {
      const auto map_lock = LockShared(map_mu_);
      const auto stripe_lock = LockShared(StripeFor(td.attr));
      std::vector<edbms::TupleId> out;
      if (index_.TrySelectShared(td, &out, stats)) return out;
    }
    LockMetrics::Get().select_retries->Add(1);
    const auto map_lock = LockShared(map_mu_);
    const auto stripe_lock = LockExclusive(StripeFor(td.attr));
    return index_.Select(td, stats);
  }

  std::vector<edbms::TupleId> SelectRangeMd(
      const std::vector<edbms::Trapdoor>& tds,
      edbms::SelectionStats* stats = nullptr) {
    const auto lock = LockExclusive(map_mu_);
    auto out = index_.SelectRangeMd(tds, stats);
    MaybeCompactWal();
    return out;
  }

  std::vector<edbms::TupleId> SelectRangeSdPlus(
      const std::vector<edbms::Trapdoor>& tds,
      edbms::SelectionStats* stats = nullptr) {
    const auto lock = LockExclusive(map_mu_);
    auto out = index_.SelectRangeSdPlus(tds, stats);
    MaybeCompactWal();
    return out;
  }

  edbms::TupleId Insert(const std::vector<edbms::Value>& row,
                        edbms::SelectionStats* stats = nullptr) {
    // Buffered route (DESIGN.md §14): an insert is one store write plus an
    // O(1) append per enabled chain — no placement probes. The store append
    // mutates the encrypted table's column storage, which map-shared
    // selections read while evaluating QPF, so it must run at a
    // map-exclusive point like every other store write; it is brief local
    // work, and the win over the eager path is that no placement rounds
    // execute under any lock. The chain appends then run map-shared with
    // stripe-exclusive, serialising against same-attribute selections only.
    // A cap-triggered flush inside BufferAppendAttr mutates the chain under
    // exactly the locks the mutating-Select retry path holds.
    if (index_.options().buffered_inserts) {
      edbms::StatsScope scope(index_.db(), stats, "insert");
      edbms::TupleId tid;
      {
        const auto map_lock = LockExclusive(map_mu_);
        const obs::ObsTracer::Span span("update.store_write");
        tid = index_.db()->Insert(row);
      }
      const auto map_lock = LockShared(map_mu_);
      for (const edbms::AttrId attr : index_.EnabledAttrs()) {
        const auto stripe_lock = LockExclusive(StripeFor(attr));
        index_.BufferAppendAttr(attr, tid);
      }
      // Group-commit the append records; compaction stays deferred to the
      // next exclusive point (it snapshots every chain at once).
      if (wal_ != nullptr) (void)wal_->Commit();
      return tid;
    }
    const auto lock = LockExclusive(map_mu_);
    const auto tid = index_.Insert(row, stats);
    MaybeCompactWal();
    return tid;
  }

  void Delete(edbms::TupleId tid) {
    const auto lock = LockExclusive(map_mu_);
    index_.Delete(tid);
    MaybeCompactWal();
  }

  /// Chain-only halves of Insert/Delete for the sharded router
  /// (ShardedPrkbIndex), which owns the single store operation itself and
  /// fans these across shards. Same exclusive locking as Insert/Delete.
  void PlaceStored(edbms::TupleId tid,
                   edbms::SelectionStats* stats = nullptr) {
    // Same buffered route as Insert, minus the store write (the sharded
    // router already owns that half).
    if (index_.options().buffered_inserts) {
      const auto map_lock = LockShared(map_mu_);
      edbms::StatsScope scope(index_.db(), stats, "place");
      for (const edbms::AttrId attr : index_.EnabledAttrs()) {
        const auto stripe_lock = LockExclusive(StripeFor(attr));
        index_.BufferAppendAttr(attr, tid);
      }
      if (wal_ != nullptr) (void)wal_->Commit();
      return;
    }
    const auto lock = LockExclusive(map_mu_);
    index_.PlaceStored(tid, stats);
    MaybeCompactWal();
  }

  void EraseFromChains(edbms::TupleId tid) {
    const auto lock = LockExclusive(map_mu_);
    index_.EraseFromChains(tid);
    MaybeCompactWal();
  }

  bool IsEnabled(edbms::AttrId attr) const {
    const auto map_lock = LockShared(map_mu_);
    return index_.IsEnabled(attr);
  }

  PrkbIndex::ChainStats StatsFor(edbms::AttrId attr) const {
    const auto map_lock = LockShared(map_mu_);
    const auto stripe_lock = LockShared(StripeFor(attr));
    return index_.StatsFor(attr);
  }

  std::vector<edbms::AttrId> EnabledAttrs() const {
    const auto map_lock = LockShared(map_mu_);
    return index_.EnabledAttrs();
  }

  /// The inner index's online cost calibrator. Internally synchronised —
  /// shared-lock selections feed it concurrently — so no map or stripe lock
  /// is taken here. Per facade instance: each shard of a ShardedPrkbIndex
  /// calibrates its own transport latency.
  exec::CostCalibrator& calibrator() const { return index_.calibrator(); }

  size_t SizeBytes() const {
    const auto map_lock = LockShared(map_mu_);
    const auto stripe_locks = LockAllStripesShared();
    return index_.SizeBytes();
  }

  std::string DescribeStats() const {
    const auto map_lock = LockShared(map_mu_);
    const auto stripe_locks = LockAllStripesShared();
    return index_.DescribeStats();
  }

  /// Runs `fn` under the exclusive lock with direct access to the inner
  /// index (for snapshots, validation, or anything not covered above).
  template <typename Fn>
  auto WithLocked(Fn&& fn) {
    const auto lock = LockExclusive(map_mu_);
    return fn(index_);
  }

 private:
  static constexpr size_t kStripes = 16;

  /// Runs a compaction the stripe-locked Select path had to defer. Caller
  /// must hold map_mu_ exclusively.
  void MaybeCompactWal() {
    if (wal_ != nullptr && wal_->compact_pending()) (void)wal_->Compact();
  }

  std::shared_mutex& StripeFor(edbms::AttrId attr) const {
    return stripes_[attr % kStripes];
  }

  static std::shared_lock<std::shared_mutex> LockShared(
      std::shared_mutex& mu) {
    const uint64_t t0 = obs::ObsTracer::NowNs();
    std::shared_lock<std::shared_mutex> lock(mu);
    const LockMetrics& m = LockMetrics::Get();
    m.wait_ns->Record(obs::ObsTracer::NowNs() - t0);
    m.shared_acquisitions->Add(1);
    return lock;
  }

  static std::unique_lock<std::shared_mutex> LockExclusive(
      std::shared_mutex& mu) {
    const uint64_t t0 = obs::ObsTracer::NowNs();
    std::unique_lock<std::shared_mutex> lock(mu);
    const LockMetrics& m = LockMetrics::Get();
    m.wait_ns->Record(obs::ObsTracer::NowNs() - t0);
    m.exclusive_acquisitions->Add(1);
    return lock;
  }

  /// Whole-index readers hold every stripe; ascending order keeps the
  /// acquisition graph acyclic against the single-stripe paths.
  std::array<std::shared_lock<std::shared_mutex>, kStripes>
  LockAllStripesShared() const {
    std::array<std::shared_lock<std::shared_mutex>, kStripes> locks;
    for (size_t i = 0; i < kStripes; ++i) {
      locks[i] = LockShared(stripes_[i]);
    }
    return locks;
  }

  mutable std::shared_mutex map_mu_;
  mutable std::array<std::shared_mutex, kStripes> stripes_;
  PrkbIndex index_;
  /// Declared after index_ so destruction detaches the WAL first.
  std::unique_ptr<PrkbWal> wal_;
};

}  // namespace prkb::core

#endif  // PRKB_PRKB_CONCURRENT_H_
