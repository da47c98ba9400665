#ifndef PRKB_EDBMS_SERVICE_PROVIDER_H_
#define PRKB_EDBMS_SERVICE_PROVIDER_H_

#include <vector>

#include "common/stopwatch.h"
#include "edbms/batch_scan.h"
#include "edbms/edbms.h"

namespace prkb::edbms {

/// Result of a selection together with its cost, in the paper's two units —
/// plus the transport-level breakdown the batched pipeline amortises.
struct SelectionStats {
  uint64_t qpf_uses = 0;
  /// QPF rounds paid for (one backend entry each). This is the unit
  /// per-round-trip latency is charged on.
  uint64_t qpf_round_trips = 0;
  /// Of which rounds carried two or more requests.
  uint64_t qpf_batches = 0;
  /// Repeat-predicate fast-path outcomes attributed to this operation. The
  /// deltas come from the process-global `prkb.cache.{hits,misses}` counters,
  /// so under concurrent callers they are approximate (another thread's hit
  /// can land inside this operation's window); in single-threaded use they
  /// are exact. 0/0 for operations that never consult the cache.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  double millis = 0.0;
};

/// Uniform SelectionStats accounting, routed through the obs registry.
/// Snapshots the oracle's cost counters at construction; Finish() (or the
/// destructor) overwrites EVERY field of *stats with this operation's delta,
/// so a stats struct reused across calls never retains a stale field — the
/// pre-obs code filled different subsets on different paths (e.g. Insert
/// skipped qpf_batches). Also mirrors the operation into the registry as
/// `<op>.count` and `<op>.duration_ns` (docs/OBSERVABILITY.md).
class StatsScope {
 public:
  /// `op` is the registry metric prefix; `stats` may be null (the registry
  /// mirroring still happens).
  StatsScope(const Edbms* db, SelectionStats* stats, const char* op);
  ~StatsScope() { Finish(); }
  StatsScope(const StatsScope&) = delete;
  StatsScope& operator=(const StatsScope&) = delete;

  /// Idempotent; called by the destructor if not called explicitly.
  void Finish();

 private:
  const Edbms* db_;
  SelectionStats* stats_;
  const char* op_;
  uint64_t uses_;
  uint64_t trips_;
  uint64_t batches_;
  uint64_t cache_hits_;
  uint64_t cache_misses_;
  Stopwatch watch_;
  bool done_ = false;
};

/// The paper's *Baseline* processing mode (Sec. 3.2): the SP tests every
/// live encrypted tuple with the QPF, one by one — or, with a batched
/// policy, in chunked batch round trips that evaluate exactly the same
/// (trapdoor, tuple) pairs.
class BaselineScanner {
 public:
  explicit BaselineScanner(Edbms* db, BatchPolicy policy = {})
      : db_(db), policy_(policy) {}

  /// Linear scan with one QPF use per live tuple.
  std::vector<TupleId> Select(const Trapdoor& td,
                              SelectionStats* stats = nullptr) const;

  /// Conjunction of trapdoors (e.g. a multi-dimensional range): per tuple,
  /// predicates are evaluated left to right and stop at the first 0 — the
  /// paper's footnote 5 ("EDBMS can stop processing for a tuple when one of
  /// the predicates is not satisfied"). The batched variant evaluates
  /// predicate i only on the survivors of predicates 0..i-1, which is the
  /// same evaluation set, round-trip amortised.
  std::vector<TupleId> SelectConjunction(const std::vector<Trapdoor>& tds,
                                         SelectionStats* stats = nullptr) const;

 private:
  Edbms* db_;
  BatchPolicy policy_;
};

}  // namespace prkb::edbms

#endif  // PRKB_EDBMS_SERVICE_PROVIDER_H_
