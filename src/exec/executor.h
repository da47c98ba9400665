#ifndef PRKB_EXEC_EXECUTOR_H_
#define PRKB_EXEC_EXECUTOR_H_

#include <vector>

#include "edbms/service_provider.h"
#include "exec/plan.h"
#include "prkb/fingerprint.h"
#include "prkb/probe_sched.h"

namespace prkb::core {
class PrkbIndex;
struct PrkbOptions;
}  // namespace prkb::core

namespace prkb::exec {

/// Runs a physical plan tree against the PRKB primitives. This is the single
/// copy of the fast-path-cache consult, the StatsScope accounting and the
/// QFilter → QScan → updatePRKB pipeline that used to be duplicated across
/// `SelectComparison`, `SelectBetween` dispatch, `RunMd` and
/// `SelectRangeSdPlus`. Execution is byte-identical to the legacy drivers in
/// QPF and RNG consumption; on top it records per-operator actual costs on
/// the plan nodes and mirrors `exec.*` metrics (docs/OBSERVABILITY.md).
class Executor {
 public:
  explicit Executor(core::PrkbIndex* index) : index_(index) {}

  /// Executes the plan, recording actual costs on each node. `stats`
  /// receives the whole-operation accounting exactly as the legacy entry
  /// points produced it (the root operator owns the StatsScope).
  std::vector<edbms::TupleId> Run(Plan* plan,
                                  edbms::SelectionStats* stats = nullptr);

  /// Read-only execution attempt for shared-lock concurrent serving: runs
  /// the plan iff it provably cannot mutate the index (baseline scan, empty
  /// chain, repeat-predicate cache hit) and returns true; returns false —
  /// without spending any QPF and without counting a cache miss — when the
  /// caller must retry under an exclusive lock.
  static bool TryRunReadOnly(const core::PrkbIndex& index, const Plan& plan,
                             std::vector<edbms::TupleId>* out,
                             edbms::SelectionStats* stats);

 private:
  std::vector<edbms::TupleId> RunPredicateBody(Plan* plan, PlanNode* node);
  std::vector<edbms::TupleId> RunComparison(PlanNode* node,
                                            const edbms::Trapdoor& td,
                                            const core::TrapdoorFp* fp,
                                            const core::ProbeSchedOptions& sopt);
  std::vector<edbms::TupleId> RunBetween(PlanNode* node,
                                         const edbms::Trapdoor& td,
                                         const core::TrapdoorFp* fp,
                                         const core::ProbeSchedOptions& sopt);
  std::vector<edbms::TupleId> RunIntersect(Plan* plan, PlanNode* node);
  std::vector<edbms::TupleId> RunGridPrune(Plan* plan, PlanNode* node);
  /// Scan route over the pending insert buffer: batch-tests the buffered
  /// tuples, appends the winners to `out` and charges the spend to the
  /// buffer's break-even rent. Mutates no knowledge, so shared-lock
  /// readers may call it concurrently.
  static void ScanBuffer(const core::PrkbIndex& index,
                         const edbms::Trapdoor& td,
                         std::vector<edbms::TupleId>* out);

  core::PrkbIndex* index_;
};

/// Cost constants matching the runtime the options configure: the scheduler
/// m, the scan batch size and the planner's transport-latency hint.
/// `probe_fanout_override` (nonzero) substitutes a candidate m — the
/// planner's per-route m search and Plan::probe_fanout use this. This is the
/// configured-only builder; query paths use the index overload below.
CostConstants ConstantsFor(const core::PrkbOptions& options,
                           size_t probe_fanout_override = 0);

/// Calibrated cost constants for pricing against `index`: the configured
/// shape above with `eval_ns` and `round_trip_latency_ns` replaced by the
/// index's CostCalibrator fits (docs/COST_MODEL.md, "Calibrated vs
/// configured"). The single funnel every query-path price goes through —
/// nothing on a query path reads CostConstants::Defaults() directly.
CostConstants ConstantsFor(const core::PrkbIndex& index,
                           size_t probe_fanout_override = 0);

/// The runtime scheduler knobs a plan executes under: the index options'
/// sched() with the plan's probe_fanout override applied.
core::ProbeSchedOptions SchedFor(const core::PrkbIndex& index,
                                 const Plan& plan);

/// ---- Plan builders -------------------------------------------------------
///
/// All builders expect `plan->BorrowTrapdoor` / `plan->AdoptTrapdoors` to
/// have bound the trapdoors already; they only construct the node tree and
/// the legacy route summary. Estimates are filled only when `estimate` is
/// true (the planner / EXPLAIN path) — the PrkbIndex hot paths skip them, so
/// plan construction there costs a few small allocations and no QPF.

/// Single-predicate plan over plan->td(0): LinearScan when the attribute has
/// no chain, else PredicateSelect with the stage children.
void BuildSingleSelectPlan(const core::PrkbIndex& index, Plan* plan,
                           bool estimate);

/// PRKB(SD+) plan: Intersect over one single-predicate subtree per trapdoor.
void BuildSdPlusPlan(const core::PrkbIndex& index, Plan* plan, bool estimate);

/// PRKB(MD) plan: GridPrune with one QFilterProbe child per dimension. Only
/// valid when every trapdoor is a comparison on an enabled attribute.
void BuildMdGridPlan(const core::PrkbIndex& index, Plan* plan, bool estimate);

/// No-predicate plan: every live tuple, zero QPF.
void BuildFullTablePlan(Plan* plan);

/// Contradiction plan: provably empty result, zero QPF.
void BuildEmptyPlan(Plan* plan);

}  // namespace prkb::exec

#endif  // PRKB_EXEC_EXECUTOR_H_
