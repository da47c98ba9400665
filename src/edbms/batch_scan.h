#ifndef PRKB_EDBMS_BATCH_SCAN_H_
#define PRKB_EDBMS_BATCH_SCAN_H_

#include <cstddef>
#include <span>
#include <vector>

#include "edbms/qpf.h"

namespace prkb::edbms {

/// How scan loops consume the QPF: one-tuple rounds (the paper's literal
/// model), chunked batch round trips, and optionally several batch round
/// trips kept in flight concurrently by the shared thread pool.
///
/// Neither knob changes which (trapdoor, tuple) pairs are evaluated on the
/// exhaustive scan paths — only how the evaluations are packaged — so QPF-use
/// counts and leakage are identical to the scalar path.
struct BatchPolicy {
  /// Tuples per QPF round (QpfOracle::EvalMany). <= 1 ships one tuple per
  /// round, the paper's scalar loop.
  size_t batch_size = 1;
  /// Threads issuing batches concurrently (including the caller). <= 1 keeps
  /// scans single-threaded; one-tuple rounds always stay single-threaded.
  size_t workers = 1;

  bool batched() const { return batch_size > 1; }
  bool parallel() const { return workers > 1; }
};

/// Evaluates `td` on every tuple of `tids`, honouring `policy`. Returns one
/// byte per tuple (1 = satisfied) in input order. Deterministic for a fixed
/// input regardless of batch size or worker count.
std::vector<uint8_t> ScanTuples(QpfOracle* qpf, const Trapdoor& td,
                                std::span<const TupleId> tids,
                                const BatchPolicy& policy);

}  // namespace prkb::edbms

#endif  // PRKB_EDBMS_BATCH_SCAN_H_
