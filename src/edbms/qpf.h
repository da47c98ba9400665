#ifndef PRKB_EDBMS_QPF_H_
#define PRKB_EDBMS_QPF_H_

#include <atomic>
#include <cstdint>
#include <span>

#include "common/bitvector.h"
#include "common/status.h"
#include "edbms/encryption.h"
#include "edbms/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace prkb::edbms {

/// Registry instruments shared by every oracle instance (the per-instance
/// atomics below feed SelectionStats deltas; these feed process-wide
/// snapshots). Names are catalogued in docs/OBSERVABILITY.md.
struct QpfMetrics {
  obs::Counter* uses;
  obs::Counter* round_trips;
  obs::Counter* batches;
  obs::LatencyHistogram* round_trip_ns;
  obs::LatencyHistogram* batch_tuples;

  static const QpfMetrics& Get() {
    static const QpfMetrics m = {
        obs::MetricsRegistry::Global().GetCounter("qpf.uses"),
        obs::MetricsRegistry::Global().GetCounter("qpf.round_trips"),
        obs::MetricsRegistry::Global().GetCounter("qpf.batches"),
        obs::MetricsRegistry::Global().GetHistogram("qpf.round_trip_ns"),
        obs::MetricsRegistry::Global().GetHistogram("qpf.batch_tuples"),
    };
    return m;
  }
};

/// The query processing function Θ of the paper's EDBMS model (Sec. 3.1):
/// given an encrypted predicate (trapdoor) and an encrypted tuple, returns
/// whether the tuple satisfies the hidden plain predicate — and nothing else.
///
/// Every evaluation is counted; "number of QPF uses" is the paper's primary
/// cost metric, and the entire point of PRKB is to minimise it.
///
/// Transport cost is counted separately: each EvalMany round is one *round
/// trip* into the backend (a trusted-machine entry for Cipherbase, an MPC
/// round for SDB). Batching many tuple evaluations into one round trip
/// leaves the paper's QPF-use metric — and the bits the SP observes —
/// unchanged while amortising the per-round latency.
///
/// Counters are atomic so parallel scan workers can share one oracle.
class QpfOracle {
 public:
  QpfOracle() = default;
  virtual ~QpfOracle() = default;

  // Atomics delete the implicit moves; backends are returned by value from
  // factories, so snapshot the counters explicitly. Not thread-safe against
  // concurrent Eval on the source (moving a live oracle is a caller bug).
  QpfOracle(QpfOracle&& other) noexcept
      : uses_(other.uses_.load(std::memory_order_relaxed)),
        round_trips_(other.round_trips_.load(std::memory_order_relaxed)),
        batches_(other.batches_.load(std::memory_order_relaxed)) {}
  QpfOracle& operator=(QpfOracle&& other) noexcept {
    uses_.store(other.uses_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    round_trips_.store(other.round_trips_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    batches_.store(other.batches_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    return *this;
  }

  /// Θ(p̄, t̄): a one-lane EvalMany round, so one use, one round trip and
  /// no batch.
  bool Eval(const Trapdoor& td, TupleId tid) {
    const ProbeRequest one{&td, tid};
    const BitVector bit = EvalMany({&one, 1});
    return bit.size() == 1 && bit.Get(0);
  }

  /// One QPF round: Θ for every request — each names its own trapdoor — in
  /// a single backend entry. Bit i of the result is Θ(*reqs[i].td,
  /// reqs[i].tid). This is the only counted entry, and the accounting rule
  /// lives here alone: a round counts |reqs| uses and one round trip, and
  /// counts as a batch (recording qpf.batch_tuples) only when it carries at
  /// least two requests. The pointed-to trapdoors must outlive the call.
  BitVector EvalMany(std::span<const ProbeRequest> reqs) {
    if (reqs.empty()) return BitVector();
    uses_.fetch_add(reqs.size(), std::memory_order_relaxed);
    round_trips_.fetch_add(1, std::memory_order_relaxed);
    const QpfMetrics& m = QpfMetrics::Get();
    m.uses->Add(reqs.size());
    m.round_trips->Add(1);
    if (reqs.size() >= 2) {
      batches_.fetch_add(1, std::memory_order_relaxed);
      m.batches->Add(1);
      m.batch_tuples->Record(reqs.size());
    }
    const uint64_t t0 = obs::ObsTracer::NowNs();
    BitVector out = DoEvalMany(reqs);
    m.round_trip_ns->Record(obs::ObsTracer::NowNs() - t0);
    return out;
  }

  /// Observed logical-rounds-per-backend-entry of a coalescing transport
  /// (net::RoundBus); 1.0 for direct backends. The executor feeds this into
  /// CostCalibrator so the planner prices the amortised round latency L/c.
  virtual double CoalescingFactor() const { return 1.0; }

  /// Retained no-op for callers that prime a transport with a latency hint.
  /// No backend needs the fitted latency: the round bus (net::RoundBus)
  /// merges while its one entry is in flight, with no timer to derive.
  virtual void CalibrateTransport(uint64_t /*rt_latency_ns*/) {}

  /// Uncounted backend entry for transport shims. net::QpfServer and
  /// net::RoundBus re-enter the backend on behalf of a caller whose own
  /// QpfOracle (RemoteQpfOracle, RemoteEdbms, CoalescedEdbms) already
  /// counted the round, so a served round is counted exactly once — where
  /// the paper's cost accrues. Never call this from query-processing code.
  BitVector ServeEvalMany(std::span<const ProbeRequest> reqs) {
    return DoEvalMany(reqs);
  }

  /// Transport health: non-OK once the oracle can no longer reach its
  /// backend (a RemoteQpfOracle whose channel died mid-query). In-process
  /// backends are always healthy; callers that just ran a selection check
  /// this to turn silently-empty remote results into a clean error.
  virtual Status Health() const { return Status::Ok(); }

  /// Total evaluations since construction / last reset.
  uint64_t uses() const { return uses_.load(std::memory_order_relaxed); }
  /// Total rounds (backend entries).
  uint64_t round_trips() const {
    return round_trips_.load(std::memory_order_relaxed);
  }
  /// Of which rounds carried two or more requests.
  uint64_t batches() const { return batches_.load(std::memory_order_relaxed); }
  void ResetUses() {
    uses_.store(0, std::memory_order_relaxed);
    round_trips_.store(0, std::memory_order_relaxed);
    batches_.store(0, std::memory_order_relaxed);
  }

 private:
  /// The one evaluation hook. Implementations must return exactly the bits
  /// a lane-by-lane evaluation would: PRKB's correctness and the leakage
  /// argument both assume packaging changes *when* bits travel, never
  /// *which* bits.
  virtual BitVector DoEvalMany(std::span<const ProbeRequest> reqs) = 0;

  std::atomic<uint64_t> uses_{0};
  std::atomic<uint64_t> round_trips_{0};
  std::atomic<uint64_t> batches_{0};
};

}  // namespace prkb::edbms

#endif  // PRKB_EDBMS_QPF_H_
