#ifndef PRKB_EDBMS_QPF_H_
#define PRKB_EDBMS_QPF_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>

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

/// One probe of a heterogeneous batch round: which predicate to apply to
/// which tuple. The probe scheduler (src/prkb/probe_sched.h) fills one span
/// of these per search round so concurrent searches — the m−1 pivots of an
/// m-ary QFilter, both BETWEEN end-searches, every PRKB(MD) dimension —
/// share a single round trip.
struct ProbeRequest {
  const Trapdoor* td;
  TupleId tid;
};

/// Handle for the split-phase SubmitMany/AwaitMany surface below. Tickets
/// are per-oracle, never 0 for a non-empty submission, and must be awaited
/// exactly once (on any thread).
using ProbeTicket = uint64_t;
inline constexpr ProbeTicket kEmptyProbeTicket = 0;

/// The query processing function Θ of the paper's EDBMS model (Sec. 3.1):
/// given an encrypted predicate (trapdoor) and an encrypted tuple, returns
/// whether the tuple satisfies the hidden plain predicate — and nothing else.
///
/// Every evaluation is counted; "number of QPF uses" is the paper's primary
/// cost metric, and the entire point of PRKB is to minimise it.
///
/// Transport cost is counted separately: each Eval/EvalBatch call is one
/// *round trip* into the backend (a trusted-machine entry for Cipherbase, an
/// MPC round for SDB). Batching many tuple evaluations into one round trip
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

  /// Θ(p̄, t̄) — counted as one use and one round trip.
  bool Eval(const Trapdoor& td, TupleId tid) {
    uses_.fetch_add(1, std::memory_order_relaxed);
    round_trips_.fetch_add(1, std::memory_order_relaxed);
    const QpfMetrics& m = QpfMetrics::Get();
    m.uses->Add(1);
    m.round_trips->Add(1);
    const uint64_t t0 = obs::ObsTracer::NowNs();
    const bool out = DoEval(td, tid);
    m.round_trip_ns->Record(obs::ObsTracer::NowNs() - t0);
    return out;
  }

  /// Θ applied to a batch of tuples in one round trip. Bit i of the result
  /// is Θ(td, tids[i]). Counts |tids| uses but a single round trip; the
  /// default implementation loops over DoEval so every backend gets correct
  /// (if unamortised) behaviour for free.
  BitVector EvalBatch(const Trapdoor& td, std::span<const TupleId> tids) {
    if (tids.empty()) return BitVector();
    uses_.fetch_add(tids.size(), std::memory_order_relaxed);
    round_trips_.fetch_add(1, std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
    const QpfMetrics& m = QpfMetrics::Get();
    m.uses->Add(tids.size());
    m.round_trips->Add(1);
    m.batches->Add(1);
    m.batch_tuples->Record(tids.size());
    const uint64_t t0 = obs::ObsTracer::NowNs();
    BitVector out = DoEvalBatch(td, tids);
    m.round_trip_ns->Record(obs::ObsTracer::NowNs() - t0);
    return out;
  }

  /// Θ applied to a heterogeneous batch — each request names its own
  /// trapdoor — in one round trip. Bit i of the result is
  /// Θ(*reqs[i].td, reqs[i].tid). Counts |reqs| uses but a single round
  /// trip, exactly like EvalBatch; the default implementation loops over
  /// DoEval so every backend is correct (if unamortised) for free.
  BitVector EvalMany(std::span<const ProbeRequest> reqs) {
    if (reqs.empty()) return BitVector();
    uses_.fetch_add(reqs.size(), std::memory_order_relaxed);
    round_trips_.fetch_add(1, std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
    const QpfMetrics& m = QpfMetrics::Get();
    m.uses->Add(reqs.size());
    m.round_trips->Add(1);
    m.batches->Add(1);
    m.batch_tuples->Record(reqs.size());
    const uint64_t t0 = obs::ObsTracer::NowNs();
    BitVector out = DoEvalMany(reqs);
    m.round_trip_ns->Record(obs::ObsTracer::NowNs() - t0);
    return out;
  }

  /// Split-phase EvalMany for the probe scheduler: SubmitMany ships the
  /// round and returns a ticket; AwaitMany blocks for its bits. All logical
  /// accounting — |reqs| uses, one round trip, one batch — happens at
  /// submission, identically to EvalMany, so per-selection SelectionStats
  /// and the paper's QPF-use metric are byte-for-byte unaffected by *how*
  /// the round physically travels. The default implementation evaluates
  /// synchronously at submit and stashes the bits (every backend behaves
  /// like EvalMany split in two); a coalescing transport (net::RoundBus)
  /// overrides the Do* hooks to merge concurrently submitted rounds from
  /// different selections into one backend entry. The pointed-to trapdoors
  /// must stay alive until AwaitMany returns.
  ProbeTicket SubmitMany(std::span<const ProbeRequest> reqs) {
    if (reqs.empty()) return kEmptyProbeTicket;
    uses_.fetch_add(reqs.size(), std::memory_order_relaxed);
    round_trips_.fetch_add(1, std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
    const QpfMetrics& m = QpfMetrics::Get();
    m.uses->Add(reqs.size());
    m.round_trips->Add(1);
    m.batches->Add(1);
    m.batch_tuples->Record(reqs.size());
    const ProbeTicket t = tickets_->Open(obs::ObsTracer::NowNs());
    DoSubmitMany(t, reqs);
    return t;
  }

  /// Blocks until ticket `t`'s round completes and returns its bits (bit i
  /// is Θ(*reqs[i].td, reqs[i].tid) of the submitted span). Records the
  /// logical round's qpf.round_trip_ns from submit to completion, so time a
  /// round spends queued behind a coalescing transport's in-flight entry is
  /// visible in the histogram the calibrator fits.
  BitVector AwaitMany(ProbeTicket t) {
    if (t == kEmptyProbeTicket) return BitVector();
    BitVector out = DoAwaitMany(t);
    QpfMetrics::Get().round_trip_ns->Record(obs::ObsTracer::NowNs() -
                                            tickets_->Close(t));
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

  /// --- Uncounted backend entries for transport shims ----------------------
  ///
  /// net::QpfServer re-enters the backend on behalf of a remote client whose
  /// own QpfOracle wrappers (RemoteQpfOracle / RemoteEdbms) already counted
  /// the round trip and the uses. These entries evaluate without touching
  /// any counter or registry metric, so a served evaluation is counted
  /// exactly once — client-side, where the paper's cost accrues. Never call
  /// these from query-processing code; they exist only for the serving shim.
  bool ServeEval(const Trapdoor& td, TupleId tid) { return DoEval(td, tid); }
  BitVector ServeEvalBatch(const Trapdoor& td, std::span<const TupleId> tids) {
    return DoEvalBatch(td, tids);
  }
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
  /// Total backend entries (scalar calls + batch calls).
  uint64_t round_trips() const {
    return round_trips_.load(std::memory_order_relaxed);
  }
  /// Of which batch calls.
  uint64_t batches() const { return batches_.load(std::memory_order_relaxed); }
  void ResetUses() {
    uses_.store(0, std::memory_order_relaxed);
    round_trips_.store(0, std::memory_order_relaxed);
    batches_.store(0, std::memory_order_relaxed);
  }

 private:
  virtual bool DoEval(const Trapdoor& td, TupleId tid) = 0;

  /// Backend hook for amortised batch evaluation. Implementations must
  /// return exactly the bits the scalar path would: PRKB's correctness and
  /// the leakage argument both assume batching changes *when* bits travel,
  /// never *which* bits.
  virtual BitVector DoEvalBatch(const Trapdoor& td,
                                std::span<const TupleId> tids) {
    BitVector out(tids.size());
    for (size_t i = 0; i < tids.size(); ++i) {
      out.Assign(i, DoEval(td, tids[i]));
    }
    return out;
  }

  /// Backend hook for the heterogeneous batch. Same contract as
  /// DoEvalBatch: identical bits to the scalar path, amortised transport.
  virtual BitVector DoEvalMany(std::span<const ProbeRequest> reqs) {
    BitVector out(reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
      out.Assign(i, DoEval(*reqs[i].td, reqs[i].tid));
    }
    return out;
  }

  /// Backend hooks for the split-phase surface. The defaults evaluate at
  /// submit time and park the bits in the ticket book, so non-coalescing
  /// backends need nothing; a coalescing transport may override both to
  /// defer the backend entry until it can merge with other rounds.
  virtual void DoSubmitMany(ProbeTicket t, std::span<const ProbeRequest> reqs) {
    tickets_->Stash(t, DoEvalMany(reqs));
  }
  virtual BitVector DoAwaitMany(ProbeTicket t) { return tickets_->Unstash(t); }

  /// Submit-time bookkeeping shared by all backends: the submit timestamp
  /// for the round-trip histogram, plus the default implementation's ready
  /// bits. Held by pointer so the user-defined moves stay trivial — an
  /// oracle is never moved with tickets in flight (same caller contract as
  /// moving during Eval).
  class TicketBook {
   public:
    ProbeTicket Open(uint64_t t0_ns) {
      const std::lock_guard<std::mutex> lock(mu_);
      const ProbeTicket t = next_++;
      open_.emplace(t, Entry{t0_ns, BitVector()});
      return t;
    }
    uint64_t Close(ProbeTicket t) {
      const std::lock_guard<std::mutex> lock(mu_);
      const auto it = open_.find(t);
      if (it == open_.end()) return 0;
      const uint64_t t0 = it->second.t0_ns;
      open_.erase(it);
      return t0;
    }
    void Stash(ProbeTicket t, BitVector bits) {
      const std::lock_guard<std::mutex> lock(mu_);
      const auto it = open_.find(t);
      if (it != open_.end()) it->second.ready = std::move(bits);
    }
    BitVector Unstash(ProbeTicket t) {
      const std::lock_guard<std::mutex> lock(mu_);
      const auto it = open_.find(t);
      return it == open_.end() ? BitVector() : std::move(it->second.ready);
    }

   private:
    struct Entry {
      uint64_t t0_ns;
      BitVector ready;
    };
    std::mutex mu_;
    ProbeTicket next_ = 1;
    std::unordered_map<ProbeTicket, Entry> open_;
  };

  std::atomic<uint64_t> uses_{0};
  std::atomic<uint64_t> round_trips_{0};
  std::atomic<uint64_t> batches_{0};
  std::unique_ptr<TicketBook> tickets_ = std::make_unique<TicketBook>();
};

}  // namespace prkb::edbms

#endif  // PRKB_EDBMS_QPF_H_
