#ifndef PRKB_NET_COALESCE_H_
#define PRKB_NET_COALESCE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/bitvector.h"
#include "common/status.h"
#include "edbms/edbms.h"
#include "edbms/qpf.h"
#include "obs/metrics.h"

namespace prkb::net {

/// Round-bus telemetry (docs/OBSERVABILITY.md). `factor_x1000` is the EWMA
/// coalescing factor — logical rounds carried per backend entry — in
/// thousandths.
struct CoalesceMetrics {
  obs::Counter* rounds;
  obs::Counter* requests;
  obs::Counter* entries;
  obs::Counter* merged_rounds;
  obs::Counter* dedup_tds;
  obs::Counter* overflow_splits;
  obs::Gauge* factor_x1000;

  static const CoalesceMetrics& Get() {
    static const CoalesceMetrics m = {
        obs::MetricsRegistry::Global().GetCounter("coalesce.rounds"),
        obs::MetricsRegistry::Global().GetCounter("coalesce.requests"),
        obs::MetricsRegistry::Global().GetCounter("coalesce.entries"),
        obs::MetricsRegistry::Global().GetCounter("coalesce.merged_rounds"),
        obs::MetricsRegistry::Global().GetCounter("coalesce.dedup_tds"),
        obs::MetricsRegistry::Global().GetCounter("coalesce.overflow_splits"),
        obs::MetricsRegistry::Global().GetGauge("coalesce.factor_x1000"),
    };
    return m;
  }
};

struct RoundBusOptions {
  /// Conservative wire budget per merged entry, kept under net's
  /// kMaxFramePayload (64 MiB); a merged batch estimated past it is split
  /// into multiple entries (coalesce.overflow_splits).
  size_t max_entry_bytes = 48u << 20;
};

/// The round bus (DESIGN.md §15): a per-oracle submission queue that merges
/// probe rounds from *different* selections into one backend entry — one
/// wire frame, one trusted-machine entry — while the backend is busy.
///
/// Protocol: at most one backend entry is in flight, because the trusted
/// machine is one device that charges its latency per entry. A round
/// submitted while nothing is in flight ships at once, verbatim. A round
/// submitted while an entry is in flight queues; its owner parks in Await,
/// and the first owner to wake after that entry returns elects itself
/// collector and ships the whole queue as the next entry. There is no
/// timer: merging grows exactly with load. Value-equal trapdoors referenced
/// by different selections are sent once per entry (cross-request dedup).
///
/// Counting: the bus enters the backend exclusively through the uncounted
/// ServeEvalMany entry. All logical accounting stays with the caller's
/// QpfOracle wrappers (CoalescedEdbms below), so per-selection stats are
/// identical to an uncoalesced run while tm.round_trips / net frames show
/// the physical collapse.
///
/// Lifetime contract: the trapdoors referenced by submitted requests must
/// outlive Await of the owning ticket (callers either park in Await or own
/// the trapdoor across it; both hold throughout the codebase).
class RoundBus {
 public:
  explicit RoundBus(edbms::QpfOracle* inner, RoundBusOptions opts = {});

  RoundBus(const RoundBus&) = delete;
  RoundBus& operator=(const RoundBus&) = delete;

  /// Enqueues one logical round and returns its ticket; 0 for an empty
  /// span. When the bus is idle the round ships inline and the ticket is
  /// already complete on return.
  uint64_t Submit(std::span<const edbms::ProbeRequest> reqs);

  /// Blocks until ticket `t`'s round has travelled; bit i of the result is
  /// Θ(*reqs[i].td, reqs[i].tid) of the submitted span. Each ticket must be
  /// awaited exactly once.
  BitVector Await(uint64_t t);

  /// Submit + Await in one call, for CoalescedEdbms's rounds. When the
  /// bus is idle this skips the ticket/scatter machinery entirely — there
  /// is nothing to merge with — so a lone caller pays one mutex round trip
  /// over the uncoalesced path.
  BitVector Exchange(std::span<const edbms::ProbeRequest> reqs);

  /// EWMA logical-rounds-per-entry; 1.0 until the first flush.
  double factor() const;

  struct Stats {
    uint64_t rounds = 0;
    uint64_t requests = 0;
    uint64_t entries = 0;
    uint64_t merged_rounds = 0;
    uint64_t dedup_tds = 0;
    uint64_t overflow_splits = 0;
    /// Backend entries outstanding right now (0 or 1).
    uint64_t in_flight = 0;
    /// Rounds queued behind the in-flight entry right now.
    uint64_t queued = 0;
    double factor = 1.0;
  };
  Stats stats() const;

 private:
  struct Sub {
    enum State : uint8_t { kQueued, kFlushing, kDone };
    std::vector<edbms::ProbeRequest> reqs;
    BitVector bits;
    State state = kQueued;
  };

  /// Lone-round passthrough: when nothing is in flight or queued and the
  /// round fits one entry, ships it verbatim as the in-flight entry — lock
  /// released across the backend call — stores its bits in `out` and
  /// returns true. `lk` holds mu_ on entry and exit.
  bool TryPassThrough(std::unique_lock<std::mutex>& lk,
                      std::span<const edbms::ProbeRequest> reqs,
                      BitVector* out);

  /// Collector role: claim the in-flight slot, take the whole queue, flush
  /// it as one-or-more backend entries, wake the owners. `lk` holds mu_ on
  /// entry and exit.
  void CollectAndFlush(std::unique_lock<std::mutex>& lk);

  /// Merges `batch` into chunked ServeEvalMany entries with trapdoor dedup
  /// and scatters the bits back into each Sub. Runs without mu_ held.
  /// Returns the number of backend entries shipped.
  size_t FlushBatch(const std::vector<std::shared_ptr<Sub>>& batch);

  edbms::QpfOracle* inner_;
  const RoundBusOptions opts_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t next_ticket_ = 1;
  /// The one backend entry the bus allows outstanding.
  bool in_flight_ = false;
  std::vector<std::shared_ptr<Sub>> queue_;
  std::unordered_map<uint64_t, std::shared_ptr<Sub>> subs_;
  /// EWMA of batch-rounds / entries per flush; guarded by mu_.
  double factor_ewma_ = 1.0;
  uint64_t flushes_ = 0;
  Stats totals_;
};

/// Drop-in Edbms whose Θ surface rides a RoundBus: DO-side calls and table
/// geometry forward to the wrapped instance (a local CipherbaseEdbms /
/// SdbEdbms, or a RemoteEdbms — giving socketless benches and the real wire
/// the same merge point), while every QPF round — a scan chunk, a probe
/// round, a scalar Eval — merges with concurrent selections' rounds before
/// entering the backend.
class CoalescedEdbms : public edbms::Edbms {
 public:
  explicit CoalescedEdbms(edbms::Edbms* inner, RoundBusOptions opts = {})
      : inner_(inner), bus_(inner, opts) {}

  // --- DO-side client API: pure forwards -----------------------------------
  edbms::TupleId Insert(const std::vector<edbms::Value>& row) override {
    return inner_->Insert(row);
  }
  void Delete(edbms::TupleId tid) override { inner_->Delete(tid); }
  edbms::Trapdoor MakeComparison(edbms::AttrId attr, edbms::CompareOp op,
                                 edbms::Value c) override {
    return inner_->MakeComparison(attr, op, c);
  }
  edbms::Trapdoor MakeBetween(edbms::AttrId attr, edbms::Value lo,
                              edbms::Value hi) override {
    return inner_->MakeBetween(attr, lo, hi);
  }

  // --- SP-side geometry: pure forwards -------------------------------------
  size_t num_attrs() const override { return inner_->num_attrs(); }
  size_t num_rows() const override { return inner_->num_rows(); }
  bool IsLive(edbms::TupleId tid) const override {
    return inner_->IsLive(tid);
  }
  size_t StoredBytes() const override { return inner_->StoredBytes(); }
  Status Health() const override { return inner_->Health(); }

  // --- Transport feedback ---------------------------------------------------
  double CoalescingFactor() const override { return bus_.factor(); }

  RoundBus& bus() { return bus_; }
  const RoundBus& bus() const { return bus_; }
  edbms::Edbms* inner() { return inner_; }

 private:
  BitVector DoEvalMany(std::span<const edbms::ProbeRequest> reqs) override {
    return bus_.Exchange(reqs);
  }

  edbms::Edbms* inner_;
  RoundBus bus_;
};

}  // namespace prkb::net

#endif  // PRKB_NET_COALESCE_H_
