#ifndef PRKB_EDBMS_SDB_QPF_H_
#define PRKB_EDBMS_SDB_QPF_H_

#include <atomic>
#include <vector>

#include "common/bitvector.h"
#include "common/latency.h"
#include "edbms/data_owner.h"
#include "edbms/edbms.h"

namespace prkb::edbms {

/// SDB-style EDBMS backend: secret sharing between DO and SP (Sec. 2.1,
/// second approach). Each cell x is stored at the SP as the additive share
///   s = x + PRF_k(attr, tid)   (mod 2^64),
/// and the DO regenerates its own share from the PRF on demand (modelling
/// SDB's RSA-like share-generating function, which spares the DO from
/// storing shares).
///
/// QPF evaluation is a simulated two-party round: the SP ships
/// (share, cell-id, trapdoor-uid) to the DO endpoint, which reconstructs the
/// value and answers the predicate bit. Message/round counters expose the
/// MPC cost structure; an optional per-round latency emulates the network.
/// PRKB never looks inside — it only sees the counted Θ bit, demonstrating
/// the paper's claim that PRKB sits on top of *any* QPF-style EDBMS.
class SdbEdbms : public Edbms {
 public:
  SdbEdbms(uint64_t master_seed, size_t num_attrs);

  static SdbEdbms FromPlainTable(uint64_t master_seed,
                                 const PlainTable& plain);

  // Atomic MPC counters delete the implicit move; snapshot them so the
  // factory can return by value. Never move a backend mid-scan.
  SdbEdbms(SdbEdbms&& other) noexcept
      : Edbms(std::move(other)),
        do_(std::move(other.do_)),
        share_cols_(std::move(other.share_cols_)),
        live_(std::move(other.live_)),
        dead_count_(other.dead_count_),
        rounds_(other.rounds_.load(std::memory_order_relaxed)),
        bytes_(other.bytes_.load(std::memory_order_relaxed)),
        latency_(other.latency_) {}

  TupleId Insert(const std::vector<Value>& row) override;
  void Delete(TupleId tid) override;
  Trapdoor MakeComparison(AttrId attr, CompareOp op, Value c) override;
  Trapdoor MakeBetween(AttrId attr, Value lo, Value hi) override;

  size_t num_attrs() const override { return share_cols_.size(); }
  size_t num_rows() const override {
    return share_cols_.empty() ? 0 : share_cols_[0].size();
  }
  bool IsLive(TupleId tid) const override { return live_.Get(tid); }
  size_t StoredBytes() const override {
    return num_rows() * num_attrs() * sizeof(uint64_t);
  }

  /// MPC accounting. One QPF round costs one MPC round: the SP packs the
  /// whole share vector into a single request and gets a bit vector back.
  uint64_t rounds() const { return rounds_.load(std::memory_order_relaxed); }
  uint64_t bytes_transferred() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  /// Per-MPC-round delay, charged through the backend's LatencyModel (the
  /// single simulation hook; zero it when serving behind a real wire).
  void set_round_latency_ns(uint64_t ns) { latency_.set_ns(ns); }
  LatencyModel& latency_model() { return latency_; }

  DataOwner& data_owner() { return do_; }

  /// SP-visible share of one cell (exactly what a compromised SP can read;
  /// exposed for leakage auditing and tests).
  uint64_t share_at(AttrId attr, TupleId tid) const {
    return share_cols_[attr][tid];
  }

 private:
  BitVector DoEvalMany(std::span<const ProbeRequest> reqs) override;
  void SimulateLatency() const;
  bool Reconstruct(const Trapdoor& td, const PlainPredicate& pred,
                   TupleId tid) const;

  DataOwner do_;
  std::vector<std::vector<uint64_t>> share_cols_;
  BitVector live_;
  size_t dead_count_ = 0;
  std::atomic<uint64_t> rounds_{0};
  std::atomic<uint64_t> bytes_{0};
  LatencyModel latency_;
};

}  // namespace prkb::edbms

#endif  // PRKB_EDBMS_SDB_QPF_H_
