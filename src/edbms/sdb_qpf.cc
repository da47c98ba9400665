#include "edbms/sdb_qpf.h"

#include "common/latency.h"
#include "obs/metrics.h"

namespace prkb::edbms {
namespace {

/// MPC transport cost, process-wide (docs/OBSERVABILITY.md).
struct SdbMetrics {
  obs::Counter* rounds;
  obs::Counter* bytes;

  static const SdbMetrics& Get() {
    static const SdbMetrics m = {
        obs::MetricsRegistry::Global().GetCounter("sdb.mpc_rounds"),
        obs::MetricsRegistry::Global().GetCounter("sdb.mpc_bytes"),
    };
    return m;
  }
};

}  // namespace

SdbEdbms::SdbEdbms(uint64_t master_seed, size_t num_attrs)
    : do_(master_seed), share_cols_(num_attrs) {}

SdbEdbms SdbEdbms::FromPlainTable(uint64_t master_seed,
                                  const PlainTable& plain) {
  SdbEdbms db(master_seed, plain.num_attrs());
  std::vector<Value> row(plain.num_attrs());
  for (TupleId tid = 0; tid < plain.num_rows(); ++tid) {
    for (AttrId a = 0; a < plain.num_attrs(); ++a) row[a] = plain.at(a, tid);
    db.Insert(row);
  }
  return db;
}

TupleId SdbEdbms::Insert(const std::vector<Value>& row) {
  const TupleId tid = static_cast<TupleId>(num_rows());
  for (AttrId a = 0; a < share_cols_.size(); ++a) {
    const uint64_t mask = do_.ShareMask(a, tid);
    share_cols_[a].push_back(static_cast<uint64_t>(row[a]) + mask);
  }
  live_.Resize(num_rows(), true);
  return tid;
}

void SdbEdbms::Delete(TupleId tid) {
  if (live_.Get(tid)) {
    live_.Clear(tid);
    ++dead_count_;
  }
}

Trapdoor SdbEdbms::MakeComparison(AttrId attr, CompareOp op, Value c) {
  return do_.MakeComparison(attr, op, c);
}

Trapdoor SdbEdbms::MakeBetween(AttrId attr, Value lo, Value hi) {
  return do_.MakeBetween(attr, lo, hi);
}

void SdbEdbms::SimulateLatency() const { latency_.Apply(); }

bool SdbEdbms::Reconstruct(const Trapdoor& td, const PlainPredicate& pred,
                           TupleId tid) const {
  // ---- DO endpoint (conceptually across the network) ----
  const uint64_t share = share_cols_[td.attr][tid];
  const uint64_t mask = do_.ShareMask(td.attr, tid);
  return pred.Satisfies(static_cast<Value>(share - mask));
}

bool SdbEdbms::DoEval(const Trapdoor& td, TupleId tid) {
  // One request/response round: share + ids out, one bit back.
  const uint64_t nbytes =
      sizeof(uint64_t) + sizeof(TupleId) + sizeof(uint64_t) + 1;
  rounds_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(nbytes, std::memory_order_relaxed);
  SdbMetrics::Get().rounds->Add(1);
  SdbMetrics::Get().bytes->Add(nbytes);
  SimulateLatency();
  const std::optional<PlainPredicate> pred = do_.OpenPredicate(td);
  return pred && Reconstruct(td, *pred, tid);
}

BitVector SdbEdbms::DoEvalBatch(const Trapdoor& td,
                                std::span<const TupleId> tids) {
  // One MPC round for the whole batch: all shares and ids travel in a single
  // request, the trapdoor uid once, and the answer is one packed bit vector.
  const uint64_t nbytes = tids.size() * (sizeof(uint64_t) + sizeof(TupleId)) +
                          sizeof(uint64_t) + (tids.size() + 7) / 8;
  rounds_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(nbytes, std::memory_order_relaxed);
  SdbMetrics::Get().rounds->Add(1);
  SdbMetrics::Get().bytes->Add(nbytes);
  SimulateLatency();
  BitVector out(tids.size());
  const std::optional<PlainPredicate> pred = do_.OpenPredicate(td);
  if (!pred) return out;  // forged trapdoor: every lane false
  for (size_t i = 0; i < tids.size(); ++i) {
    out.Assign(i, Reconstruct(td, *pred, tids[i]));
  }
  return out;
}

BitVector SdbEdbms::DoEvalMany(std::span<const ProbeRequest> reqs) {
  // One MPC round for a fused probe batch. Unlike DoEvalBatch the trapdoor
  // uid travels per lane (each request may name a different predicate).
  const uint64_t nbytes =
      reqs.size() * (sizeof(uint64_t) + sizeof(TupleId) + sizeof(uint64_t)) +
      (reqs.size() + 7) / 8;
  rounds_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(nbytes, std::memory_order_relaxed);
  SdbMetrics::Get().rounds->Add(1);
  SdbMetrics::Get().bytes->Add(nbytes);
  SimulateLatency();
  BitVector out(reqs.size());
  OpenOncePerEntry<PlainPredicate> opened;
  const auto open = [this](const Trapdoor& td) {
    return do_.OpenPredicate(td);
  };
  for (size_t i = 0; i < reqs.size(); ++i) {
    const std::optional<PlainPredicate>& pred = opened.Get(reqs[i].td, open);
    if (pred) out.Assign(i, Reconstruct(*reqs[i].td, *pred, reqs[i].tid));
  }
  return out;
}

}  // namespace prkb::edbms
