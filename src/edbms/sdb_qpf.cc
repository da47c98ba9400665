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

BitVector SdbEdbms::DoEvalMany(std::span<const ProbeRequest> reqs) {
  // One MPC round: every lane's share and tuple id travel in a single
  // request, each distinct trapdoor's uid once, and the answer is one packed
  // bit vector.
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
  const uint64_t nbytes =
      reqs.size() * (sizeof(uint64_t) + sizeof(TupleId)) +
      opened.distinct() * sizeof(uint64_t) + (reqs.size() + 7) / 8;
  rounds_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(nbytes, std::memory_order_relaxed);
  SdbMetrics::Get().rounds->Add(1);
  SdbMetrics::Get().bytes->Add(nbytes);
  return out;
}

}  // namespace prkb::edbms
