#include "edbms/trusted_machine.h"

#include <algorithm>
#include <mutex>

#include "common/latency.h"
#include "obs/metrics.h"

namespace prkb::edbms {
namespace {

/// TM entries and per-entry work, process-wide (docs/OBSERVABILITY.md).
struct TmMetrics {
  obs::Counter* entries;
  obs::Counter* evals;
  obs::Counter* value_decrypts;
  obs::LatencyHistogram* batch_cells;

  static const TmMetrics& Get() {
    static const TmMetrics m = {
        obs::MetricsRegistry::Global().GetCounter("tm.entries"),
        obs::MetricsRegistry::Global().GetCounter("tm.evals"),
        obs::MetricsRegistry::Global().GetCounter("tm.value_decrypts"),
        obs::MetricsRegistry::Global().GetHistogram("tm.batch_cells"),
    };
    return m;
  }
};

std::vector<uint8_t> SeedBytes(uint64_t seed) {
  std::vector<uint8_t> out(8);
  for (int i = 0; i < 8; ++i) out[i] = static_cast<uint8_t>(seed >> (8 * i));
  return out;
}

}  // namespace

TrustedMachine::TrustedMachine(uint64_t master_seed)
    : prf_(SeedBytes(master_seed)),
      crypter_(prf_.DeriveAesKey("value-enc")),
      trapdoor_cipher_(prf_.DeriveAesKey("trapdoor-enc")),
      trapdoor_mac_(prf_.DeriveKey("trapdoor-mac")) {}

void TrustedMachine::SimulateLatency() const { latency_.Apply(); }

std::optional<TrapdoorPayload> TrustedMachine::Open(const Trapdoor& td) {
  VerifiedSlot& slot = verified_[td.uid % kVerifiedCacheCapacity];
  const auto matches = [&] {
    return slot.valid && slot.uid == td.uid && slot.attr == td.attr &&
           slot.kind == td.kind && td.blob.size() == slot.blob.size() &&
           std::equal(slot.blob.begin(), slot.blob.end(), td.blob.begin());
  };
  {
    std::shared_lock<std::shared_mutex> lock(verified_mu_);
    if (matches()) return slot.payload;
  }
  TrapdoorPayload payload;
  if (!OpenTrapdoor(trapdoor_cipher_, trapdoor_mac_, td, &payload)) {
    return std::nullopt;
  }
  std::unique_lock<std::shared_mutex> lock(verified_mu_);
  slot.valid = true;
  slot.uid = td.uid;
  slot.attr = td.attr;
  slot.kind = td.kind;
  std::copy(td.blob.begin(), td.blob.end(), slot.blob.begin());
  slot.payload = payload;
  return payload;
}

size_t TrustedMachine::verified_cache_size() const {
  std::shared_lock<std::shared_mutex> lock(verified_mu_);
  return static_cast<size_t>(
      std::count_if(verified_.begin(), verified_.end(),
                    [](const VerifiedSlot& s) { return s.valid; }));
}

bool TrustedMachine::Compare(const TrapdoorPayload& p, PredicateKind kind,
                             const EncValue& cell) const {
  const Value v = crypter_.Decrypt(cell);
  if (kind == PredicateKind::kBetween) return p.lo <= v && v <= p.hi;
  switch (p.op) {
    case CompareOp::kLt:
      return v < p.lo;
    case CompareOp::kGt:
      return v > p.lo;
    case CompareOp::kLe:
      return v <= p.lo;
    case CompareOp::kGe:
      return v >= p.lo;
  }
  return false;
}

BitVector TrustedMachine::EvalPredicateMulti(
    std::span<const ProbeRequest> reqs,
    std::span<const EncValue* const> cells, bool* ok) {
  BitVector out(cells.size());
  predicate_evals_.fetch_add(cells.size(), std::memory_order_relaxed);
  round_trips_.fetch_add(1, std::memory_order_relaxed);
  const TmMetrics& m = TmMetrics::Get();
  m.entries->Add(1);
  m.evals->Add(cells.size());
  if (cells.size() >= 2) m.batch_cells->Record(cells.size());
  SimulateLatency();  // the whole round travels in one round trip
  bool all_ok = true;
  OpenOncePerEntry<TrapdoorPayload> opened;
  const auto open = [this](const Trapdoor& td) { return Open(td); };
  for (size_t i = 0; i < cells.size(); ++i) {
    const std::optional<TrapdoorPayload>& p = opened.Get(reqs[i].td, open);
    if (!p) {
      all_ok = false;
      continue;  // lane stays false
    }
    out.Assign(i, Compare(*p, reqs[i].td->kind, *cells[i]));
  }
  if (ok != nullptr) *ok = all_ok;
  return out;
}

Value TrustedMachine::DecryptValue(const EncValue& cell) {
  value_decrypts_.fetch_add(1, std::memory_order_relaxed);
  round_trips_.fetch_add(1, std::memory_order_relaxed);
  TmMetrics::Get().entries->Add(1);
  TmMetrics::Get().value_decrypts->Add(1);
  SimulateLatency();
  return crypter_.Decrypt(cell);
}

}  // namespace prkb::edbms
