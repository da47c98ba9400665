#ifndef PRKB_EDBMS_TRUSTED_MACHINE_H_
#define PRKB_EDBMS_TRUSTED_MACHINE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <span>
#include <vector>

#include "common/bitvector.h"
#include "common/latency.h"
#include "crypto/cipher.h"
#include "crypto/hmac.h"
#include "crypto/prf.h"
#include "edbms/encryption.h"
#include "edbms/types.h"

namespace prkb::edbms {

/// Software stand-in for the tamper-resistant trusted machine (TM) of
/// Cipherbase / TrustedDB. The TM is provisioned with the data owner's key
/// material; the service provider hands it ciphertexts and gets back exactly
/// one bit per predicate evaluation.
///
/// Substitution note (see DESIGN.md): the paper runs this on an FPGA /
/// crypto-coprocessor. Here the decrypt-and-compare really happens (portable
/// AES), and an optional fixed per-entry latency emulates the hardware round
/// trip. Both the paper's cost metrics are preserved: the call count, and a
/// per-call cost that dwarfs a plain comparison.
///
/// Θ enters through one predicate entry, EvalPredicateMulti: one round trip
/// for a whole batch of (trapdoor, ciphertext) cells, bulk decrypt-and-compare
/// inside; a scalar evaluation is a one-cell entry. Counters are atomic and
/// the verified trapdoor cache is lock-protected so parallel scan workers can
/// drive one TM concurrently.
class TrustedMachine {
 public:
  /// Slots in the verified-trapdoor cache. Fixed, so the TM's memory does
  /// not grow with the number of trapdoors ever issued; a trapdoor evicted
  /// from its slot is simply MAC-verified again on its next use.
  static constexpr size_t kVerifiedCacheCapacity = 1024;

  /// Provisioned with the same seed as the data owner.
  explicit TrustedMachine(uint64_t master_seed);

  // The mutex and atomics delete the implicit move; the owning Edbms is
  // returned by value from factories, so move explicitly (fresh mutex,
  // counter snapshot). Never move a TM with scans in flight.
  TrustedMachine(TrustedMachine&& other) noexcept
      : prf_(std::move(other.prf_)),
        crypter_(std::move(other.crypter_)),
        trapdoor_cipher_(std::move(other.trapdoor_cipher_)),
        trapdoor_mac_(std::move(other.trapdoor_mac_)),
        verified_(std::move(other.verified_)),
        predicate_evals_(
            other.predicate_evals_.load(std::memory_order_relaxed)),
        value_decrypts_(other.value_decrypts_.load(std::memory_order_relaxed)),
        round_trips_(other.round_trips_.load(std::memory_order_relaxed)),
        latency_(other.latency_) {}

  /// The predicate entry, Θ's inner worker: one simulated round trip for a
  /// QPF round where every lane may carry its own trapdoor (the probe
  /// scheduler's fused rounds mix predicates from concurrent searches).
  /// cells[i] is the ciphertext the SP resolved for reqs[i] (the TM never
  /// reads reqs[i].tid); bit i is *reqs[i].td applied to cells[i], after
  /// verifying the trapdoor and decrypting the cell. Counts |cells|
  /// predicate evaluations but a single round trip. A forged trapdoor yields
  /// false for its own lanes only (and ok=false overall).
  BitVector EvalPredicateMulti(std::span<const ProbeRequest> reqs,
                               std::span<const EncValue* const> cells,
                               bool* ok = nullptr);

  /// Decrypts a cell inside the TM (used by the Logarithmic-SRC-i
  /// confirmation step and index maintenance). Counted separately.
  Value DecryptValue(const EncValue& cell);

  /// Configures an artificial per-TM-entry delay, in nanoseconds, to emulate
  /// hardware/transport latency. 0 (default) disables it. Short delays spin;
  /// delays above ~50µs genuinely sleep (common/latency.h). Charged through
  /// the TM's LatencyModel — the single simulation hook per backend entry —
  /// so serving this TM behind a real wire (net::QpfServer) never
  /// double-counts latency: zero the model when the transport is physical.
  void set_call_latency_ns(uint64_t ns) { latency_.set_ns(ns); }
  LatencyModel& latency_model() { return latency_; }
  const LatencyModel& latency_model() const { return latency_; }

  uint64_t predicate_evals() const {
    return predicate_evals_.load(std::memory_order_relaxed);
  }
  uint64_t value_decrypts() const {
    return value_decrypts_.load(std::memory_order_relaxed);
  }
  /// Number of TM entries: predicate entries plus value decrypts (the unit
  /// the simulated latency is charged per).
  uint64_t round_trips() const {
    return round_trips_.load(std::memory_order_relaxed);
  }
  /// Trapdoors currently held verified; never above kVerifiedCacheCapacity.
  size_t verified_cache_size() const;

  void ResetCounters() {
    predicate_evals_.store(0, std::memory_order_relaxed);
    value_decrypts_.store(0, std::memory_order_relaxed);
    round_trips_.store(0, std::memory_order_relaxed);
  }

 private:
  void SimulateLatency() const;
  /// Opens (or fetches from the verified cache) the plain form of `td`;
  /// empty on a forged trapdoor.
  std::optional<TrapdoorPayload> Open(const Trapdoor& td);
  /// Decrypt-and-compare of one cell under an opened trapdoor.
  bool Compare(const TrapdoorPayload& p, PredicateKind kind,
               const EncValue& cell) const;

  crypto::Prf prf_;
  ValueCrypter crypter_;
  crypto::AesCtr trapdoor_cipher_;
  crypto::HmacSha256 trapdoor_mac_;
  // Verified trapdoors, direct-mapped by uid: MAC verification happens once
  // per trapdoor, not once per tuple. A hit must match the whole trapdoor —
  // uid, attr, kind and sealed bytes — so a forged copy of a cached uid is
  // verified (and rejected) like any other. Guarded for parallel scan
  // workers.
  struct VerifiedSlot {
    bool valid = false;
    uint64_t uid = 0;
    AttrId attr = 0;
    PredicateKind kind = PredicateKind::kComparison;
    std::array<uint8_t, kTrapdoorBlobSize> blob{};
    TrapdoorPayload payload{};
  };
  mutable std::shared_mutex verified_mu_;
  std::vector<VerifiedSlot> verified_ =
      std::vector<VerifiedSlot>(kVerifiedCacheCapacity);
  std::atomic<uint64_t> predicate_evals_{0};
  std::atomic<uint64_t> value_decrypts_{0};
  std::atomic<uint64_t> round_trips_{0};
  LatencyModel latency_;
};

}  // namespace prkb::edbms

#endif  // PRKB_EDBMS_TRUSTED_MACHINE_H_
