#ifndef PRKB_EDBMS_ENCRYPTION_H_
#define PRKB_EDBMS_ENCRYPTION_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "crypto/cipher.h"
#include "crypto/prf.h"
#include "edbms/types.h"

namespace prkb::edbms {

/// A probabilistically encrypted attribute value: AES-128-CTR with a unique
/// 64-bit nonce. Two encryptions of equal plaintexts are unlinkable, so the
/// service provider learns nothing from ciphertexts alone — exactly the
/// EDBMS premise the paper builds on.
struct EncValue {
  uint64_t nonce = 0;
  uint64_t ct = 0;
};

/// Symmetric value encryption shared by the data owner (encrypts) and the
/// trusted machine (decrypts). Constructed from a derived AES key.
class ValueCrypter {
 public:
  explicit ValueCrypter(const crypto::Aes128::Key& key) : ctr_(key) {}

  /// Encrypts `v` under `nonce`. The caller guarantees nonce uniqueness.
  EncValue Encrypt(Value v, uint64_t nonce) const {
    return EncValue{nonce, ctr_.CryptWord(nonce, static_cast<uint64_t>(v))};
  }

  /// Recovers the plain value.
  Value Decrypt(const EncValue& ev) const {
    return static_cast<Value>(ctr_.CryptWord(ev.nonce, ev.ct));
  }

 private:
  crypto::AesCtr ctr_;
};

/// SP-visible encrypted predicate: the trapdoor the data owner hands over so
/// the QPF can evaluate the (hidden) predicate on encrypted tuples. The SP
/// sees the target attribute and the predicate *family* (Sec. 3.1), but the
/// operator and constants are sealed in `blob` (nonce || ct || MAC tag).
struct Trapdoor {
  AttrId attr = 0;
  PredicateKind kind = PredicateKind::kComparison;
  /// SP-visible handle; unique per issued trapdoor. Equality of uids does NOT
  /// imply predicate equivalence — that is only discoverable through QPF
  /// outputs (Def. 4.3).
  uint64_t uid = 0;
  std::vector<uint8_t> blob;
};

/// One lane of a QPF round (QpfOracle::EvalMany): which predicate to apply
/// to which tuple. A scan chunk fills a span of these with one trapdoor; the
/// probe scheduler (src/prkb/probe_sched.h) fills one per search round so
/// concurrent searches — the m−1 pivots of an m-ary QFilter, both BETWEEN
/// end-searches, every PRKB(MD) dimension — share a single round trip.
struct ProbeRequest {
  const Trapdoor* td;
  TupleId tid;
};

/// Byte layout of the sealed trapdoor payload.
struct TrapdoorPayload {
  CompareOp op;
  Value lo;
  Value hi;
};

inline constexpr size_t kTrapdoorNonceSize = 8;
inline constexpr size_t kTrapdoorCtSize = 17;  // op(1) + lo(8) + hi(8)
inline constexpr size_t kTrapdoorTagSize = 16;
inline constexpr size_t kTrapdoorBlobSize =
    kTrapdoorNonceSize + kTrapdoorCtSize + kTrapdoorTagSize;

/// Seals `payload` into a trapdoor blob (encrypt-then-MAC).
std::vector<uint8_t> SealTrapdoor(const crypto::AesCtr& cipher,
                                  const crypto::HmacSha256& mac, AttrId attr,
                                  PredicateKind kind, uint64_t nonce,
                                  const TrapdoorPayload& payload);

/// Verifies the MAC and opens the blob. Returns false on tampering.
bool OpenTrapdoor(const crypto::AesCtr& cipher, const crypto::HmacSha256& mac,
                  const Trapdoor& td, TrapdoorPayload* out);

/// Opens each distinct trapdoor of one multi-trapdoor entry once, however
/// many lanes carry it. Lanes usually come in runs of one trapdoor, so a run
/// costs a pointer compare per lane; the first trapdoor is held inline, and
/// only a second distinct one pays a hash lookup (and allocation). `T` is
/// the opened form; `open` returns std::optional<T>, empty for a forged
/// trapdoor.
template <typename T>
class OpenOncePerEntry {
 public:
  template <typename OpenFn>
  const std::optional<T>& Get(const Trapdoor* td, OpenFn&& open) {
    if (td == last_td_) return *last_;
    if (first_td_ == nullptr) {
      first_td_ = td;
      first_ = open(*td);
      last_ = &first_;
    } else if (td == first_td_) {
      last_ = &first_;
    } else {
      auto [it, fresh] = more_.try_emplace(td);
      if (fresh) it->second = open(*td);
      last_ = &it->second;
    }
    last_td_ = td;
    return *last_;
  }

  /// Distinct trapdoors seen so far in this entry.
  size_t distinct() const {
    return (first_td_ == nullptr ? 0 : 1) + more_.size();
  }

 private:
  const Trapdoor* last_td_ = nullptr;
  const std::optional<T>* last_ = nullptr;
  const Trapdoor* first_td_ = nullptr;
  std::optional<T> first_;
  std::unordered_map<const Trapdoor*, std::optional<T>> more_;
};

}  // namespace prkb::edbms

#endif  // PRKB_EDBMS_ENCRYPTION_H_
