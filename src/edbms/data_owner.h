#ifndef PRKB_EDBMS_DATA_OWNER_H_
#define PRKB_EDBMS_DATA_OWNER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/cipher.h"
#include "crypto/hmac.h"
#include "crypto/prf.h"
#include "edbms/encryption.h"
#include "edbms/table.h"
#include "edbms/types.h"

namespace prkb::edbms {

/// The data owner (DO). Holds the master key, performs application-level
/// encryption of tuples, and issues trapdoors for queries. The DO is *not*
/// involved in building or using the PRKB (the paper's headline property) —
/// it only does what any EDBMS client does: encrypt data and send queries.
class DataOwner {
 public:
  /// Derives all working keys from a seed (stands in for key provisioning).
  explicit DataOwner(uint64_t master_seed);

  /// --- Data upload -------------------------------------------------------

  /// Encrypts one row (fresh nonce per cell).
  std::vector<EncValue> EncryptRow(const std::vector<Value>& row);

  /// Encrypts a whole plaintext table into a new EncryptedTable.
  EncryptedTable EncryptTable(const PlainTable& plain);

  /// --- Query issue -------------------------------------------------------

  /// Issues a trapdoor for the comparison predicate 'attr op c'.
  Trapdoor MakeComparison(AttrId attr, CompareOp op, Value c);

  /// Issues a trapdoor for 'attr BETWEEN lo AND hi' (inclusive).
  Trapdoor MakeBetween(AttrId attr, Value lo, Value hi);

  /// --- Client-side utilities --------------------------------------------

  /// Decrypts a value (used when the DO consumes query answers and by test
  /// oracles; never available to the SP).
  Value DecryptValue(const EncValue& ev) const { return crypter_.Decrypt(ev); }

  /// Plain form of a trapdoor this DO issued, recovered by opening its
  /// sealed blob with the DO's own keys — so the DO keeps no per-trapdoor
  /// state. Empty on a forged or foreign trapdoor. Used by the SDB-style MPC
  /// endpoint; safe to call concurrently with issuing.
  std::optional<PlainPredicate> OpenPredicate(const Trapdoor& td) const;

  /// Additive mask for SDB-style secret sharing of cell (attr, tid): the DO
  /// can regenerate its share from the PRF instead of storing it (the paper
  /// notes SDB's RSA-like share generation serves the same purpose).
  uint64_t ShareMask(AttrId attr, TupleId tid) const;

  /// Key material shared with the trusted machine during provisioning.
  uint64_t master_seed() const { return master_seed_; }

 private:
  Trapdoor Issue(AttrId attr, PredicateKind kind, const TrapdoorPayload& p);

  uint64_t master_seed_;
  crypto::Prf prf_;
  ValueCrypter crypter_;
  crypto::AesCtr trapdoor_cipher_;
  crypto::HmacSha256 trapdoor_mac_;
  uint64_t next_nonce_ = 1;
  uint64_t next_uid_ = 1;
};

}  // namespace prkb::edbms

#endif  // PRKB_EDBMS_DATA_OWNER_H_
