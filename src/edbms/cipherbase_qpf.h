#ifndef PRKB_EDBMS_CIPHERBASE_QPF_H_
#define PRKB_EDBMS_CIPHERBASE_QPF_H_

#include <vector>

#include "edbms/data_owner.h"
#include "edbms/edbms.h"
#include "edbms/table.h"
#include "edbms/trusted_machine.h"

namespace prkb::edbms {

/// Cipherbase/TrustedDB-style EDBMS: encrypted cells at the SP, QPF realised
/// by shipping (trapdoor, ciphertext) into a trusted machine that decrypts
/// and compares (Sec. 2.1, first approach). This is the backend the paper's
/// experiments model.
class CipherbaseEdbms : public Edbms {
 public:
  /// Builds an empty instance with `num_attrs` columns.
  CipherbaseEdbms(uint64_t master_seed, size_t num_attrs);

  /// Bulk-load helper: encrypts and uploads a whole plaintext table.
  static CipherbaseEdbms FromPlainTable(uint64_t master_seed,
                                        const PlainTable& plain);

  TupleId Insert(const std::vector<Value>& row) override;
  void Delete(TupleId tid) override;
  Trapdoor MakeComparison(AttrId attr, CompareOp op, Value c) override;
  Trapdoor MakeBetween(AttrId attr, Value lo, Value hi) override;

  size_t num_attrs() const override { return table_.num_attrs(); }
  size_t num_rows() const override { return table_.num_rows(); }
  bool IsLive(TupleId tid) const override { return table_.IsLive(tid); }
  size_t StoredBytes() const override { return table_.SizeBytes(); }

  /// Component access for code that models TM-assisted subsystems (SRC-i
  /// index maintenance, extension operators) and for tests.
  DataOwner& data_owner() { return do_; }
  TrustedMachine& trusted_machine() { return tm_; }
  const EncryptedTable& table() const { return table_; }

 private:
  BitVector DoEvalMany(std::span<const ProbeRequest> reqs) override;

  DataOwner do_;
  TrustedMachine tm_;
  EncryptedTable table_;
};

}  // namespace prkb::edbms

#endif  // PRKB_EDBMS_CIPHERBASE_QPF_H_
