#include "edbms/data_owner.h"

namespace prkb::edbms {
namespace {

std::vector<uint8_t> SeedBytes(uint64_t seed) {
  std::vector<uint8_t> out(8);
  for (int i = 0; i < 8; ++i) out[i] = static_cast<uint8_t>(seed >> (8 * i));
  return out;
}

}  // namespace

DataOwner::DataOwner(uint64_t master_seed)
    : master_seed_(master_seed),
      prf_(SeedBytes(master_seed)),
      crypter_(prf_.DeriveAesKey("value-enc")),
      trapdoor_cipher_(prf_.DeriveAesKey("trapdoor-enc")),
      trapdoor_mac_(prf_.DeriveKey("trapdoor-mac")) {}

std::vector<EncValue> DataOwner::EncryptRow(const std::vector<Value>& row) {
  std::vector<EncValue> out;
  out.reserve(row.size());
  for (Value v : row) out.push_back(crypter_.Encrypt(v, next_nonce_++));
  return out;
}

EncryptedTable DataOwner::EncryptTable(const PlainTable& plain) {
  EncryptedTable enc(plain.num_attrs());
  std::vector<Value> row(plain.num_attrs());
  for (TupleId tid = 0; tid < plain.num_rows(); ++tid) {
    for (AttrId a = 0; a < plain.num_attrs(); ++a) row[a] = plain.at(a, tid);
    enc.Append(EncryptRow(row));
  }
  return enc;
}

Trapdoor DataOwner::Issue(AttrId attr, PredicateKind kind,
                          const TrapdoorPayload& p) {
  Trapdoor td;
  td.attr = attr;
  td.kind = kind;
  td.uid = next_uid_++;
  td.blob = SealTrapdoor(trapdoor_cipher_, trapdoor_mac_, attr, kind,
                         next_nonce_++, p);
  return td;
}

std::optional<PlainPredicate> DataOwner::OpenPredicate(
    const Trapdoor& td) const {
  TrapdoorPayload p;
  if (!OpenTrapdoor(trapdoor_cipher_, trapdoor_mac_, td, &p)) {
    return std::nullopt;
  }
  PlainPredicate plain;
  plain.attr = td.attr;
  plain.kind = td.kind;
  plain.op = p.op;
  plain.lo = p.lo;
  plain.hi = p.hi;
  return plain;
}

Trapdoor DataOwner::MakeComparison(AttrId attr, CompareOp op, Value c) {
  return Issue(attr, PredicateKind::kComparison,
               TrapdoorPayload{op, c, /*hi=*/0});
}

Trapdoor DataOwner::MakeBetween(AttrId attr, Value lo, Value hi) {
  return Issue(attr, PredicateKind::kBetween,
               TrapdoorPayload{CompareOp::kLt, lo, hi});
}

uint64_t DataOwner::ShareMask(AttrId attr, TupleId tid) const {
  return prf_.Eval64("sdb-share",
                     (static_cast<uint64_t>(attr) << 32) | tid);
}

}  // namespace prkb::edbms
