#include "edbms/cipherbase_qpf.h"

namespace prkb::edbms {

CipherbaseEdbms::CipherbaseEdbms(uint64_t master_seed, size_t num_attrs)
    : do_(master_seed), tm_(master_seed), table_(num_attrs) {}

CipherbaseEdbms CipherbaseEdbms::FromPlainTable(uint64_t master_seed,
                                                const PlainTable& plain) {
  CipherbaseEdbms db(master_seed, plain.num_attrs());
  std::vector<Value> row(plain.num_attrs());
  for (TupleId tid = 0; tid < plain.num_rows(); ++tid) {
    for (AttrId a = 0; a < plain.num_attrs(); ++a) row[a] = plain.at(a, tid);
    db.Insert(row);
  }
  return db;
}

TupleId CipherbaseEdbms::Insert(const std::vector<Value>& row) {
  return table_.Append(do_.EncryptRow(row));
}

void CipherbaseEdbms::Delete(TupleId tid) { table_.Tombstone(tid); }

Trapdoor CipherbaseEdbms::MakeComparison(AttrId attr, CompareOp op, Value c) {
  return do_.MakeComparison(attr, op, c);
}

Trapdoor CipherbaseEdbms::MakeBetween(AttrId attr, Value lo, Value hi) {
  return do_.MakeBetween(attr, lo, hi);
}

BitVector CipherbaseEdbms::DoEvalMany(std::span<const ProbeRequest> reqs) {
  // One TM entry per round (Cipherbase-style predicate batching): gather
  // each lane's ciphertext, then the TM decrypts and compares in bulk.
  std::vector<const EncValue*> cells;
  cells.reserve(reqs.size());
  for (const ProbeRequest& r : reqs) {
    cells.push_back(&table_.at(r.td->attr, r.tid));
  }
  return tm_.EvalPredicateMulti(reqs, cells);
}

}  // namespace prkb::edbms
