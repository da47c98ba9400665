#ifndef PRKB_EDBMS_REPLAY_H_
#define PRKB_EDBMS_REPLAY_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "edbms/edbms.h"

namespace prkb::edbms {

/// A log of everything the service provider observed from the QPF: which
/// trapdoor was applied to which tuple and the single output bit. This is,
/// by the paper's security argument (Sec. 3.3), the *complete* input from
/// which the PRKB is built — so an index rebuilt from the transcript alone
/// must be bit-identical to the live one. tests/replay_test.cc enforces
/// exactly that.
struct QpfTranscript {
  struct Entry {
    uint64_t trapdoor_uid;
    TupleId tid;
    bool output;
  };
  std::vector<Entry> entries;
};

/// Pass-through EDBMS wrapper that records every Θ evaluation.
class RecordingEdbms : public Edbms {
 public:
  RecordingEdbms(Edbms* inner, QpfTranscript* transcript)
      : inner_(inner), transcript_(transcript) {}

  TupleId Insert(const std::vector<Value>& row) override {
    return inner_->Insert(row);
  }
  void Delete(TupleId tid) override { inner_->Delete(tid); }
  Trapdoor MakeComparison(AttrId attr, CompareOp op, Value c) override {
    return inner_->MakeComparison(attr, op, c);
  }
  Trapdoor MakeBetween(AttrId attr, Value lo, Value hi) override {
    return inner_->MakeBetween(attr, lo, hi);
  }
  size_t num_attrs() const override { return inner_->num_attrs(); }
  size_t num_rows() const override { return inner_->num_rows(); }
  bool IsLive(TupleId tid) const override { return inner_->IsLive(tid); }
  size_t StoredBytes() const override { return inner_->StoredBytes(); }

 private:
  // Forward rounds as rounds (so the inner backend amortises its round
  // trip) while logging every observed bit in order.
  BitVector DoEvalMany(std::span<const ProbeRequest> reqs) override {
    BitVector out = inner_->EvalMany(reqs);
    for (size_t i = 0; i < reqs.size(); ++i) {
      transcript_->entries.push_back(
          QpfTranscript::Entry{reqs[i].td->uid, reqs[i].tid, out.Get(i)});
    }
    return out;
  }

  Edbms* inner_;
  QpfTranscript* transcript_;
};

/// Ciphertext-free EDBMS that answers Θ purely from a transcript. It holds
/// no keys and no data beyond observed bits — if an index built against it
/// matches the live index, the index provably depended on nothing else.
///
/// Insert/trapdoor issue are unsupported (the replayed run must re-use the
/// original run's trapdoors and geometry).
class ReplayEdbms : public Edbms {
 public:
  ReplayEdbms(size_t num_attrs, size_t num_rows,
              const QpfTranscript& transcript)
      : num_attrs_(num_attrs), num_rows_(num_rows) {
    for (const auto& e : transcript.entries) {
      outputs_[Key(e.trapdoor_uid, e.tid)] = e.output;
    }
  }

  /// Count of (trapdoor, tuple) pairs the replayed run asked for that the
  /// transcript did not contain. Must stay 0 for a faithful replay.
  uint64_t misses() const { return misses_; }

  TupleId Insert(const std::vector<Value>&) override {
    // Replay runs are read-only.
    return 0;
  }
  void Delete(TupleId) override {}
  Trapdoor MakeComparison(AttrId, CompareOp, Value) override { return {}; }
  Trapdoor MakeBetween(AttrId, Value, Value) override { return {}; }
  size_t num_attrs() const override { return num_attrs_; }
  size_t num_rows() const override { return num_rows_; }
  bool IsLive(TupleId) const override { return true; }
  size_t StoredBytes() const override { return 0; }

 private:
  static uint64_t Key(uint64_t uid, TupleId tid) {
    return uid * 0x100000000ULL + tid;
  }

  BitVector DoEvalMany(std::span<const ProbeRequest> reqs) override {
    BitVector out(reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
      const auto it = outputs_.find(Key(reqs[i].td->uid, reqs[i].tid));
      if (it == outputs_.end()) {
        ++misses_;
      } else {
        out.Assign(i, it->second);
      }
    }
    return out;
  }

  size_t num_attrs_;
  size_t num_rows_;
  std::unordered_map<uint64_t, bool> outputs_;
  uint64_t misses_ = 0;
};

}  // namespace prkb::edbms

#endif  // PRKB_EDBMS_REPLAY_H_
