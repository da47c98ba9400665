#include "prkb/insert_buffer.h"

#include <algorithm>
#include <cassert>

namespace prkb::core {

void InsertBuffer::Append(edbms::TupleId tid) {
  assert(tid != kGone);
  const bool inserted =
      slot_.emplace(tid, static_cast<uint32_t>(order_.size())).second;
  assert(inserted);
  (void)inserted;
  order_.push_back(tid);
}

bool InsertBuffer::Remove(edbms::TupleId tid) {
  const auto it = slot_.find(tid);
  if (it == slot_.end()) return false;
  order_[it->second] = kGone;
  slot_.erase(it);
  if (slot_.empty()) {
    Clear();
  } else if (2 * slot_.size() < order_.size()) {
    Compact();
  }
  return true;
}

void InsertBuffer::Compact() {
  size_t live = 0;
  for (edbms::TupleId tid : order_) {
    if (tid == kGone) continue;
    slot_[tid] = static_cast<uint32_t>(live);
    order_[live++] = tid;
  }
  order_.resize(live);
}

void InsertBuffer::Clear() {
  order_.clear();
  slot_.clear();
  rent_uses_.Reset();
  rent_trips_.Reset();
}

std::vector<edbms::TupleId> InsertBuffer::order() const {
  std::vector<edbms::TupleId> out;
  out.reserve(Size());
  AppendTo(&out);
  return out;
}

void InsertBuffer::AppendTo(std::vector<edbms::TupleId>* out) const {
  for (edbms::TupleId tid : order_) {
    if (tid != kGone) out->push_back(tid);
  }
}

size_t InsertBuffer::SizeBytes() const {
  return Size() * (sizeof(edbms::TupleId) + sizeof(edbms::TupleId));
}

void InsertBuffer::EncodeTo(Encoder* enc) const {
  enc->PutVarint(Size());
  for (edbms::TupleId tid : order_) {
    if (tid != kGone) enc->PutVarint(tid);
  }
}

Status InsertBuffer::DecodeFrom(Decoder* dec) {
  Clear();
  uint64_t n = 0;
  PRKB_RETURN_IF_ERROR(dec->GetVarint(&n));
  // Every tuple id takes at least one byte, so a corrupt count cannot make
  // the reservation outgrow the input.
  order_.reserve(std::min<uint64_t>(n, dec->remaining()));
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t tid = 0;
    PRKB_RETURN_IF_ERROR(dec->GetVarint(&tid));
    if (tid >= kGone) return Status::Corruption("buffered tuple id too large");
    if (Contains(static_cast<edbms::TupleId>(tid))) {
      return Status::Corruption("tuple buffered twice");
    }
    Append(static_cast<edbms::TupleId>(tid));
  }
  return Status::Ok();
}

}  // namespace prkb::core
