#include "common/bitvector.h"

#include <bit>
#include <cassert>

namespace prkb {

BitVector::BitVector(size_t n, bool value) { Resize(n, value); }

void BitVector::Resize(size_t n, bool value) {
  const size_t old_size = size_;
  size_ = n;
  words_.resize((n + 63) / 64, value ? ~0ULL : 0ULL);
  if (value && n > old_size) {
    // Bits between old_size and the end of its word must be raised.
    for (size_t i = old_size; i < n && (i & 63) != 0; ++i) Set(i);
  }
  ZeroTail();
}

void BitVector::ZeroTail() {
  const size_t tail = size_ & 63;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (1ULL << tail) - 1;
  }
}

size_t BitVector::Count() const {
  size_t n = 0;
  for (uint64_t w : words_) n += static_cast<size_t>(std::popcount(w));
  return n;
}

void BitVector::Reset() {
  for (auto& w : words_) w = 0;
}

std::vector<uint32_t> BitVector::ToIndices() const {
  std::vector<uint32_t> out(Count());
  uint32_t* next = out.data();
  for (size_t wi = 0; wi < words_.size(); ++wi) {
    uint64_t w = words_[wi];
    while (w != 0) {
      *next++ = static_cast<uint32_t>(wi * 64 + std::countr_zero(w));
      w &= w - 1;
    }
  }
  return out;
}

void BitVector::And(const BitVector& other) {
  assert(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
}

void BitVector::Or(const BitVector& other) {
  assert(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

}  // namespace prkb
