#include "oracle.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace prkb::bench::profile {
namespace {

using edbms::AttrId;
using edbms::TupleId;
using edbms::Value;

uint64_t TupleMix(TupleId tid) {
  // splitmix64 finaliser: spreads consecutive ids over the whole word.
  uint64_t z = static_cast<uint64_t>(tid) + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

uint64_t HashRows(const std::vector<TupleId>& rows) {
  uint64_t h = 0;
  for (const TupleId tid : rows) h += TupleMix(tid);
  return h;
}

Oracle::Oracle(const edbms::PlainTable& plain) : cols_(plain.num_attrs()) {
  const size_t n = plain.num_rows();
  std::vector<std::pair<Value, TupleId>> pairs(n);
  for (AttrId a = 0; a < plain.num_attrs(); ++a) {
    for (TupleId tid = 0; tid < n; ++tid) pairs[tid] = {plain.at(a, tid), tid};
    std::sort(pairs.begin(), pairs.end());
    Column& col = cols_[a];
    col.sorted.resize(n);
    col.prefix_hash.resize(n + 1);
    for (size_t i = 0; i < n; ++i) {
      col.sorted[i] = pairs[i].first;
      col.prefix_hash[i + 1] = col.prefix_hash[i] + TupleMix(pairs[i].second);
    }
  }
}

bool Oracle::IsStored(AttrId attr, Value v) const {
  const std::vector<Value>& s = cols_[attr].sorted;
  return std::binary_search(s.begin(), s.end(), v);
}

Answer Oracle::Range(AttrId attr, Value lo, Value hi) const {
  if (lo > hi) return Answer{};
  const Column& col = cols_[attr];
  const auto b = std::lower_bound(col.sorted.begin(), col.sorted.end(), lo) -
                 col.sorted.begin();
  const auto e = std::upper_bound(col.sorted.begin(), col.sorted.end(), hi) -
                 col.sorted.begin();
  return Answer{static_cast<uint64_t>(e - b),
                col.prefix_hash[e] - col.prefix_hash[b]};
}

Answer Oracle::Less(AttrId attr, Value c) const {
  if (c == std::numeric_limits<Value>::min()) return Answer{};
  return Range(attr, std::numeric_limits<Value>::min(), c - 1);
}

Answer Oracle::Greater(AttrId attr, Value c) const {
  if (c == std::numeric_limits<Value>::max()) return Answer{};
  return Range(attr, c + 1, std::numeric_limits<Value>::max());
}

std::vector<Value> Oracle::PoolConstants(AttrId attr, size_t n,
                                         Rng* rng) const {
  // Gap i lies between the i-th and (i+1)-th distinct values; its constant
  // distinct[i] + 1 is unstored when the gap is wider than one. Distinct
  // gaps are separated by the stored value(s) between them.
  const std::vector<Value>& s = cols_[attr].sorted;
  std::vector<Value> distinct;
  for (const Value v : s) {
    if (distinct.empty() || distinct.back() != v) distinct.push_back(v);
  }
  std::vector<size_t> gaps;
  for (size_t i = 0; i + 1 < distinct.size(); ++i) {
    if (distinct[i + 1] - distinct[i] > 1) gaps.push_back(i);
  }
  rng->Shuffle(&gaps);
  gaps.resize(std::min(n, gaps.size()));
  std::sort(gaps.begin(), gaps.end());
  std::vector<Value> out;
  out.reserve(gaps.size());
  for (const size_t g : gaps) out.push_back(distinct[g] + 1);
  return out;
}

}  // namespace prkb::bench::profile
