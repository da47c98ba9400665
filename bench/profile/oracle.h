#ifndef PRKB_BENCH_PROFILE_ORACLE_H_
#define PRKB_BENCH_PROFILE_ORACLE_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "edbms/table.h"
#include "edbms/types.h"

namespace prkb::bench::profile {

/// A selection's answer reduced to what the benchmark checks: the number of
/// winners and an order-independent 64-bit hash of their tuple ids.
struct Answer {
  uint64_t count = 0;
  uint64_t hash = 0;
  bool operator==(const Answer&) const = default;
};

/// Summed per-tuple mix: equal sets hash equal in any order, and a missing,
/// extra or duplicated tuple changes the sum.
uint64_t HashRows(const std::vector<edbms::TupleId>& rows);

/// Plaintext ground truth for a table: each column sorted, with prefix
/// counts and prefix hashes, so a one-attribute range answer costs two
/// binary searches and never touches the timed window.
class Oracle {
 public:
  explicit Oracle(const edbms::PlainTable& plain);

  bool IsStored(edbms::AttrId attr, edbms::Value v) const;
  /// Tuples whose `attr` value lies in [lo, hi].
  Answer Range(edbms::AttrId attr, edbms::Value lo, edbms::Value hi) const;
  Answer Less(edbms::AttrId attr, edbms::Value c) const;
  Answer Greater(edbms::AttrId attr, edbms::Value c) const;

  /// `attr` constants that equal no stored value and are pairwise separated
  /// by at least one stored value, in ascending order: answering each once
  /// as `attr < c` carves one cut per constant, after which any trapdoor
  /// over them (`<`, `>`, BETWEEN) lands on an existing cut and splits
  /// nothing. Fewer than `n` when the column has too few distinct values.
  std::vector<edbms::Value> PoolConstants(edbms::AttrId attr, size_t n,
                                          Rng* rng) const;

 private:
  struct Column {
    std::vector<edbms::Value> sorted;
    /// prefix_hash[i] = sum of the tuple mixes of sorted[0, i).
    std::vector<uint64_t> prefix_hash;
  };
  std::vector<Column> cols_;
};

}  // namespace prkb::bench::profile

#endif  // PRKB_BENCH_PROFILE_ORACLE_H_
