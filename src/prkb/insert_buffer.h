#ifndef PRKB_PRKB_INSERT_BUFFER_H_
#define PRKB_PRKB_INSERT_BUFFER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/serial.h"
#include "common/status.h"
#include "edbms/types.h"

namespace prkb::core {

/// Per-chain unsorted insert buffer (DESIGN.md §14, after POPE): tuples whose
/// rows are stored in the EDBMS but whose chain placement is deferred until a
/// selection actually touches the attribute. Appends are O(1) and spend zero
/// QPF; a query either batch-scans the buffer (exactness) or flushes it
/// through one lock-step m-ary placement (amortised round trips).
///
/// Order matters: tuples are kept in append order, which is the order the
/// deferred placement replays them in — so a flush is byte-identical to the
/// eager placement sequence, and the WAL can reproduce the buffer verbatim
/// from its append records.
///
/// The buffer also keeps the *scan rent* of its current contents: the QPF
/// uses and round trips queries spent batch-scanning it since it was last
/// empty. The break-even route (docs/COST_MODEL.md) flushes once that rent
/// reaches the flush's one-off price. Rent is per-process routing state, not
/// knowledge: it is never encoded and resets whenever the buffer empties.
class InsertBuffer {
 public:
  /// Appends `tid`. Must not already be buffered.
  void Append(edbms::TupleId tid);

  /// Removes `tid` if buffered; returns whether it was. Append order of the
  /// remaining tuples is preserved. Amortised O(1): a removed slot is
  /// tombstoned and the order is compacted once tombstones outnumber live
  /// tuples, so draining a whole buffer (a flush, or its WAL replay) is
  /// linear in its size.
  bool Remove(edbms::TupleId tid);

  bool Contains(edbms::TupleId tid) const { return slot_.contains(tid); }
  size_t Size() const { return slot_.size(); }
  bool Empty() const { return slot_.empty(); }
  void Clear();

  /// Buffered tuples in append order.
  std::vector<edbms::TupleId> order() const;
  void AppendTo(std::vector<edbms::TupleId>* out) const;

  /// Charges one batch scan of the buffer: `uses` QPF uses over `trips`
  /// round trips. Thread-safe: shared-lock selections scan concurrently.
  void AddScanRent(uint64_t uses, uint64_t trips) const {
    rent_uses_.Add(uses);
    rent_trips_.Add(trips);
  }
  /// Scan rent paid since the buffer was last empty.
  uint64_t rent_uses() const { return rent_uses_.Get(); }
  uint64_t rent_trips() const { return rent_trips_.Get(); }

  /// Footprint for Pop::SizeBytes (Table 3 accounting).
  size_t SizeBytes() const;

  /// Deterministic: tuples encode in append order, which is part of the
  /// knowledge state (it fixes the deferred placement sequence).
  void EncodeTo(Encoder* enc) const;
  Status DecodeFrom(Decoder* dec);

 private:
  /// Marks a removed slot of `order_`; never a real tuple id.
  static constexpr edbms::TupleId kGone =
      std::numeric_limits<edbms::TupleId>::max();

  /// Relaxed atomic counter that copies by value, so the buffer (and Pop)
  /// stay copyable and movable.
  class RentCounter {
   public:
    RentCounter() = default;
    RentCounter(const RentCounter& o) : v_(o.Get()) {}
    RentCounter& operator=(const RentCounter& o) {
      v_.store(o.Get(), std::memory_order_relaxed);
      return *this;
    }
    void Add(uint64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
    uint64_t Get() const { return v_.load(std::memory_order_relaxed); }
    void Reset() { v_.store(0, std::memory_order_relaxed); }

   private:
    std::atomic<uint64_t> v_{0};
  };

  void Compact();

  std::vector<edbms::TupleId> order_;  // append order; kGone = removed
  std::unordered_map<edbms::TupleId, uint32_t> slot_;  // tid -> order_ index
  mutable RentCounter rent_uses_;
  mutable RentCounter rent_trips_;
};

}  // namespace prkb::core

#endif  // PRKB_PRKB_INSERT_BUFFER_H_
