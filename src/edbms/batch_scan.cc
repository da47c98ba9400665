#include "edbms/batch_scan.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace prkb::edbms {

std::vector<uint8_t> ScanTuples(QpfOracle* qpf, const Trapdoor& td,
                                std::span<const TupleId> tids,
                                const BatchPolicy& policy) {
  std::vector<uint8_t> out(tids.size());
  const size_t chunk = policy.batched() ? policy.batch_size : 1;
  const size_t num_chunks = (tids.size() + chunk - 1) / chunk;
  auto run_chunk = [&](size_t c) {
    const size_t begin = c * chunk;
    const size_t len = std::min(chunk, tids.size() - begin);
    // Requests are built per chunk, so a whole-table scan holds one chunk's
    // worth at a time.
    std::vector<ProbeRequest> reqs;
    reqs.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      reqs.push_back(ProbeRequest{&td, tids[begin + i]});
    }
    const BitVector bits = qpf->EvalMany(reqs);
    for (size_t i = 0; i < len; ++i) out[begin + i] = bits.Get(i) ? 1 : 0;
  };

  if (policy.batched() && policy.parallel() && num_chunks > 1) {
    // Each chunk writes a disjoint byte range of `out`; the oracle's own
    // counters are atomic, so chunks are independent tasks.
    ThreadPool::Shared().ParallelFor(num_chunks, run_chunk, policy.workers);
  } else {
    for (size_t c = 0; c < num_chunks; ++c) run_chunk(c);
  }
  return out;
}

}  // namespace prkb::edbms
