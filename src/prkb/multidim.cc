// Multi-dimensional range processing, "PRKB(MD)" (paper Sec. 6.2).
//
// A d-dimensional range arrives as 2d comparison trapdoors (two per
// attribute). One QFilter per trapdoor classifies, for that trapdoor, every
// chain partition as sure-True, sure-False or Not-Sure. Projected onto the
// grid of Fig. 5 this yields:
//   - the central region (True under every trapdoor): answers with 0 QPF;
//   - sure-False rows/columns: pruned with 0 QPF (Fig. 6b);
//   - the NS bands: only their tuples are tested, each only against the
//     trapdoors that are still undecided for its cell (Fig. 7), with
//     per-tuple short-circuiting on the first 0 and the partition-level
//     early-stop inference of Sec. 6.2 (a non-homogeneous NS partition
//     implies its partner is homogeneous).
//
// updatePRKB afterwards: every trapdoor whose non-homogeneous partition was
// fully resolved contributes a split. In the paper's (lazy) mode a partition
// whose scan was cut short by cross-dimension pruning is left unsplit; the
// eager option (ablation) finishes such scans with extra QPF uses.
//
// Assembly is bitmap algebra over per-call scratch (docs/ALGORITHMS.md §4):
// partition labels are flat per-pid arrays, NS outcomes per-trapdoor
// seen/value bitmaps, and the winners are the band tuples found True under
// every trapdoor plus the central region — one intersection of per-chain
// sure-True bands. Winners come back in ascending tuple order.

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/bitvector.h"
#include "edbms/batch_scan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "prkb/selection.h"

namespace prkb::core {
namespace {

using edbms::AttrId;
using edbms::Trapdoor;
using edbms::TupleId;

/// PRKB(MD) telemetry: band_tuples is the NS-band candidate set the grid
/// yields; evals is the QPF spend after free-classification pruning
/// (docs/COST_MODEL.md).
struct MdMetrics {
  obs::Counter* invocations;
  obs::Counter* band_tuples;
  obs::Counter* evals;
  obs::Counter* pruned_free;

  static const MdMetrics& Get() {
    static const MdMetrics m = {
        obs::MetricsRegistry::Global().GetCounter("md.invocations"),
        obs::MetricsRegistry::Global().GetCounter("md.band_tuples"),
        obs::MetricsRegistry::Global().GetCounter("md.evals"),
        obs::MetricsRegistry::Global().GetCounter("md.pruned_free"),
    };
    return m;
  }
};

/// Per-trapdoor processing state. Everything here is per-call scratch: flat
/// arrays and bitmaps indexed by partition id or tuple id, no hashing.
struct PredCtx {
  const Trapdoor* td = nullptr;
  Pop* pop = nullptr;
  TrapdoorFp fp;
  QFilterResult filter;

  /// Known homogeneous QPF output per partition id — 1, 0, or -1 while
  /// unknown (sure-True / sure-False partitions from QFilter, plus labels
  /// learned during the query). Grows when Step 5 splits issue new ids.
  std::vector<int8_t> label;

  /// The (at most two) Not-Sure partitions.
  struct Ns {
    PartitionId pid = Pop::kNoPartition;
    /// Homogeneous label implied by the partner's non-homogeneity, or -1.
    int8_t known = -1;
    size_t t_count = 0, f_count = 0;
    /// Every observed (tuple, output) pair, in observation order.
    std::vector<std::pair<TupleId, bool>> outcomes;
  };
  Ns ns[2];
  int ns_count = 0;
  /// Observed outputs by tuple id: `seen` marks the tuples evaluated under
  /// this trapdoor, `value` holds their output bits. Sized only when the
  /// trapdoor has NS partitions.
  BitVector seen, value;

  bool outside_label(int idx) const {
    return idx == 0 ? filter.label_first : filter.label_last;
  }
  int NsIndexOf(PartitionId pid) const {
    for (int i = 0; i < ns_count; ++i) {
      if (ns[i].pid == pid) return i;
    }
    return -1;
  }
  int8_t LabelOf(PartitionId pid) const {
    return pid < label.size() ? label[pid] : int8_t{-1};
  }
  /// Records `l` for `pid` unless a label is already known.
  void EmplaceLabel(PartitionId pid, int8_t l) {
    if (pid >= label.size()) label.resize(pid + 1, -1);
    if (label[pid] == -1) label[pid] = l;
  }
};

/// Books one observed QPF output into the context: memoises the bit, updates
/// the partition's T/F tallies and fires the early-stop inference of Sec. 6.2
/// (a non-homogeneous NS partition implies its partner is homogeneous).
void RecordOutcome(PredCtx* pc, TupleId tid, bool out) {
  if (pc->seen.Get(tid)) return;  // already known
  const int idx = pc->NsIndexOf(pc->pop->partition_of(tid));
  assert(idx >= 0);
  PredCtx::Ns& ns = pc->ns[idx];
  pc->seen.Set(tid);
  pc->value.Assign(tid, out);
  ns.outcomes.emplace_back(tid, out);
  (out ? ns.t_count : ns.f_count)++;
  if (ns.t_count > 0 && ns.f_count > 0 && pc->ns_count == 2) {
    // This partition is the separating one; the partner is homogeneous with
    // its outside label (early-stop inference, Sec. 6.2).
    const int partner = 1 - idx;
    if (pc->ns[partner].known == -1) {
      pc->ns[partner].known = pc->outside_label(partner) ? 1 : 0;
    }
  }
}

/// Tri-state classification of `tid` under `pc` without spending QPF:
/// 1 sure-true, 0 sure-false, -1 needs evaluation.
int8_t ClassifyTuple(const PredCtx& pc, TupleId tid) {
  const PartitionId pid = pc.pop->partition_of(tid);
  if (const int8_t l = pc.LabelOf(pid); l != -1) return l;
  const int idx = pc.NsIndexOf(pid);
  if (idx < 0) return 0;  // not covered by this chain (defensive)
  if (pc.ns[idx].known != -1) return pc.ns[idx].known;
  if (pc.seen.Get(tid)) return pc.value.Get(tid) ? 1 : 0;
  return -1;
}

/// Step 3's per-chain slice of the central region: the chain positions
/// every trapdoor on the chain labels sure-True, and their tuple count.
struct ChainBand {
  const Pop* pop = nullptr;
  std::vector<uint8_t> in_band;  // by chain position
  size_t size = 0;

  /// Calls `fn` on every tuple inside (`inside`) or outside the band.
  template <typename Fn>
  void ForEachMember(bool inside, Fn&& fn) const {
    for (size_t pos = 0; pos < pop->k(); ++pos) {
      if ((in_band[pos] != 0) == inside) pop->members_at(pos).ForEach(fn);
    }
  }
};

/// Step 5's split grouping: one NS partition's outcomes by *current*
/// partition (a sibling trapdoor's split may have fragmented it).
struct OutcomeGroup {
  PartitionId pid = Pop::kNoPartition;
  std::vector<TupleId> t_members, f_members;
};

}  // namespace

std::vector<TupleId> PrkbIndex::RunMd(
    const std::vector<const Trapdoor*>& tds, const ProbeSchedOptions& sched) {
  assert(!tds.empty());
  const obs::ObsTracer::Span span("md.select");
  const MdMetrics& metrics = MdMetrics::Get();
  metrics.invocations->Add(1);
  const size_t num_rows = db_->num_rows();

  // ---- Step 1: QFilter every trapdoor; classify partitions. ----
  // The fast-path consult runs first so only cache-missing dimensions filter;
  // those filters then share probe rounds (FusedQFilters) — d dimensions pay
  // the max, not the sum, of their search round trips.
  Rng rng = OpRng();
  std::vector<PredCtx> preds(tds.size());
  std::vector<size_t> filtered;
  std::vector<FusedFilterReq> filter_reqs;
  for (size_t i = 0; i < tds.size(); ++i) {
    PredCtx& pc = preds[i];
    pc.td = tds[i];
    pc.pop = &pops_.at(tds[i]->attr);
    if (pc.pop->k() == 0) return {};
    pc.label.assign(pc.pop->pid_bound(), -1);
    if (options_.fast_path) {
      pc.fp = FingerprintTrapdoor(*tds[i]);
      if (const Pop::FastPathEntry* e = pc.pop->LookupFastPath(pc.fp)) {
        // Already-cut trapdoor: every partition classifies for free off its
        // own cut — sure-T on the satisfied side, sure-F on the other. No
        // QFilter, no NS pair, zero QPF for this dimension.
        CacheMetrics::Get().hits->Add(1);
        const Pop::Cut* cut = pc.pop->FindCut(e->cut_id);
        const size_t cpos = pc.pop->CutPos(*cut);
        for (size_t pos = 0; pos < pc.pop->k(); ++pos) {
          const bool label = (pos < cpos) == cut->left_label;
          pc.label[pc.pop->pid_at(pos)] = label ? 1 : 0;
        }
        pc.ns_count = 0;
        continue;
      }
      CacheMetrics::Get().misses->Add(1);
    }
    filtered.push_back(i);
    filter_reqs.push_back(FusedFilterReq{pc.pop, tds[i], &pc.filter});
  }
  FusedQFilters(filter_reqs, db_, &rng, sched);
  for (size_t i : filtered) {
    PredCtx& pc = preds[i];
    const size_t k = pc.pop->k();
    pc.ns[0].pid = pc.pop->pid_at(pc.filter.ns_a);
    pc.ns_count = 1;
    if (pc.filter.ns_b != pc.filter.ns_a) {
      pc.ns[1].pid = pc.pop->pid_at(pc.filter.ns_b);
      pc.ns_count = 2;
    }
    pc.seen.Resize(num_rows);
    pc.value.Resize(num_rows);
    for (size_t pos = 0; pos < k; ++pos) {
      if (pos == pc.filter.ns_a || pos == pc.filter.ns_b) continue;
      bool label;
      if (pc.filter.boundary_case) {
        // Middle partitions share the common end label.
        label = pc.filter.label_first;
      } else {
        label = pos < pc.filter.ns_a ? pc.filter.label_first
                                     : pc.filter.label_last;
      }
      pc.label[pc.pop->pid_at(pos)] = label ? 1 : 0;
    }
  }

  BitVector visited(num_rows);
  BitVector won(num_rows);
  const edbms::BatchPolicy policy = options_.scan_policy();
  // batch_size <= 1 is the paper's scalar model: one-tuple chunks, so every
  // evaluation is its own round trip, in the same order as a per-tuple loop.
  const size_t chunk = std::max<size_t>(policy.batch_size, 1);

  // ---- Step 2: test tuples in the NS bands (Fig. 6b / Fig. 7). ----
  // Each band is processed in chunks. Tuples of a chunk advance in lockstep
  // rounds — each round classifies every still-alive tuple, groups the ones
  // needing an evaluation by their first undecided trapdoor, and ships one
  // round trip per trapdoor. Per-tuple short-circuiting is preserved exactly
  // (a tuple rejected by round r is never evaluated in round r+1); the
  // partition-level early-stop inference fires with at most one chunk of
  // slack, because bits already in flight within a round are paid for.
  std::vector<TupleId> alive, waiting;
  std::vector<std::vector<TupleId>> need(preds.size());
  for (PredCtx& owner : preds) {
    for (int i = 0; i < owner.ns_count; ++i) {
      // Materialise: the iteration set is the membership at classification
      // time, in ascending tuple order.
      const std::vector<TupleId> members =
          owner.pop->members(owner.ns[i].pid).ToVector();
      for (size_t base = 0; base < members.size(); base += chunk) {
        const size_t end = std::min(members.size(), base + chunk);
        alive.clear();
        for (size_t m = base; m < end; ++m) {
          const TupleId tid = members[m];
          if (visited.Get(tid)) continue;
          visited.Set(tid);
          alive.push_back(tid);
        }
        metrics.band_tuples->Add(alive.size());
        // Rejections in a chunk's first round come from free sure-false
        // classes alone: no tuple of the chunk has been evaluated yet.
        bool first_round = true;
        while (!alive.empty()) {
          for (std::vector<TupleId>& n : need) n.clear();
          waiting.clear();
          uint64_t rejected_free = 0;
          for (TupleId tid : alive) {
            bool rejected = false;
            int first_undecided = -1;
            for (size_t p = 0; p < preds.size(); ++p) {
              const int8_t c = ClassifyTuple(preds[p], tid);
              if (c == 0) {
                rejected = true;
                break;
              }
              if (c == -1 && first_undecided < 0) {
                first_undecided = static_cast<int>(p);
              }
            }
            if (rejected) {
              rejected_free += first_round ? 1 : 0;
              continue;
            }
            if (first_undecided < 0) {
              won.Set(tid);  // sure-true under every trapdoor
              continue;
            }
            need[first_undecided].push_back(tid);
            waiting.push_back(tid);
          }
          metrics.pruned_free->Add(rejected_free);
          first_round = false;
          std::swap(alive, waiting);
          for (size_t p = 0; p < preds.size(); ++p) {
            if (need[p].empty()) continue;
            metrics.evals->Add(need[p].size());
            const std::vector<uint8_t> bits =
                edbms::ScanTuples(db_, *preds[p].td, need[p], policy);
            for (size_t j = 0; j < need[p].size(); ++j) {
              RecordOutcome(&preds[p], need[p][j], bits[j] != 0);
            }
          }
        }
      }
    }
  }

  // ---- Step 3: central region — sure-True under every trapdoor. ----
  // Per chain, the band is the union of the partitions that every trapdoor
  // on that chain labels sure-True; the region is the intersection of the
  // bands. Every queried chain covers the same tuples (the live rows; a
  // buffered dimension flushes before the grid runs), so intersecting with
  // a band equals clearing every tuple outside it: the smallest band seeds
  // the region and each other chain takes whichever side touches fewer
  // tuples. NS partitions carry no label yet, so they lie outside every
  // band; Step 2 decided their tuples one by one into `won`.
  std::vector<ChainBand> bands;
  for (const PredCtx& pc : preds) {
    auto b = std::find_if(
        bands.begin(), bands.end(),
        [&pc](const ChainBand& x) { return x.pop == pc.pop; });
    if (b == bands.end()) {
      b = bands.insert(bands.end(),
                       ChainBand{pc.pop, std::vector<uint8_t>(pc.pop->k(), 1)});
    }
    for (size_t pos = 0; pos < pc.pop->k(); ++pos) {
      if (pc.LabelOf(pc.pop->pid_at(pos)) != 1) b->in_band[pos] = 0;
    }
  }
  for (ChainBand& b : bands) {
    assert(b.pop->num_tuples() == bands.front().pop->num_tuples());
    for (size_t pos = 0; pos < b.pop->k(); ++pos) {
      if (b.in_band[pos]) b.size += b.pop->members_at(pos).Size();
    }
  }
  std::iter_swap(bands.begin(),
                 std::min_element(bands.begin(), bands.end(),
                                  [](const ChainBand& x, const ChainBand& y) {
                                    return x.size < y.size;
                                  }));
  BitVector central(num_rows);
  bands.front().ForEachMember(true, [&](TupleId t) { central.Set(t); });
  for (size_t c = 1; c < bands.size(); ++c) {
    const ChainBand& b = bands[c];
    if (b.size <= b.pop->num_tuples() - b.size) {
      BitVector band(num_rows);
      b.ForEachMember(true, [&](TupleId t) { band.Set(t); });
      central.And(band);
    } else {
      b.ForEachMember(false, [&](TupleId t) { central.Clear(t); });
    }
  }
  central.Or(won);
  std::vector<TupleId> result = central.ToIndices();

  // ---- Step 4 (optional, ablation): finish incomplete NS scans. ----
  // Chunk-granular early stop: the inference check runs between round
  // trips.
  if (options_.eager_md_update) {
    for (PredCtx& pc : preds) {
      for (int i = 0; i < pc.ns_count; ++i) {
        PredCtx::Ns& ns = pc.ns[i];
        if (ns.known != -1) continue;
        const std::vector<TupleId> members =
            pc.pop->members(ns.pid).ToVector();
        for (size_t base = 0; base < members.size() && ns.known == -1;
             base += chunk) {
          const size_t end = std::min(members.size(), base + chunk);
          std::vector<TupleId> missing;
          for (size_t m = base; m < end; ++m) {
            if (!pc.seen.Get(members[m])) missing.push_back(members[m]);
          }
          if (missing.empty()) continue;
          const std::vector<uint8_t> bits =
              edbms::ScanTuples(db_, *pc.td, missing, policy);
          for (size_t j = 0; j < missing.size(); ++j) {
            RecordOutcome(&pc, missing[j], bits[j] != 0);
          }
        }
      }
    }
  }

  // ---- Step 5: updatePRKB. ----
  for (PredCtx& pc : preds) {
    for (int i = 0; i < pc.ns_count; ++i) {
      PredCtx::Ns& ns = pc.ns[i];
      if (ns.known != -1) {
        pc.EmplaceLabel(ns.pid, ns.known);
        continue;
      }
      if (ns.t_count == 0 || ns.f_count == 0) {
        // Homogeneous as far as observed. Record the label only on full
        // coverage (an unscanned remainder could still differ).
        if (ns.outcomes.size() == pc.pop->members(ns.pid).Size()) {
          pc.EmplaceLabel(ns.pid, ns.t_count > 0 ? 1 : 0);
        }
        continue;
      }
      // Mixed. Group outcomes by *current* partition: an earlier split (by
      // the sibling trapdoor of the same attribute) may have fragmented the
      // original NS partition.
      std::vector<OutcomeGroup> groups;
      for (const auto& [tid, out] : ns.outcomes) {
        const PartitionId pid = pc.pop->partition_of(tid);
        auto g = std::find_if(groups.begin(), groups.end(),
                              [pid](const OutcomeGroup& x) {
                                return x.pid == pid;
                              });
        if (g == groups.end()) g = groups.insert(groups.end(), {pid, {}, {}});
        (out ? g->t_members : g->f_members).push_back(tid);
      }
      // First pass: record the labels of fully-covered homogeneous groups —
      // they are the orientation evidence the mixed group needs, whatever
      // the group order.
      for (const OutcomeGroup& g : groups) {
        if (g.t_members.size() + g.f_members.size() !=
                pc.pop->members(g.pid).Size() ||
            (!g.t_members.empty() && !g.f_members.empty())) {
          continue;
        }
        pc.EmplaceLabel(g.pid, g.t_members.empty() ? 0 : 1);
      }
      for (OutcomeGroup& g : groups) {
        const PartitionId pid = g.pid;
        if (g.t_members.size() + g.f_members.size() !=
            pc.pop->members(pid).Size()) {
          continue;  // incomplete (lazy mode): cannot split safely
        }
        if (g.t_members.empty() || g.f_members.empty()) {
          continue;  // homogeneous: label recorded above
        }
        // The separating point is inside this fragment, so the partner NS
        // partition is homogeneous with its outside label.
        if (pc.ns_count == 2) {
          const int partner = 1 - i;
          pc.EmplaceLabel(pc.ns[partner].pid,
                          pc.outside_label(partner) ? 1 : 0);
        }
        // Orient against a neighbour with a known label for this trapdoor.
        const size_t pos = pc.pop->pos_of(pid);
        const int8_t left_label =
            pos > 0 ? pc.LabelOf(pc.pop->pid_at(pos - 1)) : int8_t{-1};
        const int8_t right_label = pos + 1 < pc.pop->k()
                                       ? pc.LabelOf(pc.pop->pid_at(pos + 1))
                                       : int8_t{-1};
        bool true_half_left;
        if (left_label != -1) {
          true_half_left = left_label == 1;
        } else if (right_label != -1) {
          true_half_left = right_label != 1;
        } else if (pc.pop->k() == 1) {
          true_half_left = false;  // first split: orientation is free
        } else {
          continue;  // no orientation evidence; leave unsplit
        }
        std::vector<TupleId> left =
            true_half_left ? std::move(g.t_members) : std::move(g.f_members);
        std::vector<TupleId> right =
            true_half_left ? std::move(g.f_members) : std::move(g.t_members);
        const uint64_t cut_id = pc.pop->SplitPartition(
            pid, std::move(left), std::move(right), *pc.td, true_half_left);
        // The split resolves this trapdoor's unique separating point, so the
        // whole chain now sides exactly on this cut — cacheable.
        if (options_.fast_path) pc.pop->RememberComparison(pc.fp, cut_id);
        // The halves now have known labels for every trapdoor that knew the
        // original partition; record ours and propagate the others.
        const PartitionId left_pid = pc.pop->pid_at(pos);
        pc.EmplaceLabel(left_pid, true_half_left ? 1 : 0);
        pc.EmplaceLabel(pid, true_half_left ? 0 : 1);
        for (PredCtx& other : preds) {
          // Partition ids are only meaningful within one chain: propagate to
          // the sibling trapdoors of the same attribute only.
          if (&other == &pc || other.pop != pc.pop) continue;
          if (const int8_t l = other.LabelOf(pid); l != -1) {
            other.EmplaceLabel(left_pid, l);
          }
        }
      }
    }
  }
  return result;
}

}  // namespace prkb::core
