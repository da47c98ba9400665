#include "prkb/qfilter.h"

#include <cassert>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace prkb::core {
namespace {

/// QFilter() ships every probe on its own round trip, so its
/// round count equals its probe count.
void RecordCall(const QFilterMetrics& metrics, uint64_t probes) {
  metrics.probes->Add(probes);
  metrics.probes_per_call->Record(probes);
  metrics.rounds->Add(probes);
  metrics.rounds_per_call->Record(probes);
}

}  // namespace

const QFilterMetrics& QFilterMetrics::Get() {
  static const QFilterMetrics m = {
      obs::MetricsRegistry::Global().GetCounter("qfilter.invocations"),
      obs::MetricsRegistry::Global().GetCounter("qfilter.probes"),
      obs::MetricsRegistry::Global().GetCounter("qfilter.rounds"),
      obs::MetricsRegistry::Global().GetHistogram("qfilter.chain_k"),
      obs::MetricsRegistry::Global().GetHistogram("qfilter.probes_per_call"),
      obs::MetricsRegistry::Global().GetHistogram("qfilter.rounds_per_call"),
  };
  return m;
}

edbms::TupleId SamplePartition(const Pop& pop, size_t pos, Rng* rng) {
  const MemberSet& members = pop.members_at(pos);
  assert(!members.Empty());
  // Rank-select on the compressed set: no materialisation per probe.
  return members.Select(rng->UniformInt(0, members.Size() - 1));
}

QFilterResult QFilter(const Pop& pop, const edbms::Trapdoor& td,
                      edbms::QpfOracle* qpf, Rng* rng) {
  const size_t k = pop.k();
  assert(k >= 1);
  const obs::ObsTracer::Span span("qfilter.binary_search");
  const QFilterMetrics& metrics = QFilterMetrics::Get();
  metrics.invocations->Add(1);
  metrics.chain_k->Record(k);
  uint64_t probes = 0;
  auto probe = [&](size_t pos) {
    ++probes;
    return qpf->Eval(td, SamplePartition(pop, pos, rng));
  };
  QFilterResult out;

  if (k == 1) {
    // Degenerate POP₁: everything is the NS "pair"; QScan does a full scan.
    out.boundary_case = true;
    const bool label = probe(0);
    out.label_first = out.label_last = label;
    RecordCall(metrics, probes);
    return out;
  }

  const bool label1 = probe(0);
  const bool labelk = probe(k - 1);
  out.label_first = label1;
  out.label_last = labelk;

  if (label1 == labelk) {
    // Boundary case (lines 4-10): s = 1 or s = k; NS pair is <P₁, Pₖ>.
    out.boundary_case = true;
    out.ns_a = 0;
    out.ns_b = k - 1;
    if (label1) {
      // All middle partitions are T-homogeneous.
      out.win_begin = 1;
      out.win_end = k - 1;
    }
    RecordCall(metrics, probes);
    return out;
  }

  // Recursive case (lines 12-29): binary search maintaining
  // label(sample(a)) != label(sample(b)).
  size_t a = 0;
  size_t b = k - 1;
  bool label_a = label1;
  while (b - a > 1) {
    const size_t m = (a + b) / 2;
    const bool label_m = probe(m);
    if (label_m == label_a) {
      a = m;
      label_a = label_m;
    } else {
      b = m;
    }
  }
  out.ns_a = a;
  out.ns_b = b;
  if (label1) {
    // Positions [0, a) are T-homogeneous.
    out.win_begin = 0;
    out.win_end = a;
  } else {
    // Positions (b, k) are T-homogeneous.
    out.win_begin = b + 1;
    out.win_end = k;
  }
  RecordCall(metrics, probes);
  return out;
}

}  // namespace prkb::core
