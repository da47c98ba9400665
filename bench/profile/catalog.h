#ifndef PRKB_BENCH_PROFILE_CATALOG_H_
#define PRKB_BENCH_PROFILE_CATALOG_H_

// The benchmark's fixed vocabulary, shared by bench_profile (which emits
// these names) and bench_profile_compare (which judges them and generates
// BENCHMARK.json from them). Changing a name, unit, direction or bound here
// is a benchmark change: it re-baselines every later comparison.

#include <cstddef>
#include <string>
#include <vector>

namespace prkb::bench::profile {

/// Seconds one measured run lasts when the benchmark is driven through
/// BENCHMARK.json's command.
inline constexpr int kRunSeconds = 15;

/// Fixed absolute arrival rate (ops/s) of serve-remote-rtt's open-loop
/// phase. Fixed, not derived per run, so a faster server shows up as lower
/// latency at the same offered load (about half the closed-loop rate the
/// reference runs measured; see README.md). A macro so the workload's `why`
/// line, which BENCHMARK.json commits, quotes the same number.
#define PRKB_PROFILE_OPEN_RATE 400
#define PRKB_PROFILE_STR_(x) #x
#define PRKB_PROFILE_STR(x) PRKB_PROFILE_STR_(x)
inline constexpr double kServeOpenRate = PRKB_PROFILE_OPEN_RATE;

struct WorkloadInfo {
  const char* name;
  /// One line: why the workload exists and which layers do its work.
  const char* why;
  /// Workload holds its index constant: any chain split in the measured
  /// phase is a broken steady state.
  bool static_chain;
  /// One client over a static chain: QPF uses and round trips per selection
  /// repeat for a seed (see BoundOn), so any real change in them is a
  /// verdict.
  bool exact_counts;
};

inline constexpr WorkloadInfo kWorkloads[] = {
    {"sql-scan-local",
     "CPU floor: fresh SQL selections over a warm chain, in-process TM at "
     "zero latency; TM decrypt-and-compare and QScan assembly do the work",
     true, true},
    {"serve-remote-rtt",
     "TM behind loopback TCP at 300us with the round bus, 4 clients, closed "
     "loop then open loop at " PRKB_PROFILE_STR(PRKB_PROFILE_OPEN_RATE)
     " ops/s: round trips and round merging set latency",
     true, false},
    {"write-mixed-durable",
     "40% buffered inserts and 5% deletes beside reads, fsync per op: insert "
     "buffer scan vs flush, WAL append and store writes; shows a read gain "
     "that costs writes",
     false, false},
    {"repeat-hot-local",
     "95% byte-identical Zipf repeats at 300us TM latency: fast-path cache "
     "and shared locks do the work; p99 is repeats queued behind fresh "
     "selections",
     true, false},
};

enum class Better { kLower, kHigher };

inline const char* BetterName(Better b) {
  return b == Better::kLower ? "lower" : "higher";
}

struct MetricInfo {
  const char* name;
  const char* unit;
  Better better;
  /// Allowed relative worsening of the median before a change counts as a
  /// regression (0 = any worsening).
  double bound;
  /// Listed in BENCHMARK.json, so a change that worsens the median by more
  /// than the bound is rejected across commits. A gated metric is emitted,
  /// never 0, by every workload, and its spread between seeds stays inside
  /// its bound. The rest are judged by bench_profile_compare alone: insert
  /// latency exists only on write-mixed-durable, failed_frac is 0 on a good
  /// run, and select_p99_ms on serve-remote-rtt rides on host scheduling
  /// hiccups (see README.md).
  bool gated;
};

/// End-to-end metrics: what a user of the system sees. Measured with the
/// tracer off.
inline constexpr MetricInfo kEndToEnd[] = {
    {"ops_per_s", "ops/s", Better::kHigher, 0.25, true},
    {"select_p50_ms", "ms", Better::kLower, 0.25, true},
    {"select_p90_ms", "ms", Better::kLower, 0.25, true},
    {"select_p99_ms", "ms", Better::kLower, 0.25, false},
    {"insert_p50_ms", "ms", Better::kLower, 0.25, false},
    {"insert_p99_ms", "ms", Better::kLower, 0.25, false},
    {"qpf_per_select", "uses/select", Better::kLower, 0.10, true},
    {"trips_per_select", "trips/select", Better::kLower, 0.10, true},
    {"setup_s", "s", Better::kLower, 0.25, true},
    {"index_bytes_per_row", "B/row", Better::kLower, 0.10, true},
    {"peak_rss_mb", "MiB", Better::kLower, 0.15, true},
    {"failed_frac", "frac", Better::kLower, 0.0, false},
};

/// Per-layer metrics from registry deltas over the measured phase (every
/// run) and from the traced rerun (span self times, overhead, drops). Every
/// workload emits every name; a layer a workload bypasses reads 0.
struct LayerInfo {
  const char* name;
  const char* unit;
  Better better;
};

inline constexpr LayerInfo kPerLayer[] = {
    {"query.plan_us", "us", Better::kLower},
    {"exec.buffer_flush_per_select", "1/select", Better::kLower},
    {"exec.buffer_scan_per_select", "1/select", Better::kLower},
    {"cal.rt_latency_us", "us", Better::kLower},
    {"prkb.index_us_per_op", "us/op", Better::kLower},
    {"prkb.lock_wait_us_per_op", "us/op", Better::kLower},
    {"prkb.cache_hit_frac", "frac", Better::kHigher},
    {"prkb.splits_measured", "count", Better::kLower},
    {"qfilter.rounds_per_select", "1/select", Better::kLower},
    {"qfilter.probes_per_select", "1/select", Better::kLower},
    {"probe_sched.spec_waste_frac", "frac", Better::kLower},
    {"qscan.tuples_per_select", "1/select", Better::kLower},
    {"update.evals_per_insert", "1/insert", Better::kLower},
    {"update.buffer.flush_batch_mean", "tuples", Better::kHigher},
    {"wal.fsyncs_per_op", "1/op", Better::kLower},
    {"wal.bytes_per_insert", "B/insert", Better::kLower},
    {"memberset.bytes_per_row", "B/row", Better::kLower},
    {"qpf.us_per_select", "us/select", Better::kLower},
    {"tm.ns_per_eval", "ns", Better::kLower},
    {"qpf.batch_tuples_mean", "tuples", Better::kHigher},
    {"tm.entries_per_select", "1/select", Better::kLower},
    {"coalesce.factor", "rounds/entry", Better::kHigher},
    {"coalesce.linger_us", "us", Better::kLower},
    {"net.overhead_us_per_trip", "us", Better::kLower},
    {"net.bytes_per_trip", "B/trip", Better::kLower},
    {"net.errors", "count", Better::kLower},
    {"gen.late_p99_ms", "ms", Better::kLower},
    {"trace.overhead_frac", "frac", Better::kLower},
    {"trace.dropped", "count", Better::kLower},
};

/// Spans whose self time and count per operation the traced run reports as
/// `span.<name>.self_us_per_op` / `span.<name>.count_per_op`. The bench.*
/// roots wrap each call into a public entry point; a root's self time is the
/// part of the operation no program span covers.
inline constexpr const char* kSpanNames[] = {
    "bench.select",          "bench.insert",
    "bench.delete",          "bench.explain",
    "prkb.select",           "prkb.select_sdplus",
    "md.select",             "between.select",
    "qfilter.mary_search",   "probe_sched.fused_filters",
    "qscan.ns_pair",         "update.buffer_flush",
    "update.batch_place",    "exec.fast_path_lookup",
    "exec.apply_split",
};

inline std::string SpanSelfMetric(const std::string& span) {
  return "span." + span + ".self_us_per_op";
}
inline std::string SpanCountMetric(const std::string& span) {
  return "span." + span + ".count_per_op";
}

/// Every per-layer metric: the kPerLayer table plus two per span.
struct NamedMetric {
  std::string name;
  std::string unit;
  Better better;
};
inline std::vector<NamedMetric> PerLayerMetrics() {
  std::vector<NamedMetric> out;
  for (const LayerInfo& m : kPerLayer) {
    out.push_back({m.name, m.unit, m.better});
  }
  for (const char* s : kSpanNames) {
    out.push_back({SpanSelfMetric(s), "us/op", Better::kLower});
    out.push_back({SpanCountMetric(s), "1/op", Better::kLower});
  }
  return out;
}

inline const MetricInfo* FindEndToEnd(const std::string& name) {
  for (const MetricInfo& m : kEndToEnd) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

/// The bound `m` is judged by on `w`: 0.1% for the counts `w` repeats
/// exactly. Not 0, because a host stall can push the calibrator's fitted
/// round-trip latency over the planner's fan-out floor, after which a few
/// statements plan another probe fan-out and the counts move in the fifth
/// digit.
inline double BoundOn(const MetricInfo& m, const WorkloadInfo& w) {
  const std::string name = m.name;
  if (w.exact_counts &&
      (name == "qpf_per_select" || name == "trips_per_select")) {
    return 0.001;
  }
  return m.bound;
}

inline const WorkloadInfo* FindWorkload(const std::string& name) {
  for (const WorkloadInfo& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace prkb::bench::profile

#endif  // PRKB_BENCH_PROFILE_CATALOG_H_
