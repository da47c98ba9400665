#include "harness.h"

#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string_view>
#include <thread>
#include <utility>

#include "catalog.h"
#include "common/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workloads.h"

namespace prkb::bench::profile {
namespace {

using Clock = std::chrono::steady_clock;

/// Operations per phase in --smoke mode (three phases at most: closed,
/// open, traced).
constexpr uint64_t kSmokeOps = 60;
/// Closed-loop throughput is taken per slice of this length.
constexpr double kSliceSeconds = 0.5;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// EXPLAIN statements timed after the traced phase (SQL workloads).
constexpr int kExplains = 64;
/// Trace ring bounds; the traced phase stops before the ring could wrap.
constexpr size_t kMinTraceEvents = size_t{1} << 16;
constexpr size_t kMaxTraceEvents = size_t{1} << 20;
constexpr size_t kTraceReservePerClient = 512;

double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

uint64_t Salt(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (const char c : s) h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
  return h;
}

// ---------------------------------------------------------------------------
// Registry deltas over a phase.

class RegistryWindow {
 public:
  void Begin() { before_ = obs::MetricsRegistry::Global().Snapshot(); }
  void End() { after_ = obs::MetricsRegistry::Global().Snapshot(); }

  double Counter(std::string_view name) const {
    return static_cast<double>(CounterIn(after_, name) -
                               CounterIn(before_, name));
  }
  double HistCount(std::string_view name) const {
    return static_cast<double>(Hist(after_, name).count -
                               Hist(before_, name).count);
  }
  double HistSum(std::string_view name) const {
    return static_cast<double>(Hist(after_, name).sum -
                               Hist(before_, name).sum);
  }
  double Gauge(std::string_view name) const {
    for (const auto& g : after_.gauges) {
      if (g.name == name) return static_cast<double>(g.value);
    }
    return 0;
  }

 private:
  static uint64_t CounterIn(const obs::MetricsSnapshot& s,
                            std::string_view name) {
    for (const auto& [n, v] : s.counters) {
      if (n == name) return v;
    }
    return 0;
  }
  static obs::HistogramSnapshot Hist(const obs::MetricsSnapshot& s,
                                     std::string_view name) {
    for (const auto& h : s.histograms) {
      if (h.name == name) return h;
    }
    return {};
  }

  obs::MetricsSnapshot before_;
  obs::MetricsSnapshot after_;
};

// ---------------------------------------------------------------------------
// Load generation.

/// What one phase recorded, merged over its clients.
struct PhaseLog {
  std::vector<double> select_ms;
  std::vector<double> insert_ms;
  /// Open loop: dispatch delay past both the scheduled arrival and the
  /// client's previous completion — lateness of the generator itself.
  std::vector<double> late_ms;
  /// Completion time of every op, in seconds since the phase began.
  std::vector<double> done_s;
  uint64_t ops = 0;
  uint64_t selects = 0;
  uint64_t inserts = 0;
  uint64_t wrong = 0;
  uint64_t errors = 0;
  /// Summed dispatch-to-completion time of every op.
  double busy_ns = 0;
  double wall_s = 0;
  /// Single client: QPF uses, round trips and selections over exactly the
  /// first PhaseSpec::count_window_ops operations (0 selections = the
  /// window never closed).
  double window_uses = 0;
  double window_trips = 0;
  uint64_t window_selects = 0;

  void Merge(const PhaseLog& o) {
    const auto append = [](std::vector<double>* a,
                           const std::vector<double>& b) {
      a->insert(a->end(), b.begin(), b.end());
    };
    append(&select_ms, o.select_ms);
    append(&insert_ms, o.insert_ms);
    append(&late_ms, o.late_ms);
    append(&done_s, o.done_s);
    ops += o.ops;
    selects += o.selects;
    inserts += o.inserts;
    wrong += o.wrong;
    errors += o.errors;
    busy_ns += o.busy_ns;
  }
};

struct PhaseSpec {
  double seconds = 0;
  /// > 0: open loop, Poisson arrivals at this total rate (ops/s).
  double open_rate = 0;
  uint64_t op_cap = 0;  // 0 = unlimited
  /// > 0: stop before the tracer's ring of this capacity could wrap.
  size_t trace_capacity = 0;
  uint64_t seed = 0;
  /// Single client only: run at least this many operations and count QPF
  /// uses and round trips over exactly them. Per-op counts follow the
  /// index's per-operation sampling sequence, so only a fixed op count makes
  /// their average repeat exactly for a seed.
  uint64_t count_window_ops = 0;
};

/// Runs the op, times it, and checks the answer outside the timed window.
void TimedOp(Deployment& d, size_t client, const Op& op,
             Clock::time_point phase_start, Clock::time_point latency_from,
             PhaseLog* log) {
  std::vector<edbms::TupleId> rows;
  const Clock::time_point t0 = Clock::now();
  const Status st = d.Run(client, op, &rows);
  const Clock::time_point t1 = Clock::now();
  ++log->ops;
  log->done_s.push_back(
      std::chrono::duration<double>(t1 - phase_start).count());
  log->busy_ns +=
      std::chrono::duration<double, std::nano>(t1 - t0).count();
  const double ms = Millis(t1 - latency_from);
  if (op.kind == OpKind::kSelect) {
    ++log->selects;
    log->select_ms.push_back(ms);
  } else if (op.kind == OpKind::kInsert) {
    ++log->inserts;
    log->insert_ms.push_back(ms);
  }
  if (!st.ok()) {
    ++log->errors;
    std::fprintf(stderr, "operation failed: %s\n", st.ToString().c_str());
    return;
  }
  if (op.kind != OpKind::kSelect) return;
  if (rows.size() != op.expect.count ||
      (op.check_hash && HashRows(rows) != op.expect.hash)) {
    ++log->wrong;
  }
}

PhaseLog RunPhase(Deployment& d, const Shape& shape, const PhaseSpec& spec) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(spec.seconds));
  std::atomic<uint64_t> issued{0};
  const obs::ObsTracer& tracer = obs::ObsTracer::Global();
  const uint64_t trace_reserve = kTraceReservePerClient * shape.clients;
  std::vector<PhaseLog> logs(shape.clients);
  const uint64_t window =
      shape.clients == 1 ? spec.count_window_ops : uint64_t{0};
  obs::Counter* const uses = obs::MetricsRegistry::Global().GetCounter(
      "qpf.uses");
  obs::Counter* const trips =
      obs::MetricsRegistry::Global().GetCounter("qpf.round_trips");
  const uint64_t uses0 = uses->value();
  const uint64_t trips0 = trips->value();
  // Open loop: one Poisson arrival stream shared by all clients — whichever
  // client is free takes the next arrival — so a slow operation delays
  // later arrivals only once every client is busy, as with independent
  // users, rather than queueing a per-client stream behind it.
  std::vector<double> arrivals_s;
  if (spec.open_rate > 0) {
    Rng rng(spec.seed ^ 0xA11CE);
    // Exponential inter-arrival; 1 - U keeps the log argument off zero.
    for (double t = 0;; arrivals_s.push_back(t)) {
      t += -std::log(1.0 - rng.UniformDouble()) / spec.open_rate;
      if (t >= spec.seconds) break;
    }
  }
  std::atomic<size_t> next_arrival{0};

  const auto client_loop = [&](size_t c) {
    PhaseLog& log = logs[c];
    Rng seq(spec.seed * 131 + c);
    Clock::time_point prev_done = start;
    while (true) {
      if (log.ops >= window && Clock::now() >= deadline) break;
      if (spec.op_cap > 0 && issued.fetch_add(1) >= spec.op_cap) break;
      if (spec.trace_capacity > 0 &&
          tracer.recorded() + trace_reserve > spec.trace_capacity) {
        break;
      }
      if (spec.open_rate <= 0) {
        const Op op = d.Next(c, &seq);
        TimedOp(d, c, op, start, Clock::now(), &log);
        if (log.ops == window) {
          log.window_uses = static_cast<double>(uses->value() - uses0);
          log.window_trips = static_cast<double>(trips->value() - trips0);
          log.window_selects = log.selects;
        }
        continue;
      }
      const size_t i = next_arrival.fetch_add(1);
      if (i >= arrivals_s.size()) break;
      const Op op = d.Next(c, &seq);
      const Clock::time_point sched =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(arrivals_s[i]));
      std::this_thread::sleep_until(sched);
      log.late_ms.push_back(Millis(Clock::now() - std::max(sched, prev_done)));
      TimedOp(d, c, op, start, sched, &log);
      prev_done = Clock::now();
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < shape.clients; ++c) {
    threads.emplace_back(client_loop, c);
  }
  for (std::thread& t : threads) t.join();

  PhaseLog out;
  out.window_uses = logs[0].window_uses;
  out.window_trips = logs[0].window_trips;
  out.window_selects = logs[0].window_selects;
  for (const PhaseLog& l : logs) out.Merge(l);
  out.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

double Percentile(const std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  Histogram h;
  for (const double x : v) h.Add(x);
  return h.Percentile(q);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Closed-loop throughput as the median over the phase's whole slices of
/// kSliceSeconds, so a transient stall of the host moves it less than a
/// whole-phase mean. Phases too short for three slices use the mean.
double MedianSliceRate(const PhaseLog& log) {
  const size_t slices = static_cast<size_t>(log.wall_s / kSliceSeconds);
  if (slices < 3) return Ratio(static_cast<double>(log.ops), log.wall_s);
  std::vector<double> counts(slices, 0);
  for (const double t : log.done_s) {
    const size_t i = static_cast<size_t>(t / kSliceSeconds);
    if (i < slices) counts[i] += 1;
  }
  return Percentile(counts, 50) / kSliceSeconds;
}

// ---------------------------------------------------------------------------
// Process memory.

/// The process's peak resident set since start, or since the last
/// ResetPeakRss().
double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Span self times.

struct SpanTotals {
  uint64_t count = 0;
  double self_ns = 0;
};

/// Per span name: occurrences and self time (duration minus the part of it
/// that child spans cover). Spans nest by time containment on their thread.
std::map<std::string, SpanTotals> SummarizeSpans(
    std::vector<obs::TraceEvent> events) {
  std::sort(events.begin(), events.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.dur_ns > b.dur_ns;  // parent before same-start child
            });
  std::vector<double> child_ns(events.size(), 0);
  std::vector<size_t> open;  // indices of enclosing spans, innermost last
  for (size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& e = events[i];
    if (i > 0 && events[i - 1].tid != e.tid) open.clear();
    while (!open.empty()) {
      const obs::TraceEvent& top = events[open.back()];
      if (e.start_ns + e.dur_ns <= top.start_ns + top.dur_ns) break;
      open.pop_back();
    }
    if (!open.empty()) child_ns[open.back()] += static_cast<double>(e.dur_ns);
    open.push_back(i);
  }
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < events.size(); ++i) {
    SpanTotals& t = out[events[i].name];
    ++t.count;
    t.self_ns +=
        std::max(0.0, static_cast<double>(events[i].dur_ns) - child_ns[i]);
  }
  return out;
}

}  // namespace

void ResetPeakRss() {
#ifdef __GLIBC__
  // Hand the previous workload's freed heap back first; the new peak starts
  // from the current resident set.
  malloc_trim(0);
#endif
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

WorkloadReport RunWorkload(const std::string& workload,
                           const RunOptions& opt) {
  WorkloadReport report;
  report.workload = workload;
  const auto add = [&report](const std::string& name, double value,
                             const std::string& unit, uint64_t samples = 0) {
    report.metrics.push_back(Metric{name, value, unit, samples});
  };
  const auto fail = [&report](const std::string& what) {
    report.violations.push_back(what);
  };
  Shape shape;
  if (!ShapeFor(workload, opt.smoke, &shape)) {
    fail("unknown workload " + workload);
    return report;
  }
  const WorkloadInfo* info = FindWorkload(workload);

  // Inputs: generated from the seed, outside every timed region.
  const uint64_t seed = opt.seed ^ Salt(workload);
  const Inputs in(shape, seed);
  for (size_t a = 0; a < shape.attrs; ++a) {
    if (in.pool[a].size() != shape.pool) {
      fail("attribute " + std::to_string(a) + " has only " +
               std::to_string(in.pool[a].size()) + " pool constants");
    }
    for (const edbms::Value c : in.pool[a]) {
      if (in.oracle.IsStored(static_cast<edbms::AttrId>(a), c)) {
        fail("pool constant " + std::to_string(c) +
                 " equals a stored value");
      }
    }
  }
  if (!report.violations.empty()) return report;

  // Set-up, several times; the last deployment is the one measured.
  const int setups = opt.smoke ? 1 : kSetups;
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> dep;
  for (int i = 0; i < setups; ++i) {
    dep.reset();
    const Clock::time_point t0 = Clock::now();
    Result<std::unique_ptr<Deployment>> built =
        Deployment::Create(in, opt.workdir);
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    if (!built.ok()) {
      fail("set-up failed: " + built.status().ToString());
      return report;
    }
    dep = std::move(built).value();
  }
  std::sort(setup_s.begin(), setup_s.end());

  // Measured phase: closed loop, then (serve-remote-rtt) open loop.
  const uint64_t cap = opt.smoke ? kSmokeOps : 0;
  RegistryWindow reg;
  reg.Begin();
  PhaseSpec closed_spec;
  closed_spec.seconds = opt.seconds * shape.closed_share;
  closed_spec.op_cap = cap;
  closed_spec.seed = seed;
  closed_spec.count_window_ops = opt.smoke ? 0 : shape.count_window_ops;
  const PhaseLog closed = RunPhase(*dep, shape, closed_spec);
  PhaseLog open;
  if (shape.closed_share < 1.0) {
    PhaseSpec open_spec;
    open_spec.seconds = opt.seconds - closed_spec.seconds;
    open_spec.open_rate = kServeOpenRate;
    open_spec.op_cap = cap;
    open_spec.seed = seed + 1;
    open = RunPhase(*dep, shape, open_spec);
  }
  reg.End();

  PhaseLog all = closed;
  all.Merge(open);
  const double lost = static_cast<double>(dep->LostWrites());
  const double failclosed = reg.Counter("net.client.failclosed");
  const double failed = static_cast<double>(all.wrong + all.errors) +
                        failclosed + lost;
  report.attempted = all.ops;
  report.failed = static_cast<uint64_t>(failed);
  if (all.wrong > 0) {
    fail(std::to_string(all.wrong) + " answers differ from the oracle");
  }
  const double splits = reg.Counter("prkb.splits");
  if (info->static_chain && splits > 0) {
    fail("steady state broken: " + std::to_string(splits) +
             " chain splits in the measured phase");
  }

  // End-to-end metrics.
  const PhaseLog& lat = shape.closed_share < 1.0 ? open : closed;
  const double selects = static_cast<double>(all.selects);
  const double ops = static_cast<double>(all.ops);
  const double inserts = static_cast<double>(all.inserts);
  const double rows = static_cast<double>(dep->LiveRows());
  const double closed_rate = MedianSliceRate(closed);
  add("ops_per_s", closed_rate, "ops/s");
  add("select_p50_ms", Percentile(lat.select_ms, 50), "ms",
          lat.select_ms.size());
  add("select_p90_ms", Percentile(lat.select_ms, 90), "ms",
          lat.select_ms.size());
  add("select_p99_ms", Percentile(lat.select_ms, 99), "ms",
          lat.select_ms.size());
  if (!all.insert_ms.empty()) {
    add("insert_p50_ms", Percentile(all.insert_ms, 50), "ms",
            all.insert_ms.size());
    add("insert_p99_ms", Percentile(all.insert_ms, 99), "ms",
            all.insert_ms.size());
  }
  const bool windowed = closed.window_selects > 0;
  const double uses =
      windowed ? closed.window_uses : reg.Counter("qpf.uses");
  const double trips =
      windowed ? closed.window_trips : reg.Counter("qpf.round_trips");
  const double counted =
      windowed ? static_cast<double>(closed.window_selects) : selects;
  add("qpf_per_select", Ratio(uses, counted), "uses/select",
          static_cast<uint64_t>(counted));
  add("trips_per_select", Ratio(trips, counted), "trips/select",
          static_cast<uint64_t>(counted));
  add("setup_s", setup_s[setup_s.size() / 2], "s", setup_s.size());
  add("index_bytes_per_row",
          Ratio(static_cast<double>(dep->IndexBytes()), rows), "B/row");
  add("peak_rss_mb", PeakRssMb(), "MiB");
  add("failed_frac", Ratio(failed, ops), "frac");

  // Per-layer metrics from the registry deltas of the measured phase.
  const double rt_ns = reg.HistSum("qpf.round_trip_ns");
  const double lock_ns = reg.HistSum("prkb.lock.wait_ns");
  const double hits = reg.Counter("prkb.cache.hits");
  const double misses = reg.Counter("prkb.cache.misses");
  const bool remote = shape.id == WorkloadId::kServeRemoteRtt;
  const double entries = reg.Counter("coalesce.entries");
  add("exec.buffer_flush_per_select",
          Ratio(reg.Counter("exec.buffer_flush"), selects), "1/select");
  add("exec.buffer_scan_per_select",
          Ratio(reg.Counter("exec.buffer_scan"), selects), "1/select");
  add("cal.rt_latency_us", reg.Gauge("cal.rt_latency_ns") / 1e3, "us");
  add("prkb.index_us_per_op",
          Ratio(std::max(0.0, all.busy_ns - rt_ns - lock_ns), ops) / 1e3,
          "us/op");
  add("prkb.lock_wait_us_per_op", Ratio(lock_ns, ops) / 1e3, "us/op");
  add("prkb.cache_hit_frac", Ratio(hits, hits + misses), "frac");
  add("prkb.splits_measured", splits, "count");
  add("qfilter.rounds_per_select",
          Ratio(reg.Counter("qfilter.rounds"), selects), "1/select");
  add("qfilter.probes_per_select",
          Ratio(reg.Counter("qfilter.probes"), selects), "1/select");
  add("probe_sched.spec_waste_frac",
          Ratio(reg.Counter("probe_sched.speculative_waste"),
                reg.Counter("probe_sched.speculative")),
          "frac");
  add("qscan.tuples_per_select",
          Ratio(reg.Counter("qscan.tuples_scanned"), selects), "1/select");
  add("update.evals_per_insert",
          Ratio(reg.Counter("update.evals"), inserts), "1/insert");
  add("update.buffer.flush_batch_mean",
          Ratio(reg.HistSum("update.buffer.flush_batch_size"),
                reg.HistCount("update.buffer.flush_batch_size")),
          "tuples");
  add("wal.fsyncs_per_op", Ratio(reg.Counter("wal.fsyncs"), ops), "1/op");
  add("wal.bytes_per_insert", Ratio(reg.Counter("wal.bytes"), inserts),
          "B/insert");
  // IndexBytes() above refreshed the membership gauge.
  add("memberset.bytes_per_row",
          Ratio(static_cast<double>(obs::MetricsRegistry::Global()
                                        .GetGauge("memberset.bytes")
                                        ->value()),
                rows),
          "B/row");
  add("qpf.us_per_select", Ratio(rt_ns, selects) / 1e3, "us/select");
  add("tm.ns_per_eval", Ratio(rt_ns, reg.Counter("tm.evals")), "ns");
  add("qpf.batch_tuples_mean",
          Ratio(reg.HistSum("qpf.batch_tuples"),
                reg.HistCount("qpf.batch_tuples")),
          "tuples");
  add("tm.entries_per_select", Ratio(reg.Counter("tm.entries"), selects),
          "1/select");
  add("coalesce.factor", Ratio(reg.Counter("coalesce.rounds"), entries),
          "rounds/entry");
  // Gauges are process-wide: read the bus's only where this run has one.
  add("coalesce.linger_us",
          remote ? reg.Gauge("coalesce.linger_ns") / 1e3 : 0.0, "us");
  add("net.overhead_us_per_trip",
          remote ? Ratio(rt_ns, reg.HistCount("qpf.round_trip_ns")) / 1e3 -
                       static_cast<double>(shape.tmlat_ns) / 1e3
                 : 0.0,
          "us");
  add("net.bytes_per_trip",
          remote ? Ratio(reg.Counter("net.bytes_sent"), entries) : 0.0,
          "B/trip");
  add("net.errors", reg.Counter("net.errors"), "count");
  add("gen.late_p99_ms", Percentile(open.late_ms, 99), "ms",
          open.late_ms.size());

  if (opt.trace_path.empty()) return report;

  // Traced rerun of the closed loop, for span self times. End-to-end
  // metrics never come from here.
  obs::ObsTracer& tracer = obs::ObsTracer::Global();
  const size_t capacity = std::clamp<size_t>(closed.ops * 12 + kMinTraceEvents,
                                             kMinTraceEvents, kMaxTraceEvents);
  tracer.Enable(capacity);
  PhaseSpec traced_spec = closed_spec;
  traced_spec.count_window_ops = 0;
  traced_spec.trace_capacity = capacity;
  PhaseLog traced = RunPhase(*dep, shape, traced_spec);
  double plan_us = 0;
  if (dep->sql()) {
    Rng rng(seed + 2);
    const int n = opt.smoke ? 8 : kExplains;
    for (int i = 0; i < n; ++i) {
      const Clock::time_point t0 = Clock::now();
      const Status st = dep->Explain(&rng);
      plan_us += std::chrono::duration<double, std::micro>(Clock::now() - t0)
                     .count();
      if (!st.ok()) ++traced.errors;
    }
    plan_us /= n;
  }
  tracer.Disable();
  const uint64_t dropped = tracer.dropped();
  if (!tracer.ExportChromeTrace(opt.trace_path)) {
    fail("cannot write trace " + opt.trace_path);
  }
  const std::map<std::string, SpanTotals> spans =
      SummarizeSpans(tracer.Snapshot());
  tracer.Enable(kMinTraceEvents);  // release the big ring
  tracer.Disable();

  report.attempted += traced.ops;
  report.failed += traced.wrong + traced.errors;
  if (traced.wrong > 0) {
    fail(std::to_string(traced.wrong) +
             " traced answers differ from the oracle");
  }
  if (dropped > 0) {
    fail("tracer dropped " + std::to_string(dropped) + " spans");
  }
  const double traced_ops = static_cast<double>(traced.ops);
  add("query.plan_us", plan_us, "us");
  add("trace.overhead_frac",
          closed_rate > 0 ? 1.0 - MedianSliceRate(traced) / closed_rate : 0.0,
          "frac");
  add("trace.dropped", static_cast<double>(dropped), "count");
  for (const char* name : kSpanNames) {
    const auto it = spans.find(name);
    const SpanTotals t = it == spans.end() ? SpanTotals{} : it->second;
    add(SpanSelfMetric(name), Ratio(t.self_ns, traced_ops) / 1e3, "us/op");
    add(SpanCountMetric(name),
            Ratio(static_cast<double>(t.count), traced_ops), "1/op");
  }
  return report;
}

}  // namespace prkb::bench::profile
