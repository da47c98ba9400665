// Compares two sets of bench_profile result files: A (the parent) and B (the
// change). For every workload and end-to-end metric it prints each side's
// median and quartiles and a verdict:
//
//   better      B's median is better than A's by more than the metric's
//               bound — or A's spread exceeds the bound but every B run
//               beats every A run;
//   worse       B's median is worse than A's by more than the bound (any
//               worsening for a zero bound);
//   unresolved  A's own quartile spread exceeds the bound, so the bound
//               cannot be judged;
//   same        otherwise.
//
// Usage:
//
//   bench_profile_compare A1.json [A2.json ...] --vs B1.json [B2.json ...]
//       [--claim=<metric>@<workload>]...
//       [--emit-baseline=<BENCHMARK.json> --baseline-out=<path>]
//
// --claim applies the rule for claiming a gain: with the files given in
// run order, alternating A and B, B must win at least 9 of every 10 pairs
// (ties count for neither) and the medians must differ by more than A's
// quartile spread. --emit-baseline writes BENCHMARK.json from the catalogue
// (catalog.h) and --baseline-out the medians, spreads and verdicts of both
// sets. It refuses when any verdict is worse, since A and B are then two
// runs of the same code that disagree, and warns for every gated metric
// left unresolved (the host was too noisy to judge its bound).
//
// Exits non-zero on any worse verdict, a higher failed fraction, a failed
// claim, or a refused baseline. The parser is line-based: bench_profile
// writes one metric per line.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "catalog.h"

namespace prkb::bench::profile {
namespace {

/// (workload, metric) -> values, one per file in argument order.
using Series = std::map<std::pair<std::string, std::string>,
                        std::vector<double>>;

bool StringField(const std::string& line, const char* key, std::string* out) {
  const std::string k = std::string("\"") + key + "\": \"";
  const size_t at = line.find(k);
  if (at == std::string::npos) return false;
  const size_t b = at + k.size();
  const size_t e = line.find('"', b);
  if (e == std::string::npos) return false;
  *out = line.substr(b, e - b);
  return true;
}

bool NumberField(const std::string& line, const char* key, double* out) {
  const std::string k = std::string("\"") + key + "\": ";
  const size_t at = line.find(k);
  if (at == std::string::npos) return false;
  char* end = nullptr;
  *out = std::strtod(line.c_str() + at + k.size(), &end);
  return end != line.c_str() + at + k.size();
}

bool ReadResults(const std::string& path, Series* series) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::string line;
  size_t n = 0;
  while (std::getline(f, line)) {
    std::string workload, name;
    double value = 0;
    if (StringField(line, "workload", &workload) &&
        StringField(line, "name", &name) &&
        NumberField(line, "value", &value)) {
      (*series)[{workload, name}].push_back(value);
      ++n;
    }
  }
  if (n == 0) std::fprintf(stderr, "%s holds no metrics\n", path.c_str());
  return n > 0;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// First and third quartiles, interpolated exactly as Python's
/// statistics.quantiles(values, n=4) does by default.
std::pair<double, double> Quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld < 2) return {v[0], v[0]};
  const long m = ld + 1;
  double q[2];
  for (int i = 1; i <= 3; i += 2) {
    long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i / 2] = (v[j - 1] * static_cast<double>(4 - delta) +
                v[j] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1]};
}

struct Summary {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  double RelSpread() const {
    return median != 0 ? (q3 - q1) / std::fabs(median) : 0.0;
  }
};

Summary Summarize(const std::vector<double>& v) {
  const auto [q1, q3] = Quartiles(v);
  return Summary{Median(v), q1, q3};
}

/// How much worse b is than a, relative to a (negative = better).
double Worsening(const MetricInfo& m, double a, double b) {
  const double scale = a != 0 ? std::fabs(a) : 1.0;
  return (m.better == Better::kLower ? b - a : a - b) / scale;
}

bool Beats(const MetricInfo& m, double b, double a) {
  return m.better == Better::kLower ? b < a : b > a;
}

std::string Verdict(const MetricInfo& m, double bound,
                    const std::vector<double>& a,
                    const std::vector<double>& b) {
  const Summary sa = Summarize(a);
  const Summary sb = Summarize(b);
  if (sa.RelSpread() > bound) {
    bool all_beat = true;
    for (const double x : b) {
      for (const double y : a) all_beat = all_beat && Beats(m, x, y);
    }
    return all_beat ? "better" : "unresolved";
  }
  const double w = Worsening(m, sa.median, sb.median);
  if (w > bound) return "worse";
  if (-w > bound) return "better";
  return "same";
}

/// The gain rule for one claimed metric; prints its evidence.
bool ClaimHolds(const MetricInfo& m, const std::string& workload,
                const std::vector<double>& a, const std::vector<double>& b) {
  const size_t pairs = std::min(a.size(), b.size());
  size_t wins = 0;
  for (size_t i = 0; i < pairs; ++i) wins += Beats(m, b[i], a[i]) ? 1 : 0;
  const Summary sa = Summarize(a);
  const Summary sb = Summarize(b);
  const double gap = std::fabs(sb.median - sa.median);
  const bool ok = pairs > 0 && wins * 10 >= pairs * 9 &&
                  Beats(m, sb.median, sa.median) && gap > sa.q3 - sa.q1;
  std::printf("claim %s@%s: B wins %zu/%zu pairs, median gap %.6g vs A "
              "spread %.6g: %s\n",
              m.name, workload.c_str(), wins, pairs, gap, sa.q3 - sa.q1,
              ok ? "HOLDS" : "NOT MET");
  return ok;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

bool EmitBenchmarkJson(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"command\": [\"python3\", \"bench/profile/run.py\"],\n");
  std::fprintf(f, "  \"paths\": [\"bench/profile\"],\n");
  std::fprintf(f, "  \"run_seconds\": %d,\n", kRunSeconds);
  std::fprintf(f, "  \"workloads\": [\n");
  const size_t nw = std::size(kWorkloads);
  for (size_t i = 0; i < nw; ++i) {
    std::fprintf(f, "    {\"name\": \"%s\", \"why\": \"%s\"}%s\n",
                 kWorkloads[i].name, JsonEscape(kWorkloads[i].why).c_str(),
                 i + 1 < nw ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"end_to_end\": [\n");
  std::vector<const MetricInfo*> gated;
  for (const MetricInfo& m : kEndToEnd) {
    if (m.gated) gated.push_back(&m);
  }
  for (size_t i = 0; i < gated.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"unit\": \"%s\", \"better\": "
                 "\"%s\", \"bound\": %g}%s\n",
                 gated[i]->name, gated[i]->unit, BetterName(gated[i]->better),
                 gated[i]->bound, i + 1 < gated.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"per_layer\": [\n");
  const std::vector<NamedMetric> layer = PerLayerMetrics();
  for (size_t i = 0; i < layer.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"unit\": \"%s\", \"better\": "
                 "\"%s\"}%s\n",
                 layer[i].name.c_str(), layer[i].unit.c_str(),
                 BetterName(layer[i].better),
                 i + 1 < layer.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  return std::fclose(f) == 0;
}

struct Row {
  std::string workload;
  const MetricInfo* metric;
  Summary a;
  Summary b;
  std::string verdict;
};

/// Runs per workload in a set: the longest series.
size_t Runs(const Series& s) {
  size_t n = 0;
  for (const auto& [key, values] : s) n = std::max(n, values.size());
  return n;
}

bool EmitBaseline(const std::string& path, const std::vector<Row>& rows,
                  const Series& a, const Series& b) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"runs_per_workload\": [%zu, %zu],\n", Runs(a),
               Runs(b));
  std::fprintf(f, "  \"run_seconds\": %d,\n", kRunSeconds);
  std::fprintf(f, "  \"serve_open_rate\": %g,\n", kServeOpenRate);
  const auto it = a.find({"serve-remote-rtt", "ops_per_s"});
  if (it != a.end()) {
    std::fprintf(f, "  \"serve_closed_rate_median\": %.6g,\n",
                 Median(it->second));
  }
  std::fprintf(f, "  \"medians\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"name\": \"%s\", \"a_median\": "
                 "%.6g, \"a_q1\": %.6g, \"a_q3\": %.6g, \"b_median\": %.6g, "
                 "\"b_q1\": %.6g, \"b_q3\": %.6g, \"verdict\": \"%s\"}%s\n",
                 r.workload.c_str(), r.metric->name, r.a.median, r.a.q1,
                 r.a.q3, r.b.median, r.b.q1, r.b.q3, r.verdict.c_str(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  return std::fclose(f) == 0;
}

int Main(int argc, char** argv) {
  std::vector<std::string> files_a;
  std::vector<std::string> files_b;
  std::vector<std::pair<std::string, std::string>> claims;
  std::string emit_path;
  std::string baseline_path;
  bool after_vs = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--vs") == 0) {
      after_vs = true;
    } else if (std::strncmp(arg, "--claim=", 8) == 0) {
      const std::string c = arg + 8;
      const size_t at = c.find('@');
      if (at == std::string::npos) {
        std::fprintf(stderr, "--claim wants <metric>@<workload>\n");
        return 2;
      }
      claims.emplace_back(c.substr(0, at), c.substr(at + 1));
    } else if (std::strncmp(arg, "--emit-baseline=", 16) == 0) {
      emit_path = arg + 16;
    } else if (std::strncmp(arg, "--baseline-out=", 15) == 0) {
      baseline_path = arg + 15;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return 2;
    } else {
      (after_vs ? files_b : files_a).push_back(arg);
    }
  }
  if (files_a.empty() || files_b.empty()) {
    std::fprintf(stderr,
                 "usage: bench_profile_compare A.json... --vs B.json... "
                 "[--claim=<metric>@<workload>] "
                 "[--emit-baseline=<path> --baseline-out=<path>]\n");
    return 2;
  }
  Series a, b;
  for (const std::string& p : files_a) {
    if (!ReadResults(p, &a)) return 2;
  }
  for (const std::string& p : files_b) {
    if (!ReadResults(p, &b)) return 2;
  }

  std::vector<Row> rows;
  bool worse = false;
  bool unresolved = false;
  std::printf("%-20s %-20s %12s %12s %12s %12s %12s %12s  %s\n", "workload",
              "metric", "A median", "A q1", "A q3", "B median", "B q1",
              "B q3", "verdict");
  for (const WorkloadInfo& w : kWorkloads) {
    for (const MetricInfo& m : kEndToEnd) {
      const auto ia = a.find({w.name, m.name});
      const auto ib = b.find({w.name, m.name});
      if (ia == a.end() && ib == b.end()) continue;
      if (ia == a.end() || ib == b.end()) {
        std::printf("%-20s %-20s present in one set only: worse\n", w.name,
                    m.name);
        worse = true;
        continue;
      }
      Row r{w.name, &m, Summarize(ia->second), Summarize(ib->second),
            Verdict(m, BoundOn(m, w), ia->second, ib->second)};
      // A zero-bound metric (failed_frac) also fails on any B run above
      // every A run.
      if (m.bound == 0 &&
          *std::max_element(ib->second.begin(), ib->second.end()) >
              *std::max_element(ia->second.begin(), ia->second.end())) {
        r.verdict = "worse";
      }
      worse = worse || r.verdict == "worse";
      unresolved = unresolved || (m.gated && r.verdict == "unresolved");
      std::printf("%-20s %-20s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g  %s\n",
                  w.name, m.name, r.a.median, r.a.q1, r.a.q3, r.b.median,
                  r.b.q1, r.b.q3, r.verdict.c_str());
      rows.push_back(std::move(r));
    }
  }

  bool claims_ok = true;
  for (const auto& [metric, workload] : claims) {
    const MetricInfo* m = FindEndToEnd(metric);
    const auto ia = a.find({workload, metric});
    const auto ib = b.find({workload, metric});
    if (m == nullptr || ia == a.end() || ib == b.end()) {
      std::printf("claim %s@%s: no such metric in both sets: NOT MET\n",
                  metric.c_str(), workload.c_str());
      claims_ok = false;
      continue;
    }
    claims_ok = ClaimHolds(*m, workload, ia->second, ib->second) && claims_ok;
  }

  if (!emit_path.empty()) {
    if (worse) {
      std::fprintf(stderr,
                   "refusing to emit a baseline: the two sets disagree\n");
      return 1;
    }
    if (unresolved) {
      std::fprintf(stderr,
                   "warning: gated metrics left unresolved; their spread "
                   "within a set exceeds the bound\n");
    }
    if (!EmitBenchmarkJson(emit_path) ||
        (!baseline_path.empty() &&
         !EmitBaseline(baseline_path, rows, a, b))) {
      std::fprintf(stderr, "cannot write the baseline files\n");
      return 1;
    }
    std::printf("wrote %s%s%s\n", emit_path.c_str(),
                baseline_path.empty() ? "" : " and ", baseline_path.c_str());
  }
  return worse || !claims_ok ? 1 : 0;
}

}  // namespace
}  // namespace prkb::bench::profile

int main(int argc, char** argv) {
  return prkb::bench::profile::Main(argc, argv);
}
