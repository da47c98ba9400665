// bench_profile: the repository's benchmark. Four steady-state serving
// workloads, each measured end to end (throughput, select/insert latency,
// QPF uses and round trips per selection, set-up time, index bytes, peak
// RSS, failed fraction) and split per layer (registry deltas of the
// measured phase, plus span self times from an optional traced rerun).
// Every answer is checked against a plaintext oracle. See README.md.
//
//   bench_profile --workload=<name>|all [--seed=<n>] [--seconds=<s>]
//                 [--json=<path>] [--trace=<path>] [--workdir=<dir>]
//                 [--benchmark-json=<path>] [--smoke]
//
// Prints one `<workload> <metric> <value> <unit>` line per metric and exits
// non-zero on any wrong answer, error, broken steady state or dropped span.
// --benchmark-json additionally fails the run unless every metric that file
// names was emitted (the smoke test's schema check).

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "catalog.h"
#include "harness.h"

namespace prkb::bench::profile {
namespace {

struct Args {
  std::string workload;
  RunOptions run;
  bool seconds_given = false;
  std::string json_path;
  std::string benchmark_json;
};

bool Flag(const char* arg, const char* name, std::string* value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

bool Parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (std::strcmp(argv[i], "--smoke") == 0) {
      a->run.smoke = true;
    } else if (Flag(argv[i], "--workload", &v)) {
      a->workload = v;
    } else if (Flag(argv[i], "--seed", &v)) {
      a->run.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(argv[i], "--seconds", &v)) {
      a->run.seconds = std::strtod(v.c_str(), nullptr);
      a->seconds_given = true;
    } else if (Flag(argv[i], "--json", &v)) {
      a->json_path = v;
    } else if (Flag(argv[i], "--trace", &v)) {
      a->run.trace_path = v;
    } else if (Flag(argv[i], "--workdir", &v)) {
      a->run.workdir = v;
    } else if (Flag(argv[i], "--benchmark-json", &v)) {
      a->benchmark_json = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return false;
    }
  }
  if (!a->seconds_given) a->run.seconds = a->run.smoke ? 1.0 : kRunSeconds;
  return !a->workload.empty() && a->run.seconds > 0;
}

/// `trace.json` → `trace.<workload>.json` when one run traces several
/// workloads.
std::string TracePathFor(const std::string& path, const std::string& w) {
  const size_t dot = path.rfind('.');
  const size_t slash = path.rfind('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path + "." + w;
  }
  return path.substr(0, dot) + "." + w + path.substr(dot);
}

/// Metric names BENCHMARK.json lists. The file is written one entry per line
/// by bench_profile_compare --emit-baseline; workload entries are skipped.
std::vector<std::string> BenchmarkMetricNames(const std::string& path) {
  std::vector<std::string> names;
  std::ifstream f(path);
  std::string line;
  const std::string key = "\"name\": \"";
  while (std::getline(f, line)) {
    const size_t at = line.find(key);
    if (at == std::string::npos) continue;
    const size_t b = at + key.size();
    const size_t e = line.find('"', b);
    if (e == std::string::npos) continue;
    const std::string name = line.substr(b, e - b);
    if (FindWorkload(name) == nullptr) names.push_back(name);
  }
  return names;
}

bool WriteJson(const std::string& path, const Args& a,
               const std::vector<WorkloadReport>& reports, bool correct,
               uint64_t attempted, uint64_t failed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  // One metric per line: bench_profile_compare reads this line-based.
  std::fprintf(f, "{\n  \"bench\": \"bench_profile\",\n");
  std::fprintf(f, "  \"seed\": %" PRIu64 ",\n", a.run.seed);
  std::fprintf(f, "  \"seconds\": %.17g,\n", a.run.seconds);
  std::fprintf(f, "  \"smoke\": %s,\n", a.run.smoke ? "true" : "false");
  std::fprintf(f, "  \"traced\": %s,\n",
               a.run.trace_path.empty() ? "false" : "true");
  std::fprintf(f, "  \"correct\": %s,\n", correct ? "true" : "false");
  std::fprintf(f, "  \"attempted\": %" PRIu64 ",\n", attempted);
  std::fprintf(f, "  \"failed\": %" PRIu64 ",\n", failed);
  std::fprintf(f, "  \"metrics\": [\n");
  bool first = true;
  for (const WorkloadReport& r : reports) {
    for (const Metric& m : r.metrics) {
      std::fprintf(f,
                   "%s    {\"workload\": \"%s\", \"name\": \"%s\", "
                   "\"value\": %.17g, \"unit\": \"%s\", \"samples\": %" PRIu64
                   "}",
                   first ? "" : ",\n", r.workload.c_str(), m.name.c_str(),
                   m.value, m.unit.c_str(), m.samples);
      first = false;
    }
  }
  std::fprintf(f, "\n  ]\n}\n");
  return std::fclose(f) == 0;
}

int Main(int argc, char** argv) {
  Args a;
  if (!Parse(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: bench_profile --workload=<name>|all [--seed=<n>] "
                 "[--seconds=<s>] [--json=<path>] [--trace=<path>] "
                 "[--workdir=<dir>] [--benchmark-json=<path>] [--smoke]\n");
    return 2;
  }
  std::vector<std::string> workloads;
  if (a.workload == "all") {
    for (const WorkloadInfo& w : kWorkloads) workloads.push_back(w.name);
  } else if (FindWorkload(a.workload) != nullptr) {
    workloads.push_back(a.workload);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", a.workload.c_str());
    return 2;
  }

  std::vector<WorkloadReport> reports;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const std::string& w : workloads) {
    RunOptions run = a.run;
    if (workloads.size() > 1) {
      ResetPeakRss();
      if (!run.trace_path.empty()) {
        run.trace_path = TracePathFor(run.trace_path, w);
      }
    }
    WorkloadReport r = RunWorkload(w, run);
    for (const Metric& m : r.metrics) {
      std::printf("%s %s %.6g %s", w.c_str(), m.name.c_str(), m.value,
                  m.unit.c_str());
      if (m.samples > 0) std::printf(" n=%" PRIu64, m.samples);
      std::printf("\n");
    }
    for (const std::string& v : r.violations) {
      std::fprintf(stderr, "%s: FAILED CHECK: %s\n", w.c_str(), v.c_str());
    }
    std::fflush(stdout);
    attempted += r.attempted;
    failed += r.failed;
    correct = correct && r.failed == 0 && r.violations.empty();
    reports.push_back(std::move(r));
  }

  if (!a.benchmark_json.empty()) {
    const std::vector<std::string> names =
        BenchmarkMetricNames(a.benchmark_json);
    if (names.empty()) {
      std::fprintf(stderr, "no metric names in %s\n",
                   a.benchmark_json.c_str());
      correct = false;
    }
    for (const WorkloadReport& r : reports) {
      std::set<std::string> emitted;
      for (const Metric& m : r.metrics) emitted.insert(m.name);
      for (const std::string& n : names) {
        if (emitted.count(n) == 0) {
          std::fprintf(stderr, "%s: metric %s not emitted\n",
                       r.workload.c_str(), n.c_str());
          correct = false;
        }
      }
    }
  }

  if (!a.json_path.empty() &&
      !WriteJson(a.json_path, a, reports, correct, attempted, failed)) {
    return 1;
  }
  std::printf("bench_profile: %s (%" PRIu64 " ops, %" PRIu64 " failed)\n",
              correct ? "ok" : "FAILED", attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace prkb::bench::profile

int main(int argc, char** argv) {
  return prkb::bench::profile::Main(argc, argv);
}
