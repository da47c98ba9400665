#ifndef PRKB_BENCH_PROFILE_HARNESS_H_
#define PRKB_BENCH_PROFILE_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace prkb::bench::profile {

struct RunOptions {
  uint64_t seed = 1;
  /// Measured time of one workload (closed plus open phase).
  double seconds = 10;
  /// Tiny sizes, one set-up, at most 60 operations per phase.
  bool smoke = false;
  /// Non-empty: rerun the measured phase with the tracer on and write the
  /// Chrome trace here.
  std::string trace_path;
  /// Where write-mixed-durable creates (and removes) its WAL directories.
  std::string workdir = ".";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Samples behind a percentile; 0 for other metrics.
  uint64_t samples = 0;
};

struct WorkloadReport {
  std::string workload;
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  /// Wrong answers, error results, fail-closed refusals and lost writes.
  uint64_t failed = 0;
  /// Broken steady-state or tracing checks, human-readable. Any entry fails
  /// the run.
  std::vector<std::string> violations;
};

/// Restarts the kernel's peak-RSS tracking (best effort), so that a process
/// running several workloads reports each one's own peak_rss_mb.
void ResetPeakRss();

/// Generates the workload's inputs from the seed, sets the system up
/// (several times in a full run; setup_s is the median), measures, checks
/// every answer against the plaintext oracle, and optionally reruns traced.
WorkloadReport RunWorkload(const std::string& workload, const RunOptions& opt);

}  // namespace prkb::bench::profile

#endif  // PRKB_BENCH_PROFILE_HARNESS_H_
