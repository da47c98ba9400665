#include "exec/calibrate.h"

#include <algorithm>
#include <cstdio>

namespace prkb::exec {
namespace {

/// cal.* instruments (docs/OBSERVABILITY.md). Gauges reflect the last
/// calibrator that fitted — with per-shard calibrators the shards share the
/// global gauges last-writer-wins; `.cost` and ShardReport expose the
/// per-instance values.
struct CalMetrics {
  obs::Counter* fits;
  obs::Counter* route_wins;
  obs::Counter* route_losses;
  obs::Counter* route_regret_ns;
  obs::Gauge* eval_ns;
  obs::Gauge* rt_latency_ns;
  obs::Gauge* coalesce_x1000;

  static const CalMetrics& Get() {
    static const CalMetrics m = {
        obs::MetricsRegistry::Global().GetCounter("cal.fits"),
        obs::MetricsRegistry::Global().GetCounter("cal.route.wins"),
        obs::MetricsRegistry::Global().GetCounter("cal.route.losses"),
        obs::MetricsRegistry::Global().GetCounter("cal.route.regret_ns"),
        obs::MetricsRegistry::Global().GetGauge("cal.eval_ns"),
        obs::MetricsRegistry::Global().GetGauge("cal.rt_latency_ns"),
        obs::MetricsRegistry::Global().GetGauge("cal.coalesce_x1000"),
    };
    return m;
  }
};

double Ewma(double fit, uint64_t samples, double sample, double alpha) {
  return samples == 0 ? sample : (1.0 - alpha) * fit + alpha * sample;
}

}  // namespace

CostCalibrator::CostCalibrator(double eval_ns_default,
                               double rt_latency_hint_ns)
    : eval_ns_default_(eval_ns_default),
      rt_latency_hint_ns_(rt_latency_hint_ns),
      fanout_open_(rt_latency_hint_ns >= kCalibratedFanoutFloorNs) {}

void CostCalibrator::ObserveRoundTrips(uint64_t trips, uint64_t total_ns,
                                       double evals) {
  if (trips == 0) return;
  const std::lock_guard<std::mutex> lock(mu_);
  const double compute = evals * EvalNsLocked();
  const double sample =
      std::max(0.0, static_cast<double>(total_ns) - compute) /
      static_cast<double>(trips);
  rt_fit_ = Ewma(rt_fit_, rt_samples_, sample, kFitAlpha);
  ++rt_samples_;
  const bool sample_open = sample >= kCalibratedFanoutFloorNs;
  const bool fit_open = RtLatencyNsLocked() >= kCalibratedFanoutFloorNs;
  if (sample_open == fit_open && fit_open != fanout_open_) {
    if (++fanout_streak_ >= kFanoutSwitchFits) {
      fanout_open_ = fit_open;
      fanout_streak_ = 0;
    }
  } else {
    fanout_streak_ = 0;
  }
  CalMetrics::Get().fits->Add(1);
  CalMetrics::Get().rt_latency_ns->Set(
      static_cast<int64_t>(RtLatencyNsLocked()));
}

void CostCalibrator::ObservePlan(double evals, double trips,
                                 uint64_t wall_ns) {
  if (evals < 1.0) return;
  const std::lock_guard<std::mutex> lock(mu_);
  // The transport share is subtracted at the *fitted* per-trip time — what
  // this execution actually experienced — never the hinted floor, which may
  // describe a transport the local clock cannot see.
  if (trips > 0.0 && rt_samples_ == 0) return;
  const double residual = static_cast<double>(wall_ns) - trips * rt_fit_;
  // A non-positive residual means the latency fit — momentarily stale after
  // a downward transport shift — over-explains the whole run. The window
  // then carries no eval signal; fitting 0 would erode the eval rate that
  // ObserveRoundTrips' compute subtraction depends on, deadlocking both
  // fits in an all-transport attribution.
  if (residual <= 0.0 && trips > 0.0) return;
  eval_fit_ =
      Ewma(eval_fit_, eval_samples_, std::max(0.0, residual) / evals,
           kFitAlpha);
  ++eval_samples_;
  CalMetrics::Get().fits->Add(1);
  CalMetrics::Get().eval_ns->Set(static_cast<int64_t>(EvalNsLocked()));
}

void CostCalibrator::ObserveCoalescing(double factor) {
  if (!(factor >= 1.0)) factor = 1.0;
  const std::lock_guard<std::mutex> lock(mu_);
  coalesce_fit_ = Ewma(coalesce_fit_, coalesce_samples_, factor, kFitAlpha);
  ++coalesce_samples_;
  CalMetrics::Get().coalesce_x1000->Set(
      static_cast<int64_t>(std::max(1.0, coalesce_fit_) * 1000.0));
}

void CostCalibrator::ObserveRoute(const std::string& route,
                                  double est_price_ns, double actual_ns,
                                  double runner_up_est_ns) {
  const double ratio = actual_ns / std::max(est_price_ns, 1.0);
  const std::lock_guard<std::mutex> lock(mu_);
  RouteStats& rs = routes_[route];
  rs.err_ewma = Ewma(rs.err_ewma, rs.observations, ratio, kErrAlpha);
  ++rs.observations;
  // Regret-style scoring: a choice "loses" when its actual exceeded what
  // the planner expected the runner-up to cost.
  if (runner_up_est_ns > 0.0 && actual_ns > runner_up_est_ns) {
    ++rs.losses;
    rs.regret_ns += actual_ns - runner_up_est_ns;
    CalMetrics::Get().route_losses->Add(1);
    CalMetrics::Get().route_regret_ns->Add(
        static_cast<uint64_t>(actual_ns - runner_up_est_ns));
  } else {
    ++rs.wins;
    CalMetrics::Get().route_wins->Add(1);
  }
}

double CostCalibrator::EvalNsLocked() const {
  return eval_samples_ >= kWarmupSamples ? eval_fit_ : eval_ns_default_;
}

double CostCalibrator::RtLatencyNsLocked() const {
  const bool warmed = rt_samples_ >= kWarmupSamples;
  if (rt_latency_hint_ns_ > 0.0) {
    return warmed ? std::max(rt_latency_hint_ns_, rt_fit_)
                  : rt_latency_hint_ns_;
  }
  return warmed ? rt_fit_ : 0.0;
}

double CostCalibrator::eval_ns() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return EvalNsLocked();
}

double CostCalibrator::rt_latency_ns() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return RtLatencyNsLocked();
}

bool CostCalibrator::fanout_search_open() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return fanout_open_;
}

double CostCalibrator::coalesce_factor() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return coalesce_samples_ == 0 ? 1.0 : std::max(1.0, coalesce_fit_);
}

double CostCalibrator::RoutePenalty(const std::string& route) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = routes_.find(route);
  if (it == routes_.end()) return 1.0;
  return std::clamp(it->second.err_ewma, 1.0, kMaxPenalty);
}

CostCalibrator::Snapshot CostCalibrator::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Snapshot s;
  s.eval_ns = EvalNsLocked();
  s.rt_latency_ns = RtLatencyNsLocked();
  s.eval_ns_default = eval_ns_default_;
  s.rt_latency_hint_ns = rt_latency_hint_ns_;
  s.eval_samples = eval_samples_;
  s.rt_samples = rt_samples_;
  s.coalesce_factor =
      coalesce_samples_ == 0 ? 1.0 : std::max(1.0, coalesce_fit_);
  s.coalesce_samples = coalesce_samples_;
  s.routes.assign(routes_.begin(), routes_.end());
  return s;
}

std::string CostCalibrator::Describe() const {
  const Snapshot s = snapshot();
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "  eval_ns: %.1f (configured %.1f, %llu sample(s))\n",
                s.eval_ns, s.eval_ns_default,
                static_cast<unsigned long long>(s.eval_samples));
  out += line;
  std::snprintf(line, sizeof(line),
                "  rt_latency_ns: %.1f (hint %.1f, %llu sample(s))\n",
                s.rt_latency_ns, s.rt_latency_hint_ns,
                static_cast<unsigned long long>(s.rt_samples));
  out += line;
  std::snprintf(line, sizeof(line),
                "  coalesce_factor: %.2fx (%llu sample(s))\n",
                s.coalesce_factor,
                static_cast<unsigned long long>(s.coalesce_samples));
  out += line;
  if (s.routes.empty()) {
    out += "  routes: none observed\n";
    return out;
  }
  for (const auto& [name, rs] : s.routes) {
    std::snprintf(
        line, sizeof(line),
        "  route %-9s %llu win(s) %llu loss(es)  err-ewma %.2f  "
        "penalty %.2f  regret %.3f ms\n",
        name.c_str(), static_cast<unsigned long long>(rs.wins),
        static_cast<unsigned long long>(rs.losses), rs.err_ewma,
        std::clamp(rs.err_ewma, 1.0, kMaxPenalty), rs.regret_ns / 1e6);
    out += line;
  }
  return out;
}

}  // namespace prkb::exec
