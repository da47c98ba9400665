// Unit tests for the online cost calibrator (src/exec/calibrate.h): EWMA
// convergence, the warmup floor, hint-as-floor latency semantics, the
// fan-out floor's hysteresis, residual eval fitting, and the route penalty /
// regret accounting.

#include "exec/calibrate.h"

#include <gtest/gtest.h>

#include "exec/cost.h"

namespace prkb::exec {
namespace {

constexpr double kDefaultEval = 1000.0;

TEST(CalibratorTest, WarmupFloorKeepsConfiguredValues) {
  CostCalibrator cal(kDefaultEval, /*rt_latency_hint_ns=*/0.0);
  // One sample short of warmup: still the configured values.
  for (uint64_t i = 0; i + 1 < CostCalibrator::kWarmupSamples; ++i) {
    cal.ObserveRoundTrips(1, 250'000);
    cal.ObservePlan(/*evals=*/100, /*trips=*/0, /*wall_ns=*/50'000);
  }
  EXPECT_DOUBLE_EQ(cal.rt_latency_ns(), 0.0);
  EXPECT_DOUBLE_EQ(cal.eval_ns(), kDefaultEval);

  // The warmup-crossing sample flips both to the fits.
  cal.ObserveRoundTrips(1, 250'000);
  cal.ObservePlan(100, 0, 50'000);
  EXPECT_DOUBLE_EQ(cal.rt_latency_ns(), 250'000.0);  // identical samples
  EXPECT_DOUBLE_EQ(cal.eval_ns(), 500.0);            // 50'000 / 100
}

TEST(CalibratorTest, EwmaConvergencePinned) {
  CostCalibrator cal(kDefaultEval, 0.0);
  for (uint64_t i = 0; i < CostCalibrator::kWarmupSamples; ++i) {
    cal.ObserveRoundTrips(1, 100'000);
  }
  EXPECT_DOUBLE_EQ(cal.rt_latency_ns(), 100'000.0);
  // One divergent sample moves the fit by exactly alpha.
  cal.ObserveRoundTrips(1, 200'000);
  const double expected = (1.0 - CostCalibrator::kFitAlpha) * 100'000.0 +
                          CostCalibrator::kFitAlpha * 200'000.0;
  EXPECT_DOUBLE_EQ(cal.rt_latency_ns(), expected);
}

TEST(CalibratorTest, TripsAreAveragedPerTrip) {
  CostCalibrator cal(kDefaultEval, 0.0);
  for (uint64_t i = 0; i < CostCalibrator::kWarmupSamples; ++i) {
    cal.ObserveRoundTrips(/*trips=*/8, /*total_ns=*/8 * 300'000);
  }
  EXPECT_DOUBLE_EQ(cal.rt_latency_ns(), 300'000.0);
  // Zero-trip observations are ignored, not divided by.
  cal.ObserveRoundTrips(0, 123);
  EXPECT_DOUBLE_EQ(cal.rt_latency_ns(), 300'000.0);
}

TEST(CalibratorTest, TripSampleSubtractsEvalShare) {
  CostCalibrator cal(kDefaultEval, 0.0);
  // Each window: 10 trips of 50us transport carrying 100 evals at the
  // (unwarmed, configured) 1000ns rate. The batch compute is charged to the
  // eval rate, so the latency fit sees the pure transport share.
  for (uint64_t i = 0; i < CostCalibrator::kWarmupSamples; ++i) {
    cal.ObserveRoundTrips(10, 10 * 50'000 + 100 * 1'000, /*evals=*/100);
  }
  EXPECT_DOUBLE_EQ(cal.rt_latency_ns(), 50'000.0);

  // A compute-only window (loopback deployment) clamps at zero instead of
  // going negative: the fit reads "no measurable transport".
  CostCalibrator loop(kDefaultEval, 0.0);
  for (uint64_t i = 0; i < CostCalibrator::kWarmupSamples; ++i) {
    loop.ObserveRoundTrips(10, 100 * 500, /*evals=*/100);
  }
  EXPECT_DOUBLE_EQ(loop.rt_latency_ns(), 0.0);
}

TEST(CalibratorTest, HintActsAsLatencyFloor) {
  CostCalibrator cal(kDefaultEval, /*rt_latency_hint_ns=*/1e6);
  EXPECT_DOUBLE_EQ(cal.rt_latency_ns(), 1e6);  // unwarmed: the hint
  // Loopback measurements far below the hint never undercut it: the hint
  // encodes a transport the local clock cannot see.
  for (int i = 0; i < 40; ++i) cal.ObserveRoundTrips(1, 1'000);
  EXPECT_DOUBLE_EQ(cal.rt_latency_ns(), 1e6);
  // Measurements above the hint do raise it.
  for (int i = 0; i < 40; ++i) cal.ObserveRoundTrips(1, 5'000'000);
  EXPECT_GT(cal.rt_latency_ns(), 1e6);
}

TEST(CalibratorTest, FanoutSearchNeedsThreeFitsPastTheFloor) {
  constexpr double kFloor = CostCalibrator::kCalibratedFanoutFloorNs;
  constexpr int kSwitch = CostCalibrator::kFanoutSwitchFits;
  CostCalibrator cal(kDefaultEval, 0.0);
  // A warmed loopback transport, far below the floor.
  for (uint64_t i = 0; i < CostCalibrator::kWarmupSamples; ++i) {
    cal.ObserveRoundTrips(1, 1'000);
  }
  EXPECT_FALSE(cal.fanout_search_open());

  // One stalled round lifts the fit far above the floor for several fits,
  // but its neighbours' samples are loopback ones: the grid stays shut.
  cal.ObserveRoundTrips(1, 10'000'000);
  EXPECT_GT(cal.rt_latency_ns(), kFloor);
  EXPECT_FALSE(cal.fanout_search_open());
  for (int i = 0; i < 4; ++i) {
    cal.ObserveRoundTrips(1, 1'000);
    EXPECT_GT(cal.rt_latency_ns(), kFloor);
    EXPECT_FALSE(cal.fanout_search_open());
  }

  // Three slow rounds in a row open it, on the third.
  for (int i = 1; i <= kSwitch; ++i) {
    cal.ObserveRoundTrips(1, 50'000);
    EXPECT_EQ(cal.fanout_search_open(), i == kSwitch) << "slow round " << i;
  }

  // Back on loopback, it closes on the third fit below the floor.
  int below = 0;
  for (int i = 0; i < 40 && cal.fanout_search_open(); ++i) {
    cal.ObserveRoundTrips(1, 1'000);
    below = cal.rt_latency_ns() < kFloor ? below + 1 : 0;
    ASSERT_LE(below, kSwitch);
  }
  EXPECT_FALSE(cal.fanout_search_open());
  EXPECT_EQ(below, kSwitch);
}

TEST(CalibratorTest, HintAboveFloorKeepsFanoutSearchOpen) {
  CostCalibrator cal(kDefaultEval, /*rt_latency_hint_ns=*/3e5);
  EXPECT_TRUE(cal.fanout_search_open());  // before any fit
  for (int i = 0; i < 40; ++i) cal.ObserveRoundTrips(1, 1'000);
  EXPECT_TRUE(cal.fanout_search_open());  // the hint floors the fit
}

TEST(CalibratorTest, EvalFitIsTransportResidual) {
  CostCalibrator cal(kDefaultEval, 0.0);
  for (uint64_t i = 0; i < CostCalibrator::kWarmupSamples; ++i) {
    cal.ObserveRoundTrips(1, 100'000);
  }
  // wall = 5 trips x 100us transport + 200 evals x 750ns compute.
  for (uint64_t i = 0; i < CostCalibrator::kWarmupSamples; ++i) {
    cal.ObservePlan(200, 5, 5 * 100'000 + 200 * 750);
  }
  EXPECT_DOUBLE_EQ(cal.eval_ns(), 750.0);
}

TEST(CalibratorTest, PlanWithTripsWaitsForLatencyFit) {
  CostCalibrator cal(kDefaultEval, 0.0);
  // No latency sample yet: a plan that made trips cannot attribute its
  // transport share, so it must not poison the eval fit.
  for (int i = 0; i < 40; ++i) cal.ObservePlan(100, 5, 10'000'000);
  EXPECT_DOUBLE_EQ(cal.eval_ns(), kDefaultEval);
  EXPECT_EQ(cal.snapshot().eval_samples, 0u);
}

TEST(CalibratorTest, RoutePenaltyClampsAndDecays) {
  CostCalibrator cal;
  EXPECT_DOUBLE_EQ(cal.RoutePenalty("never-seen"), 1.0);
  // Overestimating routes are not rewarded below the 1.0 floor.
  cal.ObserveRoute("safe", /*est=*/10'000, /*actual=*/1'000, 0);
  EXPECT_DOUBLE_EQ(cal.RoutePenalty("safe"), 1.0);
  // A wild underestimate clamps at the ceiling instead of exploding.
  cal.ObserveRoute("wild", 1'000, 1e9, 0);
  EXPECT_DOUBLE_EQ(cal.RoutePenalty("wild"), CostCalibrator::kMaxPenalty);
  // Accurate follow-ups decay the penalty back toward 1.
  cal.ObserveRoute("drifty", 1'000, 4'000, 0);
  const double p0 = cal.RoutePenalty("drifty");
  EXPECT_DOUBLE_EQ(p0, 4.0);
  double prev = p0;
  for (int i = 0; i < 6; ++i) {
    cal.ObserveRoute("drifty", 1'000, 1'000, 0);
    const double p = cal.RoutePenalty("drifty");
    EXPECT_LE(p, prev);
    prev = p;
  }
  EXPECT_NEAR(prev, 1.0, 0.05);
}

TEST(CalibratorTest, WinLossRegretAccounting) {
  CostCalibrator cal;
  // Loss: the actual exceeded what the runner-up was estimated to cost.
  cal.ObserveRoute("r", /*est=*/1'000, /*actual=*/2'000,
                   /*runner_up_est=*/1'500);
  // Win: beat the runner-up's estimate.
  cal.ObserveRoute("r", 1'000, 1'200, 1'500);
  // No competitor: counts as a win, no regret either way.
  cal.ObserveRoute("r", 1'000, 9'000, 0);
  const CostCalibrator::Snapshot s = cal.snapshot();
  ASSERT_EQ(s.routes.size(), 1u);
  EXPECT_EQ(s.routes[0].first, "r");
  EXPECT_EQ(s.routes[0].second.observations, 3u);
  EXPECT_EQ(s.routes[0].second.wins, 2u);
  EXPECT_EQ(s.routes[0].second.losses, 1u);
  EXPECT_DOUBLE_EQ(s.routes[0].second.regret_ns, 500.0);
}

TEST(CalibratorTest, DescribeListsConstantsAndRoutes) {
  CostCalibrator cal(kDefaultEval, 3e5);
  cal.ObserveRoute("srci", 1'000, 2'000, 1'500);
  const std::string text = cal.Describe();
  EXPECT_NE(text.find("eval_ns"), std::string::npos);
  EXPECT_NE(text.find("rt_latency_ns"), std::string::npos);
  EXPECT_NE(text.find("route srci"), std::string::npos);
  EXPECT_NE(text.find("loss"), std::string::npos);
}

}  // namespace
}  // namespace prkb::exec
