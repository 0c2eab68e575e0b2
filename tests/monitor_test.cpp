// Tests for the NWS-substitute monitoring stack: sensors, forecasters,
// monitor service.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>

#include "monitor/monitor_service.hpp"
#include "util/error.hpp"

namespace ssamr {
namespace {

TEST(Sensor, NoiselessMeasurementMatchesTruth) {
  Cluster c = Cluster::homogeneous(2);
  LoadRamp r;
  r.rate = 0;
  r.target_level = 1.0;
  c.add_load(0, r);
  Sensor s(c, SensorNoise{0, 0, 0}, 1);
  const Measurement m = s.measure(0, Seconds{5.0});
  EXPECT_DOUBLE_EQ(m.cpu_available, 0.5);
  EXPECT_DOUBLE_EQ(m.bandwidth_mbps, 100.0);
}

TEST(Sensor, NoiseIsBoundedAndDeterministic) {
  Cluster c = Cluster::homogeneous(1);
  Sensor a(c, SensorNoise{0.05, 0.05, 0.05}, 7);
  Sensor b(c, SensorNoise{0.05, 0.05, 0.05}, 7);
  for (int i = 0; i < 100; ++i) {
    const Measurement ma = a.measure(0, Seconds{static_cast<real_t>(i)});
    const Measurement mb = b.measure(0, Seconds{static_cast<real_t>(i)});
    EXPECT_EQ(ma.cpu_available, mb.cpu_available);
    EXPECT_GE(ma.cpu_available, 0.0);
    EXPECT_LE(ma.cpu_available, 1.0);
    EXPECT_LE(ma.memory_free_mb, c.spec(0).memory_mb.value());
    EXPECT_LE(ma.bandwidth_mbps, c.spec(0).bandwidth_mbps.value());
  }
}

TEST(Forecaster, LastValue) {
  EXPECT_EQ(forecast_last({}), 0.0);
  EXPECT_EQ(forecast_last({1.0, 2.0, 3.0}), 3.0);
}

TEST(Forecaster, RunningMean) {
  EXPECT_DOUBLE_EQ(forecast_mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Forecaster, SlidingMeanUsesWindow) {
  EXPECT_DOUBLE_EQ(forecast_sliding_mean({10.0, 1.0, 3.0}, 2), 2.0);
  EXPECT_DOUBLE_EQ(forecast_sliding_mean({5.0}, 2), 5.0);
  EXPECT_THROW(forecast_sliding_mean({5.0}, 0), Error);
}

TEST(Forecaster, SlidingMedianRobustToSpike) {
  EXPECT_DOUBLE_EQ(forecast_sliding_median({1.0, 1.0, 100.0, 1.0, 1.0}, 5),
                   1.0);
  EXPECT_THROW(forecast_sliding_median({5.0}, 0), Error);
}

TEST(Forecaster, AdaptivePicksLastValueOnAStep) {
  AdaptiveForecaster f;
  // A step series: last-value has the lowest postcast MSE.
  std::vector<real_t> hist{1, 1, 1, 1, 0.3, 0.3, 0.3, 0.3, 0.3};
  EXPECT_EQ(f.best_member(hist), "last");
  EXPECT_DOUBLE_EQ(f.forecast(hist), 0.3);
}

TEST(Forecaster, AdaptivePrefersSmoothingOnNoise) {
  AdaptiveForecaster f;
  // Alternating noise around 0.5: any mean beats last-value.
  std::vector<real_t> hist;
  for (int i = 0; i < 30; ++i) hist.push_back(i % 2 ? 0.8 : 0.2);
  EXPECT_NE(f.best_member(hist), "last");
  EXPECT_NEAR(f.forecast(hist), 0.5, 0.11);
}

TEST(Forecaster, BoundedSelectorMatchesUnboundedOnShortHistories) {
  // The selector scores only a bounded trailing window; for histories that
  // fit the window it must pick exactly the member the historical unbounded
  // selector (every member postcast over every prefix) would pick.
  const auto unbounded_best = [](const std::vector<real_t>& hist) {
    using History = std::vector<real_t>;
    const struct {
      std::string name;
      real_t (*forecast)(const History&);
    } fam[] = {  // default family order
        {"last", forecast_last},
        {"mean", forecast_mean},
        {"sliding_mean(5)",
         [](const History& h) { return forecast_sliding_mean(h, 5); }},
        {"sliding_mean(10)",
         [](const History& h) { return forecast_sliding_mean(h, 10); }},
        {"sliding_median(5)",
         [](const History& h) { return forecast_sliding_median(h, 5); }},
        {"sliding_median(10)",
         [](const History& h) { return forecast_sliding_median(h, 10); }},
    };
    std::size_t best = 0;
    real_t best_sse = std::numeric_limits<real_t>::infinity();
    for (std::size_t m = 0; m < std::size(fam); ++m) {
      real_t sse = 0;
      for (std::size_t i = 1; i < hist.size(); ++i) {
        const History prefix(hist.begin(),
                             hist.begin() + static_cast<std::ptrdiff_t>(i));
        const real_t err = fam[m].forecast(prefix) - hist[i];
        sse += err * err;
      }
      if (sse < best_sse) {
        best_sse = sse;
        best = m;
      }
    }
    return fam[best].name;
  };

  AdaptiveForecaster f;
  std::vector<real_t> hist;
  std::uint64_t s = 99;
  // Deterministic pseudo-random series, grown one sample at a time up to
  // the score-window size + 1 (the bit-identity boundary).
  for (int i = 0; i < 33; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    hist.push_back(static_cast<real_t>(s >> 40) / 16777216.0);
    if (hist.size() < 2) continue;
    EXPECT_EQ(f.best_member(hist), unbounded_best(hist))
        << "history length " << hist.size();
  }
}

TEST(Monitor, ProbeAllReturnsPerNodeEstimates) {
  Cluster c = Cluster::homogeneous(3);
  MonitorConfig cfg;
  cfg.noise = SensorNoise{0, 0, 0};
  ResourceMonitor m(c, cfg);
  const SweepResult sweep = m.probe_all(Seconds{0.0});
  ASSERT_EQ(sweep.estimates.size(), 3u);
  EXPECT_DOUBLE_EQ(sweep.overhead_s.value(), 3 * cfg.probe_cost_s.value());
  EXPECT_EQ(m.probe_count(), 3u);
  for (const auto& e : sweep.estimates)
    EXPECT_DOUBLE_EQ(e.cpu_available.value(), 1.0);
}

TEST(Monitor, HistoriesAccumulate) {
  Cluster c = Cluster::homogeneous(1);
  MonitorConfig cfg;
  ResourceMonitor m(c, cfg);
  m.probe_outcome(0, Seconds{0.0});
  m.probe_outcome(0, Seconds{1.0});
  m.probe_outcome(0, Seconds{2.0});
  EXPECT_EQ(m.cpu_history(0).size(), 3u);
  EXPECT_THROW(m.cpu_history(5), Error);
}

TEST(Monitor, ForecastTracksLoadStep) {
  Cluster c = Cluster::homogeneous(1);
  LoadRamp r;
  r.start_time = Seconds{10.0};
  r.rate = 1e9;
  r.target_level = 1.0;
  c.add_load(0, r);
  MonitorConfig cfg;
  cfg.noise = SensorNoise{0, 0, 0};
  ResourceMonitor m(c, cfg);
  m.probe_outcome(0, Seconds{0.0});
  m.probe_outcome(0, Seconds{5.0});
  const auto after = m.probe_outcome(0, Seconds{20.0}).estimate;
  // Adaptive forecaster must move decisively toward the new 0.5 level.
  EXPECT_LT(after.cpu_available.value(), 0.75);
}

TEST(Monitor, ConfigValidation) {
  Cluster c = Cluster::homogeneous(1);
  MonitorConfig cfg;
  cfg.probe_cost_s = Seconds{-1};
  EXPECT_THROW(ResourceMonitor(c, cfg), Error);
}

}  // namespace
}  // namespace ssamr
