// Tests for the simulated heterogeneous cluster: load generation, node
// state, network model.

#include <limits>

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "util/error.hpp"

namespace ssamr {
namespace {

TEST(LoadRamp, RampsLinearlyToTarget) {
  LoadRamp r;
  r.start_time = Seconds{10.0};
  r.rate = 0.5;
  r.target_level = 2.0;
  EXPECT_EQ(r.level_at(Seconds{5.0}), 0.0);
  EXPECT_EQ(r.level_at(Seconds{10.0}), 0.0);
  EXPECT_DOUBLE_EQ(r.level_at(Seconds{12.0}), 1.0);
  EXPECT_DOUBLE_EQ(r.level_at(Seconds{14.0}), 2.0);
  EXPECT_DOUBLE_EQ(r.level_at(Seconds{100.0}), 2.0);  // saturates
}

TEST(LoadRamp, StopsAtStopTime) {
  LoadRamp r;
  r.start_time = Seconds{0.0};
  r.stop_time = Seconds{50.0};
  r.rate = 1.0;
  r.target_level = 3.0;
  EXPECT_DOUBLE_EQ(r.level_at(Seconds{49.0}), 3.0);
  EXPECT_EQ(r.level_at(Seconds{50.0}), 0.0);
}

TEST(LoadRamp, ZeroRateMeansInstant) {
  LoadRamp r;
  r.rate = 0.0;
  r.target_level = 1.5;
  EXPECT_DOUBLE_EQ(r.level_at(Seconds{0.0}), 1.5);
}

TEST(LoadScript, ComposesGenerators) {
  LoadScript s;
  LoadRamp a;
  a.rate = 0;
  a.target_level = 1.0;
  LoadRamp b;
  b.start_time = Seconds{10.0};
  b.rate = 0;
  b.target_level = 0.5;
  s.add(a);
  s.add(b);
  EXPECT_DOUBLE_EQ(s.load_at(Seconds{5.0}), 1.0);
  EXPECT_DOUBLE_EQ(s.load_at(Seconds{15.0}), 1.5);
}

TEST(LoadScript, FairShareCpu) {
  LoadScript s;
  LoadRamp r;
  r.rate = 0;
  r.target_level = 1.0;  // one competing process
  s.add(r);
  EXPECT_DOUBLE_EQ(s.cpu_available_at(Seconds{1.0}).value(), 0.5);
  LoadScript idle;
  EXPECT_DOUBLE_EQ(idle.cpu_available_at(Seconds{0.0}).value(), 1.0);
}

TEST(LoadScript, MemoryScalesWithRampProgress) {
  LoadScript s;
  LoadRamp r;
  r.start_time = Seconds{0};
  r.rate = 1.0;
  r.target_level = 2.0;
  r.memory_mb = MegaBytes{100.0};
  s.add(r);
  EXPECT_DOUBLE_EQ(s.memory_used_at(Seconds{1.0}).value(), 50.0);
  EXPECT_DOUBLE_EQ(s.memory_used_at(Seconds{10.0}).value(), 100.0);  // full
}

TEST(LoadScript, TrafficScalesWithRampProgress) {
  LoadScript s;
  LoadRamp r;
  r.rate = 0;
  r.target_level = 1.0;
  r.traffic_mbps = MbitsPerSec{40.0};
  s.add(r);
  EXPECT_DOUBLE_EQ(s.traffic_at(Seconds{0.0}).value(), 40.0);
}

TEST(Cluster, FactoriesBuildRequestedShapes) {
  const Cluster homo = Cluster::homogeneous(4);
  EXPECT_EQ(homo.size(), 4);
  EXPECT_EQ(homo.spec(0).peak_rate, homo.spec(3).peak_rate);

  const Cluster het =
      Cluster::heterogeneous(4, {1.0, 2.0},
                             NodeSpec{"n", WorkRate{100.0}, MegaBytes{512},
                                      MbitsPerSec{100}});
  EXPECT_DOUBLE_EQ(het.spec(0).peak_rate.value(), 100.0);
  EXPECT_DOUBLE_EQ(het.spec(1).peak_rate.value(), 200.0);
  EXPECT_DOUBLE_EQ(het.spec(2).peak_rate.value(), 100.0);  // pattern repeats
}

TEST(Cluster, RejectsBadSpecs) {
  EXPECT_THROW(Cluster::homogeneous(0), Error);
  NodeSpec bad;
  bad.peak_rate = WorkRate{0};
  EXPECT_THROW(Cluster({bad}), Error);
  Cluster c = Cluster::homogeneous(2);
  EXPECT_THROW(c.spec(5), Error);
  EXPECT_THROW(c.add_load(-1, LoadRamp{}), Error);
}

TEST(Cluster, RejectsDegenerateNetworkModel) {
  // Every model the event executor would stall on (a rate that never
  // drains, an entry time never reached) is refused up front.
  const real_t nan = std::numeric_limits<real_t>::quiet_NaN();
  const real_t inf = std::numeric_limits<real_t>::infinity();
  const std::vector<NodeSpec> nodes(2);
  for (const real_t eff : {0.0, -0.5, 1.5, nan, inf}) {
    NetworkModel net;
    net.efficiency = Fraction{eff};
    EXPECT_THROW(Cluster(nodes, net), Error) << eff;
  }
  for (const real_t latency : {-1e-4, nan, inf}) {
    NetworkModel net;
    net.latency_s = Seconds{latency};
    EXPECT_THROW(Cluster(nodes, net), Error) << latency;
  }
  NetworkModel edge;
  edge.efficiency = Fraction{1.0};
  edge.latency_s = Seconds{0};
  EXPECT_NO_THROW(Cluster(nodes, edge));
}

TEST(Cluster, StateReflectsLoads) {
  Cluster c = Cluster::homogeneous(2);
  LoadRamp r;
  r.rate = 0;
  r.target_level = 1.0;
  r.memory_mb = MegaBytes{200.0};
  r.traffic_mbps = MbitsPerSec{30.0};
  c.add_load(0, r);
  const NodeState s0 = c.state_at(0, Seconds{1.0});
  const NodeState s1 = c.state_at(1, Seconds{1.0});
  EXPECT_DOUBLE_EQ(s0.cpu_available.value(), 0.5);
  EXPECT_DOUBLE_EQ(s0.memory_free_mb.value(),
                   (c.spec(0).memory_mb - MegaBytes{200.0}).value());
  EXPECT_DOUBLE_EQ(s0.bandwidth_mbps.value(), 70.0);
  EXPECT_DOUBLE_EQ(s1.cpu_available.value(), 1.0);
}

TEST(Cluster, EffectiveRateTracksCpu) {
  Cluster c = Cluster::homogeneous(1);
  LoadRamp r;
  r.rate = 0;
  r.target_level = 1.0;
  c.add_load(0, r);
  EXPECT_NEAR(c.effective_rate(0, Seconds{1.0}).value(),
              (c.spec(0).peak_rate * 0.5).value(), 1e-9);
}

TEST(Cluster, PagingPenaltyWhenOvercommitted) {
  NodeSpec spec;
  spec.memory_mb = MegaBytes{100.0};
  Cluster c({spec});
  const WorkRate fits = c.effective_rate(0, Seconds{0.0}, MegaBytes{50.0});
  const WorkRate pages = c.effective_rate(0, Seconds{0.0}, MegaBytes{200.0});
  EXPECT_DOUBLE_EQ(fits.value(), spec.peak_rate.value());
  EXPECT_LT(pages, fits / 2.0);
  EXPECT_GT(pages, WorkRate{0.0});
}

TEST(Cluster, MemoryNeverGoesNegative) {
  Cluster c = Cluster::homogeneous(1);
  LoadRamp r;
  r.rate = 0;
  r.target_level = 1.0;
  r.memory_mb = MegaBytes{1.0e6};
  c.add_load(0, r);
  EXPECT_EQ(c.state_at(0, Seconds{1.0}).memory_free_mb, MegaBytes{0.0});
}

TEST(Network, TransferTimeLatencyPlusBandwidth) {
  NetworkModel net;
  net.latency_s = Seconds{1e-4};
  net.efficiency = Fraction{1.0};
  // 1 Mbit over min(100,50)=50 Mbps -> 0.02 s + latency.
  EXPECT_NEAR(net.transfer_time(Bytes{125000}, MbitsPerSec{100.0},
                                MbitsPerSec{50.0})
                  .value(),
              0.02 + 1e-4, 1e-9);
  EXPECT_EQ(net.transfer_time(Bytes{0}, MbitsPerSec{100.0},
                              MbitsPerSec{100.0}),
            Seconds{0.0});
  EXPECT_THROW(
      net.transfer_time(Bytes{-1}, MbitsPerSec{100}, MbitsPerSec{100}),
      Error);
}

TEST(Network, EfficiencyDeratesBandwidth) {
  NetworkModel net;
  net.latency_s = Seconds{0};
  net.efficiency = Fraction{0.5};
  EXPECT_NEAR(net.exchange_time(Bytes{125000}, MbitsPerSec{100.0}).value(),
              0.02, 1e-9);
}

TEST(Network, SurvivesZeroBandwidth) {
  NetworkModel net;
  // Bandwidth floor prevents division blowups.
  EXPECT_LT(net.exchange_time(Bytes{1000}, MbitsPerSec{0.0}), Seconds{1.0});
}

}  // namespace
}  // namespace ssamr
