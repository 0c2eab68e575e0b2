// Tests for the relative-capacity metric (paper Eq. 1).

#include <gtest/gtest.h>

#include <numeric>

#include "util/error.hpp"
#include "capacity/capacity.hpp"

namespace ssamr {
namespace {

ResourceEstimate est(real_t cpu, real_t mem, real_t bw) {
  return ResourceEstimate{Fraction{cpu}, MegaBytes{mem}, MbitsPerSec{bw}};
}

TEST(CapacityWeights, Validation) {
  EXPECT_TRUE(CapacityWeights::equal().valid());
  EXPECT_TRUE(CapacityWeights::cpu_bound().valid());
  EXPECT_TRUE(CapacityWeights::memory_bound().valid());
  EXPECT_TRUE(CapacityWeights::comm_bound().valid());
  EXPECT_FALSE((CapacityWeights{0.5, 0.5, 0.5}).valid());
  EXPECT_FALSE((CapacityWeights{-0.2, 0.6, 0.6}).valid());
  EXPECT_THROW(CapacityCalculator(CapacityWeights{1, 1, 1}), Error);
}

TEST(Capacity, SumsToOne) {
  CapacityCalculator calc;
  const auto caps = calc.relative_capacities(
      {est(0.5, 100, 50), est(1.0, 400, 100), est(0.8, 200, 100)});
  EXPECT_NEAR(std::accumulate(caps.begin(), caps.end(), 0.0), 1.0, 1e-12);
}

TEST(Capacity, UniformResourcesUniformCapacities) {
  CapacityCalculator calc;
  const auto caps = calc.relative_capacities(
      {est(1, 512, 100), est(1, 512, 100), est(1, 512, 100),
       est(1, 512, 100)});
  for (real_t c : caps) EXPECT_NEAR(c, 0.25, 1e-12);
}

TEST(Capacity, ReproducesThePaperExampleCapacities) {
  // §6.1.3: four nodes, two loaded, equal weights, capacities
  // approximately 16 %, 19 %, 31 %, 34 %.  With CPU availabilities and
  // free memory proportional to (0.23, 0.32, 0.68, 0.77) and equal
  // bandwidth, Eq. 1 yields exactly that split.
  CapacityCalculator calc(CapacityWeights::equal());
  const auto caps = calc.relative_capacities(
      {est(0.23, 230, 100), est(0.32, 320, 100), est(0.68, 680, 100),
       est(0.77, 770, 100)});
  EXPECT_NEAR(caps[0], 0.16, 5e-3);
  EXPECT_NEAR(caps[1], 0.19, 5e-3);
  EXPECT_NEAR(caps[2], 0.31, 5e-3);
  EXPECT_NEAR(caps[3], 0.34, 5e-3);
}

TEST(Capacity, WeightsShiftTheBlend) {
  // Node 0 is CPU-rich and bandwidth-poor; node 1 the opposite.
  const std::vector<ResourceEstimate> estimates{est(1.0, 100, 10),
                                                est(0.2, 100, 90)};
  CapacityCalculator cpu_calc(CapacityWeights::cpu_bound());
  CapacityCalculator comm_calc(CapacityWeights::comm_bound());
  const auto cpu_caps = cpu_calc.relative_capacities(estimates);
  const auto comm_caps = comm_calc.relative_capacities(estimates);
  EXPECT_GT(cpu_caps[0], cpu_caps[1]);
  EXPECT_LT(comm_caps[0], comm_caps[1]);
}

TEST(Capacity, ZeroResourceColumnDropsOut) {
  // All bandwidth zero: the metric renormalizes over CPU and memory.
  CapacityCalculator calc;
  const auto caps =
      calc.relative_capacities({est(1.0, 100, 0), est(1.0, 300, 0)});
  EXPECT_NEAR(caps[0] + caps[1], 1.0, 1e-12);
  EXPECT_LT(caps[0], caps[1]);
}

TEST(Capacity, AllZeroFallsBackToUniform) {
  CapacityCalculator calc;
  const auto caps =
      calc.relative_capacities({est(0, 0, 0), est(0, 0, 0)});
  EXPECT_DOUBLE_EQ(caps[0], 0.5);
  EXPECT_DOUBLE_EQ(caps[1], 0.5);
}

TEST(Capacity, RejectsBadInput) {
  CapacityCalculator calc;
  EXPECT_THROW(calc.relative_capacities({}), Error);
  EXPECT_THROW(calc.relative_capacities({est(-0.1, 0, 0)}), Error);
}

}  // namespace
}  // namespace ssamr
