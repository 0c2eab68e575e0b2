// Sanity tests for the paper experiment setups (core/experiment.hpp) —
// these pin the calibrated shapes the benches report.

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <numeric>
#include <ostream>
#include <string>

#include "util/error.hpp"
#include "core/experiment.hpp"

namespace ssamr {
namespace {

// Regression for the exp_scale env_int bug: zero/negative/garbage values
// must fall back, never reach a driver as a box or rank count.
TEST(Experiment, EnvIntValidatesRangeAndGarbage) {
  ASSERT_EQ(::unsetenv("SSAMR_TEST_ENV_INT"), 0);
  EXPECT_EQ(exp::env_int("SSAMR_TEST_ENV_INT", 7, 1), 7);  // unset

  const auto with = [](const char* v, int fallback, int lo, int hi) {
    ::setenv("SSAMR_TEST_ENV_INT", v, 1);
    const int got = exp::env_int("SSAMR_TEST_ENV_INT", fallback, lo, hi);
    ::unsetenv("SSAMR_TEST_ENV_INT");
    return got;
  };
  EXPECT_EQ(with("12", 7, 1, 100), 12);       // clean parse in range
  EXPECT_EQ(with("", 7, 1, 100), 7);          // empty
  EXPECT_EQ(with("abc", 7, 1, 100), 7);       // garbage
  EXPECT_EQ(with("12abc", 7, 1, 100), 7);     // trailing garbage
  EXPECT_EQ(with("0", 7, 1, 100), 7);         // below min (the old bug)
  EXPECT_EQ(with("-4", 7, 1, 100), 7);        // negative (the old bug)
  EXPECT_EQ(with("101", 7, 1, 100), 7);       // above max
  EXPECT_EQ(with("1", 7, 1, 100), 1);         // boundaries included
  EXPECT_EQ(with("100", 7, 1, 100), 100);
  EXPECT_EQ(with("99999999999999999999", 7, 1, 100), 7);  // overflow-ish
  EXPECT_THROW(exp::env_int("SSAMR_TEST_ENV_INT", 7, 5, 4), Error);
}

// SSAMR_EXP_ITERS goes through env_int: a positive int is the count, and
// anything else, a value past INT_MAX included, falls back instead of
// wrapping to 1 or to a negative count.
struct ItersCase {
  const char* name;   ///< printed as the test's parameter
  const char* value;  ///< SSAMR_EXP_ITERS, or nullptr for unset
  int expected;       ///< run_iterations(7)
};

void PrintTo(const ItersCase& c, std::ostream* os) { *os << c.name; }

class RunIterationsTest : public ::testing::TestWithParam<ItersCase> {};

TEST_P(RunIterationsTest, ParsesOrFallsBack) {
  const char* saved = std::getenv("SSAMR_EXP_ITERS");
  const std::string restore = saved != nullptr ? saved : "";
  if (GetParam().value != nullptr)
    ::setenv("SSAMR_EXP_ITERS", GetParam().value, 1);
  else
    ::unsetenv("SSAMR_EXP_ITERS");
  EXPECT_EQ(exp::run_iterations(7), GetParam().expected);
  if (saved != nullptr)
    ::setenv("SSAMR_EXP_ITERS", restore.c_str(), 1);
  else
    ::unsetenv("SSAMR_EXP_ITERS");
}

INSTANTIATE_TEST_SUITE_P(
    SsamrExpIters, RunIterationsTest,
    ::testing::Values(
        ItersCase{"Unset", nullptr, 7}, ItersCase{"Fifty", "50", 50},
        ItersCase{"One", "1", 1}, ItersCase{"Zero", "0", 7},
        ItersCase{"Garbage", "abc", 7},
        // 2^32 + 1 used to run 1 iteration.
        ItersCase{"TwoPow32Plus1", "4294967297", 7},
        // INT_MAX + 1 used to return INT_MIN; INT_MAX itself is valid.
        ItersCase{"IntMaxPlus1", "2147483648", 7},
        ItersCase{"IntMax", "2147483647", std::numeric_limits<int>::max()}));

TEST(Experiment, EnvRealValidatesRangeAndGarbage) {
  ASSERT_EQ(::unsetenv("SSAMR_TEST_ENV_REAL"), 0);
  EXPECT_DOUBLE_EQ(exp::env_real("SSAMR_TEST_ENV_REAL", 0.5, 0.0, 1.0), 0.5);

  const auto with = [](const char* v, real_t fallback, real_t lo, real_t hi) {
    ::setenv("SSAMR_TEST_ENV_REAL", v, 1);
    const real_t got =
        exp::env_real("SSAMR_TEST_ENV_REAL", fallback, lo, hi);
    ::unsetenv("SSAMR_TEST_ENV_REAL");
    return got;
  };
  EXPECT_DOUBLE_EQ(with("0.25", 0.5, 0.0, 1.0), 0.25);
  EXPECT_DOUBLE_EQ(with("2.5", 0.5, 0.0, 1.0), 0.5);   // above max
  EXPECT_DOUBLE_EQ(with("-0.1", 0.5, 0.0, 1.0), 0.5);  // below min
  EXPECT_DOUBLE_EQ(with("x", 0.5, 0.0, 1.0), 0.5);     // garbage
  EXPECT_DOUBLE_EQ(with("0.1y", 0.5, 0.0, 1.0), 0.5);  // trailing garbage
  EXPECT_DOUBLE_EQ(with("nan", 0.5, 0.0, 1.0), 0.5);   // NaN never passes
  EXPECT_DOUBLE_EQ(with("0", 0.5, 0.0, 1.0), 0.0);     // boundary
  EXPECT_DOUBLE_EQ(with("1", 0.5, 0.0, 1.0), 1.0);
}

TEST(Experiment, ReferenceCapacitiesMatchThePaper) {
  const auto caps = exp::reference_capacities4();
  ASSERT_EQ(caps.size(), 4u);
  EXPECT_NEAR(std::accumulate(caps.begin(), caps.end(), 0.0), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(caps[0], 0.16);
  EXPECT_DOUBLE_EQ(caps[3], 0.34);
}

TEST(Experiment, PaperTraceIsPaperScale) {
  const TraceConfig cfg = exp::paper_trace_config();
  EXPECT_EQ(cfg.domain.extent(), IntVec(128, 32, 32));
  EXPECT_EQ(cfg.max_levels, 4);  // 3 levels of factor-2 refinement
  SyntheticAmrTrace t(cfg);
  const BoxList b0 = t.boxes_at_epoch(0);
  EXPECT_GT(b0.size(), 3u);
  EXPECT_GT(b0.total_cells(), 128 * 32 * 32);
}

TEST(Experiment, PaperClusterIsFastEthernet) {
  const Cluster c = exp::paper_cluster(4);
  EXPECT_EQ(c.size(), 4);
  EXPECT_DOUBLE_EQ(c.spec(0).bandwidth_mbps.value(), 100.0);
  EXPECT_EQ(c.spec(0).peak_rate, c.spec(3).peak_rate);
}

TEST(Experiment, ScaleLatticeHasFourBoxesPerRank) {
  for (const int nprocs : {1, 3, 4, 7, 64}) {
    const BoxList boxes = exp::scale_lattice(nprocs);
    std::size_t base = 0, children = 0;
    for (const Box& b : boxes) {
      if (b.level() == 0) {
        ++base;
        EXPECT_EQ(b.extent(), IntVec(8, 8, 8)) << b;
      } else {
        ++children;
        EXPECT_EQ(b.level(), 1) << b;
        EXPECT_EQ(b.extent(), IntVec(8, 8, 4)) << b;
      }
    }
    const std::size_t nboxes = 4 * static_cast<std::size_t>(nprocs);
    EXPECT_EQ(base, nboxes) << nprocs << " ranks";
    EXPECT_EQ(children, (nboxes + 7) / 8) << nprocs << " ranks";
    EXPECT_FALSE(boxes.has_overlap()) << nprocs << " ranks";
  }
}

TEST(Experiment, ScaleLatticeChildrenNestInsideTheirParents) {
  // Each child follows the level-0 box it refines, inside it.
  const BoxList boxes = exp::scale_lattice(64);
  ASSERT_FALSE(boxes.empty());
  EXPECT_EQ(boxes[0].level(), 0);
  for (std::size_t i = 1; i < boxes.size(); ++i) {
    if (boxes[i].level() == 0) continue;
    ASSERT_EQ(boxes[i - 1].level(), 0) << boxes[i];
    EXPECT_TRUE(boxes[i - 1].contains(boxes[i].coarsened())) << boxes[i];
  }
}

TEST(Experiment, ScaleCapacitiesAreNormalizedJitteredMultipliers) {
  constexpr real_t kMultipliers[] = {1.0, 0.75, 1.5, 1.25};
  const auto caps = exp::scale_capacities(64);
  ASSERT_EQ(caps.size(), 64u);
  EXPECT_NEAR(std::accumulate(caps.begin(), caps.end(), 0.0), 1.0, 1e-12);
  // Node k's share over node 0's is its multiplier ratio times a jitter
  // ratio within [0.9/1.1, 1.1/0.9].
  for (std::size_t k = 1; k < caps.size(); ++k) {
    const real_t jitter = (caps[k] / caps[0]) / kMultipliers[k % 4];
    EXPECT_GE(jitter, 0.9 / 1.1) << k;
    EXPECT_LE(jitter, 1.1 / 0.9) << k;
  }
  EXPECT_EQ(exp::scale_capacities(64), caps);  // fixed seed
  // Every rank count draws the same stream: a smaller sweep's capacities
  // are a rescaled prefix of a larger one's.
  const auto small = exp::scale_capacities(8);
  for (std::size_t k = 1; k < small.size(); ++k)
    EXPECT_NEAR(small[k] / small[0], caps[k] / caps[0], 1e-12) << k;
}

TEST(Experiment, ScaleClusterRepeatsTheMultipliers) {
  constexpr real_t kMultipliers[] = {1.0, 0.75, 1.5, 1.25};
  const Cluster c = exp::scale_cluster(10);
  ASSERT_EQ(c.size(), 10);
  for (int k = 0; k < c.size(); ++k)
    EXPECT_DOUBLE_EQ(c.spec(k).peak_rate.value() / c.spec(0).peak_rate.value(),
                     kMultipliers[k % 4])
        << k;
}

TEST(Experiment, StaticLoadsDifferentiateNodes) {
  Cluster c = exp::paper_cluster(4);
  exp::apply_static_loads(c);
  EXPECT_LT(c.state_at(0, Seconds{10.0}).cpu_available.value(), 0.8);
  EXPECT_DOUBLE_EQ(c.state_at(3, Seconds{10.0}).cpu_available.value(), 1.0);
}

TEST(Experiment, DynamicLoadsEvolveOverTime) {
  Cluster c = exp::paper_cluster(4);
  exp::apply_dynamic_loads(c, 100.0);
  const real_t before = c.state_at(0, Seconds{0.0}).cpu_available.value();
  const real_t during = c.state_at(0, Seconds{40.0}).cpu_available.value();
  const real_t after = c.state_at(0, Seconds{60.0}).cpu_available.value();
  EXPECT_DOUBLE_EQ(before, 1.0);
  EXPECT_LT(during, 0.35);
  EXPECT_GT(after, during);  // heavy generator exited at 0.55 tau
}

TEST(Experiment, FaultPlanIsEmptyAtRateZeroAndScriptedOtherwise) {
  for (const char* knob :
       {"SSAMR_FAULT_TIMEOUT_FRACTION", "SSAMR_FAULT_STALE_WINDOWS",
        "SSAMR_FAULT_CRASHES", "SSAMR_FAULT_SEED"})
    ASSERT_EQ(::unsetenv(knob), 0);
  const FaultPlan none = exp::fault_plan(0.0, 4, 100.0);
  EXPECT_TRUE(none.episodes().empty());
  EXPECT_EQ(none.probe_timeout_rate, 0.0);
  EXPECT_EQ(none.probe_drop_rate, 0.0);
  // The default knobs: half the rate times out, two stale windows, one
  // crash, seed 1724 — the plan FaultPlan::scripted builds from them.
  const FaultPlan plan = exp::fault_plan(0.2, 4, 100.0);
  FaultProfile profile;
  profile.probe_timeout_rate = 0.1;
  profile.probe_drop_rate = 0.1;
  profile.stale_windows = 2;
  profile.crash_episodes = 1;
  const FaultPlan want = FaultPlan::scripted(4, Seconds{100.0}, profile, 1724);
  EXPECT_EQ(plan.probe_timeout_rate, want.probe_timeout_rate);
  EXPECT_EQ(plan.probe_drop_rate, want.probe_drop_rate);
  EXPECT_EQ(plan.seed, want.seed);
  ASSERT_EQ(plan.episodes().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(plan.episodes()[i].rank, want.episodes()[i].rank);
    EXPECT_EQ(plan.episodes()[i].kind, want.episodes()[i].kind);
    EXPECT_EQ(plan.episodes()[i].t0, want.episodes()[i].t0);
    EXPECT_EQ(plan.episodes()[i].t1, want.episodes()[i].t1);
  }
}

TEST(Experiment, SystemSensitiveWinsAtFourProcs) {
  const auto cmp =
      exp::compare_partitioners(4, 60, 0, ExecModelKind::kBsp);
  EXPECT_GT(cmp.improvement(), 0.0);
  EXPECT_LT(cmp.improvement(), 0.5);
}

TEST(Experiment, ImbalanceLowerForSystemSensitive) {
  // Fig. 10's claim, at reduced scale: mean max-imbalance of the
  // system-sensitive partitioner is below the default's under fixed
  // heterogeneous capacities.
  const auto caps = exp::reference_capacities4();
  SyntheticAmrTrace trace(exp::paper_trace_config());
  HeterogeneousPartitioner het;
  GraceDefaultPartitioner def;
  const WorkModel wm;
  real_t het_sum = 0, def_sum = 0;
  for (int e = 0; e < 6; ++e) {
    const BoxList boxes = trace.boxes_at_epoch(e);
    // Imbalance is measured against the capacity-proportional targets for
    // BOTH schemes (the default ignores capacities, which is the point).
    auto het_r = het.partition(boxes, caps, wm);
    auto def_r = def.partition(boxes, caps, wm);
    const real_t total = total_work(boxes, wm);
    for (std::size_t k = 0; k < caps.size(); ++k)
      def_r.target_work[k] = caps[k] * total;
    het_sum += max_load_imbalance_pct(het_r);
    def_sum += max_load_imbalance_pct(def_r);
  }
  EXPECT_LT(het_sum, def_sum);
  // Paper: system-sensitive residual imbalance stays under ~40 %.
  EXPECT_LT(het_sum / 6, 40.0);
}

TEST(Experiment, TimescaleCalibrationConverges) {
  const real_t tau =
      exp::calibrate_timescale(4, 30, 10, ExecModelKind::kBsp);
  EXPECT_GT(tau, 1.0);
  const RunTrace t =
      exp::run_dynamic_het(4, 30, 10, tau, ExecModelKind::kBsp);
  // The calibrated timescale must be within a factor ~2 of the duration.
  EXPECT_GT(t.total_time, Seconds{0.4 * tau});
  EXPECT_LT(t.total_time, Seconds{2.5 * tau});
}

TEST(Experiment, HeadlineResultHoldsAcrossSensorSeeds) {
  // The Table I conclusion (system-sensitive wins) must not hinge on the
  // particular sensor-noise stream.
  for (std::uint64_t seed : {11u, 222u, 3333u}) {
    Cluster c1 = exp::paper_cluster(8);
    exp::apply_static_loads(c1);
    Cluster c2 = exp::paper_cluster(8);
    exp::apply_static_loads(c2);
    RuntimeConfig cfg = exp::paper_runtime_config(60, 0);
    cfg.monitor.seed = seed;
    TraceWorkloadSource s1(exp::paper_trace_config());
    TraceWorkloadSource s2(exp::paper_trace_config());
    HeterogeneousPartitioner het;
    GraceDefaultPartitioner def;
    AdaptiveRuntime r1(c1, s1, het, cfg);
    AdaptiveRuntime r2(c2, s2, def, cfg);
    EXPECT_LT(r1.run().total_time, r2.run().total_time)
        << "seed " << seed;
  }
}

TEST(Experiment, RuntimeConfigMatchesPaperParameters) {
  const RuntimeConfig cfg = exp::paper_runtime_config(200, 20);
  EXPECT_EQ(cfg.total_iterations, 200);
  EXPECT_EQ(cfg.regrid_interval, 5);  // paper: regrid every 5 iterations
  EXPECT_EQ(cfg.sensing.interval, 20);
  EXPECT_TRUE(cfg.weights.valid());
  EXPECT_DOUBLE_EQ(cfg.weights.cpu, 1.0 / 3.0);  // equal weights
}

TEST(Experiment, ExecModelComesFromTheFlagThenTheEnvironmentThenTheFallback) {
  // select_exec_model parses and returns; it stores nothing, so the paper
  // configuration stays BSP whatever a driver selected or the environment
  // says.
  const char* saved = std::getenv("SSAMR_EXEC_MODEL");
  const std::string restore = saved != nullptr ? saved : "";
  char prog[] = "driver";
  char event[] = "--exec-model=event";
  char proc[] = "--exec-model=proc";
  char other[] = "--seconds=3";
  char* none[] = {prog, other};
  char* one[] = {prog, event};
  char* two[] = {prog, proc, other, event};

  ::unsetenv("SSAMR_EXEC_MODEL");
  EXPECT_EQ(exp::select_exec_model(2, none), ExecModelKind::kBsp);
  EXPECT_EQ(exp::select_exec_model(2, none, ExecModelKind::kProc),
            ExecModelKind::kProc);
  EXPECT_EQ(exp::select_exec_model(2, one, ExecModelKind::kProc),
            ExecModelKind::kEvent);
  EXPECT_EQ(exp::select_exec_model(4, two), ExecModelKind::kEvent);
  EXPECT_EQ(exp::paper_runtime_config(10, 0).exec_model, ExecModelKind::kBsp);

  ::setenv("SSAMR_EXEC_MODEL", "proc", 1);
  EXPECT_EQ(exp::select_exec_model(2, none), ExecModelKind::kProc);
  EXPECT_EQ(exp::select_exec_model(2, one), ExecModelKind::kEvent);
  EXPECT_EQ(exp::paper_runtime_config(10, 0).exec_model, ExecModelKind::kBsp);

  if (saved != nullptr)
    ::setenv("SSAMR_EXEC_MODEL", restore.c_str(), 1);
  else
    ::unsetenv("SSAMR_EXEC_MODEL");
}

}  // namespace
}  // namespace ssamr
