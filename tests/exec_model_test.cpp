// Tests of the ExecutionModel seam (sim/exec_model.hpp).
//
// The BSP half pins the refactor to the pre-seam runtime: a fixed scenario
// must reproduce the RunTrace captured *before* the ExecutionModel seam
// existed, bit for bit (hexfloat literals below).  The event half checks
// the discrete-event model's structural envelope — finite non-negative
// times, per-rank timeline contiguity, the critical-path lower bound —
// plus the paper's headline result (the heterogeneous partitioner beats
// the homogeneous baseline) and the Chrome-trace export.  Both models'
// kept spans are pinned by a digest, and an EventExecutor built directly,
// which drops spans, must price every stage exactly as the factory-built
// one does.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "core/ssamr.hpp"
#include "partition/distributed_sfc.hpp"
#include "sim/event_executor.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ssamr {
namespace {

TraceConfig small_trace() {
  TraceConfig cfg;
  cfg.domain = Box::from_extent(IntVec(0, 0, 0), IntVec(32, 8, 8), 0);
  cfg.max_levels = 3;
  cfg.cluster.min_box_size = 2;
  cfg.cluster.small_box_cells = 64;
  return cfg;
}

RuntimeConfig small_runtime(int iters, int sensing, ExecModelKind model) {
  RuntimeConfig cfg;
  cfg.total_iterations = iters;
  cfg.regrid_interval = 5;
  cfg.sensing.interval = sensing;
  cfg.executor.ncomp = 1;
  cfg.executor.ghost = 1;
  cfg.exec_model = model;
  return cfg;
}

/// The determinism-suite scenario: 4 ranks, one ramping background load,
/// sensing every 5 iterations.
RunTrace run_scenario(ExecModelKind model) {
  Cluster cluster = Cluster::homogeneous(4);
  LoadRamp ramp;
  ramp.rate = 0.01;
  ramp.target_level = 2.0;
  cluster.add_load(1, ramp);
  TraceWorkloadSource source(small_trace());
  HeterogeneousPartitioner part;
  AdaptiveRuntime rt(cluster, source, part, small_runtime(20, 5, model));
  return rt.run();
}

TEST(ExecModel, NamesRoundTrip) {
  EXPECT_STREQ(exec_model_name(ExecModelKind::kBsp), "bsp");
  EXPECT_STREQ(exec_model_name(ExecModelKind::kEvent), "event");
  EXPECT_STREQ(exec_model_name(ExecModelKind::kProc), "proc");
  EXPECT_EQ(parse_exec_model_name("bsp"), ExecModelKind::kBsp);
  EXPECT_EQ(parse_exec_model_name("event"), ExecModelKind::kEvent);
  EXPECT_EQ(parse_exec_model_name("proc"), ExecModelKind::kProc);
  EXPECT_THROW(parse_exec_model_name("fluid"), Error);
}

// Golden values captured from the pre-seam runtime (commit 63b07ad) on the
// scenario above.  The BSP model must reproduce them bit for bit: any
// deviation means the refactor changed the arithmetic, not just its home.
TEST(ExecModel, BspReproducesPreSeamTraceBitExactly) {
  const RunTrace t = run_scenario(ExecModelKind::kBsp);
  EXPECT_EQ(t.model, "bsp");
  EXPECT_EQ(t.total_time, Seconds{0x1.1a2d6c074fcbfp+3});
  EXPECT_EQ(t.compute_time, Seconds{0x1.c70511006938bp-2});
  EXPECT_EQ(t.comm_time, Seconds{0x1.8956164de0f56p-7});
  EXPECT_EQ(t.sense_time, Seconds{0x1p+3});
  EXPECT_EQ(t.regrid_time, Seconds{0x1.4cccccccccccep-2});
  EXPECT_EQ(t.migrate_time, Seconds{0x1.2c879352a386dp-5});
  ASSERT_EQ(t.regrids.size(), 4u);
  ASSERT_EQ(t.senses.size(), 4u);
  EXPECT_EQ(t.iterations, 20);
  EXPECT_EQ(t.regrids.back().vtime, Seconds{0x1.16cd476e0311ap+3});
  EXPECT_EQ(t.regrids.back().splits, 3);
  EXPECT_EQ(t.regrids.back().num_boxes, 17u);
}

/// FNV-1a over each span's rank, kind, t0 and t1 bit patterns and
/// iteration, each fed as 8 little-endian bytes.
std::uint64_t span_digest(const std::vector<TraceSpan>& spans) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto feed = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const TraceSpan& sp : spans) {
    feed(static_cast<std::uint64_t>(static_cast<std::int64_t>(sp.rank)));
    feed(static_cast<std::uint64_t>(sp.kind));
    feed(std::bit_cast<std::uint64_t>(sp.t0.value()));
    feed(std::bit_cast<std::uint64_t>(sp.t1.value()));
    feed(static_cast<std::uint64_t>(static_cast<std::int64_t>(sp.iteration)));
  }
  return h;
}

// Span counts and digests captured at commit 2e341ea, before span
// recording became a choice: the models make_execution_model builds must
// keep recording every span exactly as they did.
TEST(ExecModel, KeptSpansArePinnedBitForBit) {
  const RunTrace bsp = run_scenario(ExecModelKind::kBsp);
  EXPECT_EQ(bsp.spans.size(), 272u);
  EXPECT_EQ(span_digest(bsp.spans), 0x941fe8a1590e1b00ULL);
  const RunTrace event = run_scenario(ExecModelKind::kEvent);
  EXPECT_EQ(event.spans.size(), 143u);
  EXPECT_EQ(span_digest(event.spans), 0xfcce2a04e6a1c692ULL);
}

/// Structural envelope every model must satisfy.
void check_envelope(const RunTrace& t) {
  EXPECT_EQ(t.num_ranks, 4);
  ASSERT_EQ(t.rank_usage.size(), 4u);
  EXPECT_FALSE(t.spans.empty());

  EXPECT_TRUE(std::isfinite(t.total_time.value()));
  EXPECT_GT(t.total_time, Seconds{0.0});
  for (const RankUsage& u : t.rank_usage) {
    EXPECT_TRUE(std::isfinite(u.busy_s.value()) && u.busy_s >= Seconds{0});
    EXPECT_TRUE(std::isfinite(u.comm_s.value()) && u.comm_s >= Seconds{0});
    EXPECT_TRUE(std::isfinite(u.idle_s.value()) && u.idle_s >= Seconds{0});
    // The run is at least as long as any rank's busy time, and each
    // rank's timeline is contiguous: busy + comm + idle covers the run.
    EXPECT_GE(t.total_time, u.busy_s - Seconds{1e-9});
    EXPECT_NEAR((u.busy_s + u.comm_s + u.idle_s).value(),
                t.total_time.value(), 1e-6);
  }
  for (const TraceSpan& s : t.spans) {
    EXPECT_TRUE(std::isfinite(s.t0.value()) && std::isfinite(s.t1.value()));
    EXPECT_LE(s.t0, s.t1);
    EXPECT_GE(s.t0, Seconds{0.0});
    EXPECT_GE(s.rank, 0);
    EXPECT_LE(s.rank, t.num_ranks);  // == num_ranks: monitor lane
    // Rank spans end by the run end; the monitor lane may outlast it
    // (overlapped sweeps keep probing while ranks already finished).
    if (s.rank < t.num_ranks) {
      EXPECT_LE(s.t1, t.total_time + Seconds{1e-9});
    }
  }
}

TEST(ExecModel, BspFillsTimelineEnvelope) {
  check_envelope(run_scenario(ExecModelKind::kBsp));
}

TEST(ExecModel, EventSatisfiesTimelineEnvelope) {
  const RunTrace t = run_scenario(ExecModelKind::kEvent);
  EXPECT_EQ(t.model, "event");
  check_envelope(t);
  EXPECT_EQ(t.iterations, 20);
  EXPECT_EQ(t.regrids.size(), 4u);
}

TEST(ExecModel, EventOverlapsSensingWithExecution) {
  // Same scenario under both models: the event model hides the probe
  // sweeps behind execution (sense_time is recorded but not serialized
  // into the critical path), so it must finish strictly sooner.
  const RunTrace bsp = run_scenario(ExecModelKind::kBsp);
  const RunTrace event = run_scenario(ExecModelKind::kEvent);
  EXPECT_GT(bsp.sense_time, Seconds{0.0});
  EXPECT_DOUBLE_EQ(event.sense_time.value(),
                   bsp.sense_time.value());  // cost still known
  EXPECT_LT(event.total_time, bsp.total_time);
}

TEST(ExecModel, EventDeterministicAcrossThreadCounts) {
  ThreadPoolOverride serial(1);
  const RunTrace baseline = run_scenario(ExecModelKind::kEvent);
  for (const int threads : {2, 8}) {
    ThreadPoolOverride ov(threads);
    const RunTrace t = run_scenario(ExecModelKind::kEvent);
    EXPECT_TRUE(t == baseline) << "event model diverged at " << threads
                               << " threads";
  }
}

TEST(ExecModel, EventHeterogeneousBeatsDefaultUnderLoad) {
  // Paper Fig. 7 shape under the message-level model: with two loaded
  // nodes, capacity-aware partitioning beats equal shares.
  auto run_with = [](const Partitioner& p) {
    Cluster cluster = Cluster::homogeneous(4);
    LoadRamp heavy;
    heavy.rate = 0;  // rate 0: at the target level from the start
    heavy.target_level = 2.0;
    heavy.memory_mb = MegaBytes{100};
    cluster.add_load(1, heavy);
    cluster.add_load(2, heavy);
    TraceWorkloadSource source(small_trace());
    AdaptiveRuntime rt(cluster, source, p,
                       small_runtime(20, 0, ExecModelKind::kEvent));
    return rt.run();
  };
  HeterogeneousPartitioner het;
  GraceDefaultPartitioner def;
  const RunTrace t_het = run_with(het);
  const RunTrace t_def = run_with(def);
  EXPECT_LT(t_het.total_time, t_def.total_time);
}

constexpr real_t kScaleMultipliers[] = {1.0, 0.75, 1.5, 1.25};

/// exp_scale's lattice: four 8³ level-0 boxes per rank on a cube-ish grid,
/// every eighth carrying a half-depth refined child.
BoxList scale_lattice(int nprocs) {
  const std::int64_t nboxes = 4 * static_cast<std::int64_t>(nprocs);
  coord_t side = 1;
  while (static_cast<std::int64_t>(side) * side * side < nboxes) ++side;
  BoxList boxes;
  std::int64_t placed = 0;
  for (coord_t k = 0; k < side && placed < nboxes; ++k)
    for (coord_t j = 0; j < side && placed < nboxes; ++j)
      for (coord_t i = 0; i < side && placed < nboxes; ++i) {
        boxes.push_back(Box::from_extent(IntVec(i * 8, j * 8, k * 8),
                                         IntVec(8, 8, 8), 0));
        if (placed % 8 == 0)
          boxes.push_back(Box::from_extent(IntVec(i * 16, j * 16, k * 16),
                                           IntVec(8, 8, 4), 1));
        ++placed;
      }
  return boxes;
}

/// exp_scale's capacities: each node's peak-rate multiplier with a ±10 %
/// jitter from its fixed seed, normalized.
std::vector<real_t> scale_capacities(int nprocs) {
  Rng rng(0x5ca1e);
  std::vector<real_t> caps(static_cast<std::size_t>(nprocs));
  real_t sum = 0;
  for (std::size_t k = 0; k < caps.size(); ++k) {
    caps[k] = kScaleMultipliers[k % 4] * rng.uniform(0.9, 1.1);
    sum += caps[k];
  }
  for (real_t& c : caps) c /= sum;
  return caps;
}

std::uint64_t bits(Seconds s) {
  return std::bit_cast<std::uint64_t>(s.value());
}

TEST(ExecModel, DirectEventExecutorPricesLikeTheFactoryOneWithoutSpans) {
  // exp_scale's stage sequence at P = 64: a warm-up advance, one sweep,
  // then three epochs of regrid, rotated repartition, migration and five
  // advances.  The directly built executor drops spans; nothing it
  // returns may differ from the span-keeping one the factory builds.
  constexpr int kProcs = 64;
  const Cluster cluster = Cluster::heterogeneous(
      kProcs, {std::begin(kScaleMultipliers), std::end(kScaleMultipliers)});
  const ExecutorConfig cfg;
  sim::EventExecutor direct(cluster, cfg);
  const std::unique_ptr<ExecutionModel> built =
      make_execution_model(ExecModelKind::kEvent, cluster, cfg);
  auto& factory = dynamic_cast<sim::EventExecutor&>(*built);

  const BoxList boxes = scale_lattice(kProcs);
  std::vector<real_t> caps = scale_capacities(kProcs);
  const DistributedSfcPartitioner partitioner(SfcConfig{}, /*shards=*/64);
  const WorkModel work;
  PartitionResult current = partitioner.partition(boxes, caps, work);

  Seconds t{0};
  const auto advance_both = [&](int iter) {
    const StepCost a = direct.advance(current, t, iter);
    const StepCost b = factory.advance(current, t, iter);
    EXPECT_EQ(bits(a.elapsed), bits(b.elapsed)) << "iteration " << iter;
    EXPECT_EQ(bits(a.compute), bits(b.compute)) << "iteration " << iter;
    EXPECT_EQ(bits(a.comm), bits(b.comm)) << "iteration " << iter;
    t += a.elapsed;
  };
  advance_both(0);
  const Seconds wait = direct.sense(t, Seconds{0.5}, 0);
  EXPECT_EQ(bits(wait), bits(factory.sense(t, Seconds{0.5}, 0)));
  t += wait;
  int iter = 0;
  for (int epoch = 0; epoch < 3; ++epoch) {
    const Seconds regrid = direct.regrid(t, boxes.size(), iter);
    EXPECT_EQ(bits(regrid), bits(factory.regrid(t, boxes.size(), iter)));
    t += regrid;
    std::rotate(caps.begin(), caps.begin() + 1, caps.end());
    PartitionResult next = partitioner.partition(boxes, caps, work);
    const Seconds migrate = direct.migrate(current, next, t);
    EXPECT_EQ(bits(migrate), bits(factory.migrate(current, next, t)));
    EXPECT_GT(migrate, Seconds{0});  // the rotation moves boxes
    t += migrate;
    current = std::move(next);
    for (int a = 0; a < 5; ++a) advance_both(++iter);
  }
  EXPECT_EQ(direct.events_processed(), factory.events_processed());
  EXPECT_GT(direct.events_processed(), 0u);

  RunTrace from_direct;
  RunTrace from_factory;
  direct.finish(from_direct, t);
  factory.finish(from_factory, t);
  ASSERT_EQ(from_direct.rank_usage.size(), static_cast<std::size_t>(kProcs));
  ASSERT_EQ(from_factory.rank_usage.size(), from_direct.rank_usage.size());
  for (std::size_t k = 0; k < from_direct.rank_usage.size(); ++k) {
    const RankUsage& d = from_direct.rank_usage[k];
    const RankUsage& f = from_factory.rank_usage[k];
    EXPECT_EQ(bits(d.busy_s), bits(f.busy_s)) << "rank " << k;
    EXPECT_EQ(bits(d.comm_s), bits(f.comm_s)) << "rank " << k;
    EXPECT_EQ(bits(d.idle_s), bits(f.idle_s)) << "rank " << k;
  }
  EXPECT_TRUE(from_direct.spans.empty());
  EXPECT_FALSE(from_factory.spans.empty());
}

TEST(ExecModel, ChromeTraceExportsWellFormedEvents) {
  const RunTrace t = run_scenario(ExecModelKind::kEvent);
  std::ostringstream os;
  sim::write_chrome_trace(os, t);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"model\": \"event\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"compute\""), std::string::npos);
  EXPECT_NE(json.find("rank 0"), std::string::npos);
  EXPECT_NE(json.find("monitor"), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity; full JSON parsing
  // is exercised by the trace_check.py ctest entry.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

}  // namespace
}  // namespace ssamr
