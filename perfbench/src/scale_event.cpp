/// \file scale_event.cpp
/// `scale-event`: the exp_scale lattice at P = 4096 (four 8³ boxes per
/// rank, every eighth carrying a refined child) under the event model,
/// driven directly as bench/exp_scale.cpp does.  One op is one regrid
/// epoch: regrid, a seeded capacity rotation, partition, migrate,
/// build_local_views, then five advances.  Epochs chain: each op starts
/// from the previous op's layout and executor state.
///
/// Two departures from exp_scale, both so that every op does the work its
/// name says:
///  - Capacities follow the nodes' peak-rate multipliers with a seeded
///    ±10 % per-rank jitter, and op i rotates them to its own offset.
///    The t = 0 Eq. 1 capacities exp_scale rotates are uniform (the nodes
///    differ only in peak rate, which Eq. 1 does not sense), so rotating
///    them never moves a box; and a 4-periodic vector has only four
///    rotations, so ops would repeat layouts.
///  - A chain of epochs runs on one executor for at most kChain epochs;
///    the op that starts the next chain builds a fresh executor.  Past
///    1024 virtual seconds the indexed network simulator can re-arm a
///    residual transfer at the same instant forever (the residual's
///    drain time falls below half an ulp of the clock), and a chain stays
///    far below that.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <utility>

#include "hdda/local_view.hpp"
#include "partition/distributed_sfc.hpp"
#include "sfc/key_index.hpp"
#include "sim/event_executor.hpp"
#include "timed.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kProcs = 4096;
constexpr int kAdvances = 5;
constexpr int kShards = 64;
// Epochs per executor: about 45 virtual seconds each, so a chain ends
// near 550 s, well clear of the 1024 s stall.
constexpr int kChain = 12;
constexpr ssamr::real_t kMultipliers[] = {1.0, 0.75, 1.5, 1.25};

/// The exp_scale lattice: four 8³ level-0 boxes per rank on a cube-ish
/// grid, every eighth box carrying a half-depth refined child.
ssamr::BoxList lattice(int nprocs) {
  using ssamr::Box;
  using ssamr::IntVec;
  const std::int64_t nboxes = 4 * static_cast<std::int64_t>(nprocs);
  ssamr::coord_t side = 1;
  while (static_cast<std::int64_t>(side) * side * side < nboxes) ++side;
  ssamr::BoxList boxes;
  std::int64_t placed = 0;
  for (ssamr::coord_t k = 0; k < side && placed < nboxes; ++k)
    for (ssamr::coord_t j = 0; j < side && placed < nboxes; ++j)
      for (ssamr::coord_t i = 0; i < side && placed < nboxes; ++i) {
        boxes.push_back(
            Box::from_extent(IntVec(i * 8, j * 8, k * 8), IntVec(8, 8, 8), 0));
        if (placed % 8 == 0)
          boxes.push_back(Box::from_extent(IntVec(i * 16, j * 16, k * 16),
                                           IntVec(8, 8, 4), 1));
        ++placed;
      }
  return boxes;
}

/// The application side of the epoch loop: hands out the same lattice at
/// every regrid (no trace, no particles).
class LatticeSource final : public ssamr::WorkloadSource {
 public:
  explicit LatticeSource(int nprocs) : boxes_(lattice(nprocs)) {}
  ssamr::BoxList boxes_for_regrid(int /*regrid_index*/) override {
    return boxes_;
  }

 private:
  ssamr::BoxList boxes_;
};

/// Relative capacities: each node's peak-rate multiplier with a ±10 %
/// jitter, normalized.
std::vector<ssamr::real_t> jittered_capacities(int nprocs, ssamr::Rng& rng) {
  ssamr::real_t sum = 0;
  std::vector<ssamr::real_t> caps(static_cast<std::size_t>(nprocs));
  for (std::size_t k = 0; k < caps.size(); ++k) {
    caps[k] = kMultipliers[k % 4] * rng.uniform(0.9, 1.1);
    sum += caps[k];
  }
  for (ssamr::real_t& c : caps) c /= sum;
  return caps;
}

class ScaleEvent final : public Workload {
 public:
  explicit ScaleEvent(std::uint64_t seed)
      : cluster_(ssamr::Cluster::heterogeneous(
            kProcs, {std::begin(kMultipliers), std::end(kMultipliers)})),
        partitioner_(ssamr::SfcConfig{}, kShards),
        source_(kProcs) {
    ssamr::Rng rng = op_rng(seed, -1);
    base_caps_ = jittered_capacities(kProcs, rng);
    // Op i uses offset (first + (i + 1) * stride) mod P; an odd stride
    // makes the offsets of any P consecutive ops distinct.
    first_offset_ = rng.uniform_int(0, kProcs - 1);
    stride_ = 2 * rng.uniform_int(0, kProcs / 2 - 1) + 1;
    current_ = partitioner_.partition(source_.boxes_for_regrid(0),
                                      capacities(-1), work_);
    start_chain();
  }

  int block() const override { return 1; }

  OpResult run_op(int index, Tracer* tracer, int /*op_span*/) override {
    // The benchmark's epoch loop stands in for AdaptiveRuntime::run: its
    // self time is the runtime layer's on this workload.
    const ScopedSpan epoch_span(tracer, "runtime.epoch", index);
    OpResult out;
    if (index > 0 && index % kChain == 0) {
      const ScopedSpan span(tracer, "sim.advance_first", index);
      start_chain();
      ++out.iters;
    }
    const int epoch = index % kChain + 1;
    const int iter0 = epoch * kAdvances;
    const auto events0 = static_cast<std::int64_t>(exec_->events_processed());
    const ssamr::Seconds t0 = t_;

    ssamr::WorkloadSource* source = &source_;
    const ssamr::Partitioner* partitioner = &partitioner_;
    std::unique_ptr<TimedWorkloadSource> timed_source;
    std::unique_ptr<TimedPartitioner> timed_partitioner;
    if (tracer != nullptr) {
      timed_source = std::make_unique<TimedWorkloadSource>(source_, *tracer,
                                                           index, index);
      timed_partitioner =
          std::make_unique<TimedPartitioner>(partitioner_, *tracer, index);
      source = timed_source.get();
      partitioner = timed_partitioner.get();
    }

    const ssamr::BoxList boxes = source->boxes_for_regrid(epoch);
    work_.particles = source->particles_for_regrid(epoch);
    {
      const ScopedSpan span(tracer, "sim.regrid", index);
      t_ += exec_->regrid(t_, boxes.size(), iter0);
    }
    ssamr::PartitionResult next =
        partitioner->partition(boxes, capacities(index), work_);
    {
      const ScopedSpan span(tracer, "sim.migrate", index);
      t_ += exec_->migrate(current_, next, t_);
    }
    current_ = std::move(next);

    std::int64_t owned_total = 0;
    ssamr::SfcKeyIndexStats index_stats;
    {
      const ScopedSpan span(tracer, "hdda.views", index);
      std::vector<ssamr::Box> owned;
      std::vector<ssamr::rank_t> owners;
      owned.reserve(current_.assignments.size());
      owners.reserve(current_.assignments.size());
      for (const ssamr::BoxAssignment& a : current_.assignments) {
        owned.push_back(a.box);
        owners.push_back(a.owner);
      }
      const ssamr::SfcKeyIndex key_index(owned);
      const auto views = ssamr::build_local_views(owned, owners, kProcs,
                                                  ecfg_.ghost, key_index);
      for (const ssamr::LocalBoxView& v : views)
        owned_total += static_cast<std::int64_t>(v.owned.size());
      index_stats = key_index.stats();
    }

    for (int a = 0; a < kAdvances; ++a) {
      const ScopedSpan span(
          tracer, a == 0 ? "sim.advance_first" : "sim.advance", index);
      t_ += exec_->advance(current_, t_, iter0 + a).elapsed;
    }

    out.iters += kAdvances;
    const auto events =
        static_cast<std::int64_t>(exec_->events_processed()) - events0;
    out.digest = {t_.value(), static_cast<double>(events),
                  static_cast<double>(index_stats.hits)};
    check(boxes, owned_total, t0, events, out);
    if (tracer != nullptr) {
      tracer->count("sim.events", events);
      tracer->count("sfc.index_candidates", index_stats.candidates);
      tracer->count("sfc.index_hits", index_stats.hits);
    }
    return out;
  }

 private:
  /// The base capacities rotated to op `index`'s offset.
  std::vector<ssamr::real_t> capacities(int index) const {
    const std::int64_t offset =
        (first_offset_ + (index + 1) * stride_) % kProcs;
    std::vector<ssamr::real_t> caps = base_caps_;
    std::rotate(caps.begin(), caps.begin() + offset, caps.end());
    return caps;
  }

  /// Fresh executor and virtual clock on the current layout, plus one
  /// advance: the executor fills its per-topology caches (ghost-flow
  /// plans, simulator workspace) on first contact.
  void start_chain() {
    exec_.reset();  // never hold two executors' state at once
    exec_ = std::make_unique<ssamr::sim::EventExecutor>(cluster_, ecfg_);
    t_ = ssamr::Seconds{0};
    t_ += exec_->advance(current_, t_, 0).elapsed;
  }

  void check(const ssamr::BoxList& boxes, std::int64_t owned_total,
             ssamr::Seconds t0, std::int64_t events, OpResult& out) const {
    double assigned = 0;
    for (const ssamr::real_t w : current_.assigned_work) assigned += w;
    const double total = ssamr::total_work(boxes, work_);
    if (current_.assigned_work.size() != static_cast<std::size_t>(kProcs))
      out.error = "partition assigned work to the wrong number of ranks";
    else if (!(std::abs(assigned - total) <= 1e-9 * total))
      out.error = "partition does not conserve work";
    else if (owned_total !=
             static_cast<std::int64_t>(current_.assignments.size()))
      out.error = "local views do not own every box exactly once";
    else if (!(std::isfinite(t_.value()) && t_ > t0))
      out.error = "virtual clock did not advance";
    else if (events <= 0)
      out.error = "network simulated no events";
  }

  ssamr::Cluster cluster_;
  const ssamr::ExecutorConfig ecfg_{};
  std::unique_ptr<ssamr::sim::EventExecutor> exec_;
  const ssamr::DistributedSfcPartitioner partitioner_;
  LatticeSource source_;
  std::vector<ssamr::real_t> base_caps_;
  std::int64_t first_offset_ = 0;
  std::int64_t stride_ = 1;
  ssamr::WorkModel work_;
  ssamr::PartitionResult current_;
  ssamr::Seconds t_{0};
};

}  // namespace

std::unique_ptr<Workload> make_scale_event(std::uint64_t seed) {
  return std::make_unique<ScaleEvent>(seed);
}

}  // namespace perfbench
