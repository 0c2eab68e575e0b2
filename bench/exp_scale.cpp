/// \file exp_scale.cpp
/// Distributed-metadata scale sweep: P = 128 / 1024 / 4096 / 16384 under
/// the event execution model (DESIGN.md §11; EXPERIMENTS.md, scale sweep).
///
/// Each cluster size runs the same per-rank workload shape — four 8³
/// level-0 boxes per rank on a cube-ish lattice, every eighth box carrying
/// a refined child — so total box count grows linearly with P while the
/// local problem stays fixed.  The sweep drives the EventExecutor directly
/// (partition → iterate → periodic regrid/repartition with a rotated
/// capacity pattern → migrate), exercising every scale-path layer at once:
/// the distributed prefix-sum partitioner, key-indexed neighbor discovery
/// behind the comm metrics and the migration diff, and the indexed fluid
/// network simulator.
///
/// Capacities follow the nodes' peak-rate multipliers with a fixed-seed
/// ±10 % per-rank jitter, normalized, and each repartition rotates them by
/// one rank.  The t = 0 Eq. 1 capacities would not do: the nodes differ
/// only in peak rate, which Eq. 1 does not sense, so they are uniform and
/// rotating them never moves a box.  Without the jitter the 4-periodic
/// pattern's cuts land on box boundaries and the first partition splits
/// no box.
///
/// The CSV (results/exp_scale.csv, golden-pinned) holds only deterministic
/// quantities: box/assignment/flow/event counts, the migration flows summed
/// over the run's repartitions, local-view halo sizes, key-index query
/// statistics and the final virtual time.  Host figures — partition
/// seconds, network events processed per second and the process's peak
/// RSS after each row — go to stdout only, and the microbench twin
/// (bench_scale.cpp) gates the timings in CI via tools/bench_check.py.
/// The executor is built directly, so it keeps per-rank usage but no
/// timeline spans: nothing here exports a trace.
///
/// Flags / environment:
///   SSAMR_EXP_ITERS     iterations per cluster size (default 40)
///   SSAMR_SCALE_MAX_P   cap on the sweep (default 16384; lower it for a
///                       quick local run, e.g. 1024)
///   SSAMR_SCALE_CHECK   when 1, enforce the scaling acceptance bounds —
///                       events/sec at the largest P at least the
///                       SSAMR_SCALE_FLOOR share of the P = 128 rate, and
///                       partition time growing sublinearly in total box
///                       count — exiting non-zero on violation.
///   SSAMR_SCALE_FLOOR   events/sec ratio floor for the check, ×100
///                       (default 50, i.e. within 2×).  The achievable
///                       ratio is machine-dependent — a single-process
///                       sweep holds all P ranks' simulator state in one
///                       address space, so the large-P rate is bounded by
///                       the last-level cache, not the algorithm (see
///                       EXPERIMENTS.md) — so CI boxes may need a lower
///                       floor to make the check a useful regression trap.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "core/experiment.hpp"
#include "hdda/local_view.hpp"
#include "partition/distributed_sfc.hpp"
#include "sfc/key_index.hpp"
#include "sim/event_executor.hpp"
#include "util/csv.hpp"
#include "util/wallclock.hpp"

using namespace ssamr;

namespace {

struct ScaleRow {
  int nprocs = 0;
  std::int64_t boxes = 0;
  std::int64_t assignments = 0;
  std::int64_t splits = 0;
  std::int64_t ghost_flows = 0;
  std::int64_t migration_flows = 0;
  std::int64_t events = 0;
  std::int64_t halo_links = 0;
  std::int64_t halo_max = 0;
  std::int64_t index_candidates = 0;
  std::int64_t index_hits = 0;
  Seconds virtual_time{0};
  // Wall-clock (stdout + bench gate only; never in the CSV).
  double partition_seconds = 0;
  double advance_seconds = 0;
};

ScaleRow run_scale(int nprocs, int iterations) {
  ScaleRow row;
  row.nprocs = nprocs;

  Cluster cluster = exp::scale_cluster(nprocs);
  const ExecutorConfig ecfg;
  sim::EventExecutor exec(cluster, ecfg);

  const BoxList boxes = exp::scale_lattice(nprocs);
  row.boxes = static_cast<std::int64_t>(boxes.size());
  std::vector<real_t> caps = exp::scale_capacities(nprocs);
  const DistributedSfcPartitioner partitioner(SfcConfig{}, /*shards=*/64);
  const WorkModel work;

  int partitions = 0;
  const auto partition_now = [&](const std::vector<real_t>& c) {
    const double w0 = wallclock_seconds();
    PartitionResult r = partitioner.partition(boxes, c, work);
    row.partition_seconds += wallclock_seconds() - w0;
    ++partitions;
    return r;
  };

  PartitionResult current = partition_now(caps);
  row.assignments = static_cast<std::int64_t>(current.assignments.size());
  row.splits = current.splits;
  // Read through the executor's cache, which the warm-up advance below
  // then reuses instead of discovering the same flows again.
  row.ghost_flows =
      static_cast<std::int64_t>(exec.costs().ghost_flows(current).size());

  Seconds t{0};
  // One untimed warm-up advance: the executor fills its per-topology
  // caches (ghost-flow plans, simulator workspace) on first contact, a
  // one-time cost that would otherwise be billed to the first timed
  // iteration — at P = 16384 it is most of that iteration.  Events are
  // counted over the timed window only, so the throughput figure divides
  // matching numerators and denominators.
  t += exec.advance(current, t, /*iter=*/0).elapsed;
  const auto warm_events = static_cast<std::int64_t>(exec.events_processed());
  const double adv0 = wallclock_seconds();
  for (int iter = 0; iter < iterations; ++iter) {
    if (iter > 0 && iter % 10 == 0) {
      t += exec.regrid(t, boxes.size(), iter);
      // Rotate the capacity pattern one rank: quantile cuts shift, boxes
      // change owners, and the migration path runs at full scale.
      std::rotate(caps.begin(), caps.begin() + 1, caps.end());
      PartitionResult next = partition_now(caps);
      row.migration_flows += static_cast<std::int64_t>(
          exec.costs().migration_flows(current, next).size());
      t += exec.migrate(current, next, t);
      current = std::move(next);
    }
    const StepCost cost = exec.advance(current, t, iter);
    t += cost.elapsed;
  }
  row.advance_seconds = wallclock_seconds() - adv0;
  row.partition_seconds /= partitions;
  row.events =
      static_cast<std::int64_t>(exec.events_processed()) - warm_events;
  row.virtual_time = t;

  // Local-view halo statistics of the final layout, via the shared key
  // index (its query counters land in the CSV as the determinism pin on
  // the near-linear discovery cost).
  std::vector<Box> owned_boxes;
  std::vector<rank_t> owners;
  owned_boxes.reserve(current.assignments.size());
  for (const auto& a : current.assignments) {
    owned_boxes.push_back(a.box);
    owners.push_back(a.owner);
  }
  const SfcKeyIndex index(owned_boxes);
  const auto views =
      build_local_views(owned_boxes, owners, nprocs, ecfg.ghost, index);
  for (const LocalBoxView& v : views) {
    row.halo_links += static_cast<std::int64_t>(v.links.size());
    row.halo_max =
        std::max(row.halo_max, static_cast<std::int64_t>(v.halo.size()));
  }
  row.index_candidates = index.stats().candidates;
  row.index_hits = index.stats().hits;
  return row;
}

/// The process's peak resident set in MB: VmHWM from /proc/self/status,
/// or getrusage's ru_maxrss where /proc is missing.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kb = 0;
    if (fields >> kb) return kb / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string fmt_seconds(Seconds s) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(6) << s.value();
  return os.str();
}

}  // namespace

int main() {
  std::cout << "=== exp_scale: distributed-metadata sweep under the event"
               " model ===\n\n";
  const int iterations = exp::run_iterations(40);
  // Validated: a zero or negative cap (e.g. a stray SSAMR_SCALE_MAX_P=-4)
  // must not underflow scale_lattice's 4·P box count — it falls back.
  const int max_p = exp::env_int("SSAMR_SCALE_MAX_P", 16384, /*min=*/1);

  std::vector<int> sweep;
  for (const int p : {128, 1024, 4096, 16384})
    if (p <= max_p) sweep.push_back(p);
  if (sweep.empty()) sweep.push_back(128);

  CsvWriter csv(exp::results_path("exp_scale.csv"),
                {"p", "boxes", "assignments", "splits", "ghost_flows",
                 "migration_flows", "events", "halo_links", "halo_max",
                 "index_candidates", "index_hits", "virtual_time_s"});

  std::vector<ScaleRow> rows;
  for (const int p : sweep) {
    ScaleRow row = run_scale(p, iterations);
    csv.add_row({std::to_string(row.nprocs), std::to_string(row.boxes),
                 std::to_string(row.assignments), std::to_string(row.splits),
                 std::to_string(row.ghost_flows),
                 std::to_string(row.migration_flows),
                 std::to_string(row.events), std::to_string(row.halo_links),
                 std::to_string(row.halo_max),
                 std::to_string(row.index_candidates),
                 std::to_string(row.index_hits),
                 fmt_seconds(row.virtual_time)});
    const double evps =
        row.advance_seconds > 0 ? row.events / row.advance_seconds : 0;
    std::cout << "P = " << std::setw(5) << row.nprocs << "  boxes = "
              << std::setw(6) << row.boxes << "  events = " << std::setw(9)
              << row.events << "  partition = " << std::fixed
              << std::setprecision(4) << row.partition_seconds
              << " s  events/s = " << std::setprecision(0) << evps
              << "  peak RSS = " << std::setprecision(1) << peak_rss_mb()
              << " MB\n";
    rows.push_back(row);
  }

  std::cout << "\nwrote " << exp::results_path("exp_scale.csv") << '\n';

  if (exp::env_int("SSAMR_SCALE_CHECK", 0, 0, 1) != 0 && rows.size() >= 2) {
    const ScaleRow& small = rows.front();
    const ScaleRow& big = rows.back();
    const double evps_small = small.events / small.advance_seconds;
    const double evps_big = big.events / big.advance_seconds;
    const int floor_pct = exp::env_int("SSAMR_SCALE_FLOOR", 50, 1, 100);
    const double floor = floor_pct / 100.0;
    const double boxes_ratio =
        static_cast<double>(big.boxes) / static_cast<double>(small.boxes);
    const double part_ratio = big.partition_seconds / small.partition_seconds;
    int failures = 0;
    std::cout << "\nscale check: events/s ratio "
              << std::setprecision(3) << evps_big / evps_small
              << " (floor " << floor << "), partition-time ratio "
              << part_ratio << " vs box ratio " << boxes_ratio << '\n';
    if (evps_big < floor * evps_small) {
      std::cerr << "SCALE CHECK FAILED: events/sec at P = " << big.nprocs
                << " fell below " << floor_pct << " % of the P = "
                << small.nprocs << " rate\n";
      ++failures;
    }
    if (part_ratio >= boxes_ratio) {
      std::cerr << "SCALE CHECK FAILED: partition time grew superlinearly"
                   " in total box count\n";
      ++failures;
    }
    if (failures > 0) return 1;
    std::cout << "scale check passed\n";
  }
  return 0;
}
