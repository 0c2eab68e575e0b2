// Randomized property tests: every partitioner in the zoo must uphold its
// invariants on arbitrary (valid) workloads and capacity vectors — including
// deep refinement, anisotropic extents, heavily skewed and near-zero
// capacities, and the single-box / single-rank degenerate cases.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>

#include "capacity/capacity_audit.hpp"
#include "geom/box_algebra.hpp"
#include "partition/partition_audit.hpp"
#include "partition/zoo.hpp"
#include "util/rng.hpp"

namespace ssamr {
namespace {

/// A random, valid composite workload: disjoint same-level boxes laid out
/// on a jittered lattice, up to three refinement levels deep, with
/// anisotropic 3-D extents.  Every 11th trial degenerates to a single box.
BoxList random_workload(Rng& rng, int trial) {
  if (trial % 11 == 7) {
    BoxList out;
    out.push_back(Box::from_extent(
        IntVec(0, 0, 0),
        IntVec(8 + 4 * rng.uniform_int(0, 8), 4 + 4 * rng.uniform_int(0, 3),
               4 + 4 * rng.uniform_int(0, 2)),
        0));
    return out;
  }
  BoxList out;
  const coord_t cell = 4 + 4 * rng.uniform_int(0, 2);  // 4, 8 or 12
  const coord_t nx = rng.uniform_int(2, 5);
  const coord_t ny = rng.uniform_int(1, 4);
  for (coord_t i = 0; i < nx; ++i)
    for (coord_t j = 0; j < ny; ++j) {
      if (rng.uniform() < 0.2) continue;  // holes
      // Anisotropic in all three directions.
      const IntVec ext(cell + 2 * rng.uniform_int(0, 3),
                       cell + 2 * rng.uniform_int(0, 2),
                       cell + 2 * rng.uniform_int(0, 3));
      out.push_back(Box::from_extent(IntVec(i * 40, j * 40, 0), ext, 0));
      if (rng.uniform() < 0.5) {
        // A refined child inside (level-1 coordinates are 2x the parent's).
        const IntVec child(ext.x, ext.y, cell);
        out.push_back(
            Box::from_extent(IntVec(i * 80, j * 80, 0), child, 1));
        if (rng.uniform() < 0.4)
          // And a grandchild: three levels of nesting in one lattice cell.
          out.push_back(Box::from_extent(
              IntVec(i * 160, j * 160, 0),
              IntVec(child.x, cell, cell), 2));
      }
    }
  if (out.empty())
    out.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(8, 8, 8), 0));
  return out;
}

/// Random capacity vectors covering the hostile corners: a single rank,
/// a near-zero straggler, and heavy skew (one rank ~100x the others).
std::vector<real_t> random_capacities(Rng& rng, int trial) {
  if (trial % 9 == 4) return {1.0};  // single rank
  const int n = static_cast<int>(rng.uniform_int(1, 9));
  std::vector<real_t> caps(static_cast<std::size_t>(n));
  for (auto& c : caps) c = rng.uniform(0.05, 1.0);
  if (n > 1) {
    const real_t shape = rng.uniform();
    if (shape < 0.25)
      caps[0] = 1e-7;  // near-zero: effectively no share
    else if (shape < 0.5)
      caps[0] = 100.0;  // heavy skew: one rank dwarfs the rest
  }
  real_t sum = 0;
  for (real_t c : caps) sum += c;
  for (auto& c : caps) c /= sum;
  return caps;
}

class PartitionerFuzzTest : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<Partitioner> make() const {
    return make_partitioner(GetParam());
  }
};

TEST_P(PartitionerFuzzTest, InvariantsOnRandomWorkloads) {
  auto partitioner = make();
  Rng rng(0xf00d + std::hash<std::string>{}(GetParam()));
  const WorkModel work;
  for (int trial = 0; trial < 50; ++trial) {
    const BoxList boxes = random_workload(rng, trial);
    const auto caps = random_capacities(rng, trial);
    const PartitionResult r = partitioner->partition(boxes, caps, work);

    // Cell conservation.
    std::int64_t cells = 0;
    for (const auto& a : r.assignments) {
      cells += a.box.cells();
      ASSERT_GE(a.owner, 0);
      ASSERT_LT(a.owner, static_cast<rank_t>(caps.size()));
    }
    ASSERT_EQ(cells, boxes.total_cells()) << "trial " << trial;

    // Work bookkeeping.
    real_t assigned = 0;
    for (real_t w : r.assigned_work) {
      ASSERT_GE(w, 0.0);
      assigned += w;
    }
    ASSERT_NEAR(assigned, total_work(boxes, work),
                total_work(boxes, work) * 1e-9);

    // Exact coverage of every input box by same-level pieces.
    for (const Box& in : boxes) {
      std::vector<Box> pieces;
      for (const auto& a : r.assignments)
        if (a.box.level() == in.level() && in.intersects(a.box))
          pieces.push_back(a.box.intersection(in));
      ASSERT_TRUE(box_difference(in, pieces).empty())
          << "trial " << trial << " box " << in;
    }
  }
}

TEST_P(PartitionerFuzzTest, OutputsPassTheInvariantAudit) {
  auto partitioner = make();
  Rng rng(0xbead + std::hash<std::string>{}(GetParam()));
  const WorkModel work;
  for (int trial = 0; trial < 50; ++trial) {
    const BoxList boxes = random_workload(rng, trial);
    const auto caps = random_capacities(rng, trial);
    ASSERT_TRUE(audit::validate_capacities(caps).ok());
    const PartitionResult r = partitioner->partition(boxes, caps, work);
    const audit::AuditReport report = audit::validate_partition(
        boxes, r, caps, work, partitioner->constraints());
    ASSERT_TRUE(report.ok())
        << "trial " << trial << ": " << report.summary();
  }
}

// Keep this list in sync with partitioner_zoo(); the registry-consistency
// test in partition_differential_test cross-checks the ids.
INSTANTIATE_TEST_SUITE_P(AllSchemes, PartitionerFuzzTest,
                         ::testing::Values("default", "heterogeneous",
                                           "multiaxis", "sfc-heterogeneous",
                                           "greedy", "knapsack",
                                           "sfc-knapsack",
                                           "distributed-sfc"));

}  // namespace
}  // namespace ssamr
