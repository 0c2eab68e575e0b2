// Differential/property harness over the partitioner zoo: every registered
// scheme runs on identical (boxes, capacities, work) inputs and must uphold
// the shared invariants; capability flags (partition/zoo.hpp) select which
// of the stronger properties apply to which scheme.
//
// The work models here are integer-valued by construction (a cell update
// costs one unit, cost_per_particle is an integer, particle counts are
// integers), so every per-box work, every per-rank sum and the grand total
// are integers representable exactly in a double — the conservation checks
// below are therefore EXPECT_EQ-bit-exact, not EXPECT_NEAR, and hold at any
// thread count and any summation order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "amr/particles.hpp"
#include "geom/box_algebra.hpp"
#include "partition/knapsack.hpp"
#include "partition/greedy.hpp"
#include "partition/grace_default.hpp"
#include "partition/heterogeneous.hpp"
#include "partition/metrics.hpp"
#include "partition/partition_audit.hpp"
#include "partition/zoo.hpp"
#include "sfc/sfc_index.hpp"
#include "util/error.hpp"

namespace ssamr {
namespace {

const WorkModel kIntWork{};

/// 4x4 lattice of 8^3 boxes plus one refined child: the generic mixed
/// fixture every scheme must handle.
BoxList mixed_boxes() {
  BoxList out;
  for (coord_t i = 0; i < 4; ++i)
    for (coord_t j = 0; j < 4; ++j)
      out.push_back(Box::from_extent(IntVec(i * 8, j * 8, 0),
                                     IntVec(8, 8, 8), 0));
  out.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(16, 16, 16), 1));
  return out;
}

/// Anisotropic boxes of very unequal work across three levels: the lumpy
/// fixture where split/packing decisions actually differ per scheme.
BoxList lumpy_boxes() {
  BoxList out;
  out.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(24, 8, 4), 0));
  out.push_back(Box::from_extent(IntVec(32, 0, 0), IntVec(4, 20, 12), 0));
  out.push_back(Box::from_extent(IntVec(48, 0, 0), IntVec(8, 8, 8), 0));
  out.push_back(Box::from_extent(IntVec(0, 32, 0), IntVec(12, 4, 4), 0));
  out.push_back(Box::from_extent(IntVec(8, 8, 0), IntVec(16, 8, 8), 1));
  out.push_back(Box::from_extent(IntVec(96, 0, 0), IntVec(16, 16, 4), 1));
  out.push_back(Box::from_extent(IntVec(40, 40, 8), IntVec(8, 8, 8), 2));
  return out;
}

/// One box only: the degenerate input that exercises split-or-absorb paths.
BoxList single_box() {
  BoxList out;
  out.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(32, 8, 8), 0));
  return out;
}

struct Fixture {
  const char* label;
  BoxList boxes;
};

std::vector<Fixture> fixtures() {
  return {{"mixed", mixed_boxes()},
          {"lumpy", lumpy_boxes()},
          {"single_box", single_box()}};
}

std::vector<std::vector<real_t>> capacity_sets() {
  return {{0.16, 0.19, 0.31, 0.34},
          {0.25, 0.25, 0.25, 0.25},
          {0.5, 0.5},
          {0.05, 0.1, 0.15, 0.2, 0.2, 0.3},
          {1.0}};
}

/// Assert the shared invariants of one partition of `boxes`:
///   * ΣW_k equals the total work bit-exactly (integer-valued model),
///   * every input cell is owned exactly once (conservation + disjointness
///     + exact per-box coverage),
///   * every split piece respects min_box_size,
///   * the full partition audit has no errors.
void expect_shared_invariants(const BoxList& boxes,
                              const std::vector<real_t>& caps,
                              const WorkModel& work, const Partitioner& p,
                              const PartitionResult& r) {
  // Bit-exact work conservation.
  ASSERT_EQ(r.assigned_work.size(), caps.size());
  real_t assigned = 0;
  for (real_t w : r.assigned_work) assigned += w;
  EXPECT_EQ(assigned, total_work(boxes, work));

  // Recomputing W_k from the assignments must reproduce the bookkeeping
  // bit-exactly as well.
  std::vector<real_t> recomputed(caps.size(), 0);
  for (const auto& a : r.assignments) {
    ASSERT_GE(a.owner, 0);
    ASSERT_LT(a.owner, static_cast<rank_t>(caps.size()));
    recomputed[static_cast<std::size_t>(a.owner)] += box_work(a.box, work);
  }
  for (std::size_t k = 0; k < caps.size(); ++k)
    EXPECT_EQ(recomputed[k], r.assigned_work[k]) << "rank " << k;

  // Every input cell owned exactly once.
  std::int64_t cells = 0;
  BoxList all;
  for (const auto& a : r.assignments) {
    cells += a.box.cells();
    all.push_back(a.box);
  }
  EXPECT_EQ(cells, boxes.total_cells());
  EXPECT_FALSE(all.has_overlap());
  for (const Box& in : boxes) {
    std::vector<Box> pieces;
    for (const auto& a : r.assignments)
      if (a.box.level() == in.level() && in.intersects(a.box))
        pieces.push_back(a.box.intersection(in));
    EXPECT_TRUE(box_difference(in, pieces).empty()) << "box " << in;
  }

  // Split pieces (assignment boxes that are not input boxes) respect the
  // scheme's minimum box size.
  const coord_t min_size = p.constraints().min_box_size;
  std::vector<Box> inputs(boxes.begin(), boxes.end());
  for (const auto& a : r.assignments) {
    const auto it = std::find(inputs.begin(), inputs.end(), a.box);
    if (it != inputs.end()) {
      inputs.erase(it);  // consumed: duplicates must match one-to-one
      continue;
    }
    const IntVec e = a.box.extent();
    EXPECT_GE(std::min(e.x, std::min(e.y, e.z)), min_size)
        << "split piece " << a.box;
  }

  // The independent audit agrees.
  const audit::AuditReport report =
      audit::validate_partition(boxes, r, caps, work, p.constraints());
  EXPECT_TRUE(report.ok()) << report.summary();
}

real_t peak_relative_load(const PartitionResult& r,
                          const std::vector<real_t>& caps) {
  real_t peak = 0;
  for (std::size_t k = 0; k < caps.size(); ++k) {
    if (caps[k] > 0)
      peak = std::max(peak, r.assigned_work[k] / caps[k]);
    else if (r.assigned_work[k] > 0)
      peak = std::numeric_limits<real_t>::infinity();
  }
  return peak;
}

TEST(PartitionerDifferential, SharedInvariantsAcrossTheZoo) {
  for (const Fixture& fx : fixtures())
    for (const auto& caps : capacity_sets())
      for (const ZooEntry& entry : partitioner_zoo()) {
        SCOPED_TRACE(std::string(fx.label) + "/" + entry.id + "/" +
                     std::to_string(caps.size()) + "procs");
        const auto p = entry.make();
        const PartitionResult r = p->partition(fx.boxes, caps, kIntWork);
        expect_shared_invariants(fx.boxes, caps, kIntWork, *p, r);
        if (!entry.splits_boxes) {
          EXPECT_EQ(r.splits, 0);
          EXPECT_EQ(r.assignments.size(), fx.boxes.size());
        }
      }
}

TEST(PartitionerDifferential, SharedInvariantsWithParticleCoupledCost) {
  // Dual-constraint model: integer particle counts at integer cost keep
  // the conservation checks bit-exact, while the cloud makes per-box work
  // lumpy enough that cells alone no longer predict load.
  const Box domain = Box::from_extent(IntVec(0, 0, 0), IntVec(64, 32, 16), 0);
  ParticleCloudConfig cloud;
  cloud.count = 700;
  const ParticleField field =
      ParticleField::gaussian_cloud(domain, cloud, /*center_x=*/0.4);
  WorkModel work;
  work.cost_per_particle = Work{3.0};
  work.particles = &field;

  BoxList boxes;
  for (coord_t i = 0; i < 8; ++i)
    for (coord_t j = 0; j < 4; ++j)
      boxes.push_back(Box::from_extent(IntVec(i * 8, j * 8, 0),
                                       IntVec(8, 8, 16), 0));
  boxes.push_back(Box::from_extent(IntVec(40, 16, 0), IntVec(16, 16, 16), 1));

  // The cloud must actually land in the domain and be priced: otherwise
  // this test silently degenerates to the cells-only model.
  ASSERT_EQ(field.size(), cloud.count);
  ASSERT_TRUE(work.has_particles());
  ASSERT_GT(total_work(boxes, work),
            total_work(boxes, WorkModel{}));

  for (const auto& caps : capacity_sets())
    for (const ZooEntry& entry : partitioner_zoo()) {
      SCOPED_TRACE(entry.id + "/" + std::to_string(caps.size()) + "procs");
      const auto p = entry.make();
      const PartitionResult r = p->partition(boxes, caps, work);
      expect_shared_invariants(boxes, caps, work, *p, r);
    }
}

TEST(PartitionerDifferential, CapacityPermutationPermutesAssignedWork) {
  // Metamorphic property: for value-matching schemes, permuting the
  // capacity vector must permute assigned_work and target_work identically
  // — assignment follows capacity *values*, not rank positions.  All
  // capacities distinct so the property is unambiguous; all are multiples
  // of 1/16 summing to exactly 1, so the defensive renormalization inside
  // each scheme computes the bit-identical capacity sum under any
  // permutation (dyadic additions of this size are exact).
  const std::vector<real_t> caps{0.0625, 0.1875, 0.3125, 0.4375};
  const std::vector<std::vector<std::size_t>> perms{
      {3, 2, 1, 0}, {1, 2, 3, 0}, {2, 0, 3, 1}};
  for (const Fixture& fx : fixtures())
    for (const ZooEntry& entry : partitioner_zoo()) {
      if (!entry.permutation_equivariant) continue;
      SCOPED_TRACE(std::string(fx.label) + "/" + entry.id);
      const auto p = entry.make();
      const PartitionResult base = p->partition(fx.boxes, caps, kIntWork);
      for (const auto& perm : perms) {
        std::vector<real_t> permuted(caps.size());
        for (std::size_t j = 0; j < caps.size(); ++j)
          permuted[j] = caps[perm[j]];
        const PartitionResult r = p->partition(fx.boxes, permuted, kIntWork);
        for (std::size_t j = 0; j < caps.size(); ++j) {
          EXPECT_EQ(r.assigned_work[j], base.assigned_work[perm[j]])
              << "perm slot " << j;
          EXPECT_EQ(r.target_work[j], base.target_work[perm[j]])
              << "perm slot " << j;
        }
      }
    }
}

TEST(PartitionerDifferential, UniformCapacitiesMatchHomogeneousBaseline) {
  // With a uniform capacity vector the heterogeneous scheme degenerates to
  // the homogeneous problem: on an evenly divisible workload its imbalance
  // must agree with the GrACE default baseline (both are exact there).
  BoxList boxes;
  for (coord_t i = 0; i < 8; ++i)
    for (coord_t j = 0; j < 8; ++j)
      boxes.push_back(Box::from_extent(IntVec(i * 8, j * 8, 0),
                                       IntVec(8, 8, 8), 0));
  const std::vector<real_t> caps{0.25, 0.25, 0.25, 0.25};
  HeterogeneousPartitioner het;
  GraceDefaultPartitioner def;
  const real_t i_het =
      effective_imbalance_pct(het.partition(boxes, caps, kIntWork));
  const real_t i_def =
      effective_imbalance_pct(def.partition(boxes, caps, kIntWork));
  EXPECT_NEAR(i_het, i_def, 1e-9);
  EXPECT_NEAR(i_het, 0.0, 1e-9);
}

TEST(PartitionerDifferential, SfcSchemesKeepContiguousCurveSegments) {
  // For sfc_contiguous schemes, rank k owns the k-th contiguous segment of
  // the composite SFC order.  Checked on a fixture where the splitting
  // schemes need no splits, so every assignment box has a curve position.
  BoxList boxes;
  for (coord_t i = 0; i < 8; ++i)
    for (coord_t j = 0; j < 8; ++j)
      boxes.push_back(Box::from_extent(IntVec(i * 8, j * 8, 0),
                                       IntVec(8, 8, 8), 0));
  const std::vector<real_t> caps{0.25, 0.25, 0.25, 0.25};
  const auto perm = sfc_order(boxes.boxes(), SfcConfig{});
  for (const ZooEntry& entry : partitioner_zoo()) {
    if (!entry.sfc_contiguous) continue;
    SCOPED_TRACE(entry.id);
    const auto p = entry.make();
    const PartitionResult r = p->partition(boxes, caps, kIntWork);
    ASSERT_EQ(r.splits, 0);
    ASSERT_EQ(r.assignments.size(), boxes.size());
    // Owner at each curve position; walking the curve the owner rank must
    // be non-decreasing (equivalently: contiguous segments in rank order).
    std::vector<rank_t> owner_at(perm.size(), -1);
    for (const auto& a : r.assignments) {
      std::size_t input = boxes.size();
      for (std::size_t i = 0; i < boxes.size(); ++i)
        if (boxes[i] == a.box) {
          input = i;
          break;
        }
      ASSERT_LT(input, boxes.size());
      for (std::size_t pos = 0; pos < perm.size(); ++pos)
        if (perm[pos] == input) owner_at[pos] = a.owner;
    }
    for (std::size_t pos = 1; pos < owner_at.size(); ++pos)
      EXPECT_GE(owner_at[pos], owner_at[pos - 1]) << "curve pos " << pos;
  }
}

TEST(PartitionerDifferential, KnapsackNeverWorseThanGreedySeed) {
  // The knapsack scheme starts from the same LPT seed as GreedyPartitioner
  // and applies only strictly-improving exchanges, so its peak relative
  // load can never exceed greedy's — on any input.
  for (const Fixture& fx : fixtures())
    for (const auto& caps : capacity_sets()) {
      SCOPED_TRACE(std::string(fx.label) + "/" +
                   std::to_string(caps.size()) + "procs");
      KnapsackPartitioner knapsack;
      GreedyPartitioner greedy;
      const real_t pk =
          peak_relative_load(knapsack.partition(fx.boxes, caps, kIntWork),
                             caps);
      const real_t pg =
          peak_relative_load(greedy.partition(fx.boxes, caps, kIntWork),
                             caps);
      EXPECT_LE(pk, pg + 1e-9);
    }
}

TEST(PartitionerDifferential, ZooRegistryIsConsistent) {
  const auto& zoo = partitioner_zoo();
  ASSERT_GE(zoo.size(), 8u);
  std::size_t local_view_schemes = 0;
  for (std::size_t i = 0; i < zoo.size(); ++i) {
    for (std::size_t j = i + 1; j < zoo.size(); ++j)
      EXPECT_NE(zoo[i].id, zoo[j].id);
    // make_partitioner resolves every registered id to a working instance.
    const auto p = make_partitioner(zoo[i].id);
    ASSERT_NE(p, nullptr);
    EXPECT_FALSE(p->name().empty());
    if (zoo[i].local_view) {
      ++local_view_schemes;
      // A scheme that decides from shard-local curve scans necessarily
      // walks the space-filling curve and honors capacities.
      EXPECT_TRUE(zoo[i].sfc_contiguous) << zoo[i].id;
      EXPECT_TRUE(zoo[i].capacity_aware) << zoo[i].id;
      EXPECT_EQ(zoo[i].id, "distributed-sfc");
    }
  }
  EXPECT_EQ(local_view_schemes, 1u);
  EXPECT_THROW(make_partitioner("no-such-scheme"), Error);
}

}  // namespace
}  // namespace ssamr
