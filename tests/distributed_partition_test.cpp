// Bit-identity pin for the library's one curve walk: on every input, at
// every shard count and every thread count, DistributedSfcPrefix must
// produce the *same bytes* as the globally sorted walk in oracle.hpp — same
// assignments, same splits, same assigned_work doubles.  The zoo's two SFC
// entries and GrACE's equal-work baseline (the walk at unit capacities) are
// pinned against the same oracle.  The CMake side re-runs this binary
// under SSAMR_THREADS=1/2/8 so the shard-parallel key/sort phase is
// exercised across pool widths.
//
// PartitionResult::operator== is defaulted member-wise equality over
// doubles and boxes, so EXPECT_TRUE(a == b) is a bit-exact FP comparison,
// not a tolerance check.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "amr/particles.hpp"
#include "oracle.hpp"
#include "partition/distributed_sfc.hpp"
#include "partition/grace_default.hpp"
#include "partition/zoo.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ssamr {
namespace {

const WorkModel kIntWork{};

/// 4x4 lattice of 8^3 boxes plus one refined child (mirrors the
/// differential-harness fixture).
BoxList mixed_boxes() {
  BoxList out;
  for (coord_t i = 0; i < 4; ++i)
    for (coord_t j = 0; j < 4; ++j)
      out.push_back(Box::from_extent(IntVec(i * 8, j * 8, 0),
                                     IntVec(8, 8, 8), 0));
  out.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(16, 16, 16), 1));
  return out;
}

/// Anisotropic boxes of very unequal work across three levels.
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

/// Random disjoint multi-level workload on a jittered lattice, sized for
/// the P = 32 sweeps below.
BoxList random_workload(Rng& rng, int boxes_per_side) {
  BoxList out;
  for (coord_t i = 0; i < boxes_per_side; ++i)
    for (coord_t j = 0; j < boxes_per_side; ++j) {
      if (rng.uniform() < 0.15) continue;  // holes
      const IntVec ext(4 + 2 * rng.uniform_int(0, 4),
                       4 + 2 * rng.uniform_int(0, 3),
                       4 + 2 * rng.uniform_int(0, 4));
      out.push_back(Box::from_extent(IntVec(i * 24, j * 24, 0), ext, 0));
      if (rng.uniform() < 0.4)
        out.push_back(Box::from_extent(IntVec(i * 48, j * 48, 0),
                                       IntVec(ext.x, ext.y, 4), 1));
    }
  if (out.empty())
    out.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(8, 8, 8), 0));
  return out;
}

/// Normalized random capacities of arity n, with occasional heavy skew.
std::vector<real_t> random_capacities(Rng& rng, std::size_t n) {
  std::vector<real_t> caps(n);
  for (auto& c : caps) c = rng.uniform(0.05, 1.0);
  if (n > 1 && rng.uniform() < 0.3) caps[0] = 50.0;
  real_t sum = 0;
  for (real_t c : caps) sum += c;
  for (auto& c : caps) c /= sum;
  return caps;
}

TEST(DistributedPartition, BitIdenticalToOracleOnFixtures) {
  for (const Fixture& fx : fixtures())
    for (const auto& caps : capacity_sets()) {
      const PartitionResult expect =
          oracle::sfc_partition(fx.boxes, caps, kIntWork);
      for (const int shards : {1, 2, 3, 8, 16}) {
        SCOPED_TRACE(std::string(fx.label) + "/" +
                     std::to_string(caps.size()) + "procs/" +
                     std::to_string(shards) + "shards");
        const DistributedSfcPartitioner dist(SfcConfig{}, shards);
        EXPECT_TRUE(dist.partition(fx.boxes, caps, kIntWork) == expect);
      }
    }
}

TEST(DistributedPartition, BitIdenticalOnRandomWorkloadsAtP32) {
  Rng rng(0xd157'f00d);
  for (int trial = 0; trial < 12; ++trial) {
    const BoxList boxes = random_workload(rng, 6);
    const auto caps = random_capacities(rng, 32);
    const PartitionResult expect =
        oracle::sfc_partition(boxes, caps, kIntWork);
    for (const int shards : {1, 4, 16}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + "/" +
                   std::to_string(shards) + "shards");
      const DistributedSfcPartitioner dist(SfcConfig{}, shards);
      EXPECT_TRUE(dist.partition(boxes, caps, kIntWork) == expect);
    }
  }
}

TEST(DistributedPartition, ShardCountNeverChangesTheAnswer) {
  // Shard layout is a pure execution detail: any two shard counts must
  // agree with each other bit-for-bit, including counts far above the box
  // count (clamped internally).
  Rng rng(0xbead'cafe);
  const BoxList boxes = random_workload(rng, 5);
  const auto caps = random_capacities(rng, 7);
  const DistributedSfcPartitioner base(SfcConfig{}, 1);
  const PartitionResult expect = base.partition(boxes, caps, kIntWork);
  for (const int shards : {2, 5, 8, 64, 1024}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    const DistributedSfcPartitioner dist(SfcConfig{}, shards);
    EXPECT_TRUE(dist.partition(boxes, caps, kIntWork) == expect);
  }
}

TEST(DistributedPartition, UniformCapacitiesSplitDyadically) {
  // With uniform capacities each target is total/P computed as
  // total * (1/P normalized) — the same expression the oracle uses, so the
  // agreement covers the exactly-representable quantile case too.
  const DistributedSfcPartitioner dist(SfcConfig{}, 4);
  const std::vector<real_t> caps{0.25, 0.25, 0.25, 0.25};
  for (const Fixture& fx : fixtures()) {
    SCOPED_TRACE(fx.label);
    const PartitionResult expect =
        oracle::sfc_partition(fx.boxes, caps, kIntWork);
    EXPECT_TRUE(dist.partition(fx.boxes, caps, kIntWork) == expect);
  }
}

TEST(DistributedPartition, ParticleCoupledWorkModelAgreesToo) {
  // The carry-chain total must fold particle terms in the same order as
  // total_work; a particle-coupled model exercises that path.
  const Box domain = Box::from_extent(IntVec(0, 0, 0), IntVec(64, 32, 16), 0);
  ParticleCloudConfig cloud;
  cloud.count = 700;
  const ParticleField field =
      ParticleField::gaussian_cloud(domain, cloud, /*center_x=*/0.4);
  WorkModel work;
  work.cost_per_particle = Work{3.0};
  work.particles = &field;

  const DistributedSfcPartitioner dist(SfcConfig{}, 8);
  for (const Fixture& fx : fixtures())
    for (const auto& caps : capacity_sets()) {
      SCOPED_TRACE(std::string(fx.label) + "/" +
                   std::to_string(caps.size()) + "procs");
      const PartitionResult expect = oracle::sfc_partition(fx.boxes, caps, work);
      EXPECT_TRUE(dist.partition(fx.boxes, caps, work) == expect);
    }
}

TEST(DistributedPartition, ZooSfcEntriesRunTheOracleWalk) {
  // "sfc-heterogeneous" is the walk at one shard, "distributed-sfc" at
  // eight; both must give the oracle's bytes.
  for (const char* id : {"sfc-heterogeneous", "distributed-sfc"}) {
    const auto p = make_partitioner(id);
    for (const Fixture& fx : fixtures())
      for (const auto& caps : capacity_sets()) {
        SCOPED_TRACE(std::string(id) + "/" + fx.label + "/" +
                     std::to_string(caps.size()) + "procs");
        EXPECT_TRUE(p->partition(fx.boxes, caps, kIntWork) ==
                    oracle::sfc_partition(fx.boxes, caps, kIntWork));
      }
  }
}

TEST(GraceDefault, EqualsTheOracleAtUnitCapacities) {
  // The baseline reads only how many capacities it is given: whatever
  // their values — skewed, all zero, negative — it is the oracle walk at
  // unit capacities, bit for bit, under both work models.
  const Box domain = Box::from_extent(IntVec(0, 0, 0), IntVec(64, 32, 16), 0);
  ParticleCloudConfig cloud;
  cloud.count = 700;
  const ParticleField field =
      ParticleField::gaussian_cloud(domain, cloud, /*center_x=*/0.4);
  WorkModel particle_work;
  particle_work.cost_per_particle = Work{3.0};
  particle_work.particles = &field;

  std::vector<std::vector<real_t>> capsets = capacity_sets();
  capsets.push_back({0.0, 0.0, 0.0});
  capsets.push_back({0.7, -0.2, 0.5});
  capsets.push_back({-1.0});
  const GraceDefaultPartitioner grace;
  for (const WorkModel& work : {kIntWork, particle_work})
    for (const Fixture& fx : fixtures())
      for (const auto& caps : capsets) {
        SCOPED_TRACE(std::string(fx.label) + "/" +
                     std::to_string(caps.size()) + "procs/" +
                     (work.has_particles() ? "particles" : "cells"));
        const std::vector<real_t> unit(caps.size(), 1.0);
        EXPECT_TRUE(grace.partition(fx.boxes, caps, work) ==
                    oracle::sfc_partition(fx.boxes, unit, work));
      }
  EXPECT_THROW(grace.partition(single_box(), {}, kIntWork), Error);
}

TEST(DistributedPartition, ZooFactoryResolvesWithLocalViewFlag) {
  const auto p = make_partitioner("distributed-sfc");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->name(), "DistributedSfcPrefix");
  bool found = false;
  for (const auto& entry : partitioner_zoo())
    if (std::string(entry.id) == "distributed-sfc") {
      found = true;
      EXPECT_TRUE(entry.local_view);
      EXPECT_TRUE(entry.capacity_aware);
      EXPECT_TRUE(entry.sfc_contiguous);
      EXPECT_TRUE(entry.splits_boxes);
    }
  EXPECT_TRUE(found);
}

TEST(DistributedPartition, RejectsInvalidInputs) {
  EXPECT_THROW(DistributedSfcPartitioner(SfcConfig{}, 0), Error);
  const DistributedSfcPartitioner dist;
  const BoxList boxes = single_box();
  EXPECT_THROW(dist.partition(boxes, {}, kIntWork), Error);
  EXPECT_THROW(dist.partition(boxes, {0.5, -0.5}, kIntWork), Error);
  EXPECT_THROW(dist.partition(boxes, {0.0, 0.0}, kIntWork), Error);
}

}  // namespace
}  // namespace ssamr
