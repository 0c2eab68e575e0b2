#include "cluster/fault_plan.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace ssamr {

namespace {

/// Counter-based hash to a uniform real in [0, 1): stateless, so the
/// outcome of (seed, rank, attempt) never depends on evaluation order.
real_t hash_uniform(std::uint64_t seed, rank_t rank, std::uint64_t attempt) {
  std::uint64_t s = seed ^ (0x9e3779b97f4a7c15ULL *
                            (static_cast<std::uint64_t>(
                                 static_cast<std::uint32_t>(rank)) +
                             1));
  s ^= 0xda3e39cb94b95bdbULL * (attempt + 1);
  const std::uint64_t z = splitmix64(s);
  return static_cast<real_t>(z >> 11) * 0x1.0p-53;
}

/// Duration of each scripted episode as a fraction of the horizon.
constexpr real_t kEpisodeFraction = 0.12;

}  // namespace

void FaultPlan::add(const FaultEpisode& e) {
  SSAMR_REQUIRE(e.rank >= 0, "fault episode rank must be non-negative");
  SSAMR_REQUIRE(e.t0 < e.t1, "fault episode window must be non-empty");
  episodes_.push_back(e);
}

ProbeFault FaultPlan::probe_fault(rank_t rank, Seconds t,
                                  std::uint64_t attempt) const {
  // Scripted episodes win over random draws; among overlapping episodes
  // the first added wins (crash and timeout both read as kTimeout).
  for (const FaultEpisode& e : episodes_) {
    if (e.rank != rank || t < e.t0 || t >= e.t1) continue;
    switch (e.kind) {
      case FaultKind::kProbeTimeout:
      case FaultKind::kCrash:
        return ProbeFault::kTimeout;
      case FaultKind::kProbeDrop:
        return ProbeFault::kDrop;
      case FaultKind::kStaleWindow:
        return ProbeFault::kStale;
    }
  }
  if (probe_timeout_rate > 0 || probe_drop_rate > 0) {
    const real_t u = hash_uniform(seed, rank, attempt);
    if (u < probe_timeout_rate) return ProbeFault::kTimeout;
    if (u < probe_timeout_rate + probe_drop_rate) return ProbeFault::kDrop;
  }
  return ProbeFault::kNone;
}

bool FaultPlan::node_down(rank_t rank, Seconds t) const {
  for (const FaultEpisode& e : episodes_)
    if (e.kind == FaultKind::kCrash && e.rank == rank && t >= e.t0 &&
        t < e.t1)
      return true;
  return false;
}

Seconds FaultPlan::resume_time(rank_t rank, Seconds t) const {
  Seconds r = t;
  bool moved = true;
  while (moved) {
    moved = false;
    for (const FaultEpisode& e : episodes_)
      if (e.kind == FaultKind::kCrash && e.rank == rank && r >= e.t0 &&
          r < e.t1) {
        r = e.t1;
        moved = true;
      }
  }
  return r;
}

Seconds FaultPlan::observable_time(rank_t rank, Seconds t) const {
  for (const FaultEpisode& e : episodes_)
    if (e.kind == FaultKind::kStaleWindow && e.rank == rank && t >= e.t0 &&
        t < e.t1)
      return e.t0;
  return t;
}

FaultPlan FaultPlan::scripted(int nodes, Seconds horizon,
                              const FaultProfile& profile,
                              std::uint64_t seed) {
  SSAMR_REQUIRE(nodes >= 1, "fault plan needs at least one node");
  SSAMR_REQUIRE(horizon > Seconds{0}, "fault plan horizon must be positive");
  SSAMR_REQUIRE(profile.probe_timeout_rate >= 0 &&
                    profile.probe_drop_rate >= 0 &&
                    profile.probe_timeout_rate + profile.probe_drop_rate <=
                        1.0,
                "probe fault rates must be probabilities summing to <= 1");

  FaultPlan plan;
  plan.seed = seed;
  plan.probe_timeout_rate = profile.probe_timeout_rate;
  plan.probe_drop_rate = profile.probe_drop_rate;

  Rng rng(seed);
  const Seconds span = kEpisodeFraction * horizon;
  // The RNG is a raw-double seam: unwrap the start-time bound once, here.
  const real_t max_start_s = std::max(horizon - span, Seconds{0}).value();
  auto scatter = [&](FaultKind kind, int count) {
    for (int i = 0; i < count; ++i) {
      FaultEpisode e;
      e.rank = static_cast<rank_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(nodes) - 1));
      e.kind = kind;
      e.t0 = Seconds{rng.uniform(0.0, max_start_s)};
      e.t1 = e.t0 + span;
      plan.add(e);
    }
  };
  scatter(FaultKind::kStaleWindow, profile.stale_windows);
  scatter(FaultKind::kCrash, profile.crash_episodes);
  return plan;
}

}  // namespace ssamr
