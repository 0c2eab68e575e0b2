#include "amr/integrator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "geom/box_algebra.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace ssamr {

namespace {

/// CFL number every level's timestep honours.
constexpr real_t kCfl = 0.4;
/// Flagged cells are grown by this many cells before clustering so that
/// features cannot escape the fine region between regrids.
constexpr coord_t kFlagBuffer = 1;

}  // namespace

BergerOliger::BergerOliger(GridHierarchy& hierarchy, const PatchOperator& op,
                           const GradientFlagger& flagger, IntegratorConfig cfg)
    : hier_(hierarchy), op_(op), flagger_(flagger), cfg_(cfg) {
  SSAMR_REQUIRE(cfg.regrid_interval >= 1, "regrid interval must be >= 1");
  SSAMR_REQUIRE(cfg.dx0 > 0, "dx0 must be positive");
  SSAMR_REQUIRE(hierarchy.config().ncomp == op.ncomp(),
                "hierarchy ncomp must match the operator");
  SSAMR_REQUIRE(hierarchy.config().ghost >= op.ghost(),
                "hierarchy ghost width must cover the operator stencil");
}

real_t BergerOliger::dx_at(level_t l) const {
  return cfg_.dx0 / static_cast<real_t>(refinement_scale(l));
}

void BergerOliger::initialize() {
  // Initial data on the base level, then build finer levels by repeated
  // flagging until the hierarchy stops deepening.  Patches are independent,
  // so initial data is set in parallel.
  auto init_level = [this](int l) {
    GridLevel& lvl = hier_.level(l);
    const real_t dx = dx_at(static_cast<level_t>(l));
    ThreadPool::global().parallel_for(
        lvl.num_patches(),
        [&](std::size_t i) { op_.initialize(lvl.patch(i), dx); });
  };
  init_level(0);
  for (int pass = 0; pass < hier_.config().max_levels - 1; ++pass) {
    const int before = hier_.num_levels();
    regrid();
    // Newly created levels got data by prolongation; overwrite with exact
    // initial conditions for a clean start.
    for (int l = 1; l < hier_.num_levels(); ++l) init_level(l);
    if (hier_.num_levels() == before) break;
  }
}

real_t BergerOliger::compute_dt() const {
  real_t dt0 = std::numeric_limits<real_t>::infinity();
  for (int l = 0; l < hier_.num_levels(); ++l) {
    // Fixed-order max over the patches: the reduction is evaluated per
    // patch in parallel and combined in patch order, so the result is
    // bit-identical to the serial loop.
    const GridLevel& lvl = hier_.level(l);
    const real_t speed = ThreadPool::global().transform_reduce_ordered(
        lvl.num_patches(), real_t{0},
        [&](std::size_t i) { return op_.max_wave_speed(lvl.patch(i)); },
        [](real_t a, real_t b) { return std::max(a, b); });
    if (speed <= 0) continue;
    // A level-l step is dt0 / kRefinementRatio^l; require cfl at every
    // level.
    dt0 = std::min(dt0, kCfl * dx_at(l) *
                            static_cast<real_t>(refinement_scale(l)) / speed);
  }
  SSAMR_REQUIRE(std::isfinite(dt0),
                "no finite wave speed anywhere — cannot pick a timestep");
  return dt0;
}

void PatchOperator::advance_capture(Patch&, real_t, real_t,
                                    FaceFluxes&) const {
  SSAMR_REQUIRE(false,
                "this PatchOperator does not support flux capture");
}

real_t BergerOliger::advance_step() {
  if (step_ > 0 && step_ % cfg_.regrid_interval == 0) regrid();
  const real_t dt = compute_dt();
  advance_level(0, dt, nullptr);
  ++step_;
  time_ += dt;
  return dt;
}

void BergerOliger::fill_ghosts(int l) {
  GridLevel& lvl = hier_.level(l);
  if (l > 0) fill_coarse_fine_ghosts(hier_.level(l - 1), lvl);
  GhostPlan plan(lvl, hier_.domain_at(l), cfg_.bc);
  plan.exchange(lvl);
  plan.fill_physical(lvl);
}

void BergerOliger::advance_level(int l, real_t dt,
                                 FluxRegister* parent_register) {
  fill_ghosts(l);
  GridLevel& lvl = hier_.level(l);
  const real_t dx = dx_at(l);
  const bool has_child = l + 1 < hier_.num_levels();
  const bool want_own_register =
      cfg_.reflux && has_child && op_.supports_flux_capture();

  std::unique_ptr<FluxRegister> reg;
  if (want_own_register)
    reg = std::make_unique<FluxRegister>(lvl, hier_.level(l + 1),
                                         hier_.domain_at(l), op_.ncomp());

  // Per-patch advance: ghosts are already filled and each kernel touches
  // only its own patch (and its flux slot), so patches run in parallel.
  // Flux slots are indexed by patch, keeping the register updates below in
  // the same fixed patch order as the serial path.
  const bool capture = parent_register != nullptr || reg != nullptr;
  std::vector<FaceFluxes> fluxes;
  if (capture) fluxes.resize(lvl.num_patches());
  ThreadPool::global().parallel_for(
      lvl.num_patches(), [&](std::size_t i) {
        Patch& p = lvl.patch(i);
        if (capture) {
          fluxes[i] = FaceFluxes(p.box(), op_.ncomp());
          op_.advance_capture(p, dt, dx, fluxes[i]);
        } else {
          op_.advance(p, dt, dx);
        }
        p.swap_time_levels();
      });
  if (parent_register != nullptr) parent_register->add_fine(fluxes, dt);
  if (reg) reg->add_coarse(fluxes, dt);

  if (has_child) {
    for (coord_t sub = 0; sub < kRefinementRatio; ++sub)
      advance_level(l + 1, dt / static_cast<real_t>(kRefinementRatio),
                    reg.get());
    restrict_level(hier_.level(l + 1), lvl);
    if (reg) reg->apply(lvl, dx);
  }
}

void BergerOliger::regrid_level_above(int l) {
  // Flags on level l define the new level l+1.
  GridLevel& parent = hier_.level(l);
  std::vector<IntVec> flags;
  flagger_.flag_level(parent, flags);
  std::vector<IntVec> buffered =
      buffer_flags(flags, kFlagBuffer, hier_.domain_at(l));
  // Keep the flags inside the parent level's box union so the refined
  // boxes stay properly nested.
  if (l >= 1) {
    std::vector<IntVec> kept;
    kept.reserve(buffered.size());
    for (const IntVec& f : buffered)
      if (parent.find_patch_containing(f) != GridLevel::npos)
        kept.push_back(f);
    buffered = std::move(kept);
  }

  ClusterConfig ccfg = cfg_.cluster;
  ccfg.min_box_size =
      std::max<coord_t>(ccfg.min_box_size,
                        hier_.config().min_box_size / kRefinementRatio);
  auto coarse_boxes = cluster_flags(buffered, l, ccfg);
  // Cluster bounding boxes can bridge gaps between disjoint parent
  // patches; clip against the parent union so the new level nests.
  if (l >= 1)
    coarse_boxes = clip_and_coalesce(coarse_boxes, parent.box_list().boxes());
  BoxList fine_boxes;
  for (const Box& b : coarse_boxes)
    fine_boxes.push_back(b.refined());

  // Preserve data: remember the old level (if any), install the new boxes,
  // then fill by copy-overlap + prolongation.
  const bool existed = l + 1 < hier_.num_levels();
  GridLevel old_level =
      existed ? std::move(hier_.level(l + 1)) : GridLevel(l + 1, 0, 0);
  hier_.set_level_boxes(l + 1, fine_boxes);
  if (l + 1 >= hier_.num_levels()) return;  // level vanished
  // set_level_boxes can grow the hierarchy's level array, invalidating
  // references taken before the call — re-acquire the parent, do not reuse
  // `parent` from above.
  GridLevel& fresh = hier_.level(l + 1);
  prolong_level(hier_.level(l), fresh);
  if (existed) copy_overlap(old_level, fresh);
}

void BergerOliger::regrid() {
  const int deepest_parent =
      std::min(hier_.num_levels(), hier_.config().max_levels - 1);
  for (int l = 0; l < deepest_parent; ++l) {
    if (l >= hier_.num_levels()) break;  // levels can vanish as we go
    regrid_level_above(l);
  }
  ++regrid_count_;
  SSAMR_DEBUG << "regrid #" << regrid_count_ << ": levels="
              << hier_.num_levels() << " cells=" << hier_.total_cells();
}

}  // namespace ssamr
