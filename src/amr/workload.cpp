#include "amr/workload.hpp"

#include "util/error.hpp"

namespace ssamr {

namespace {

real_t subcycle_updates(const Box& b, const WorkModel& m) {
  real_t updates = 1;
  for (level_t l = 0; l < b.level(); ++l)
    updates *= static_cast<real_t>(m.ratio);
  return updates;
}

}  // namespace

Work box_cost(const Box& b, const WorkModel& m) {
  SSAMR_REQUIRE(m.ratio >= 2, "work model ratio must be >= 2");
  const real_t updates = subcycle_updates(b, m);
  // Keep the historical multiplication order (cells · updates) so the
  // cells-only cost is bit-identical to the pre-particle model.
  real_t w = static_cast<real_t>(b.cells()) * updates;
  if (m.has_particles()) {
    const auto np = m.particles->count_in(b, m.ratio);
    w += static_cast<real_t>(np) * updates * m.cost_per_particle.value();
  }
  return Work{w};
}

Work total_cost(const BoxList& boxes, const WorkModel& m) {
  Work sum{0};
  for (const Box& b : boxes) sum += box_cost(b, m);
  return sum;
}

real_t box_work(const Box& b, const WorkModel& m) {
  return box_cost(b, m).value();
}

real_t total_work(const BoxList& boxes, const WorkModel& m) {
  return total_cost(boxes, m).value();
}

std::vector<real_t> per_box_work(const BoxList& boxes, const WorkModel& m) {
  std::vector<real_t> out;
  out.reserve(boxes.size());
  for (const Box& b : boxes) out.push_back(box_work(b, m));
  return out;
}

}  // namespace ssamr
