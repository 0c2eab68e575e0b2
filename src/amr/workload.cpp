#include "amr/workload.hpp"

namespace ssamr {

real_t box_work(const Box& b, const WorkModel& m) {
  const auto updates = static_cast<real_t>(refinement_scale(b.level()));
  // Keep the historical multiplication order (cells · updates) so the
  // cells-only cost is bit-identical to the pre-particle model.
  real_t w = static_cast<real_t>(b.cells()) * updates;
  if (m.has_particles()) {
    const auto np = m.particles->count_in(b);
    w += static_cast<real_t>(np) * updates * m.cost_per_particle.value();
  }
  return w;
}

real_t total_work(const BoxList& boxes, const WorkModel& m) {
  real_t sum = 0;
  for (const Box& b : boxes) sum += box_work(b, m);
  return sum;
}

std::vector<real_t> per_box_work(const BoxList& boxes, const WorkModel& m) {
  std::vector<real_t> out;
  out.reserve(boxes.size());
  for (const Box& b : boxes) out.push_back(box_work(b, m));
  return out;
}

}  // namespace ssamr
