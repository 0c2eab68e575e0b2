#include "util/stats.hpp"

#include <algorithm>

namespace ssamr {

real_t mean_of(const std::vector<real_t>& v) {
  if (v.empty()) return 0;
  real_t s = 0;
  for (real_t x : v) s += x;
  return s / static_cast<real_t>(v.size());
}

real_t median_of(std::vector<real_t> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  if (v.size() % 2 == 1) return v[mid];
  const real_t hi = v[mid];
  const real_t lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

}  // namespace ssamr
