#pragma once
/// \file stats.hpp
/// Small statistics helpers used by the NWS-style forecasters: the mean
/// and the median of a vector.

#include <vector>

#include "util/types.hpp"

namespace ssamr {

/// Mean of a vector (0 when empty).
real_t mean_of(const std::vector<real_t>& v);

/// Median of a vector (0 when empty).  Copies its argument.
real_t median_of(std::vector<real_t> v);

}  // namespace ssamr
