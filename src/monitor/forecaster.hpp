#pragma once
/// \file forecaster.hpp
/// NWS-style resource forecasting.
///
/// The Network Weather Service "periodically monitors and dynamically
/// forecasts the performance delivered by the various network and
/// computational resources".  Its forecasting engine runs a family of
/// cheap predictors over the measurement history and reports, for each new
/// forecast, the prediction of whichever predictor has had the lowest
/// error so far.  This file reproduces that design: the classic members of
/// the family as functions of the history (oldest first; an empty history
/// forecasts 0), and the adaptive min-MSE selector over a fixed family of
/// them.

#include <string>
#include <vector>

#include "util/types.hpp"

namespace ssamr {

/// The most recent measurement.
real_t forecast_last(const std::vector<real_t>& history);

/// The mean of the whole history.
real_t forecast_mean(const std::vector<real_t>& history);

/// The mean of the last `window` (>= 1) measurements.
real_t forecast_sliding_mean(const std::vector<real_t>& history,
                             std::size_t window);

/// The median of the last `window` (>= 1) measurements.
real_t forecast_sliding_median(const std::vector<real_t>& history,
                               std::size_t window);

/// NWS's adaptive selector over the family last, mean, sliding mean of 5
/// and 10, sliding median of 5 and 10 (in that order; ties go to the
/// earlier member).  It runs every member postcastingly over a bounded
/// trailing window of the history (predict value i from the values before
/// it), accumulates each member's MSE, and forecasts with the current best
/// member.  On histories short enough to fit the window the selection
/// matches the unbounded selector exactly.
class AdaptiveForecaster {
 public:
  real_t forecast(const std::vector<real_t>& history) const;

  /// Which member the selector would use for this history.
  std::string best_member(const std::vector<real_t>& history) const;

 private:
  std::size_t best_index(const std::vector<real_t>& history) const;
  /// Scoring scratch reused across calls (the selector is called for every
  /// probe of every resource; reallocating per call showed up in profiles).
  /// Not thread-safe — each monitor owns its forecaster.
  mutable std::vector<real_t> scratch_;
};

}  // namespace ssamr
