#pragma once
/// \file forecaster.hpp
/// NWS-style resource forecasting.
///
/// The Network Weather Service "periodically monitors and dynamically
/// forecasts the performance delivered by the various network and
/// computational resources".  Its forecasting engine runs a family of
/// cheap predictors over the measurement history and reports, for each new
/// forecast, the prediction of whichever predictor has had the lowest
/// error so far.  This file reproduces that design: a predictor interface,
/// the classic members of the family, and the adaptive min-MSE selector.

#include <memory>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace ssamr {

/// One predictor over a measurement history (oldest first).
class Forecaster {
 public:
  virtual ~Forecaster() = default;
  /// Predict the next value from the history; history may be empty, in
  /// which case implementations return a neutral default (0).
  virtual real_t forecast(const std::vector<real_t>& history) const = 0;
  /// Identifier for reporting.
  virtual std::string name() const = 0;
};

/// Predicts the most recent measurement.
class LastValueForecaster final : public Forecaster {
 public:
  real_t forecast(const std::vector<real_t>& history) const override;
  std::string name() const override { return "last"; }
};

/// Predicts the mean of the whole history.
class RunningMeanForecaster final : public Forecaster {
 public:
  real_t forecast(const std::vector<real_t>& history) const override;
  std::string name() const override { return "mean"; }
};

/// Predicts the mean of the last `window` measurements.
class SlidingMeanForecaster final : public Forecaster {
 public:
  explicit SlidingMeanForecaster(std::size_t window);
  real_t forecast(const std::vector<real_t>& history) const override;
  std::string name() const override;

 private:
  std::size_t window_;
};

/// Predicts the median of the last `window` measurements.
class SlidingMedianForecaster final : public Forecaster {
 public:
  explicit SlidingMedianForecaster(std::size_t window);
  real_t forecast(const std::vector<real_t>& history) const override;
  std::string name() const override;

 private:
  std::size_t window_;
};

/// NWS's adaptive selector: runs every member predictor postcastingly over
/// a bounded trailing window of the history (predict value i from the
/// values before it), accumulates each member's MSE, and forecasts with
/// the current best member.  On histories short enough to fit the window
/// the selection matches the unbounded selector exactly.
class AdaptiveForecaster final : public Forecaster {
 public:
  /// Build with the standard family (last, mean, sliding mean/median of 5
  /// and 10).
  AdaptiveForecaster();

  real_t forecast(const std::vector<real_t>& history) const override;
  std::string name() const override { return "adaptive"; }

  /// Which member the selector would use for this history.
  std::string best_member(const std::vector<real_t>& history) const;

 private:
  std::size_t best_index(const std::vector<real_t>& history) const;
  std::vector<std::unique_ptr<Forecaster>> members_;
  /// Scoring scratch reused across calls (the selector is called for every
  /// probe of every resource; reallocating per call showed up in profiles).
  /// Not thread-safe — each monitor owns its forecaster.
  mutable std::vector<real_t> scratch_;
  mutable std::vector<real_t> sse_;
};

}  // namespace ssamr
