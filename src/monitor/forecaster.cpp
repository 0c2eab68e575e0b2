#include "monitor/forecaster.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace ssamr {

real_t LastValueForecaster::forecast(
    const std::vector<real_t>& history) const {
  return history.empty() ? 0 : history.back();
}

real_t RunningMeanForecaster::forecast(
    const std::vector<real_t>& history) const {
  return mean_of(history);
}

SlidingMeanForecaster::SlidingMeanForecaster(std::size_t window)
    : window_(window) {
  SSAMR_REQUIRE(window >= 1, "window must be >= 1");
}

real_t SlidingMeanForecaster::forecast(
    const std::vector<real_t>& history) const {
  if (history.empty()) return 0;
  const std::size_t n = std::min(window_, history.size());
  real_t s = 0;
  for (std::size_t i = history.size() - n; i < history.size(); ++i)
    s += history[i];
  return s / static_cast<real_t>(n);
}

std::string SlidingMeanForecaster::name() const {
  return "sliding_mean(" + std::to_string(window_) + ")";
}

SlidingMedianForecaster::SlidingMedianForecaster(std::size_t window)
    : window_(window) {
  SSAMR_REQUIRE(window >= 1, "window must be >= 1");
}

real_t SlidingMedianForecaster::forecast(
    const std::vector<real_t>& history) const {
  if (history.empty()) return 0;
  const std::size_t n = std::min(window_, history.size());
  std::vector<real_t> tail(history.end() - static_cast<std::ptrdiff_t>(n),
                           history.end());
  return median_of(std::move(tail));
}

std::string SlidingMedianForecaster::name() const {
  return "sliding_median(" + std::to_string(window_) + ")";
}

AdaptiveForecaster::AdaptiveForecaster() {
  members_.push_back(std::make_unique<LastValueForecaster>());
  members_.push_back(std::make_unique<RunningMeanForecaster>());
  members_.push_back(std::make_unique<SlidingMeanForecaster>(5));
  members_.push_back(std::make_unique<SlidingMeanForecaster>(10));
  members_.push_back(std::make_unique<SlidingMedianForecaster>(5));
  members_.push_back(std::make_unique<SlidingMedianForecaster>(10));
}

std::size_t AdaptiveForecaster::best_index(
    const std::vector<real_t>& history) const {
  const std::size_t n = history.size();
  if (n < 2) return 0;

  // Score only the trailing kScoreWindow predictions (plus kContext leading
  // measurements so windowed members see full windows and the running mean
  // scores a bounded, regime-local mean).  Scoring the whole history made
  // every forecast O(members · n²): each probe replays every member over
  // every prefix, and the prefix itself grows with the run.  For histories
  // of at most kScoreWindow + 1 measurements the scored predictions, their
  // accumulation order, and therefore the selected member are identical to
  // the unbounded selector.
  constexpr std::size_t kScoreWindow = 32;
  constexpr std::size_t kContext = 16;
  std::size_t first = 1;  // index of the first scored prediction
  std::size_t base = 0;   // start of the context the members see
  if (n - 1 > kScoreWindow) {
    first = n - 1 - kScoreWindow;
    base = first > kContext ? first - kContext : 0;
  }

  sse_.assign(members_.size(), 0);
  scratch_.assign(history.begin() + static_cast<std::ptrdiff_t>(base),
                  history.begin() + static_cast<std::ptrdiff_t>(first));
  for (std::size_t i = first; i < n; ++i) {
    for (std::size_t m = 0; m < members_.size(); ++m) {
      const real_t err = members_[m]->forecast(scratch_) - history[i];
      sse_[m] += err * err;
    }
    scratch_.push_back(history[i]);
  }

  real_t best_mse = std::numeric_limits<real_t>::infinity();
  std::size_t best = 0;
  const real_t count = static_cast<real_t>(n - first);
  for (std::size_t m = 0; m < members_.size(); ++m) {
    const real_t mse = sse_[m] / count;
    if (mse < best_mse) {
      best_mse = mse;
      best = m;
    }
  }
  return best;
}

real_t AdaptiveForecaster::forecast(
    const std::vector<real_t>& history) const {
  return members_[best_index(history)]->forecast(history);
}

std::string AdaptiveForecaster::best_member(
    const std::vector<real_t>& history) const {
  return members_[best_index(history)]->name();
}

}  // namespace ssamr
