#include "monitor/forecaster.hpp"

#include <algorithm>
#include <array>
#include <iterator>
#include <limits>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace ssamr {

real_t forecast_last(const std::vector<real_t>& history) {
  return history.empty() ? 0 : history.back();
}

real_t forecast_mean(const std::vector<real_t>& history) {
  return mean_of(history);
}

real_t forecast_sliding_mean(const std::vector<real_t>& history,
                             std::size_t window) {
  SSAMR_REQUIRE(window >= 1, "window must be >= 1");
  if (history.empty()) return 0;
  const std::size_t n = std::min(window, history.size());
  real_t s = 0;
  for (std::size_t i = history.size() - n; i < history.size(); ++i)
    s += history[i];
  return s / static_cast<real_t>(n);
}

real_t forecast_sliding_median(const std::vector<real_t>& history,
                               std::size_t window) {
  SSAMR_REQUIRE(window >= 1, "window must be >= 1");
  if (history.empty()) return 0;
  const std::size_t n = std::min(window, history.size());
  std::vector<real_t> tail(history.end() - static_cast<std::ptrdiff_t>(n),
                           history.end());
  return median_of(std::move(tail));
}

namespace {

/// One member of the adaptive selector's family.
struct Member {
  const char* name;
  real_t (*forecast)(const std::vector<real_t>&);
};

/// The family in selection order: ties go to the earlier member.
constexpr Member kFamily[] = {
    {"last", forecast_last},
    {"mean", forecast_mean},
    {"sliding_mean(5)",
     [](const std::vector<real_t>& h) { return forecast_sliding_mean(h, 5); }},
    {"sliding_mean(10)",
     [](const std::vector<real_t>& h) { return forecast_sliding_mean(h, 10); }},
    {"sliding_median(5)",
     [](const std::vector<real_t>& h) {
       return forecast_sliding_median(h, 5);
     }},
    {"sliding_median(10)",
     [](const std::vector<real_t>& h) {
       return forecast_sliding_median(h, 10);
     }},
};
constexpr std::size_t kFamilySize = std::size(kFamily);

}  // namespace

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

  std::array<real_t, kFamilySize> sse{};
  scratch_.assign(history.begin() + static_cast<std::ptrdiff_t>(base),
                  history.begin() + static_cast<std::ptrdiff_t>(first));
  for (std::size_t i = first; i < n; ++i) {
    for (std::size_t m = 0; m < kFamilySize; ++m) {
      const real_t err = kFamily[m].forecast(scratch_) - history[i];
      sse[m] += err * err;
    }
    scratch_.push_back(history[i]);
  }

  real_t best_mse = std::numeric_limits<real_t>::infinity();
  std::size_t best = 0;
  const real_t count = static_cast<real_t>(n - first);
  for (std::size_t m = 0; m < kFamilySize; ++m) {
    const real_t mse = sse[m] / count;
    if (mse < best_mse) {
      best_mse = mse;
      best = m;
    }
  }
  return best;
}

real_t AdaptiveForecaster::forecast(
    const std::vector<real_t>& history) const {
  return kFamily[best_index(history)].forecast(history);
}

std::string AdaptiveForecaster::best_member(
    const std::vector<real_t>& history) const {
  return kFamily[best_index(history)].name;
}

}  // namespace ssamr
