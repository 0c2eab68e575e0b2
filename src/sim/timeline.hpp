#pragma once
/// \file timeline.hpp
/// Per-rank virtual timelines for the discrete-event execution model.
///
/// A RankTimeline is a monotone clock plus the contiguous spans that
/// advanced it.  Every advance is attributed to one of three buckets —
/// busy (compute, regrid work), comm (ghost exchange, migration), idle
/// (barrier waits, run tail) — so a finished timeline yields both the
/// RankUsage aggregate and the span list behind the Chrome-trace export.
/// A LaneSet holds the lanes of one execution model.

#include <vector>

#include "sim/trace.hpp"
#include "util/types.hpp"

namespace ssamr::sim {

/// The virtual timeline of one rank (or of the monitor lane).
class RankTimeline {
 public:
  /// \param rank lane index recorded on every span (ranks 0..n-1; the
  ///        monitor lane uses n).
  explicit RankTimeline(int rank) : rank_(rank) {}

  /// Current local clock (end of the last recorded span).
  Seconds now() const { return now_; }

  /// Advance the clock to `until`, recording a span of the given kind.
  /// `until` may not precede the current clock; zero-length advances are
  /// accepted and record nothing.
  void advance(Seconds until, SpanKind kind, int iteration = -1);

  /// Advance the clock without recording (used by the monitor lane, which
  /// is not busy between sweeps).
  void skip_to(Seconds until);

  /// Busy/comm/idle totals accumulated so far.
  const RankUsage& usage() const { return usage_; }

  /// All recorded spans, in time order.
  const std::vector<TraceSpan>& spans() const { return spans_; }

 private:
  int rank_;
  Seconds now_{0};
  RankUsage usage_;
  std::vector<TraceSpan> spans_;
};

/// The lanes of one execution model — ranks 0..n-1 plus the monitor lane
/// at n — and the stage bookkeeping the models share.
class LaneSet {
 public:
  explicit LaneSet(int nranks);

  std::size_t nranks() const { return lanes_.size() - 1; }
  RankTimeline& rank(std::size_t k) { return lanes_[k]; }
  RankTimeline& monitor() { return lanes_.back(); }

  /// Latest local clock over the rank lanes (the monitor lane excluded).
  Seconds horizon() const;

  /// A probe sweep charged serially from t: every rank idles while the
  /// monitor lane senses.
  void serial_sense(Seconds t, Seconds sweep_s, int iteration);

  /// Regrid work of `cost` charged serially from t, remembered for the
  /// migration that follows.
  void serial_regrid(Seconds t, Seconds cost, int iteration);

  /// The migration of `cost` that follows serial_regrid at the same t.
  /// The driver charges regrid + migration to its clock as one pre-summed
  /// pair, so the rank lanes land on t + (regrid + cost) with that exact
  /// rounding ((t + a) + b need not equal t + (a + b)).
  void land_migration(Seconds t, Seconds cost);

  /// Close the run: every rank lane idles to `t_end` (never rewinding a
  /// lane), then the ranks' usage and every lane's spans go to `trace`.
  void finish(RunTrace& trace, Seconds t_end);

 private:
  std::vector<RankTimeline> lanes_;
  Seconds pending_regrid_s_{0};
};

}  // namespace ssamr::sim
