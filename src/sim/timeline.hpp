#pragma once
/// \file timeline.hpp
/// Per-rank virtual timelines for the discrete-event execution model.
///
/// A RankTimeline is a monotone clock plus the busy/comm/idle totals that
/// advanced it.  Every advance is attributed to one of three buckets —
/// busy (compute, regrid work), comm (ghost exchange, migration), idle
/// (barrier waits, run tail) — so a finished timeline yields the RankUsage
/// aggregate.  A timeline that keeps spans also logs every advance as a
/// TraceSpan, the list behind the Chrome-trace export; that log grows with
/// ranks × stages, so only a consumer that reads it keeps it (SpanLog).
/// A LaneSet holds the lanes of one execution model.

#include <vector>

#include "sim/trace.hpp"
#include "util/types.hpp"

namespace ssamr::sim {

/// Whether timelines log their spans.  Clocks and usage are the same
/// either way; only the span list differs.
enum class SpanLog {
  kKeep,  ///< log every span (models built for AdaptiveRuntime::run)
  kDrop,  ///< usage only (drivers that never call finish() for spans)
};

/// The virtual timeline of one rank (or of the monitor lane).
class RankTimeline {
 public:
  /// \param rank lane index recorded on every span (ranks 0..n-1; the
  ///        monitor lane uses n).
  RankTimeline(int rank, SpanLog log)
      : rank_(rank), keep_spans_(log == SpanLog::kKeep) {}

  /// Current local clock (end of the last advance).
  Seconds now() const { return now_; }

  /// Advance the clock to `until`, charging the interval to the bucket of
  /// `kind` and, when spans are kept, recording it as a span.  `until` may
  /// not precede the current clock; zero-length advances are accepted and
  /// change nothing.
  void advance(Seconds until, SpanKind kind, int iteration = -1);

  /// Advance the clock without recording (used by the monitor lane, which
  /// is not busy between sweeps).
  void skip_to(Seconds until);

  /// Busy/comm/idle totals accumulated so far.
  const RankUsage& usage() const { return usage_; }

  /// All recorded spans, in time order (empty when spans are dropped).
  const std::vector<TraceSpan>& spans() const { return spans_; }

 private:
  int rank_;
  bool keep_spans_;
  Seconds now_{0};
  RankUsage usage_;
  std::vector<TraceSpan> spans_;
};

/// The lanes of one execution model — ranks 0..n-1 plus the monitor lane
/// at n — and the stage bookkeeping the models share.
class LaneSet {
 public:
  /// `log` applies to every lane.
  LaneSet(int nranks, SpanLog log);

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
  /// lane), then the ranks' usage and every lane's spans go to `trace`
  /// (no spans when the lanes drop them).
  void finish(RunTrace& trace, Seconds t_end);

 private:
  std::vector<RankTimeline> lanes_;
  Seconds pending_regrid_s_{0};
};

}  // namespace ssamr::sim
