#include "sim/timeline.hpp"

#include <algorithm>
#include <string>

#include "util/error.hpp"

namespace ssamr::sim {

void RankTimeline::advance(Seconds until, SpanKind kind, int iteration) {
  SSAMR_REQUIRE(until >= now_,
                "timeline may not move backwards (rank " +
                    std::to_string(rank_) + " kind " +
                    std::string(span_kind_name(kind)) + " now " +
                    std::to_string(now_.value()) + " until " +
                    std::to_string(until.value()) +
                    " iter " + std::to_string(iteration) + ")");
  const Seconds dt = until - now_;
  if (dt <= Seconds{0}) return;
  switch (kind) {
    case SpanKind::kCompute:
    case SpanKind::kRegrid:
    case SpanKind::kSense:
      usage_.busy_s += dt;
      break;
    case SpanKind::kComm:
    case SpanKind::kMigrate:
      usage_.comm_s += dt;
      break;
    case SpanKind::kIdle:
      usage_.idle_s += dt;
      break;
  }
  if (keep_spans_)
    spans_.push_back(TraceSpan{rank_, kind, now_, until, iteration});
  now_ = until;
}

void RankTimeline::skip_to(Seconds until) {
  SSAMR_REQUIRE(until >= now_, "timeline may not move backwards");
  now_ = until;
}

LaneSet::LaneSet(int nranks, SpanLog log) {
  lanes_.reserve(static_cast<std::size_t>(nranks) + 1);
  for (int k = 0; k <= nranks; ++k) lanes_.emplace_back(k, log);
}

Seconds LaneSet::horizon() const {
  Seconds h{0};
  for (std::size_t k = 0; k < nranks(); ++k) h = std::max(h, lanes_[k].now());
  return h;
}

void LaneSet::serial_sense(Seconds t, Seconds sweep_s, int iteration) {
  for (std::size_t k = 0; k < nranks(); ++k)
    lanes_[k].advance(t + sweep_s, SpanKind::kIdle, iteration);
  monitor().skip_to(t);
  monitor().advance(t + sweep_s, SpanKind::kSense, iteration);
}

void LaneSet::serial_regrid(Seconds t, Seconds cost, int iteration) {
  for (std::size_t k = 0; k < nranks(); ++k)
    lanes_[k].advance(t + cost, SpanKind::kRegrid, iteration);
  pending_regrid_s_ = cost;
}

void LaneSet::land_migration(Seconds t, Seconds cost) {
  const Seconds end = t + (pending_regrid_s_ + cost);
  pending_regrid_s_ = Seconds{0};
  for (std::size_t k = 0; k < nranks(); ++k)
    lanes_[k].advance(end, SpanKind::kMigrate);
}

void LaneSet::finish(RunTrace& trace, Seconds t_end) {
  // The driver's clock re-rounds the stage deltas it accumulated, so it
  // can sit an ulp below the true lane horizon; never rewind a lane.
  const Seconds end = std::max(t_end, horizon());
  trace.rank_usage.clear();
  trace.spans.clear();
  for (std::size_t k = 0; k < nranks(); ++k) {
    lanes_[k].advance(end, SpanKind::kIdle);  // run tail
    trace.rank_usage.push_back(lanes_[k].usage());
  }
  for (const RankTimeline& lane : lanes_)
    trace.spans.insert(trace.spans.end(), lane.spans().begin(),
                       lane.spans().end());
}

}  // namespace ssamr::sim
