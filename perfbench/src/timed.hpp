#pragma once
/// \file timed.hpp
/// Timing decorators over the library's two virtual seams: they wrap a
/// WorkloadSource or a Partitioner, open a span around each public call,
/// and count the work it returned.  Counting happens after the span
/// closes, so bookkeeping is not billed to the layer.

#include <string>
#include <vector>

#include "runtime/runtime.hpp"
#include "tracer.hpp"

namespace perfbench {

/// WorkloadSource decorator: spans `amr.boxes` / `amr.particles`, counts
/// epochs, boxes and distinct (scenario, epoch) pairs.
class TimedWorkloadSource final : public ssamr::WorkloadSource {
 public:
  /// `scenario` identifies the generated inputs: two sources built from
  /// the same configuration share it, so regenerated epochs are visible.
  TimedWorkloadSource(ssamr::WorkloadSource& inner, Tracer& tracer, int op,
                      int scenario)
      : inner_(inner), tracer_(tracer), op_(op), scenario_(scenario) {}

  ssamr::BoxList boxes_for_regrid(int regrid_index) override {
    ScopedSpan span(&tracer_, "amr.boxes", op_);
    ssamr::BoxList boxes = inner_.boxes_for_regrid(regrid_index);
    span.close();
    tracer_.count("amr.epochs", 1);
    tracer_.count("amr.boxes", static_cast<std::int64_t>(boxes.size()));
    tracer_.mark_epoch(scenario_, regrid_index);
    return boxes;
  }

  const ssamr::ParticleField* particles_for_regrid(
      int regrid_index) override {
    const ScopedSpan span(&tracer_, "amr.particles", op_);
    return inner_.particles_for_regrid(regrid_index);
  }

 private:
  ssamr::WorkloadSource& inner_;
  Tracer& tracer_;
  int op_;
  int scenario_;
};

/// Partitioner decorator: span `partition`, counts calls, splits and
/// assignments.
class TimedPartitioner final : public ssamr::Partitioner {
 public:
  TimedPartitioner(const ssamr::Partitioner& inner, Tracer& tracer, int op)
      : inner_(inner), tracer_(tracer), op_(op) {}

  ssamr::PartitionResult partition(
      const ssamr::BoxList& boxes, const std::vector<ssamr::real_t>& caps,
      const ssamr::WorkModel& work) const override {
    ScopedSpan span(&tracer_, "partition", op_);
    ssamr::PartitionResult r = inner_.partition(boxes, caps, work);
    span.close();
    tracer_.count("partition.calls", 1);
    tracer_.count("partition.splits", r.splits);
    tracer_.count("partition.assignments",
                  static_cast<std::int64_t>(r.assignments.size()));
    return r;
  }

  std::string name() const override { return inner_.name(); }
  ssamr::PartitionConstraints constraints() const override {
    return inner_.constraints();
  }

 private:
  const ssamr::Partitioner& inner_;
  Tracer& tracer_;
  int op_;
};

}  // namespace perfbench
