#include "sim/exec_model.hpp"

#include "sim/bsp_model.hpp"
#include "sim/event_executor.hpp"
#include "sim/proc_model.hpp"
#include "util/error.hpp"

namespace ssamr {

const char* exec_model_name(ExecModelKind kind) {
  switch (kind) {
    case ExecModelKind::kBsp: return "bsp";
    case ExecModelKind::kEvent: return "event";
    case ExecModelKind::kProc: return "proc";
  }
  return "unknown";
}

ExecModelKind parse_exec_model_name(const std::string& name) {
  if (name == "bsp") return ExecModelKind::kBsp;
  if (name == "event") return ExecModelKind::kEvent;
  if (name == "proc") return ExecModelKind::kProc;
  SSAMR_REQUIRE(
      false, "unknown execution model '" + name + "' (want bsp|event|proc)");
  return ExecModelKind::kBsp;  // unreachable
}

std::unique_ptr<ExecutionModel> make_execution_model(
    ExecModelKind kind, const Cluster& cluster, const ExecutorConfig& cfg) {
  switch (kind) {
    case ExecModelKind::kBsp:
      return std::make_unique<sim::BspModel>(cluster, cfg);
    case ExecModelKind::kEvent:
      return std::make_unique<sim::EventExecutor>(cluster, cfg,
                                                  sim::SpanLog::kKeep);
    case ExecModelKind::kProc:
      return std::make_unique<sim::ProcModel>(cluster, cfg);
  }
  SSAMR_REQUIRE(false, "unknown execution model kind");
  return nullptr;  // unreachable
}

}  // namespace ssamr
