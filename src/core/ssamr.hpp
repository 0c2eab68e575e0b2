#pragma once
/// \file ssamr.hpp
/// Umbrella header for the ssamr library — adaptive system-sensitive
/// partitioning of SAMR applications on (simulated) heterogeneous clusters,
/// reproducing Sinha & Parashar, CLUSTER 2001.
///
/// Typical use (see examples/quickstart.cpp):
///
///   using namespace ssamr;
///   Cluster cluster = Cluster::homogeneous(4);
///   cluster.add_load(0, LoadRamp{...});           // make it heterogeneous
///   TraceWorkloadSource source(TraceConfig{});    // or a live solver
///   HeterogeneousPartitioner partitioner;
///   AdaptiveRuntime runtime(cluster, source, partitioner, RuntimeConfig{});
///   RunTrace trace = runtime.run();

#include "amr/cluster_br.hpp"       // IWYU pragma: export
#include "amr/flagging.hpp"         // IWYU pragma: export
#include "amr/flux_register.hpp"    // IWYU pragma: export
#include "amr/hierarchy.hpp"        // IWYU pragma: export
#include "amr/hierarchy_audit.hpp"  // IWYU pragma: export
#include "amr/integrator.hpp"       // IWYU pragma: export
#include "amr/particles.hpp"        // IWYU pragma: export
#include "amr/trace_generator.hpp"  // IWYU pragma: export
#include "amr/workload.hpp"         // IWYU pragma: export
#include "capacity/capacity.hpp"    // IWYU pragma: export
#include "capacity/capacity_audit.hpp"  // IWYU pragma: export
#include "cluster/cluster.hpp"      // IWYU pragma: export
#include "cluster/cluster_audit.hpp"    // IWYU pragma: export
#include "geom/box.hpp"             // IWYU pragma: export
#include "geom/box_list.hpp"        // IWYU pragma: export
#include "monitor/monitor_audit.hpp"    // IWYU pragma: export
#include "monitor/monitor_service.hpp"  // IWYU pragma: export
#include "partition/distributed_sfc.hpp"  // IWYU pragma: export
#include "partition/grace_default.hpp"  // IWYU pragma: export
#include "partition/greedy.hpp"         // IWYU pragma: export
#include "partition/heterogeneous.hpp"  // IWYU pragma: export
#include "partition/knapsack.hpp"       // IWYU pragma: export
#include "partition/metrics.hpp"        // IWYU pragma: export
#include "partition/multiaxis.hpp"      // IWYU pragma: export
#include "partition/partition_audit.hpp"  // IWYU pragma: export
#include "partition/sfc_knapsack.hpp"   // IWYU pragma: export
#include "partition/zoo.hpp"            // IWYU pragma: export
#include "runtime/runtime.hpp"          // IWYU pragma: export
#include "sim/chrome_trace.hpp"         // IWYU pragma: export
#include "sim/exec_model.hpp"           // IWYU pragma: export
#include "sim/executor_audit.hpp"       // IWYU pragma: export
#include "solver/advection.hpp"         // IWYU pragma: export
#include "solver/euler.hpp"             // IWYU pragma: export
#include "solver/richtmyer_meshkov.hpp" // IWYU pragma: export
#include "util/audit.hpp"               // IWYU pragma: export
#include "util/audit_report.hpp"        // IWYU pragma: export
