#pragma once
/// \file event.hpp
/// The point-to-point transfer of the virtual-cluster simulation.
///
/// The event model decomposes a run into compute spans (a rank updating
/// its patches), point-to-point transfers (ghost exchange and data
/// migration), probe sweeps and regrid/repartition barriers.  Spans,
/// sweeps and barriers are recorded directly on the per-rank timelines
/// (timeline.hpp); transfers additionally flow through the fluid network
/// simulation (message_sim.hpp) which resolves endpoint bandwidth
/// contention before their completion times are known.

#include "util/units.hpp"

namespace ssamr::sim {

/// One point-to-point transfer (a ghost-exchange or migration message).
struct Transfer {
  int src = 0;
  int dst = 0;
  Bytes bytes{0};
  /// When the payload is handed to the NIC (absolute virtual time).
  Seconds post_time{0};
  /// Completion time, filled in by simulate_transfers().
  Seconds finish_time{0};
};

}  // namespace ssamr::sim
