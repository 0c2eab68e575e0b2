#pragma once
/// \file message_sim.hpp
/// Fluid simulation of concurrent point-to-point transfers with endpoint
/// bandwidth contention.
///
/// The closed-form NetworkModel (cluster/network.hpp) prices one message
/// in isolation.  When a rank drives several transfers at once — ghost
/// exchanges with every neighbour, a migration fan-out — they share its
/// deliverable NIC bandwidth.  This simulator resolves that sharing with
/// the standard fluid model: at any instant a transfer progresses at
///
///   rate = efficiency · min(src_bw / src_sending, dst_bw / dst_receiving)
///
/// where k_sending counts the transfers currently leaving endpoint k and
/// k_receiving the transfers arriving at it.  NICs are full duplex: a
/// node's sends contend with each other and its receives with each other,
/// but the two directions ride independent lanes — a symmetric ghost
/// exchange costs the same as its one-way half, not double.
/// Rates are re-evaluated at every transfer start/finish, so the result
/// is exact for piecewise-constant sharing.  Admissions drain from a
/// stable-sorted list and completions from a RetimableEventQueue whose
/// (time, sequence) order breaks every tie, so it is also
/// bit-reproducible.  One `latency_s` is charged per message, exactly
/// once, by delaying its network entry.  A transfer of zero bytes
/// completes at its post time, mirroring NetworkModel::transfer_time.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/network.hpp"
#include "sim/event.hpp"
#include "sim/event_queue.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace ssamr::sim {

/// Reusable scratch for simulate_transfers.  One simulation of
/// 400k transfers across 16k endpoints touches ~40 MB of working state
/// and tens of thousands of per-lane vectors; a caller that simulates
/// every iteration (the event executor) keeps one workspace alive so each
/// call pays a reset instead of an allocation storm — the buffers and the
/// lane vectors' capacities persist across calls.  The fields are the
/// simulator's internals, exposed only so they can outlive a call; treat
/// them as opaque.  Reuse never changes results: every field is fully
/// re-initialized per call.
struct SimWorkspace {
  struct Entry {
    Seconds time{0};
    std::uint32_t id = 0;
  };
  /// One transfer's entire fluid state, packed to half a cache line and
  /// aligned so it never straddles one.  The re-rate pass reads these in
  /// data-dependent random order over the whole transfer range; at
  /// P = 16384 that range is far past L2, so splitting rate, endpoints
  /// and residual across separate arrays costs up to three cold lines per
  /// visit where this layout costs one.
  struct alignas(32) Fluid {
    real_t rate = -1;    ///< <0 inactive, 0 awaiting first share
    std::uint32_t src = 0, dst = 0;
    real_t remaining = 0;
    Seconds last{0};
  };
  std::vector<BytesPerSec> cap;
  std::vector<Entry> starts;
  std::vector<Fluid> fluid;
  std::vector<std::vector<std::uint32_t>> tx_list, rx_list;
  std::vector<int> tx_degree, rx_degree;
  std::vector<BytesPerSec> share_tx, share_rx;
  RetimableEventQueue completions;
  std::vector<std::size_t> pending_tx, pending_rx, cur_tx, cur_rx;
};

/// Resolve `transfers` (post_time/bytes/src/dst set) against per-endpoint
/// deliverable bandwidths `deliverable_mbps`, filling every finish_time.
/// Endpoint indices must lie in [0, deliverable_mbps.size()), post times
/// must be finite and non-negative, and `net` must have a finite
/// efficiency in (0, 1] and a finite latency >= 0 (NetworkModel::validate).
/// Returns the discrete events processed (one admission + one completion
/// per transfer that actually enters the network; zero-byte and self
/// transfers complete at their post time without events).
///
/// Indexed: per-endpoint incident lists localize each event to the
/// transfers sharing an endpoint with it, completions live in a retimable
/// heap, and in-flight residuals settle lazily (`remaining -= rate · Δt`)
/// when one of their endpoints changes degree.  A step costs
/// O(deg · log E), not the O(active) of a sweep over every in-flight
/// transfer, which is what lets the event model reach P = 16384 ranks
/// (DESIGN.md §11).  That sweep is the test oracle (tests/oracle.hpp):
/// finish times agree with it to rounding, not bit for bit, since
/// residuals accumulate in a different grouping.
std::size_t simulate_transfers(std::vector<Transfer>& transfers,
                               const std::vector<MbitsPerSec>& deliverable_mbps,
                               const NetworkModel& net);

/// As above, reusing `ws` for every internal buffer.  Results are
/// identical to the workspace-free form; only allocation traffic differs.
std::size_t simulate_transfers(std::vector<Transfer>& transfers,
                               const std::vector<MbitsPerSec>& deliverable_mbps,
                               const NetworkModel& net, SimWorkspace& ws);

}  // namespace ssamr::sim
