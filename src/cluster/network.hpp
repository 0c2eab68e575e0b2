#pragma once
/// \file network.hpp
/// Communication cost model for the simulated cluster interconnect.
///
/// The paper's testbed uses switched Fast Ethernet.  Transfer time follows
/// the classic latency + size/bandwidth model, where the deliverable
/// bandwidth of each endpoint is its NIC bandwidth minus background
/// traffic (from the load generators), and a transfer is limited by the
/// slower endpoint.

#include "cluster/node.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace ssamr {

/// Parameters of the interconnect.
struct NetworkModel {
  /// Floor on any deliverable bandwidth (keeps transfer times finite when
  /// background traffic saturates a link).
  static constexpr MbitsPerSec kMinBandwidthMbps{0.1};

  /// One-way message latency in seconds (Fast Ethernet + TCP ≈ 100 µs).
  Seconds latency_s{1.0e-4};
  /// Protocol efficiency: fraction of nominal link bandwidth achievable by
  /// a single TCP stream.
  Fraction efficiency{0.85};

  /// Throw ssamr::Error unless efficiency is finite and in (0, 1] and
  /// latency_s is finite and non-negative.  A zero or NaN efficiency
  /// gives every contended transfer a rate that never drains it, and a
  /// non-finite latency an entry time that is never reached.
  void validate() const;

  /// Seconds to move `bytes` between endpoints whose deliverable
  /// bandwidths are src_mbps and dst_mbps.  Zero bytes cost nothing.
  Seconds transfer_time(Bytes bytes, MbitsPerSec src_mbps,
                        MbitsPerSec dst_mbps) const;

  /// Seconds for one rank to move `bytes` of ghost data given its own
  /// deliverable bandwidth (the aggregate of its exchanges; peers assumed
  /// no slower on average).
  Seconds exchange_time(Bytes bytes, MbitsPerSec self_mbps) const;
};

}  // namespace ssamr
