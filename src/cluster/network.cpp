#include "cluster/network.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ssamr {

namespace {
constexpr MbitsPerSec kMinBandwidthMbps = NetworkModel::kMinBandwidthMbps;
}

void NetworkModel::validate() const {
  const real_t eff = efficiency.value();
  SSAMR_REQUIRE(std::isfinite(eff) && eff > 0 && eff <= 1,
                "network efficiency must be finite and in (0, 1]");
  SSAMR_REQUIRE(std::isfinite(latency_s.value()) && latency_s >= Seconds{0},
                "network latency must be finite and non-negative");
}

Seconds NetworkModel::transfer_time(Bytes bytes, MbitsPerSec src_mbps,
                                    MbitsPerSec dst_mbps) const {
  SSAMR_REQUIRE(bytes >= Bytes{0}, "negative transfer size");
  if (bytes == Bytes{0}) return Seconds{0};
  // Bytes / MbitsPerSec -> Seconds carries the historical scaling
  // (bytes * 8.0, then / (mbps * 1.0e6)) inside units.hpp, so the result
  // is bit-identical to the raw-double model.
  const MbitsPerSec mbps = std::max(
      kMinBandwidthMbps, std::min(src_mbps, dst_mbps) * efficiency);
  return latency_s + bytes / mbps;
}

Seconds NetworkModel::exchange_time(Bytes bytes,
                                    MbitsPerSec self_mbps) const {
  SSAMR_REQUIRE(bytes >= Bytes{0}, "negative exchange size");
  if (bytes == Bytes{0}) return Seconds{0};
  const MbitsPerSec mbps = std::max(kMinBandwidthMbps, self_mbps * efficiency);
  return latency_s + bytes / mbps;
}

}  // namespace ssamr
