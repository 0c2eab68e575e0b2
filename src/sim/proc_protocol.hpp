#pragma once
/// \file proc_protocol.hpp
/// Message vocabulary between the proc-backend coordinator and its forked
/// rank processes (DESIGN.md §12).
///
/// All messages ride net/frame.hpp frames; the frame `type` field carries
/// the ProcMsg id and the payload is wire.hpp host-endian scalars.  The
/// protocol is strictly coordinator-driven request/reply on the control
/// sockets — a rank never initiates — plus peer-to-peer kMsgData streams on
/// the rank-pair data sockets during a phase.
///
/// Phase lifecycle:
///   coordinator --kMsgPhase(PhasePlan)--> every rank
///   ranks: emulate compute (nanosleep), exchange planned bytes with peers
///   rank --kMsgDone(PhaseReport)--> coordinator
///
/// The plan carries everything a rank needs for one phase and nothing
/// more: its compute budget in wall seconds and the exact per-peer byte
/// counts to send and to expect (both sides get coordinator-computed
/// numbers, so they always agree).  The frame CRC covers only the header,
/// so decode_phase_plan bounds every flow count by the payload bytes left
/// before it allocates.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/wire.hpp"
#include "util/error.hpp"

namespace ssamr::sim {

/// Frame `type` values on proc-backend sockets.
enum ProcMsg : std::uint32_t {
  kMsgHello = 1,     ///< rank -> coordinator: alive after fork (payload: rank)
  kMsgPhase = 2,     ///< coordinator -> rank: PhasePlan
  kMsgDone = 3,      ///< rank -> coordinator: PhaseReport
  kMsgShutdown = 4,  ///< coordinator -> rank: exit cleanly
  kMsgData = 5,      ///< rank -> rank: one chunk of phase payload bytes
};

/// One directed peer transfer within a phase (wire bytes, post-scaling).
struct WireFlow {
  std::int32_t peer = 0;
  std::uint64_t bytes = 0;

  bool operator==(const WireFlow&) const = default;
};

/// Encoded size of one WireFlow: i32 peer + u64 bytes.
inline constexpr std::size_t kWireFlowBytes =
    sizeof(std::int32_t) + sizeof(std::uint64_t);

/// Coordinator -> rank: one phase of work.
struct PhasePlan {
  double compute_wall_s = 0;     ///< nanosleep budget (wall seconds)
  std::vector<WireFlow> sends;   ///< bytes this rank pushes, per peer
  std::vector<WireFlow> recvs;   ///< bytes this rank expects, per peer
};

/// Rank -> coordinator: measured wall-clock split of one phase.
struct PhaseReport {
  double compute_wall_s = 0;  ///< time spent in compute emulation
  double comm_wall_s = 0;     ///< time spent in the exchange engine
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

inline std::vector<std::uint8_t> encode_phase_plan(const PhasePlan& p) {
  net::WireWriter w;
  w.f64(p.compute_wall_s);
  w.u32(static_cast<std::uint32_t>(p.sends.size()));
  w.u32(static_cast<std::uint32_t>(p.recvs.size()));
  for (const WireFlow& f : p.sends) {
    w.i32(f.peer);
    w.u64(f.bytes);
  }
  for (const WireFlow& f : p.recvs) {
    w.i32(f.peer);
    w.u64(f.bytes);
  }
  return w.bytes();
}

/// Read `count` encoded WireFlows.  The count is checked against the bytes
/// left before anything is allocated: one corrupt 32-bit count would
/// otherwise ask for up to 64 GiB.
inline std::vector<WireFlow> read_wire_flows(net::WireReader& r,
                                             std::uint32_t count) {
  SSAMR_REQUIRE(count <= r.remaining() / kWireFlowBytes,
                "proc: PhasePlan flow count exceeds its payload");
  std::vector<WireFlow> flows(count);
  for (WireFlow& f : flows) {
    f.peer = r.i32();
    f.bytes = r.u64();
  }
  return flows;
}

inline PhasePlan decode_phase_plan(const std::uint8_t* data,
                                   std::size_t size) {
  net::WireReader r(data, size);
  PhasePlan p;
  p.compute_wall_s = r.f64();
  const std::uint32_t nsend = r.u32();
  const std::uint32_t nrecv = r.u32();
  p.sends = read_wire_flows(r, nsend);
  p.recvs = read_wire_flows(r, nrecv);
  SSAMR_REQUIRE(r.done(), "proc: trailing bytes in PhasePlan");
  return p;
}

inline std::vector<std::uint8_t> encode_phase_report(const PhaseReport& p) {
  net::WireWriter w;
  w.f64(p.compute_wall_s);
  w.f64(p.comm_wall_s);
  w.u64(p.bytes_sent);
  w.u64(p.bytes_received);
  return w.bytes();
}

inline PhaseReport decode_phase_report(const std::uint8_t* data,
                                       std::size_t size) {
  net::WireReader r(data, size);
  PhaseReport p;
  p.compute_wall_s = r.f64();
  p.comm_wall_s = r.f64();
  p.bytes_sent = r.u64();
  p.bytes_received = r.u64();
  SSAMR_REQUIRE(r.done(), "proc: trailing bytes in PhaseReport");
  return p;
}

}  // namespace ssamr::sim
