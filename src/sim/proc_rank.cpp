#include "sim/proc_rank.hpp"

#include <poll.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/frame.hpp"
#include "net/proc_exit.hpp"
#include "net/sysio.hpp"
#include "sim/proc_protocol.hpp"
#include "util/wallclock.hpp"

namespace ssamr::sim {
namespace {

/// kMsgData chunk size: small enough that a full-mesh exchange never wedges
/// on a default ~208 KiB socket buffer, large enough to amortize syscalls.
constexpr std::size_t kDataChunk = 64 * 1024;

/// Per-peer exchange state.  Decoders persist across phases so a chunk
/// straddling a read boundary is never lost.
struct PeerIo {
  int fd = -1;
  std::uint64_t to_send = 0;  ///< payload bytes not yet handed to a frame
  std::uint64_t to_recv = 0;  ///< payload bytes still expected
  std::vector<std::uint8_t> outbuf;  ///< encoded frame mid-write
  std::size_t outoff = 0;
  net::FrameDecoder decoder;
  std::uint64_t sent = 0;      ///< payload bytes framed this phase
  std::uint64_t received = 0;  ///< payload bytes accepted this phase
};

/// Drain completed kMsgData frames already buffered in a peer decoder.
/// Returns false on protocol violation (wrong type, byte over-run).
bool drain_decoder(PeerIo& io) {
  net::Frame f;
  while (io.decoder.next(f)) {
    if (f.type != kMsgData) return false;
    const auto got = static_cast<std::uint64_t>(f.payload.size());
    if (got > io.to_recv) return false;
    io.to_recv -= got;
    io.received += got;
  }
  return io.decoder.error() == net::FrameError::kNone;
}

/// Move the planned bytes with every peer; nonblocking, poll-driven, no
/// send/recv ordering assumptions (full-mesh safe).  Returns an exit code,
/// kRankExitOk on completion.
int exchange_phase(std::vector<PeerIo>& peers, double deadline_s) {
  static const std::vector<std::uint8_t> zeros(kDataChunk, 0);
  for (;;) {
    bool pending = false;
    std::vector<struct pollfd> pfds;
    std::vector<std::size_t> pidx;
    for (std::size_t k = 0; k < peers.size(); ++k) {
      PeerIo& io = peers[k];
      if (io.fd < 0) continue;
      // A frame may already be sitting whole in the decoder buffer.
      if (!drain_decoder(io)) return kRankExitProtocol;
      short ev = 0;
      if (io.to_send > 0 || io.outoff < io.outbuf.size()) ev |= POLLOUT;
      if (io.to_recv > 0) ev |= POLLIN;
      if (ev == 0) continue;
      pending = true;
      struct pollfd p {};
      p.fd = io.fd;
      p.events = ev;
      pfds.push_back(p);
      pidx.push_back(k);
    }
    if (!pending) return kRankExitOk;

    const double left = deadline_s - wallclock_seconds();
    if (left <= 0) return kRankExitTimeout;
    const int ms = static_cast<int>(std::clamp(left * 1e3, 1.0, 1000.0));
    const int rc =
        net::poll_retry(pfds.data(), static_cast<nfds_t>(pfds.size()), ms);
    if (rc < 0) return kRankExitInternal;
    if (rc == 0) continue;  // slice elapsed; re-check the deadline

    for (std::size_t i = 0; i < pfds.size(); ++i) {
      PeerIo& io = peers[pidx[i]];
      const short re = pfds[i].revents;
      if (re & (POLLIN | POLLHUP | POLLERR)) {
        std::uint8_t chunk[kDataChunk];
        std::size_t got = 0;
        const net::IoStatus st =
            net::read_some(io.fd, chunk, sizeof chunk, &got);
        if (st == net::IoStatus::kClosed && io.to_recv > 0)
          return kRankExitProtocol;  // peer died mid-phase
        if (st == net::IoStatus::kError) return kRankExitInternal;
        if (got > 0) io.decoder.feed(chunk, got);
        if (!drain_decoder(io)) return kRankExitProtocol;
      }
      if (re & POLLOUT) {
        if (io.outoff == io.outbuf.size() && io.to_send > 0) {
          const std::size_t chunk = static_cast<std::size_t>(
              std::min<std::uint64_t>(io.to_send, kDataChunk));
          io.outbuf = net::encode_frame(kMsgData, zeros.data(), chunk);
          io.outoff = 0;
          io.to_send -= chunk;
          io.sent += chunk;
        }
        if (io.outoff < io.outbuf.size()) {
          std::size_t put = 0;
          const net::IoStatus st =
              net::write_some(io.fd, io.outbuf.data() + io.outoff,
                              io.outbuf.size() - io.outoff, &put);
          if (st == net::IoStatus::kClosed) return kRankExitProtocol;
          if (st == net::IoStatus::kError) return kRankExitInternal;
          io.outoff += put;
          if (io.outoff == io.outbuf.size() && io.to_send == 0) {
            io.outbuf.clear();
            io.outoff = 0;
          }
        }
      }
    }
  }
}

/// The rank loop proper; may throw (caller converts to hard_exit).
[[noreturn]] void rank_loop(const RankEndpoints& ep) {
  // Control-plane timeout: generous, because the coordinator legitimately
  // goes quiet between phases (it is running the partitioner).  Orphan
  // protection comes from PDEATHSIG, not from this deadline.
  const double ctrl_timeout_s = std::max(ep.frame_timeout_s, 600.0);

  std::vector<PeerIo> peers(ep.peer_fds.size());
  for (std::size_t k = 0; k < ep.peer_fds.size(); ++k)
    peers[k].fd = ep.peer_fds[k];

  // Announce liveness.
  {
    net::WireWriter w;
    w.i32(ep.rank);
    const net::IoStatus st =
        net::write_frame(ep.ctrl_fd, kMsgHello, w.bytes().data(),
                         w.bytes().size(), ep.frame_timeout_s);
    if (st != net::IoStatus::kOk) net::hard_exit(kRankExitProtocol);
  }

  net::FrameDecoder ctrl_decoder;
  for (;;) {
    net::Frame msg;
    const net::IoStatus st =
        net::read_frame(ep.ctrl_fd, ctrl_decoder, msg, ctrl_timeout_s);
    if (st == net::IoStatus::kClosed) net::hard_exit(kRankExitOk);
    if (st == net::IoStatus::kTimeout) net::hard_exit(kRankExitTimeout);
    if (st != net::IoStatus::kOk) net::hard_exit(kRankExitProtocol);

    if (msg.type == kMsgShutdown) net::hard_exit(kRankExitOk);
    if (msg.type != kMsgPhase) net::hard_exit(kRankExitProtocol);

    const PhasePlan plan =
        decode_phase_plan(msg.payload.data(), msg.payload.size());

    PhaseReport report;
    const double t0 = wallclock_seconds();
    if (plan.compute_wall_s > 0) net::sleep_wall(plan.compute_wall_s);
    const double t1 = wallclock_seconds();
    report.compute_wall_s = t1 - t0;

    for (PeerIo& io : peers) {
      io.sent = 0;
      io.received = 0;
    }
    for (const WireFlow& f : plan.sends) {
      if (f.peer < 0 || f.peer >= static_cast<int>(peers.size()) ||
          f.peer == ep.rank)
        net::hard_exit(kRankExitProtocol);
      peers[static_cast<std::size_t>(f.peer)].to_send += f.bytes;
    }
    for (const WireFlow& f : plan.recvs) {
      if (f.peer < 0 || f.peer >= static_cast<int>(peers.size()) ||
          f.peer == ep.rank)
        net::hard_exit(kRankExitProtocol);
      peers[static_cast<std::size_t>(f.peer)].to_recv += f.bytes;
    }
    const int xc = exchange_phase(peers, t1 + ep.frame_timeout_s);
    if (xc != kRankExitOk) net::hard_exit(xc);
    report.comm_wall_s = wallclock_seconds() - t1;
    for (const PeerIo& io : peers) {
      report.bytes_sent += io.sent;
      report.bytes_received += io.received;
    }

    const std::vector<std::uint8_t> bytes = encode_phase_report(report);
    const net::IoStatus ds = net::write_frame(
        ep.ctrl_fd, kMsgDone, bytes.data(), bytes.size(), ep.frame_timeout_s);
    if (ds != net::IoStatus::kOk) net::hard_exit(kRankExitProtocol);
  }
}

}  // namespace

void run_rank_process(const RankEndpoints& ep) {
  try {
    rank_loop(ep);
  } catch (...) {
    // Never unwind into the coordinator's stack frames.
    net::hard_exit(kRankExitInternal);
  }
}

}  // namespace ssamr::sim
