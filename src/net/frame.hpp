#pragma once
/// \file frame.hpp
/// Length-prefixed message framing over byte-stream sockets (DESIGN.md §12).
///
/// Every message on a proc-backend socket is one frame:
///
///   offset  size  field
///   ------  ----  -----------------------------------------------
///        0     4  magic   0x53414D52 ("SAMR", host-endian)
///        4     4  type    application message id (sim/proc_protocol.hpp)
///        8     4  length  payload bytes, <= kMaxFramePayload
///       12     4  crc     CRC-32 of header bytes [0, 12)
///       16     n  payload
///
/// The CRC covers the header only: its job is to reject a desynchronized or
/// corrupted length prefix *before* the reader allocates `length` bytes, so
/// a garbage prefix (including a "negative" length, i.e. >= 2^31) can never
/// drive an attacker- or corruption-controlled allocation.  Payload
/// integrity is the transport's job — these are local AF_UNIX SOCK_STREAM
/// sockets, not a lossy network.
///
/// Two layers of API:
///   - FrameDecoder: incremental, push-based — feed() arbitrary byte chunks
///     (partial reads are the normal case), next() pops completed frames.
///   - read_frame()/write_frame(): blocking-with-deadline convenience on a
///     nonblocking fd, built on poll(2) + read_some()/write_some() which
///     retry EINTR and surface EAGAIN as "made no progress".

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ssamr::net {

inline constexpr std::uint32_t kFrameMagic = 0x53414D52u;  // "SAMR"
inline constexpr std::size_t kFrameHeaderSize = 16;
/// Hard payload cap (64 MiB).  Larger lengths are protocol errors and are
/// rejected without allocating.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 26;

/// CRC-32 (IEEE 802.3, reflected) over a byte span.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

/// One completed application message.
struct Frame {
  std::uint32_t type = 0;
  std::vector<std::uint8_t> payload;
};

enum class FrameError {
  kNone = 0,
  kBadMagic,   ///< header did not start with "SAMR" — stream desynchronized
  kBadCrc,     ///< header checksum mismatch — corrupted length/type
  kOversized,  ///< length > kMaxFramePayload (covers negative i32 lengths)
};

/// Incremental decoder: feed() bytes as they arrive, next() pops frames.
/// After any error() != kNone the decoder is poisoned — the stream has no
/// recoverable framing — and feed() becomes a no-op.
class FrameDecoder {
 public:
  /// Append raw bytes from the stream (any chunking, including 1 byte).
  void feed(const std::uint8_t* data, std::size_t size);

  /// Pop the next completed frame into `out`.  Returns false when no full
  /// frame is buffered (or the decoder is poisoned).
  bool next(Frame& out);

  FrameError error() const { return error_; }

  /// Bytes buffered but not yet consumed as frames (test observability).
  std::size_t pending_bytes() const { return buf_.size() - off_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t off_ = 0;  // consumed prefix of buf_
  FrameError error_ = FrameError::kNone;
};

/// Serialize a frame (header + payload) into a contiguous byte buffer.
std::vector<std::uint8_t> encode_frame(std::uint32_t type,
                                       const std::uint8_t* payload,
                                       std::size_t size);

enum class IoStatus {
  kOk = 0,
  kClosed,    ///< peer closed the stream (EOF mid-frame counts as kClosed)
  kTimeout,   ///< per-message deadline expired
  kProtocol,  ///< framing error — see FrameDecoder::error()
  kError,     ///< errno-level failure (EPIPE, ECONNRESET, ...)
};

/// read(2) once into [buf, buf+cap), retrying EINTR.  EAGAIN/EWOULDBLOCK
/// returns kOk with *got == 0; EOF returns kClosed.
IoStatus read_some(int fd, std::uint8_t* buf, std::size_t cap,
                   std::size_t* got);

/// send(2) once from [buf, buf+size) on socket `fd`, retrying EINTR.
/// EAGAIN returns kOk with *put == 0.  MSG_NOSIGNAL turns a dead peer into
/// EPIPE instead of SIGPIPE, and EPIPE/ECONNRESET return kClosed.
IoStatus write_some(int fd, const std::uint8_t* buf, std::size_t size,
                    std::size_t* put);

/// Write one whole frame to a nonblocking fd, polling until done or until
/// `timeout_s` wall-clock seconds elapse.
IoStatus write_frame(int fd, std::uint32_t type, const std::uint8_t* payload,
                     std::size_t size, double timeout_s);

/// Read one whole frame from a nonblocking fd under a deadline.  Bytes
/// beyond the first frame stay buffered in `decoder` for the next call.
IoStatus read_frame(int fd, FrameDecoder& decoder, Frame& out,
                    double timeout_s);

}  // namespace ssamr::net
