#include "net/frame.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>

#include "util/wallclock.hpp"

namespace ssamr::net {
namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    table[i] = c;
  }
  return table;
}

std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store_u32(std::uint8_t* p, std::uint32_t v) {
  std::memcpy(p, &v, sizeof v);
}

/// Remaining poll budget in whole milliseconds, at least 1 while the
/// deadline has not passed so short deadlines still get one poll cycle.
int remaining_ms(double deadline_s) {
  const double left = deadline_s - wallclock_seconds();
  if (left <= 0) return 0;
  const double ms = std::clamp(left * 1e3, 1.0, 60'000.0);
  return static_cast<int>(ms);
}

/// poll(2) for `events` with EINTR retry.  Returns false iff the deadline
/// expired with the fd never becoming ready.
bool poll_until(int fd, short events, double deadline_s) {
  for (;;) {
    const int ms = remaining_ms(deadline_s);
    if (ms == 0) return false;
    struct pollfd pfd {};
    pfd.fd = fd;
    pfd.events = events;
    const int rc = ::poll(&pfd, 1, ms);
    if (rc > 0) return true;
    if (rc == 0) continue;  // timeout slice elapsed; re-check deadline
    if (errno == EINTR) continue;
    return false;
  }
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i)
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  if (error_ != FrameError::kNone) return;
  buf_.insert(buf_.end(), data, data + size);
}

bool FrameDecoder::next(Frame& out) {
  if (error_ != FrameError::kNone) return false;
  if (buf_.size() - off_ < kFrameHeaderSize) return false;
  const std::uint8_t* h = buf_.data() + off_;
  const std::uint32_t magic = load_u32(h);
  const std::uint32_t type = load_u32(h + 4);
  const std::uint32_t length = load_u32(h + 8);
  const std::uint32_t crc = load_u32(h + 12);
  // Validate the prefix BEFORE trusting `length` for anything: a bad magic
  // or CRC means the stream is desynchronized and the length field is
  // garbage; an oversized length (>= 2^31 covers negative i32s) must be
  // rejected without reserving payload storage.
  if (magic != kFrameMagic) {
    error_ = FrameError::kBadMagic;
    return false;
  }
  if (crc != crc32(h, 12)) {
    error_ = FrameError::kBadCrc;
    return false;
  }
  if (length > kMaxFramePayload) {
    error_ = FrameError::kOversized;
    return false;
  }
  if (buf_.size() - off_ < kFrameHeaderSize + length) return false;
  out.type = type;
  out.payload.assign(h + kFrameHeaderSize, h + kFrameHeaderSize + length);
  off_ += kFrameHeaderSize + length;
  // Compact once the consumed prefix dominates, so long-lived decoders do
  // not grow without bound.
  if (off_ > (1u << 16) && off_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(off_));
    off_ = 0;
  }
  return true;
}

std::vector<std::uint8_t> encode_frame(std::uint32_t type,
                                       const std::uint8_t* payload,
                                       std::size_t size) {
  std::vector<std::uint8_t> out(kFrameHeaderSize + size);
  store_u32(out.data(), kFrameMagic);
  store_u32(out.data() + 4, type);
  store_u32(out.data() + 8, static_cast<std::uint32_t>(size));
  store_u32(out.data() + 12, crc32(out.data(), 12));
  if (size > 0) std::memcpy(out.data() + kFrameHeaderSize, payload, size);
  return out;
}

IoStatus read_some(int fd, std::uint8_t* buf, std::size_t cap,
                   std::size_t* got) {
  *got = 0;
  for (;;) {
    const ssize_t n = ::read(fd, buf, cap);
    if (n > 0) {
      *got = static_cast<std::size_t>(n);
      return IoStatus::kOk;
    }
    if (n == 0) return IoStatus::kClosed;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kOk;
    return IoStatus::kError;
  }
}

IoStatus write_some(int fd, const std::uint8_t* buf, std::size_t size,
                    std::size_t* put) {
  *put = 0;
  for (;;) {
    // send(MSG_NOSIGNAL) so a dead peer yields EPIPE instead of killing the
    // process with SIGPIPE.
    const ssize_t n = ::send(fd, buf, size, MSG_NOSIGNAL);
    if (n >= 0) {
      *put = static_cast<std::size_t>(n);
      return IoStatus::kOk;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kOk;
    if (errno == EPIPE || errno == ECONNRESET) return IoStatus::kClosed;
    return IoStatus::kError;
  }
}

IoStatus write_frame(int fd, std::uint32_t type, const std::uint8_t* payload,
                     std::size_t size, double timeout_s) {
  const std::vector<std::uint8_t> bytes = encode_frame(type, payload, size);
  const double deadline = wallclock_seconds() + timeout_s;
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    std::size_t put = 0;
    const IoStatus st =
        write_some(fd, bytes.data() + sent, bytes.size() - sent, &put);
    if (st != IoStatus::kOk) return st;
    sent += put;
    if (put == 0 && sent < bytes.size() &&
        !poll_until(fd, POLLOUT, deadline))
      return IoStatus::kTimeout;
  }
  return IoStatus::kOk;
}

IoStatus read_frame(int fd, FrameDecoder& decoder, Frame& out,
                    double timeout_s) {
  const double deadline = wallclock_seconds() + timeout_s;
  for (;;) {
    if (decoder.next(out)) return IoStatus::kOk;
    if (decoder.error() != FrameError::kNone) return IoStatus::kProtocol;
    std::uint8_t chunk[4096];
    std::size_t got = 0;
    const IoStatus st = read_some(fd, chunk, sizeof chunk, &got);
    if (st == IoStatus::kClosed) return IoStatus::kClosed;
    if (st == IoStatus::kError) return IoStatus::kError;
    if (got > 0) {
      decoder.feed(chunk, got);
      continue;
    }
    if (!poll_until(fd, POLLIN, deadline)) return IoStatus::kTimeout;
  }
}

}  // namespace ssamr::net
