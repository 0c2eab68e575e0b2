// Tests of the proc-backend framing layer (net/frame.hpp, net/wire.hpp,
// net/socket.hpp): incremental decoding under arbitrary chunking, header
// validation (magic / CRC / oversized-length rejection BEFORE allocation),
// partial reads and writes over real sockets, the AF_UNIX stream transport
// and its dead-peer write path (kClosed, never SIGPIPE), EINTR resilience
// of the frame loops and the sysio seam, deadline behaviour, and a
// two-process echo round-trip.

#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/frame.hpp"
#include "net/proc_exit.hpp"
#include "net/socket.hpp"
#include "net/sysio.hpp"
#include "net/wire.hpp"
#include "util/error.hpp"
#include "util/wallclock.hpp"

namespace ssamr::net {
namespace {

std::vector<std::uint8_t> payload_bytes(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST(Wire, RoundTripsScalars) {
  WireWriter w;
  w.u32(42);
  w.i32(-7);
  w.u64(1ull << 40);
  w.i64(-(1ll << 40));
  w.f64(3.25);
  WireReader r(w.bytes());
  EXPECT_EQ(r.u32(), 42u);
  EXPECT_EQ(r.i32(), -7);
  EXPECT_EQ(r.u64(), 1ull << 40);
  EXPECT_EQ(r.i64(), -(1ll << 40));
  EXPECT_DOUBLE_EQ(r.f64(), 3.25);
  EXPECT_TRUE(r.done());
}

TEST(Wire, ThrowsOnTruncation) {
  WireWriter w;
  w.u32(1);
  WireReader r(w.bytes());
  (void)r.u32();
  EXPECT_THROW((void)r.u32(), Error);
}

TEST(Frame, CrcMatchesKnownVector) {
  // IEEE CRC-32 of "123456789" is the classic check value.
  const auto data = payload_bytes("123456789");
  EXPECT_EQ(crc32(data.data(), data.size()), 0xCBF43926u);
}

TEST(Frame, DecoderReassemblesByteAtATime) {
  const auto msg = payload_bytes("hello, ranks");
  const auto bytes = encode_frame(7, msg.data(), msg.size());
  FrameDecoder d;
  Frame f;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    EXPECT_FALSE(d.next(f)) << "frame completed early at byte " << i;
    d.feed(&bytes[i], 1);
  }
  ASSERT_TRUE(d.next(f));
  EXPECT_EQ(f.type, 7u);
  EXPECT_EQ(f.payload, msg);
  EXPECT_FALSE(d.next(f));
  EXPECT_EQ(d.error(), FrameError::kNone);
}

TEST(Frame, DecoderHandlesBackToBackFramesInOneChunk) {
  const auto a = payload_bytes("first");
  const auto b = payload_bytes("second");
  auto bytes = encode_frame(1, a.data(), a.size());
  const auto second = encode_frame(2, b.data(), b.size());
  bytes.insert(bytes.end(), second.begin(), second.end());
  FrameDecoder d;
  d.feed(bytes.data(), bytes.size());
  Frame f;
  ASSERT_TRUE(d.next(f));
  EXPECT_EQ(f.type, 1u);
  ASSERT_TRUE(d.next(f));
  EXPECT_EQ(f.type, 2u);
  EXPECT_EQ(f.payload, b);
  EXPECT_FALSE(d.next(f));
}

TEST(Frame, ZeroLengthPayloadIsAFrame) {
  const auto bytes = encode_frame(9, nullptr, 0);
  EXPECT_EQ(bytes.size(), kFrameHeaderSize);
  FrameDecoder d;
  d.feed(bytes.data(), bytes.size());
  Frame f;
  ASSERT_TRUE(d.next(f));
  EXPECT_EQ(f.type, 9u);
  EXPECT_TRUE(f.payload.empty());
}

TEST(Frame, BadMagicPoisonsTheDecoder) {
  auto bytes = encode_frame(1, nullptr, 0);
  bytes[0] ^= 0xFF;
  FrameDecoder d;
  d.feed(bytes.data(), bytes.size());
  Frame f;
  EXPECT_FALSE(d.next(f));
  EXPECT_EQ(d.error(), FrameError::kBadMagic);
  // Poisoned: further feeds are ignored.
  const auto good = encode_frame(2, nullptr, 0);
  d.feed(good.data(), good.size());
  EXPECT_FALSE(d.next(f));
}

TEST(Frame, CorruptedLengthFailsCrcBeforeAllocation) {
  const auto msg = payload_bytes("x");
  auto bytes = encode_frame(1, msg.data(), msg.size());
  // Flip a length byte without fixing the CRC: the decoder must reject on
  // checksum, never trust the corrupted length.
  bytes[10] ^= 0x40;
  FrameDecoder d;
  d.feed(bytes.data(), bytes.size());
  Frame f;
  EXPECT_FALSE(d.next(f));
  EXPECT_EQ(d.error(), FrameError::kBadCrc);
}

TEST(Frame, OversizedAndNegativeLengthsRejectedWithoutAllocation) {
  for (const std::uint32_t bad_len :
       {kMaxFramePayload + 1, 0x80000000u, 0xFFFFFFFFu}) {
    // Hand-build a header whose CRC is *valid* for the hostile length, so
    // only the length check can reject it.
    std::uint8_t h[kFrameHeaderSize];
    const std::uint32_t magic = kFrameMagic;
    const std::uint32_t type = 1;
    std::memcpy(h, &magic, 4);
    std::memcpy(h + 4, &type, 4);
    std::memcpy(h + 8, &bad_len, 4);
    const std::uint32_t crc = crc32(h, 12);
    std::memcpy(h + 12, &crc, 4);
    FrameDecoder d;
    d.feed(h, sizeof h);
    Frame f;
    EXPECT_FALSE(d.next(f));
    EXPECT_EQ(d.error(), FrameError::kOversized) << "len=" << bad_len;
    // Rejected from the 16 header bytes alone — no payload was ever
    // buffered or reserved.
    EXPECT_EQ(d.pending_bytes(), kFrameHeaderSize);
  }
}

TEST(Frame, TruncatedFrameNeverCompletes) {
  const auto msg = payload_bytes("truncated payload");
  const auto bytes = encode_frame(3, msg.data(), msg.size());
  FrameDecoder d;
  d.feed(bytes.data(), bytes.size() - 4);  // missing the last 4 bytes
  Frame f;
  EXPECT_FALSE(d.next(f));
  EXPECT_EQ(d.error(), FrameError::kNone);  // not an error — just waiting
  EXPECT_EQ(d.pending_bytes(), bytes.size() - 4);
}

// ---- socket-level tests ---------------------------------------------------

TEST(FramedSocket, WholeFrameRoundTrip) {
  const StreamPair pair = make_stream_pair();
  const auto msg = payload_bytes("over the socket");
  ASSERT_EQ(write_frame(pair.a, 11, msg.data(), msg.size(), 5.0),
            IoStatus::kOk);
  FrameDecoder d;
  Frame f;
  ASSERT_EQ(read_frame(pair.b, d, f, 5.0), IoStatus::kOk);
  EXPECT_EQ(f.type, 11u);
  EXPECT_EQ(f.payload, msg);
  close_fd(pair.a);
  close_fd(pair.b);
}

TEST(FrameIo, PartialWritesLargerThanSocketBuffer) {
  // A payload far beyond the kernel socket buffer forces write_frame into
  // many partial write_some() rounds; the reader drains concurrently from
  // a fork so the writer can finish.
  const StreamPair pair = make_stream_pair();
  const std::size_t big = 8u << 20;  // 8 MiB
  std::vector<std::uint8_t> msg(big);
  for (std::size_t i = 0; i < big; ++i)
    msg[i] = static_cast<std::uint8_t>(i * 1315423911u >> 17);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    close_fd(pair.a);
    FrameDecoder d;
    Frame f;
    const IoStatus st = read_frame(pair.b, d, f, 30.0);
    if (st != IoStatus::kOk || f.payload != msg) hard_exit(1);
    hard_exit(0);
  }
  close_fd(pair.b);
  EXPECT_EQ(write_frame(pair.a, 5, msg.data(), msg.size(), 30.0),
            IoStatus::kOk);
  close_fd(pair.a);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(FrameIo, PeerCloseMidFrameReportsClosed) {
  const StreamPair pair = make_stream_pair();
  const auto msg = payload_bytes("never finished");
  const auto bytes = encode_frame(1, msg.data(), msg.size());
  // Push half a frame, then close the writer.
  std::size_t put = 0;
  ASSERT_EQ(write_some(pair.a, bytes.data(), bytes.size() / 2, &put),
            IoStatus::kOk);
  ASSERT_EQ(put, bytes.size() / 2);
  close_fd(pair.a);
  FrameDecoder d;
  Frame f;
  EXPECT_EQ(read_frame(pair.b, d, f, 5.0), IoStatus::kClosed);
  close_fd(pair.b);
}

TEST(FrameIo, WriteToClosedPeerReportsClosedNotSigpipe) {
  // send(MSG_NOSIGNAL) is write_some's only path: a dead peer must come
  // back as kClosed, where a plain write(2) would raise SIGPIPE and kill
  // this process under its default action.
  const StreamPair pair = make_stream_pair();
  close_fd(pair.b);
  const auto msg = payload_bytes("nobody listens");
  std::size_t put = 0;
  EXPECT_EQ(write_some(pair.a, msg.data(), msg.size(), &put),
            IoStatus::kClosed);
  EXPECT_EQ(put, 0u);
  EXPECT_EQ(write_frame(pair.a, 3, msg.data(), msg.size(), 5.0),
            IoStatus::kClosed);
  close_fd(pair.a);
}

TEST(FrameIo, ReadDeadlineExpires) {
  const StreamPair pair = make_stream_pair();
  FrameDecoder d;
  Frame f;
  EXPECT_EQ(read_frame(pair.b, d, f, 0.05), IoStatus::kTimeout);
  close_fd(pair.a);
  close_fd(pair.b);
}

// ---- EINTR injection ------------------------------------------------------

void noop_handler(int) {}

/// Pepper the main thread with signals (installed WITHOUT SA_RESTART) while
/// it moves a large frame, proving every syscall path retries EINTR.
struct SignalStorm {
  pthread_t target = pthread_self();
  std::atomic<bool> stop{false};
  pthread_t thread{};

  static void* run(void* self_p) {
    auto* self = static_cast<SignalStorm*>(self_p);
    while (!self->stop) {
      pthread_kill(self->target, SIGUSR1);
      struct timespec ts {0, 200'000};  // 0.2 ms
      nanosleep(&ts, nullptr);
    }
    return nullptr;
  }

  SignalStorm() {
    struct sigaction sa {};
    sa.sa_handler = noop_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;  // no SA_RESTART: syscalls WILL fail with EINTR
    sigaction(SIGUSR1, &sa, nullptr);
    pthread_create(&thread, nullptr, run, this);
  }
  ~SignalStorm() {
    stop = true;
    pthread_join(thread, nullptr);
    struct sigaction sa {};
    sa.sa_handler = SIG_DFL;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGUSR1, &sa, nullptr);
  }
};

TEST(FrameIo, SurvivesEintrStorm) {
  const StreamPair pair = make_stream_pair();
  const std::size_t big = 4u << 20;
  std::vector<std::uint8_t> msg(big, 0xAB);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    close_fd(pair.a);
    FrameDecoder d;
    Frame f;
    const IoStatus st = read_frame(pair.b, d, f, 30.0);
    if (st != IoStatus::kOk || f.payload.size() != big) hard_exit(1);
    const auto echoed = encode_frame(f.type + 1, f.payload.data(), 1024);
    // Raw write of the echo frame (blocking semantics via loop).
    std::size_t sent = 0;
    while (sent < echoed.size()) {
      std::size_t put = 0;
      if (write_some(pair.b, echoed.data() + sent, echoed.size() - sent,
                     &put) != IoStatus::kOk)
        hard_exit(2);
      sent += put;
    }
    hard_exit(0);
  }
  close_fd(pair.b);
  {
    SignalStorm storm;  // EINTR rains on write_frame AND read_frame
    ASSERT_EQ(write_frame(pair.a, 5, msg.data(), msg.size(), 30.0),
              IoStatus::kOk);
    FrameDecoder d;
    Frame f;
    ASSERT_EQ(read_frame(pair.a, d, f, 30.0), IoStatus::kOk);
    EXPECT_EQ(f.type, 6u);
    EXPECT_EQ(f.payload.size(), 1024u);
  }
  close_fd(pair.a);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// ---- two-process echo round-trip ------------------------------------------

TEST(FrameIo, TwoProcessEchoRoundTrip) {
  const StreamPair pair = make_stream_pair();
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Echo server: bounce frames back with type+1 until the peer closes.
    close_fd(pair.a);
    FrameDecoder d;
    for (;;) {
      Frame f;
      const IoStatus st = read_frame(pair.b, d, f, 10.0);
      if (st == IoStatus::kClosed) hard_exit(0);
      if (st != IoStatus::kOk) hard_exit(1);
      if (write_frame(pair.b, f.type + 1, f.payload.data(),
                      f.payload.size(), 10.0) != IoStatus::kOk)
        hard_exit(2);
    }
  }
  close_fd(pair.b);
  FrameDecoder d;
  for (std::uint32_t i = 0; i < 32; ++i) {
    const std::string text = "ping #" + std::to_string(i);
    const auto msg = payload_bytes(text);
    ASSERT_EQ(write_frame(pair.a, i, msg.data(), msg.size(), 10.0),
              IoStatus::kOk);
    Frame f;
    ASSERT_EQ(read_frame(pair.a, d, f, 10.0), IoStatus::kOk);
    EXPECT_EQ(f.type, i + 1);
    EXPECT_EQ(f.payload, msg);
  }
  close_fd(pair.a);  // EOF -> child exits 0
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// ---- descriptor hygiene and the sysio retry seam --------------------------

TEST(FramedSocket, DescriptorsAreCloexecAndNonblocking) {
  // CLOEXEC must be set atomically at creation (SOCK_CLOEXEC), not by a
  // later fcntl: a concurrent fork between the two would leak the
  // descriptor into the child's exec image.  SOCK_NONBLOCK in the same
  // socketpair call is the only thing that makes the ends nonblocking,
  // which read_frame/write_frame's poll loops rely on.  F_GETFD and
  // F_GETFL observe the result.
  const StreamPair pair = make_stream_pair();
  for (const int fd : {pair.a, pair.b}) {
    const int fd_flags = fcntl(fd, F_GETFD);
    ASSERT_GE(fd_flags, 0);
    EXPECT_NE(fd_flags & FD_CLOEXEC, 0) << "fd " << fd << " not CLOEXEC";
    const int fl_flags = fcntl(fd, F_GETFL);
    ASSERT_GE(fl_flags, 0);
    EXPECT_NE(fl_flags & O_NONBLOCK, 0) << "fd " << fd << " blocking";
  }
  close_fd(pair.a);
  close_fd(pair.b);
}

TEST(FramedSocket, PairIsAUnixStream) {
  // The one transport: both ends are AF_UNIX SOCK_STREAM sockets, read
  // back from the kernel rather than trusted from the call site.
  const StreamPair pair = make_stream_pair();
  for (const int fd : {pair.a, pair.b}) {
    int domain = -1;
    int type = -1;
    socklen_t len = sizeof domain;
    ASSERT_EQ(getsockopt(fd, SOL_SOCKET, SO_DOMAIN, &domain, &len), 0);
    len = sizeof type;
    ASSERT_EQ(getsockopt(fd, SOL_SOCKET, SO_TYPE, &type, &len), 0);
    EXPECT_EQ(domain, AF_UNIX) << "fd " << fd;
    EXPECT_EQ(type, SOCK_STREAM) << "fd " << fd;
  }
  close_fd(pair.a);
  close_fd(pair.b);
}

TEST(Sysio, PollRetrySurvivesSignalStorm) {
  const StreamPair pair = make_stream_pair();
  const std::uint8_t byte = 0x5A;
  ASSERT_EQ(::send(pair.b, &byte, 1, 0), 1);
  {
    SignalStorm storm;
    for (int i = 0; i < 64; ++i) {
      struct pollfd pfd {pair.a, POLLIN, 0};
      // A raw ::poll here would intermittently return EINTR under the
      // storm; the wrapper must always report the readable descriptor.
      const int rc = poll_retry(&pfd, 1, 1000);
      ASSERT_EQ(rc, 1);
      ASSERT_NE(pfd.revents & POLLIN, 0);
    }
  }
  close_fd(pair.a);
  close_fd(pair.b);
}

TEST(Sysio, WaitpidRetrySurvivesSignalStorm) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    struct timespec ts {0, 50'000'000};  // 50 ms: storm is up before exit
    nanosleep(&ts, nullptr);
    hard_exit(7);
  }
  int status = 0;
  {
    SignalStorm storm;
    // Blocking wait across the child's lifetime: EINTR is near-certain
    // without the retry loop.
    ASSERT_EQ(waitpid_retry(pid, &status, 0), pid);
  }
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 7);
}

TEST(Sysio, SleepWallSurvivesSignalStorm) {
  // Every 0.2 ms signal interrupts nanosleep; only resuming with the
  // remainder it reports sleeps the whole budget.
  SignalStorm storm;
  const double t0 = wallclock_seconds();
  sleep_wall(0.05);
  EXPECT_GE(wallclock_seconds() - t0, 0.05);
}

}  // namespace
}  // namespace ssamr::net
