#pragma once
/// \file socket.hpp
/// Connected stream-socket pairs for the proc backend (DESIGN.md §12).
///
/// The one transport is an AF_UNIX socketpair: the coordinator forks its
/// ranks, so both ends exist before fork() and no filesystem path or port
/// is ever exposed.  Both ends come back nonblocking and CLOEXEC from the
/// socketpair call itself (SOCK_NONBLOCK | SOCK_CLOEXEC), never via a later
/// fcntl: a window between creation and F_SETFD is a window in which a
/// concurrent fork+exec inherits the fd.  The fd-lifecycle lint rule
/// enforces CLOEXEC-at-creation.

namespace ssamr::net {

/// Two connected nonblocking stream endpoints.  After fork(), the parent
/// keeps one end and closes the other; the child does the reverse.
struct StreamPair {
  int a = -1;
  int b = -1;
};

/// Create a connected pair.  Throws ssamr::Error on resource exhaustion.
StreamPair make_stream_pair();

/// close(2); ignores already-closed fds (fd < 0).  Deliberately does NOT
/// retry EINTR: on Linux the descriptor is released even when close() is
/// interrupted, so a retry races against another thread reusing the fd
/// number and can close an unrelated descriptor.
void close_fd(int fd);

}  // namespace ssamr::net
