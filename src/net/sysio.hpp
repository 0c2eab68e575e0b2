#pragma once
/// \file sysio.hpp
/// The sanctioned raw-syscall seam of the proc backend (DESIGN.md §13).
///
/// Raw read/write/poll/waitpid/connect are banned outside src/net by the
/// `eintr-retry` lint rule: every one of them can return EINTR mid-run
/// (the proc backend forks, reaps and measures under real signals), and a
/// call site that forgets the retry loop turns a benign signal into a
/// spurious phase failure.  Inside src/net the same rule requires every
/// raw call site to sit under an EINTR retry loop — these wrappers are
/// where those loops live exactly once, so callers outside the seam can
/// never get the retry protocol wrong.
///
/// Frame-level I/O keeps its own loops in frame.cpp (read_some/write_some
/// fold EINTR handling into partial-I/O handling, and poll_until
/// recomputes its deadline each round); everything else routes through
/// here.

#include <poll.h>
#include <sys/types.h>

namespace ssamr::net {

/// poll(2), retrying EINTR with the same timeout slice.  A retried slice
/// restarts at its full length, so a signal storm that interrupts every
/// slice keeps the caller from ever re-checking its deadline; a wait that
/// must expire under signals recomputes the time left each round instead
/// (net/frame.cpp's poll_until).
int poll_retry(struct pollfd* fds, nfds_t nfds, int timeout_ms);

/// waitpid(2) with EINTR retry.  WNOHANG calls pass through unchanged
/// (they cannot block, hence cannot be meaningfully interrupted).
pid_t waitpid_retry(pid_t pid, int* status, int options);

/// Sleep `wall_s` wall seconds (clamped to [0, 3600]), resuming after
/// EINTR with the time nanosleep(2) reports as left.
void sleep_wall(double wall_s);

}  // namespace ssamr::net
