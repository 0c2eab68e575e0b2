#include "net/sysio.hpp"

#include <errno.h>
#include <sys/wait.h>
#include <time.h>

#include <algorithm>

namespace ssamr::net {

int poll_retry(struct pollfd* fds, nfds_t nfds, int timeout_ms) {
  for (;;) {
    const int rc = ::poll(fds, nfds, timeout_ms);
    if (rc >= 0 || errno != EINTR) return rc;
  }
}

pid_t waitpid_retry(pid_t pid, int* status, int options) {
  for (;;) {
    const pid_t got = ::waitpid(pid, status, options);
    if (got >= 0 || errno != EINTR) return got;
  }
}

void sleep_wall(double wall_s) {
  const double whole = std::clamp(wall_s, 0.0, 3600.0);
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(whole);
  ts.tv_nsec =
      static_cast<long>(std::clamp((whole - static_cast<double>(ts.tv_sec)) *
                                       1e9,
                                   0.0, 999'999'999.0));
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

}  // namespace ssamr::net
