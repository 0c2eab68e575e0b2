#include "net/socket.hpp"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>

#include "util/error.hpp"

namespace ssamr::net {

StreamPair make_stream_pair() {
  int sv[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0,
                   sv) != 0)
    throw Error(std::string("net: socketpair(AF_UNIX): ") + ::strerror(errno));
  return StreamPair{sv[0], sv[1]};
}

void close_fd(int fd) {
  if (fd < 0) return;
  // One shot, EINTR deliberately not retried: Linux releases the fd even
  // when close() is interrupted, so a retry could close an fd another
  // thread has already been handed under the same number.
  ::close(fd);
}

}  // namespace ssamr::net
