// fd-lifecycle fixture: one socket created without SOCK_CLOEXEC, one fd
// leaked on an early-return path, one leaked across a throwing call.  The
// clean functions below pin the rule's negative space: guarded failure
// branches, close-on-every-path, and RAII/ownership transfer must stay
// silent.
#include <sys/socket.h>
#include <unistd.h>

#include "util/error.hpp"

namespace fixture {

/// A minimal owning descriptor.  The rule counts an fd born inside any
/// constructor call as transferred, so holding one is an ownership
/// transfer.
class OwnedFd {
 public:
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;

  int get() const { return fd_; }
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_ = -1;
};

int missing_cloexec() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);  // expect: fd-lifecycle
  if (fd < 0) return -1;
  ::close(fd);
  return 0;
}

int leak_on_early_return(bool flag) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (flag) return -1;  // expect: fd-lifecycle
  ::close(fd);
  return 0;
}

void leak_across_throwing_call(int want) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return;
  SSAMR_REQUIRE(want > 0, "demand");  // expect: fd-lifecycle
  ::close(fd);
}

int closed_on_every_path(bool flag) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (flag) {
    ::close(fd);
    return -1;
  }
  ::close(fd);
  return 0;
}

int ownership_transferred() {
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  SSAMR_REQUIRE(fd.get() >= 0, "socket");
  return fd.release();
}

}  // namespace fixture
