#include "net/socket.hpp"

#include <cerrno>
#include <cstring>
#include <system_error>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace impress::net {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw std::system_error(errno, std::generic_category(),
                            "fcntl(O_NONBLOCK)");
  }
}

}  // namespace

SocketLink::SocketLink(int fd) : fd_(fd) { set_nonblocking(fd_); }

SocketLink::~SocketLink() { close(); }

bool SocketLink::send(const Message& m) {
  if (closed_) {
    return false;
  }
  std::vector<std::uint8_t> frame = encode_frame(m);
  if (tx_backlog_.empty()) {
    tx_backlog_ = std::move(frame);
  } else {
    tx_backlog_.insert(tx_backlog_.end(), frame.begin(), frame.end());
  }
  flush_tx();
  return !closed_;
}

std::optional<Message> SocketLink::poll() {
  if (closed_) {
    return std::nullopt;
  }
  flush_tx();
  try {
    // Serve already-buffered frames before touching the fd, so a burst
    // read in one drain yields every message it contained.
    if (auto m = assembler_.next()) {
      return m;
    }
    drain_rx();
    return closed_ ? std::nullopt : assembler_.next();
  } catch (const WireError&) {
    close();  // no resynchronization point after a framing error
    throw;
  }
}

void SocketLink::close() {
  if (!closed_) {
    closed_ = true;
    ::close(fd_);
    fd_ = -1;
  }
}

bool SocketLink::closed() const { return closed_; }

bool SocketLink::wait_readable(int timeout_ms) {
  if (closed_) {
    return false;
  }
  struct pollfd pfd {};
  pfd.fd = fd_;
  pfd.events = POLLIN;
  const int rc = ::poll(&pfd, 1, timeout_ms);
  return rc > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
}

void SocketLink::flush_tx() {
  while (tx_offset_ < tx_backlog_.size()) {
    const ssize_t n =
        ::write(fd_, tx_backlog_.data() + tx_offset_,
                tx_backlog_.size() - tx_offset_);
    if (n > 0) {
      tx_offset_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;  // kernel buffer full; retry on the next pump
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    close();  // EPIPE, ECONNRESET, ... — peer is gone
    return;
  }
  tx_backlog_.clear();
  tx_offset_ = 0;
}

void SocketLink::drain_rx() {
  std::uint8_t chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      try {
        assembler_.feed(chunk, static_cast<std::size_t>(n));
      } catch (const WireError&) {
        close();  // unrecoverable framing error; see header comment
        throw;
      }
      continue;
    }
    if (n == 0) {
      close();  // orderly peer shutdown
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return;
    }
    if (errno == EINTR) {
      continue;
    }
    close();
    return;
  }
}

std::pair<std::unique_ptr<SocketLink>, std::unique_ptr<SocketLink>>
make_socket_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::system_error(errno, std::generic_category(), "socketpair");
  }
  return {std::make_unique<SocketLink>(fds[0]),
          std::make_unique<SocketLink>(fds[1])};
}

}  // namespace impress::net
