#ifndef UGUIDE_TOOLS_LINE_CLIENT_H_
#define UGUIDE_TOOLS_LINE_CLIENT_H_

// The blocking NDJSON line client every uguided peer outside the daemon
// uses: the load generator and the serving and reactor tests. One loopback
// TCP connection, newline-framed writes, and buffered line reads with an
// optional per-read deadline.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

namespace uguide {

class LineClient {
 public:
  /// A positive `reply_timeout_s` bounds every read's wait for a byte;
  /// zero waits forever.
  explicit LineClient(double reply_timeout_s = 0.0)
      : reply_timeout_s_(reply_timeout_s) {}
  ~LineClient() { Close(); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Connects to 127.0.0.1:`port`, dropping any earlier connection first.
  bool Connect(int port) {
    Close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Close();
      return false;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (reply_timeout_s_ > 0.0) {
      timeval timeout;
      timeout.tv_sec = static_cast<time_t>(reply_timeout_s_);
      timeout.tv_usec = static_cast<suseconds_t>(
          (reply_timeout_s_ - static_cast<double>(timeout.tv_sec)) * 1e6);
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    }
    return true;
  }

  /// Drops the socket and any half-read line.
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buffer_.clear();
  }

  /// Sends `line` and its terminating newline.
  bool WriteLine(std::string_view line) {
    std::string framed(line);
    framed.push_back('\n');
    return WriteRaw(framed);
  }

  /// Sends bytes exactly as given, without a newline: a half-written
  /// frame stays half-written.
  bool WriteRaw(std::string_view bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// The next line without its newline; nullopt when the connection
  /// closed, failed or timed out (see TimedOut).
  std::optional<std::string> ReadLine() {
    timed_out_ = false;
    while (true) {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        timed_out_ = true;
        return std::nullopt;
      }
      if (n <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// True when the last ReadLine failed because no byte came within the
  /// reply timeout.
  bool TimedOut() const { return timed_out_; }

 private:
  const double reply_timeout_s_;
  int fd_ = -1;
  std::string buffer_;
  bool timed_out_ = false;
};

}  // namespace uguide

#endif  // UGUIDE_TOOLS_LINE_CLIENT_H_
