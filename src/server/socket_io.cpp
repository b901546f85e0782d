#include "src/server/socket_io.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace cloudcache {
namespace server {

namespace {

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

Status FillAddress(const std::string& host, uint16_t port,
                   sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  return Status::OK();
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Result<Socket> ConnectTcp(const std::string& host, uint16_t port) {
  sockaddr_in addr;
  CLOUDCACHE_RETURN_IF_ERROR(FillAddress(host, port, &addr));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Socket socket(fd);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return Errno("connect to " + host + ":" + std::to_string(port));
  }
  SetNoDelay(fd);
  return socket;
}

Result<Socket> ListenTcp(const std::string& host, uint16_t port) {
  sockaddr_in addr;
  CLOUDCACHE_RETURN_IF_ERROR(FillAddress(host, port, &addr));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Socket socket(fd);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd, 64) != 0) return Errno("listen");
  return socket;
}

Result<uint16_t> LocalPort(const Socket& socket) {
  sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&addr),
                    &len) != 0) {
    return Errno("getsockname");
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

void EnableNoDelay(const Socket& socket) { SetNoDelay(socket.fd()); }

Status WriteAll(const Socket& socket, const uint8_t* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n =
        ::send(socket.fd(), data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status WriteFrame(const Socket& socket, const persist::Encoder& payload) {
  const std::vector<uint8_t>& body = payload.buffer();
  if (body.size() > kMaxFramePayloadBytes) {
    return Status::InvalidArgument("frame payload exceeds the 1 MiB cap");
  }
  persist::Encoder framed;
  framed.U32(static_cast<uint32_t>(body.size()));
  framed.Bytes(body.data(), body.size());
  return WriteAll(socket, framed.buffer().data(), framed.size());
}

namespace {

/// Reads exactly `size` bytes. `*clean_eof` is set (and OK returned) only
/// when the peer closed before the FIRST byte — i.e. at a frame boundary
/// when called for a length prefix; mid-buffer EOF is an error.
Status ReadExact(const Socket& socket, uint8_t* data, size_t size,
                 bool* clean_eof) {
  *clean_eof = false;
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(socket.fd(), data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    if (n == 0) {
      if (got == 0) {
        *clean_eof = true;
        return Status::OK();
      }
      return Status::IoError("connection closed mid-frame");
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status ReadFrame(const Socket& socket, std::vector<uint8_t>* payload,
                 bool* clean_eof) {
  payload->clear();
  uint8_t prefix[4];
  CLOUDCACHE_RETURN_IF_ERROR(
      ReadExact(socket, prefix, sizeof(prefix), clean_eof));
  if (*clean_eof) return Status::OK();
  persist::Decoder dec(prefix, sizeof(prefix));
  uint32_t length = 0;
  dec.U32(length);
  if (length == 0) {
    return Status::InvalidArgument("empty frame (no message type byte)");
  }
  if (length > kMaxFramePayloadBytes) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(length) +
        " bytes exceeds the 1 MiB cap");
  }
  payload->resize(length);
  bool mid_eof = false;
  const Status read =
      ReadExact(socket, payload->data(), payload->size(), &mid_eof);
  CLOUDCACHE_RETURN_IF_ERROR(read);
  if (mid_eof) {
    return Status::IoError("connection closed between length and payload");
  }
  return Status::OK();
}

}  // namespace server
}  // namespace cloudcache
