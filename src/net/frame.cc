#include "src/net/frame.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>

#include "src/common/crc32.h"

namespace blaze::net {

namespace {

void SetError(std::string* error, const std::string& why) {
  if (error != nullptr) {
    *error = why;
  }
}

// Sends every byte of the iovec array with as few syscalls as the kernel
// allows: one sendmsg for a whole frame, resuming mid-iovec after a partial
// write. One send per frame keeps Nagle from holding a small trailer back
// until the peer's delayed ACK fires.
bool SendAll(int fd, iovec* iov, size_t count) {
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    auto left = static_cast<size_t>(n);
    while (count > 0 && left >= iov->iov_len) {
      left -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<uint8_t*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
  return true;
}

// Reads exactly n bytes. Returns bytes read (n on success; 0 on clean EOF
// before the first byte; -1 on error or mid-read EOF).
ssize_t RecvAll(int fd, uint8_t* out, size_t len) {
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, out + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return -1;
    }
    if (n == 0) {
      return got == 0 ? 0 : -1;
    }
    got += static_cast<size_t>(n);
  }
  return static_cast<ssize_t>(got);
}

}  // namespace

bool WriteFrame(int fd, const uint8_t* payload, size_t len, std::string* error) {
  if (len > kMaxFrameBytes) {
    SetError(error, "frame payload too large: " + std::to_string(len));
    return false;
  }
  uint8_t header[8];
  const uint32_t magic = kFrameMagic;
  const uint32_t len32 = static_cast<uint32_t>(len);
  std::memcpy(header, &magic, 4);
  std::memcpy(header + 4, &len32, 4);
  uint32_t crc = Crc32(payload, len);
  iovec iov[3] = {{header, sizeof(header)},
                  {const_cast<uint8_t*>(payload), len},
                  {&crc, sizeof(crc)}};
  if (!SendAll(fd, iov, 3)) {
    SetError(error, std::string("send: ") + std::strerror(errno));
    return false;
  }
  return true;
}

bool WriteFrame(int fd, const std::vector<uint8_t>& payload, std::string* error) {
  return WriteFrame(fd, payload.data(), payload.size(), error);
}

bool ReadFrame(int fd, std::vector<uint8_t>* payload, std::string* error) {
  uint8_t header[8];
  const ssize_t got = RecvAll(fd, header, sizeof(header));
  if (got == 0) {
    SetError(error, "eof");
    return false;
  }
  if (got < 0) {
    SetError(error, std::string("recv header: ") + std::strerror(errno));
    return false;
  }
  uint32_t magic = 0;
  uint32_t len = 0;
  std::memcpy(&magic, header, 4);
  std::memcpy(&len, header + 4, 4);
  if (magic != kFrameMagic) {
    SetError(error, "bad frame magic");
    return false;
  }
  if (len > kMaxFrameBytes) {
    SetError(error, "frame length " + std::to_string(len) + " exceeds bound");
    return false;
  }
  payload->resize(len);
  if (len > 0 && RecvAll(fd, payload->data(), len) != static_cast<ssize_t>(len)) {
    SetError(error, "truncated frame payload");
    return false;
  }
  uint32_t crc = 0;
  if (RecvAll(fd, reinterpret_cast<uint8_t*>(&crc), 4) != 4) {
    SetError(error, "truncated frame trailer");
    return false;
  }
  if (crc != Crc32(payload->data(), payload->size())) {
    SetError(error, "frame CRC mismatch");
    return false;
  }
  return true;
}

int ListenLocal(uint16_t port, uint16_t* bound_port, int attempts, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    SetError(error, std::string("socket: ") + std::strerror(errno));
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  // A fixed port freed milliseconds ago can still be mid-teardown; back off
  // and retry so fast restarts (tests, CI respawns) do not flake.
  int backoff_ms = 10;
  bool bound = false;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      bound = true;
      break;
    }
    if (errno != EADDRINUSE || attempt + 1 == attempts) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min(backoff_ms * 2, 500);
  }
  if (!bound || ::listen(fd, 64) != 0) {
    SetError(error, std::string("bind/listen: ") + std::strerror(errno));
    ::close(fd);
    return -1;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    SetError(error, std::string("getsockname: ") + std::strerror(errno));
    ::close(fd);
    return -1;
  }
  if (bound_port != nullptr) {
    *bound_port = ntohs(addr.sin_port);
  }
  return fd;
}

int ConnectLocal(uint16_t port, int attempts, int timeout_ms, std::string* error) {
  int backoff_ms = 20;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      SetError(error, std::string("socket: ") + std::strerror(errno));
      return -1;
    }
    SetSocketTimeouts(fd, timeout_ms);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    SetError(error, "connect 127.0.0.1:" + std::to_string(port) + ": " +
                        std::strerror(errno));
    ::close(fd);
    if (attempt + 1 < attempts) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, 500);
    }
  }
  return -1;
}

void SetSocketTimeouts(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace blaze::net
