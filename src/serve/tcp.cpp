#include "serve/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace oscs::serve {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " +
                           std::strerror(errno));
}

/// Write the whole buffer, riding out partial writes and EINTR. Returns
/// false when the peer is gone.
bool send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

TcpServer::TcpServer(ProgramServer& server, std::uint16_t port)
    : server_(server) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("TcpServer: socket");

  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    ::close(listen_fd_);
    throw_errno("TcpServer: bind");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    ::close(listen_fd_);
    throw_errno("TcpServer: getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 64) < 0) {
    ::close(listen_fd_);
    throw_errno("TcpServer: listen");
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

TcpServer::~TcpServer() { stop(); }

void TcpServer::stop() {
  if (!running_.exchange(false)) return;
  // Unblock accept(); a failed accept with running_ == false ends the loop.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);

  std::list<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(clients_mutex_);
    // Shut the sockets down so blocked reads return; the connection
    // threads close the fds themselves. draining_ tells exiting threads
    // their workers_ node is gone - stop() joins them directly.
    draining_ = true;
    for (int fd : client_fds_) ::shutdown(fd, SHUT_RDWR);
    workers.splice(workers.end(), workers_);
  }
  for (std::thread& worker : workers) {
    if (worker.joinable()) worker.join();
  }
  reap_finished();
}

void TcpServer::reap_finished() {
  std::list<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(clients_mutex_);
    done.splice(done.end(), finished_);
  }
  // The threads moved themselves here as their last locked action; the
  // join waits out at most their few remaining instructions.
  for (std::thread& worker : done) {
    if (worker.joinable()) worker.join();
  }
}

void TcpServer::accept_loop() {
  while (running_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    reap_finished();
    if (fd < 0) {
      // Per-connection failures (client reset before accept) and
      // transient resource exhaustion must not kill the listener; only
      // a closed/invalid listener socket ends the loop.
      if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) {
        continue;
      }
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      break;  // listener closed (stop()) or fatal - either way, done
    }
    if (!running_.load()) {
      ::close(fd);
      break;
    }
    ++accepted_;
    std::lock_guard<std::mutex> lock(clients_mutex_);
    client_fds_.push_back(fd);
    workers_.emplace_back();
    const auto self = std::prev(workers_.end());
    *self = std::thread([this, fd, self] { serve_connection(fd, self); });
  }
}

void TcpServer::serve_connection(int fd,
                                 std::list<std::thread>::iterator self) {
  // Longest request line buffered before the connection is cut off: the
  // parser's hardening only runs once a full line arrives, so the
  // framing layer has to bound the buffering itself.
  constexpr std::size_t kMaxLineBytes = 1 << 20;
  // Framing is linear in the bytes received: each read scans only the new
  // bytes for newlines, complete lines are consumed by index, and the
  // buffer is compacted once per read.
  std::string pending;
  char chunk[4096];
  bool alive = true;
  while (alive && running_.load()) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer closed or connection reset
    std::size_t scan = pending.size();  // earlier bytes hold no newline
    pending.append(chunk, static_cast<std::size_t>(n));

    std::size_t start = 0;  // first byte of the next unconsumed line
    while (alive) {
      const std::size_t newline = pending.find('\n', scan);
      if (newline == std::string::npos) break;
      std::size_t end = newline;
      if (end > start && pending[end - 1] == '\r') --end;
      if (end > start) {  // blank keep-alive lines are ignored
        const std::string response =
            server_.handle_json(pending.substr(start, end - start));
        if (!send_all(fd, response.data(), response.size())) alive = false;
      }
      start = scan = newline + 1;
    }
    pending.erase(0, start);
    if (pending.size() > kMaxLineBytes) {
      const std::string error = write_error(
          "", 400, "bad_request",
          "request line exceeds " + std::to_string(kMaxLineBytes) +
              " bytes");
      (void)send_all(fd, error.data(), error.size());
      break;
    }
  }
  // Deregister before closing so stop() never shuts down a reused fd, and
  // hand this thread's own handle to finished_ for the accept loop (or
  // stop()) to join - the last locked action before returning.
  {
    std::lock_guard<std::mutex> lock(clients_mutex_);
    std::erase(client_fds_, fd);
    // After stop() started draining, this node lives in stop()'s local
    // list (splicing from workers_ would be UB) and stop() joins it.
    if (!draining_) {
      finished_.splice(finished_.end(), workers_, self);
    }
  }
  ::close(fd);
}

TcpClient::TcpClient(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("TcpClient: socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    ::close(fd_);
    fd_ = -1;
    throw_errno("TcpClient: connect");
  }
}

TcpClient::~TcpClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::string TcpClient::request(const std::string& line) {
  std::string framed = line;
  if (framed.empty() || framed.back() != '\n') framed += '\n';
  if (!send_all(fd_, framed.data(), framed.size())) {
    throw std::runtime_error("TcpClient: send failed (connection closed?)");
  }
  char chunk[4096];
  std::size_t scan = head_;  // bytes before `scan` hold no newline
  while (true) {
    const std::size_t newline = buffer_.find('\n', scan);
    if (newline != std::string::npos) {
      std::string response = buffer_.substr(head_, newline - head_);
      head_ = newline + 1;
      return response;
    }
    // Compact once per read: drop the returned lines before appending.
    buffer_.erase(0, head_);
    head_ = 0;
    scan = buffer_.size();
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      throw std::runtime_error("TcpClient: connection closed mid-response");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace oscs::serve
