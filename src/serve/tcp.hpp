#pragma once
/// \file tcp.hpp
/// \brief Loopback TCP front end for the ProgramServer: one listener on
///        127.0.0.1, one thread per connection, newline-delimited JSON -
///        each request line answered with exactly one response line. Thin
///        by construction: framing and thread lifecycle live here, every
///        protocol decision stays in ProgramServer::handle_json, so the
///        in-process path tests/benches use is the same code the wire
///        exercises. POSIX sockets (the deployment target is Linux).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.hpp"

namespace oscs::serve {

/// Thread-per-connection loopback listener bound to a ProgramServer.
class TcpServer {
 public:
  /// Bind + listen on 127.0.0.1:`port` (0 picks an ephemeral port; read
  /// it back with port()). The accept loop starts immediately.
  /// \throws std::runtime_error when the socket cannot be bound.
  explicit TcpServer(ProgramServer& server, std::uint16_t port = 0);

  /// Stops the listener and joins every connection thread.
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The bound port (useful with port 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Connections accepted since construction.
  [[nodiscard]] std::size_t connections_accepted() const noexcept {
    return accepted_.load();
  }

  /// Idempotent shutdown: close the listener, unblock and join every
  /// connection thread (open connections are closed).
  void stop();

 private:
  void accept_loop();
  void serve_connection(int fd, std::list<std::thread>::iterator self);
  /// Join every connection thread that already finished (their handles
  /// sit in finished_); called from the accept loop and from stop().
  void reap_finished();

  ProgramServer& server_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{true};
  std::atomic<std::size_t> accepted_{0};
  std::thread accept_thread_;

  std::mutex clients_mutex_;
  /// Live connection threads; a connection moves its own node to
  /// finished_ on exit so the accept loop can join it (no zombie growth
  /// over the server's lifetime).
  std::list<std::thread> workers_;
  std::list<std::thread> finished_;
  std::vector<int> client_fds_;
  /// Set (under clients_mutex_) once stop() took ownership of workers_;
  /// exiting connections then skip the self-splice.
  bool draining_ = false;
};

/// Minimal blocking client for tests, benches and the example: connect to
/// 127.0.0.1:port, send one JSON line per request, read one line back.
class TcpClient {
 public:
  /// \throws std::runtime_error when the connection fails.
  explicit TcpClient(std::uint16_t port);
  ~TcpClient();

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  /// Send `line` (a '\n' is appended when missing) and block for the
  /// response line (returned without the trailing '\n').
  /// \throws std::runtime_error on a closed or failed connection.
  [[nodiscard]] std::string request(const std::string& line);

 private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes read but not yet returned (from head_)
  std::size_t head_ = 0;  ///< start of the first unreturned line
};

}  // namespace oscs::serve
