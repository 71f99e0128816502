/// Loopback TCP front-end tests: framing, connection reuse, malformed
/// lines, concurrent clients sharing one warm cache, and clean shutdown.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "serve/server.hpp"
#include "serve/tcp.hpp"

namespace oscs::serve {
namespace {

ServerOptions fast_options() {
  ServerOptions options;
  options.compile.certify = false;
  options.threads = 1;
  return options;
}

TEST(TcpServerTest, RoundTripsOneRequest) {
  ProgramServer server(fast_options());
  TcpServer tcp(server, /*port=*/0);
  ASSERT_GT(tcp.port(), 0);

  TcpClient client(tcp.port());
  const std::string response = client.request(
      R"({"id": "t1", "function": "sigmoid", "xs": [0.5], "stream_lengths": [256], "repeats": 2})");
  const JsonValue doc = json_parse(response);
  EXPECT_TRUE(doc.find("ok")->as_bool()) << response;
  EXPECT_EQ(doc.find("id")->as_string(), "t1");
  EXPECT_EQ(tcp.connections_accepted(), 1u);
}

TEST(TcpServerTest, OneConnectionServesManyRequestsIncludingErrors) {
  ProgramServer server(fast_options());
  TcpServer tcp(server, /*port=*/0);
  TcpClient client(tcp.port());

  // A malformed line answers with an error document and the connection
  // stays usable for the next request.
  const JsonValue bad = json_parse(client.request("{not json"));
  EXPECT_FALSE(bad.find("ok")->as_bool());
  EXPECT_EQ(bad.find("error")->find("status")->as_number(), 400.0);

  for (int i = 0; i < 3; ++i) {
    const JsonValue doc = json_parse(client.request(
        R"({"coefficients": [0.2, 0.8], "xs": [0.5], "stream_lengths": [128], "repeats": 2})"));
    EXPECT_TRUE(doc.find("ok")->as_bool());
  }
  const JsonValue metrics =
      json_parse(client.request(R"({"op": "metrics"})"));
  EXPECT_EQ(metrics.find("metrics")
                ->find("requests")
                ->find("received")
                ->as_number(),
            5.0);
  EXPECT_EQ(tcp.connections_accepted(), 1u);
}

TEST(TcpServerTest, ConcurrentClientsShareOneWarmCache) {
  ProgramServer server(fast_options());
  TcpServer tcp(server, /*port=*/0);

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 4;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TcpClient client(tcp.port());
      const std::string fn = (c % 2 == 0) ? "sigmoid" : "tanh";
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const std::string response = client.request(
            R"({"function": ")" + fn +
            R"(", "xs": [0.25, 0.75], "stream_lengths": [256], "repeats": 2})");
        if (json_parse(response).find("ok")->as_bool()) ++ok_count;
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(ok_count.load(), kClients * kRequestsPerClient);
  EXPECT_EQ(tcp.connections_accepted(), static_cast<std::size_t>(kClients));
  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.completed, static_cast<std::size_t>(kClients *
                                                  kRequestsPerClient));
  // Two functions, one shared cache: exactly two pipeline runs total,
  // even under the concurrent miss storm (single-flight dedup).
  EXPECT_EQ(m.cache.inserts, 2u);
  EXPECT_EQ(m.cache.misses + m.cache.hits + m.cache.coalesced,
            static_cast<std::size_t>(kClients * kRequestsPerClient));
  EXPECT_EQ(m.in_flight, 0u);
}

TEST(TcpServerTest, OverlongRequestLineAnswers400AndClosesConnection) {
  ProgramServer server(fast_options());
  TcpServer tcp(server, /*port=*/0);
  TcpClient client(tcp.port());
  // 2 MiB with no newline: the framing layer must cut the client off
  // instead of buffering without bound. Depending on socket buffer sizes
  // the client either reads the 400 line or sees the reset mid-send; both
  // prove the server stopped buffering.
  const std::string flood(2 << 20, 'a');
  bool reset_mid_send = false;
  std::string response;
  try {
    response = client.request(flood + "\n");
  } catch (const std::runtime_error&) {
    reset_mid_send = true;
  }
  if (!reset_mid_send) {
    const JsonValue doc = json_parse(response);
    EXPECT_FALSE(doc.find("ok")->as_bool());
    EXPECT_EQ(doc.find("error")->find("status")->as_number(), 400.0);
  }
  EXPECT_THROW((void)client.request(R"({"op": "ping"})"),
               std::runtime_error);  // connection was closed
}

TEST(TcpServerTest, PipelinedBurstInOneSendAnswersEveryLineInOrder) {
  ProgramServer server(fast_options());
  TcpServer tcp(server, /*port=*/0);

  // 500 requests in one send: mixed LF/CRLF endings, blank keep-alive
  // lines (bare and CRLF) between them, and a few evaluate requests
  // among the pings.
  constexpr int kRequests = 500;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    const std::string id = "\"id\": \"r" + std::to_string(i) + "\"";
    burst += i % 50 == 0
                 ? "{" + id + R"(, "coefficients": [0.2, 0.8], "xs": [0.5],)"
                       R"( "stream_lengths": [64], "repeats": 1})"
                 : "{" + id + R"(, "op": "ping"})";
    burst += i % 3 == 0 ? "\r\n" : "\n";
    if (i % 7 == 0) burst += "\n";
    if (i % 11 == 0) burst += "\r\n";
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(tcp.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ASSERT_EQ(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));

  std::string received;
  std::vector<std::string> lines;
  char chunk[4096];
  while (lines.size() < static_cast<std::size_t>(kRequests)) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0) << "connection closed after " << lines.size();
    received.append(chunk, static_cast<std::size_t>(n));
    std::size_t newline;
    while ((newline = received.find('\n')) != std::string::npos) {
      lines.push_back(received.substr(0, newline));
      received.erase(0, newline + 1);
    }
  }
  ::close(fd);

  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kRequests));
  EXPECT_TRUE(received.empty());
  for (int i = 0; i < kRequests; ++i) {
    const JsonValue doc = json_parse(lines[i]);
    EXPECT_TRUE(doc.find("ok")->as_bool()) << lines[i];
    EXPECT_EQ(doc.find("id")->as_string(), "r" + std::to_string(i));
  }
}

TEST(TcpServerTest, StopUnblocksConnectedClients) {
  ProgramServer server(fast_options());
  auto tcp = std::make_unique<TcpServer>(server, /*port=*/0);
  TcpClient client(tcp->port());
  // One request proves the connection is live before the shutdown.
  (void)client.request(R"({"op": "ping"})");
  tcp->stop();
  // After stop, the connection is gone: the next request fails instead of
  // hanging.
  EXPECT_THROW((void)client.request(R"({"op": "ping"})"),
               std::runtime_error);
  tcp.reset();  // double-stop via the destructor is a no-op
}

}  // namespace
}  // namespace oscs::serve
