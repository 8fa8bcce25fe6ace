// net::EpollServer battery (DESIGN.md §13): the per-connection
// determinism contract across worker counts and pipeline windows, the
// adversarial socket corpus (slow-loris, half-open, mid-request
// disconnect, oversized lines split across reads, pipelined garbage),
// tiered overload shedding with exact metric reconciliation, and the
// graceful-drain state machine. Labelled `net`; runs in the TSan lane.

#include "net/epoll_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/study.h"
#include "geo/admin_db.h"
#include "gtest/gtest.h"
#include "infer/inference_index.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/study_index.h"
#include "twitter/generator.h"

namespace stir::net {
namespace {

using geo::AdminDb;
using obs::JsonParse;
using obs::JsonValue;
using serve::Server;
using serve::ServeOptions;
using serve::StudyIndex;

class NetServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ::signal(SIGPIPE, SIG_IGN);  // The battery writes into dead sockets.
    const AdminDb& db = AdminDb::KoreanDistricts();
    twitter::DatasetGenerator generator(
        &db, twitter::DatasetGenerator::KoreanConfig(0.05));
    twitter::GeneratedData data = generator.Generate();
    core::CorrelationStudy study(&db);
    core::StudyResult result = study.Run(data.dataset);
    index_ = new StudyIndex(StudyIndex::Build(result, db));
    ASSERT_FALSE(index_->empty());
    infer_index_ = new infer::InferenceIndex(
        infer::InferenceIndex::Build(data.dataset, db));
    ASSERT_FALSE(infer_index_->empty());
  }
  static void TearDownTestSuite() {
    delete infer_index_;
    infer_index_ = nullptr;
    delete index_;
    index_ = nullptr;
  }

  /// A deterministic request stream cycling through every method except
  /// the explicitly history-dependent server_stats: lookups (hit and
  /// miss), topk, index_info, infer_user, append (a typed error off
  /// streaming mode), malformed lines, and CRLF / blank-line framing
  /// variation.
  static std::vector<std::string> MixedStream(int64_t count,
                                              int64_t id_base) {
    std::vector<std::string> lines;
    lines.reserve(count);
    for (int64_t i = 0; i < count; ++i) {
      int64_t id = id_base + i;
      std::string line;
      switch (i % 9) {
        case 0:
          line = "{\"v\":1,\"id\":" + std::to_string(id) +
                 ",\"method\":\"topk_summary\"}";
          break;
        case 1:
          line = "{\"v\":1,\"id\":" + std::to_string(id) +
                 ",\"method\":\"lookup_user\",\"params\":{\"user\":" +
                 std::to_string(
                     index_->users()[i % index_->user_count()].user) +
                 "}}";
          break;
        case 2:
          line = "{\"v\":1,\"id\":" + std::to_string(id) +
                 ",\"method\":\"lookup_user\",\"params\":{\"user\":999999}}";
          break;
        case 3:
          line = "{\"v\":1,\"id\":" + std::to_string(id) +
                 ",\"method\":\"index_info\"}";
          break;
        case 4:
          line = "{\"v\":1,\"id\":" + std::to_string(id) +
                 ",\"method\":\"lookup_district\",\"params\":"
                 "{\"state\":\"Seoul\",\"county\":\"Gangnam-gu\"}}\r";
          break;
        case 5:
          line = "this line is not json (" + std::to_string(id) + ")";
          break;
        case 6:
          line = "{\"v\":1,\"id\":" + std::to_string(id) +
                 ",\"method\":\"append_tweets\",\"params\":{\"tweets\":[]}}";
          break;
        case 7:
          line = "{\"v\":1,\"id\":" + std::to_string(id) +
                 ",\"method\":\"infer_user\",\"params\":{\"user\":" +
                 std::to_string(
                     infer_index_->users()[i % infer_index_->user_count()]
                         .user) +
                 ",\"strategy\":\"diurnal\"}}";
          break;
        case 8:
          line = "";  // Keep-alive blank line: no response owed.
          break;
      }
      lines.push_back(std::move(line));
    }
    return lines;
  }

  /// The exact bytes a connection sends: one line per entry, each
  /// newline-terminated (entries may carry their own trailing \r).
  static std::string PayloadFrom(const std::vector<std::string>& lines) {
    std::string payload;
    for (const std::string& line : lines) {
      payload += line;
      payload += '\n';
    }
    return payload;
  }

  /// The solo-run baseline: the same payload served alone over the stdio
  /// path by a fresh single-worker server. The determinism contract says
  /// any connection's TCP byte stream must equal this.
  static std::string SoloResponses(const std::string& payload,
                                   ServeOptions options = {}) {
    options.workers = 1;
    options.infer_index = infer_index_;
    Server server(index_, options);
    std::istringstream in(payload);
    std::ostringstream out;
    server.ServeStream(in, out);
    server.Drain();
    return out.str();
  }

  static StudyIndex* index_;
  static infer::InferenceIndex* infer_index_;
};

StudyIndex* NetServerTest::index_ = nullptr;
infer::InferenceIndex* NetServerTest::infer_index_ = nullptr;

int64_t ResponseId(const std::string& response) {
  JsonValue root;
  if (!JsonParse(response, &root)) return -2;
  const JsonValue* id = root.Find("id");
  if (id == nullptr) return -2;
  if (id->kind == JsonValue::Kind::kNull) return -1;
  return id->integer;
}

std::string ResponseErrorCode(const std::string& response) {
  JsonValue root;
  if (!JsonParse(response, &root)) return "<unparseable>";
  const JsonValue* error = root.Find("error");
  if (error == nullptr) return "";
  return error->Find("code")->string;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t pos = text.find('\n', start);
    if (pos == std::string::npos) pos = text.size();
    lines.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return lines;
}

/// Blocking loopback client with line-oriented reads and the adversarial
/// controls the battery needs (partial writes, RST, receive timeouts).
class Client {
 public:
  ~Client() { Close(); }

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval tv{};
    tv.tv_sec = 30;  // A stuck server fails the test, not the suite.
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      Close();
      return false;
    }
    return true;
  }

  bool Send(std::string_view data) {
    size_t sent = 0;
    while (sent < data.size()) {
      ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

  /// Reads until the server closes the connection.
  std::string ReadAll() {
    std::string received = std::move(buffer_);
    buffer_.clear();
    char buf[4096];
    for (;;) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      received.append(buf, static_cast<size_t>(n));
    }
    return received;
  }

  /// One response line (without the newline); empty on timeout/EOF.
  std::string ReadLine() {
    for (;;) {
      size_t pos = buffer_.find('\n');
      if (pos != std::string::npos) {
        std::string line = buffer_.substr(0, pos);
        buffer_.erase(0, pos + 1);
        return line;
      }
      char buf[4096];
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return std::string();
      buffer_.append(buf, static_cast<size_t>(n));
    }
  }

  /// Abortive close: RST instead of FIN (mid-request disconnect).
  void CloseHard() {
    if (fd_ < 0) return;
    linger lg{};
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    Close();
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Polls `predicate` for up to five seconds — for the few assertions
/// that observe the loop thread's bookkeeping from outside.
bool WaitFor(const std::function<bool()>& predicate) {
  for (int i = 0; i < 500; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return predicate();
}

// ---------------------------------------------------------------------------
// Determinism battery: for any interleaving of N connections, any worker
// count, and any pipeline window, each connection's response stream is
// byte-identical to its requests served alone over stdio.

TEST_F(NetServerTest, PerConnectionDeterminismBattery) {
  constexpr int kConns = 6;
  constexpr int64_t kPerConn = 48;
  std::vector<std::string> payloads;
  std::vector<std::string> expected;
  for (int c = 0; c < kConns; ++c) {
    payloads.push_back(PayloadFrom(MixedStream(kPerConn, c * 100'000)));
    expected.push_back(SoloResponses(payloads.back()));
  }

  for (int workers : {1, 2, 8}) {
    for (int window : {1, 16, 64}) {
      ServeOptions options;
      options.workers = workers;
      options.queue_capacity = 4096;  // Wide: determinism excludes shed.
      options.infer_index = infer_index_;
      Server server(index_, options);
      NetOptions net_options;
      net_options.max_pipeline = window;
      EpollServer net(&server, net_options);
      ASSERT_TRUE(net.Listen(0).ok());
      ASSERT_TRUE(net.Start().ok());

      std::vector<std::string> received(kConns);
      std::vector<std::thread> clients;
      for (int c = 0; c < kConns; ++c) {
        clients.emplace_back([&, c] {
          Client client;
          if (!client.Connect(net.port())) return;
          if (!client.Send(payloads[c])) return;
          client.ShutdownWrite();
          received[c] = client.ReadAll();
        });
      }
      for (std::thread& t : clients) t.join();
      net.Stop();

      for (int c = 0; c < kConns; ++c) {
        EXPECT_EQ(received[c], expected[c])
            << "workers=" << workers << " window=" << window
            << " conn=" << c;
      }
      NetStats stats = net.stats();
      EXPECT_EQ(stats.accepted, kConns);
      EXPECT_EQ(stats.closed, kConns);
      EXPECT_EQ(stats.live, 0);
    }
  }
}

TEST_F(NetServerTest, ManyPipelinedConnectionsAllMatchSolo) {
  constexpr int kConns = 128;
  const std::string payload = PayloadFrom(MixedStream(24, 7'000'000));
  const std::string expected = SoloResponses(payload);

  ServeOptions options;
  options.workers = 4;
  options.queue_capacity = 8192;
  options.infer_index = infer_index_;
  Server server(index_, options);
  NetOptions net_options;
  net_options.max_pipeline = 16;
  EpollServer net(&server, net_options);
  ASSERT_TRUE(net.Listen(0).ok());
  ASSERT_TRUE(net.Start().ok());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kConns; ++c) {
    clients.emplace_back([&] {
      Client client;
      if (!client.Connect(net.port()) || !client.Send(payload)) {
        mismatches.fetch_add(100);
        return;
      }
      client.ShutdownWrite();
      if (client.ReadAll() != expected) mismatches.fetch_add(1);
    });
  }
  for (std::thread& t : clients) t.join();
  net.Stop();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(net.stats().accepted, kConns);
  EXPECT_EQ(net.stats().live, 0);
}

// ---------------------------------------------------------------------------
// Mode symmetry: stdio is just an adopted connection of the same loop.

TEST_F(NetServerTest, AdoptedPipesMatchServeStream) {
  const std::string payload = PayloadFrom(MixedStream(32, 42));
  const std::string expected = SoloResponses(payload);

  int in_pipe[2];
  int out_pipe[2];
  ASSERT_EQ(::pipe(in_pipe), 0);
  ASSERT_EQ(::pipe(out_pipe), 0);

  ServeOptions options;
  options.workers = 2;
  options.infer_index = infer_index_;
  Server server(index_, options);
  EpollServer net(&server, NetOptions{});
  ASSERT_TRUE(net.AdoptStdio(in_pipe[0], out_pipe[1]).ok());

  std::thread feeder([&] {
    size_t sent = 0;
    while (sent < payload.size()) {
      ssize_t n = ::write(in_pipe[1], payload.data() + sent,
                          payload.size() - sent);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    ::close(in_pipe[1]);  // EOF ends the stdio session.
  });
  std::string received;
  std::thread reader([&] {
    char buf[4096];
    for (;;) {
      ssize_t n = ::read(out_pipe[0], buf, sizeof(buf));
      if (n <= 0) break;
      received.append(buf, static_cast<size_t>(n));
    }
  });

  net.Run();  // Stdio mode: returns at EOF once the last response flushed.
  ::close(out_pipe[1]);
  feeder.join();
  reader.join();
  ::close(in_pipe[0]);
  ::close(out_pipe[0]);

  EXPECT_EQ(received, expected);
  EXPECT_EQ(net.stats().accepted, 1);
  EXPECT_EQ(net.stats().live, 0);
}

TEST_F(NetServerTest, DrainAfterLinesAnswersBufferedLinesTyped) {
  // All five requests sit in the pipe before the loop starts, so the
  // drain point is fully deterministic: lines 1-2 are admitted and
  // answered, lines 3-5 are already buffered when the drain begins and
  // get typed shutting_down envelopes with their ids echoed, in order.
  std::vector<std::string> lines;
  for (int i = 1; i <= 5; ++i) {
    lines.push_back("{\"v\":1,\"id\":" + std::to_string(i) +
                    ",\"method\":\"topk_summary\"}");
  }
  const std::string payload = PayloadFrom(lines);

  int in_pipe[2];
  int out_pipe[2];
  ASSERT_EQ(::pipe(in_pipe), 0);
  ASSERT_EQ(::pipe(out_pipe), 0);
  ASSERT_TRUE(::write(in_pipe[1], payload.data(), payload.size()) ==
              static_cast<ssize_t>(payload.size()));
  ::close(in_pipe[1]);

  ServeOptions options;
  options.workers = 2;
  Server server(index_, options);
  NetOptions net_options;
  net_options.drain_after_lines = 2;
  EpollServer net(&server, net_options);
  ASSERT_TRUE(net.AdoptStdio(in_pipe[0], out_pipe[1]).ok());

  std::string received;
  std::thread reader([&] {
    char buf[4096];
    for (;;) {
      ssize_t n = ::read(out_pipe[0], buf, sizeof(buf));
      if (n <= 0) break;
      received.append(buf, static_cast<size_t>(n));
    }
  });
  net.Run();
  ::close(out_pipe[1]);
  reader.join();
  ::close(in_pipe[0]);
  ::close(out_pipe[0]);

  std::vector<std::string> responses = SplitLines(received);
  ASSERT_EQ(responses.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(ResponseId(responses[i]), i + 1) << responses[i];
    EXPECT_EQ(ResponseErrorCode(responses[i]),
              i < 2 ? "" : "shutting_down")
        << responses[i];
  }
  EXPECT_GE(net.stats().drain_micros, 0);
}

// ---------------------------------------------------------------------------
// Adversarial socket battery.

TEST_F(NetServerTest, SlowLorisNeverBlocksOtherConnections) {
  ServeOptions options;
  options.workers = 2;
  Server server(index_, options);
  EpollServer net(&server, NetOptions{});
  ASSERT_TRUE(net.Listen(0).ok());
  ASSERT_TRUE(net.Start().ok());

  Client loris;
  ASSERT_TRUE(loris.Connect(net.port()));
  // A request that never finishes: bytes trickle in, no newline.
  ASSERT_TRUE(loris.Send("{\"v\":1,\"id\":77,"));

  Client busy;
  ASSERT_TRUE(busy.Connect(net.port()));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(busy.Send("{\"v\":1,\"id\":" + std::to_string(i) +
                          ",\"method\":\"topk_summary\"}\n"));
    std::string response = busy.ReadLine();
    EXPECT_EQ(ResponseId(response), i) << "stalled behind a slow-loris";
  }
  busy.Close();

  // The stalled connection is intact: completing its line still works.
  ASSERT_TRUE(loris.Send("\"method\":\"topk_summary\"}\n"));
  EXPECT_EQ(ResponseId(loris.ReadLine()), 77);
  loris.Close();
  net.Stop();
  EXPECT_EQ(net.stats().live, 0);
}

/// The socket in this process at the other end of `client_fd` (the
/// server runs in-process), or -1.
int AcceptedPeerOf(int client_fd) {
  auto endpoints = [](int fd, sockaddr_in* local, sockaddr_in* peer) {
    socklen_t len = sizeof(*local);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(local), &len) != 0 ||
        local->sin_family != AF_INET) {
      return false;
    }
    len = sizeof(*peer);
    return ::getpeername(fd, reinterpret_cast<sockaddr*>(peer), &len) == 0;
  };
  auto same = [](const sockaddr_in& a, const sockaddr_in& b) {
    return a.sin_addr.s_addr == b.sin_addr.s_addr && a.sin_port == b.sin_port;
  };
  sockaddr_in client_local{};
  sockaddr_in client_peer{};
  if (!endpoints(client_fd, &client_local, &client_peer)) return -1;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    const int fd = std::stoi(entry.path().filename().string());
    sockaddr_in local{};
    sockaddr_in peer{};
    if (fd != client_fd && endpoints(fd, &local, &peer) &&
        same(local, client_peer) && same(peer, client_local)) {
      return fd;
    }
  }
  return -1;
}

TEST_F(NetServerTest, AcceptedSocketsDisableNagle) {
  ServeOptions options;
  options.workers = 1;
  Server server(index_, options);
  EpollServer net(&server, NetOptions{});
  ASSERT_TRUE(net.Listen(0).ok());
  ASSERT_TRUE(net.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect(net.port()));
  // A round trip proves the loop has accepted the connection.
  ASSERT_TRUE(client.Send("{\"v\":1,\"id\":1,\"method\":\"topk_summary\"}\n"));
  EXPECT_EQ(ResponseId(client.ReadLine()), 1);

  const int accepted = AcceptedPeerOf(client.fd());
  ASSERT_GE(accepted, 0);
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(accepted, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len),
            0);
  EXPECT_NE(nodelay, 0);
  client.Close();
  net.Stop();
}

TEST_F(NetServerTest, MidRequestDisconnectLeavesOthersIntact) {
  ServeOptions options;
  options.workers = 2;
  Server server(index_, options);
  EpollServer net(&server, NetOptions{});
  ASSERT_TRUE(net.Listen(0).ok());
  ASSERT_TRUE(net.Start().ok());

  Client survivor;
  ASSERT_TRUE(survivor.Connect(net.port()));

  {
    Client casualty;
    ASSERT_TRUE(casualty.Connect(net.port()));
    ASSERT_TRUE(casualty.Send("{\"v\":1,\"id\":1,\"method\":"));
    ASSERT_TRUE(WaitFor([&] { return net.stats().accepted == 2; }));
    casualty.CloseHard();  // RST mid-request.
  }
  // The RST tears the connection down without leaking its fd or state.
  EXPECT_TRUE(WaitFor([&] { return net.stats().closed == 1; }));

  ASSERT_TRUE(survivor.Send("{\"v\":1,\"id\":9,\"method\":\"topk_summary\"}\n"));
  EXPECT_EQ(ResponseId(survivor.ReadLine()), 9);
  survivor.Close();
  net.Stop();
  NetStats stats = net.stats();
  EXPECT_EQ(stats.accepted, 2);
  EXPECT_EQ(stats.closed, 2);
  EXPECT_EQ(stats.live, 0);
}

TEST_F(NetServerTest, OversizedLineSplitAcrossReadsGetsExactEnvelope) {
  ServeOptions options;
  options.workers = 1;
  Server server(index_, options);
  NetOptions net_options;
  net_options.read_chunk_bytes = 512;  // Force many reads per line.
  EpollServer net(&server, net_options);
  ASSERT_TRUE(net.Listen(0).ok());
  ASSERT_TRUE(net.Start().ok());

  const size_t kLineBytes = 100'000;  // Above the 64 KiB framing cap.
  std::string big(kLineBytes, 'x');
  const std::string tail = "{\"v\":1,\"id\":5,\"method\":\"topk_summary\"}";
  const std::string payload = big + "\n" + tail + "\n";
  // Byte-identity with the stdio path, which reads the whole line via
  // getline and rejects it in ParseRequest with the same envelope.
  const std::string expected = SoloResponses(payload);

  Client client;
  ASSERT_TRUE(client.Connect(net.port()));
  // Trickle the oversized line so it spans dozens of reads, with the
  // newline and the follow-up request split across chunk boundaries too.
  size_t sent = 0;
  while (sent < payload.size()) {
    size_t n = std::min<size_t>(7'000, payload.size() - sent);
    ASSERT_TRUE(client.Send(std::string_view(payload).substr(sent, n)));
    sent += n;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  client.ShutdownWrite();
  std::string received = client.ReadAll();
  EXPECT_EQ(received, expected);

  std::vector<std::string> responses = SplitLines(received);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(ResponseErrorCode(responses[0]), "oversized");
  EXPECT_EQ(responses[0],
            serve::OversizedResponse(kLineBytes, options.max_request_bytes));
  EXPECT_EQ(ResponseId(responses[1]), 5);
  net.Stop();
  NetStats stats = net.stats();
  EXPECT_EQ(stats.oversized, 1);
  // The framer never buffered the whole line.
  EXPECT_EQ(stats.bytes_in, static_cast<int64_t>(payload.size()));
}

TEST_F(NetServerTest, FramingCapIsTheServeRequestCap) {
  // One cap: the framer rejects at ServeOptions::max_request_bytes, with
  // the envelope the stdio path's ParseRequest emits for the same line,
  // and a request of exactly the cap passes even when its "\r\n" is
  // split across reads.
  ServeOptions options;
  options.workers = 1;
  options.max_request_bytes = 100;
  Server server(index_, options);
  EpollServer net(&server, NetOptions{});
  ASSERT_TRUE(net.Listen(0).ok());
  ASSERT_TRUE(net.Start().ok());

  const size_t kLineBytes = 150;
  std::string at_cap = "{\"v\":1,\"id\":5,\"method\":\"topk_summary\"}";
  at_cap.resize(options.max_request_bytes, ' ');
  // Each part's bytes arrive before the newline that ends them, so the
  // framer, not the parser, sees the lines first.
  const std::vector<std::string> parts = {std::string(kLineBytes, 'x'),
                                          "\n" + at_cap + "\r", "\n"};
  std::string payload;
  for (const std::string& part : parts) payload += part;
  const std::string expected = SoloResponses(payload, options);

  Client client;
  ASSERT_TRUE(client.Connect(net.port()));
  int64_t sent = 0;
  for (const std::string& part : parts) {
    ASSERT_TRUE(client.Send(part));
    sent += static_cast<int64_t>(part.size());
    ASSERT_TRUE(WaitFor([&] { return net.stats().bytes_in >= sent; }));
  }
  client.ShutdownWrite();
  const std::string received = client.ReadAll();
  EXPECT_EQ(received, expected);

  std::vector<std::string> responses = SplitLines(received);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0], serve::OversizedResponse(kLineBytes, 100));
  EXPECT_EQ(ResponseId(responses[1]), 5);
  net.Stop();
  EXPECT_EQ(net.stats().oversized, 1);
}

TEST_F(NetServerTest, PipelinedGarbageAfterValidRequestIsContained) {
  ServeOptions options;
  options.workers = 2;
  Server server(index_, options);
  EpollServer net(&server, NetOptions{});
  ASSERT_TRUE(net.Listen(0).ok());
  ASSERT_TRUE(net.Start().ok());

  std::string payload =
      "{\"v\":1,\"id\":1,\"method\":\"topk_summary\"}\n";
  payload += "\x01\x02\x7f garbage after a valid request \xfe\xff\n";
  payload += "{\"v\":1,\"id\":2,\"method\":\"topk_summary\"}"
             "{\"v\":1,\"id\":3,\"method\":\"topk_summary\"}\n";
  payload += "{\"v\":1,\"id\":4,\"method\":\"topk_summary\"}\n";
  const std::string expected = SoloResponses(payload);

  Client client;
  ASSERT_TRUE(client.Connect(net.port()));
  ASSERT_TRUE(client.Send(payload));  // One write: maximally pipelined.
  client.ShutdownWrite();
  std::string received = client.ReadAll();
  EXPECT_EQ(received, expected);

  std::vector<std::string> responses = SplitLines(received);
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_EQ(ResponseErrorCode(responses[0]), "");
  EXPECT_NE(ResponseErrorCode(responses[1]), "");
  EXPECT_NE(ResponseErrorCode(responses[2]), "");  // Two objects, one line.
  EXPECT_EQ(ResponseId(responses[3]), 4);
  net.Stop();
}

TEST_F(NetServerTest, HalfOpenConnectionsAreClosedByGracefulDrain) {
  ServeOptions options;
  options.workers = 2;
  Server server(index_, options);
  EpollServer net(&server, NetOptions{});
  ASSERT_TRUE(net.Listen(0).ok());
  ASSERT_TRUE(net.Start().ok());

  constexpr int kIdle = 3;
  constexpr int kStalled = 2;
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < kIdle + kStalled; ++i) {
    clients.push_back(std::make_unique<Client>());
    ASSERT_TRUE(clients.back()->Connect(net.port()));
    if (i >= kIdle) {
      ASSERT_TRUE(clients.back()->Send("{\"v\":1,\"id\":1,"));  // Partial.
    }
  }
  ASSERT_TRUE(
      WaitFor([&] { return net.stats().accepted == kIdle + kStalled; }));

  net.Stop();  // Graceful drain: idle and stalled conns just close.
  for (auto& client : clients) {
    EXPECT_EQ(client->ReadAll(), "");  // EOF, no bytes owed.
  }
  NetStats stats = net.stats();
  EXPECT_EQ(stats.accepted, kIdle + kStalled);
  EXPECT_EQ(stats.closed, kIdle + kStalled);
  EXPECT_EQ(stats.live, 0);
  EXPECT_GE(stats.drain_micros, 0);
}

TEST_F(NetServerTest, DrainFlushesInFlightAndTypesBufferedLines) {
  // A long linger parks the worker, so the first `window` requests are
  // deterministically in flight (admitted) and the rest sit in the
  // connection's read buffer when the drain begins.
  ServeOptions options;
  options.workers = 1;
  options.max_batch_size = 64;
  options.batch_linger_us = 30'000'000;
  Server server(index_, options);
  NetOptions net_options;
  net_options.max_pipeline = 2;
  EpollServer net(&server, net_options);
  ASSERT_TRUE(net.Listen(0).ok());
  ASSERT_TRUE(net.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect(net.port()));
  std::string payload;
  for (int i = 1; i <= 4; ++i) {
    payload += "{\"v\":1,\"id\":" + std::to_string(i) +
               ",\"method\":\"topk_summary\"}\n";
  }
  ASSERT_TRUE(client.Send(payload));
  ASSERT_TRUE(WaitFor([&] { return server.stats().admitted == 2; }));

  net.Stop();  // Drain: flush the 2 in flight, type the 2 buffered.
  std::string received = client.ReadAll();
  std::vector<std::string> responses = SplitLines(received);
  ASSERT_EQ(responses.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ResponseId(responses[i]), i + 1) << responses[i];
    EXPECT_EQ(ResponseErrorCode(responses[i]),
              i < 2 ? "" : "shutting_down")
        << responses[i];
  }
  serve::SchedulerStats stats = server.stats();
  EXPECT_EQ(stats.admitted, 2);
  EXPECT_EQ(stats.rejected_shutdown, 2);
}

// ---------------------------------------------------------------------------
// Tiered admission control: under overload append_tweets sheds before
// the lookups, the lookups shed before infer_user, server_stats is never
// shed, and the shed counts reconcile exactly across net.*, serve.*, and
// SchedulerStats.

TEST_F(NetServerTest, TieredSheddingOrderAndExactReconciliation) {
  obs::MetricsRegistry metrics;
  ServeOptions options;
  options.workers = 1;
  options.queue_capacity = 8;
  options.infer_fill_limit = 0.875;  // infer_user sheds at queue depth 7.
  options.tier1_fill_limit = 0.75;   // Lookups shed at queue depth 6.
  options.tier2_fill_limit = 0.25;   // Appends shed at queue depth 2.
  options.max_batch_size = 64;
  options.batch_linger_us = 30'000'000;  // Park the worker; drain ends it.
  options.metrics = &metrics;
  options.infer_index = infer_index_;
  Server server(index_, options);
  ASSERT_EQ(server.scheduler().TierThreshold(0), 8);
  ASSERT_EQ(server.scheduler().TierThreshold(1), 7);
  ASSERT_EQ(server.scheduler().TierThreshold(2), 6);
  ASSERT_EQ(server.scheduler().TierThreshold(3), 2);

  NetOptions net_options;
  net_options.metrics = &metrics;
  EpollServer net(&server, net_options);
  ASSERT_TRUE(net.Listen(0).ok());
  ASSERT_TRUE(net.Start().ok());

  // Fill the queue to exactly depth 6 with tier-2 lookups (admitted at
  // depths 0..5, all under the tier-2 threshold).
  constexpr int kFillers = 6;
  std::vector<std::unique_ptr<Client>> fillers;
  for (int i = 0; i < kFillers; ++i) {
    fillers.push_back(std::make_unique<Client>());
    ASSERT_TRUE(fillers.back()->Connect(net.port()));
    ASSERT_TRUE(fillers.back()->Send(
        "{\"v\":1,\"id\":" + std::to_string(100 + i) +
        ",\"method\":\"topk_summary\"}\n"));
  }
  Client control;
  ASSERT_TRUE(control.Connect(net.port()));
  ASSERT_TRUE(WaitFor([&] {
    return server.stats().admitted == kFillers;
  }));

  // Depth 6 >= 2: an append_tweets is shed (tier 3) ...
  Client append_client;
  ASSERT_TRUE(append_client.Connect(net.port()));
  ASSERT_TRUE(append_client.Send(
      "{\"v\":1,\"id\":200,\"method\":\"append_tweets\","
      "\"params\":{\"tweets\":[]}}\n"));
  std::string append_response = append_client.ReadLine();
  EXPECT_EQ(ResponseErrorCode(append_response), "overloaded");
  EXPECT_EQ(ResponseId(append_response), 200);

  // ... depth 6 >= 6: a lookup is shed too (tier 2) ...
  Client lookup_client;
  ASSERT_TRUE(lookup_client.Connect(net.port()));
  ASSERT_TRUE(lookup_client.Send(
      "{\"v\":1,\"id\":300,\"method\":\"lookup_user\","
      "\"params\":{\"user\":1}}\n"));
  std::string lookup_response = lookup_client.ReadLine();
  EXPECT_EQ(ResponseErrorCode(lookup_response), "overloaded");
  EXPECT_EQ(ResponseId(lookup_response), 300);

  // ... depth 6 < 7: an infer_user (tier 1) is still ADMITTED while the
  // lookups are shedding — inference sits between server_stats and the
  // lookups in the shed order. It parks in the queue (depth 7) until the
  // drain wakes the worker.
  Client infer_client;
  ASSERT_TRUE(infer_client.Connect(net.port()));
  ASSERT_TRUE(infer_client.Send(
      "{\"v\":1,\"id\":500,\"method\":\"infer_user\",\"params\":{\"user\":" +
      std::to_string(infer_index_->users()[0].user) + "}}\n"));
  ASSERT_TRUE(WaitFor([&] {
    return server.stats().admitted == kFillers + 1;
  }));

  // ... but server_stats (tier 0) is still answered, and its own payload
  // carries the per-tier shed counters.
  ASSERT_TRUE(control.Send(
      "{\"v\":1,\"id\":400,\"method\":\"server_stats\"}\n"));
  std::string stats_response = control.ReadLine();
  EXPECT_EQ(ResponseErrorCode(stats_response), "");
  JsonValue root;
  ASSERT_TRUE(JsonParse(stats_response, &root));
  const JsonValue* shed =
      root.Find("result")->Find("counters")->Find("shed");
  ASSERT_NE(shed, nullptr);
  EXPECT_EQ(shed->Find("tier0")->integer, 0);
  EXPECT_EQ(shed->Find("tier1")->integer, 0);
  EXPECT_EQ(shed->Find("tier2")->integer, 1);
  EXPECT_EQ(shed->Find("tier3")->integer, 1);

  for (auto& filler : fillers) filler->ShutdownWrite();
  infer_client.ShutdownWrite();
  append_client.Close();
  lookup_client.Close();
  control.Close();
  net.Stop();  // Wakes the parked worker; the 7 admitted are answered.
  for (int i = 0; i < kFillers; ++i) {
    std::string response = fillers[i]->ReadAll();
    EXPECT_EQ(ResponseErrorCode(SplitLines(response)[0]), "")
        << "admitted filler " << i << " must be served across the drain";
  }
  // The admitted infer_user is executed across the drain, never shed: a
  // real decision or a typed low_confidence abstention, not overloaded.
  std::string infer_response = SplitLines(infer_client.ReadAll())[0];
  EXPECT_EQ(ResponseId(infer_response), 500);
  EXPECT_NE(ResponseErrorCode(infer_response), "overloaded")
      << infer_response;

  // Exact three-way reconciliation: scheduler counters, net counters,
  // and the metrics registry all agree, with nothing lost in between.
  serve::SchedulerStats sched = server.stats();
  NetStats netstats = net.stats();
  EXPECT_EQ(sched.rejected_overload, 2);
  EXPECT_EQ(sched.rejected_by_tier[0], 0);
  EXPECT_EQ(sched.rejected_by_tier[1], 0);
  EXPECT_EQ(sched.rejected_by_tier[2], 1);
  EXPECT_EQ(sched.rejected_by_tier[3], 1);
  for (int t = 0; t < serve::kNumShedTiers; ++t) {
    EXPECT_EQ(netstats.shed_by_tier[t], sched.rejected_by_tier[t])
        << "tier " << t;
  }
  obs::MetricsSnapshot snapshot = metrics.Snapshot();
  for (int t = 0; t < serve::kNumShedTiers; ++t) {
    std::string tier = std::to_string(t);
    EXPECT_EQ(snapshot.counter("net.shed.tier" + tier),
              sched.rejected_by_tier[t]);
    EXPECT_EQ(snapshot.counter("serve.shed.tier" + tier),
              sched.rejected_by_tier[t]);
  }
  EXPECT_EQ(sched.received, sched.admitted + sched.stats_served +
                                sched.parse_errors + sched.rejected_overload +
                                sched.rejected_shutdown);
}

// ---------------------------------------------------------------------------
// The framing corpus, replayed over TCP and adopted pipes: every bad_*
// line is answered with a typed error and never corrupts the stream.

TEST_F(NetServerTest, RequestCorpusOverTcpAndPipesMatchesSolo) {
  std::filesystem::path dir =
      std::filesystem::path(STIR_TEST_DATA_DIR) / "serve_requests";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::string payload;
  int corpus_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++corpus_files;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.is_open()) << entry.path();
    payload.append(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    if (!payload.empty() && payload.back() != '\n') payload += '\n';
  }
  ASSERT_GE(corpus_files, 10) << "corpus went missing";
  const std::string expected = SoloResponses(payload);
  ASSERT_FALSE(expected.empty());

  ServeOptions options;
  options.workers = 2;
  options.infer_index = infer_index_;
  Server server(index_, options);
  EpollServer net(&server, NetOptions{});
  ASSERT_TRUE(net.Listen(0).ok());
  ASSERT_TRUE(net.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect(net.port()));
  ASSERT_TRUE(client.Send(payload));
  client.ShutdownWrite();
  EXPECT_EQ(client.ReadAll(), expected) << "TCP corpus replay diverged";
  net.Stop();

  // Same corpus through an adopted pipe pair (the --stdio path).
  int in_pipe[2];
  int out_pipe[2];
  ASSERT_EQ(::pipe(in_pipe), 0);
  ASSERT_EQ(::pipe(out_pipe), 0);
  Server pipe_server(index_, options);
  EpollServer pipe_net(&pipe_server, NetOptions{});
  ASSERT_TRUE(pipe_net.AdoptStdio(in_pipe[0], out_pipe[1]).ok());
  std::thread feeder([&] {
    size_t sent = 0;
    while (sent < payload.size()) {
      ssize_t n = ::write(in_pipe[1], payload.data() + sent,
                          payload.size() - sent);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    ::close(in_pipe[1]);
  });
  std::string received;
  std::thread reader([&] {
    char buf[4096];
    for (;;) {
      ssize_t n = ::read(out_pipe[0], buf, sizeof(buf));
      if (n <= 0) break;
      received.append(buf, static_cast<size_t>(n));
    }
  });
  pipe_net.Run();
  ::close(out_pipe[1]);
  feeder.join();
  reader.join();
  ::close(in_pipe[0]);
  ::close(out_pipe[0]);
  EXPECT_EQ(received, expected) << "pipe corpus replay diverged";
}

}  // namespace
}  // namespace stir::net
