// Closed-loop load against the serving stack (DESIGN.md §10, §13, §15):
// pipelined in-process clients drive serve::Server through a deadline
// sweep, and a single-threaded epoll client fleet drives net::EpollServer
// through a baseline and a 2x-overload pass. Every response, shed and
// expiry the clients observe must reconcile exactly with the server's
// counters.
//
// The default tests run at a small scale whose queue and linger sizes
// force shedding and expiry (label `load`). ServeLoadTest.
// FiveHundredConnectionsKeepP99Flat repeats both at full size and adds
// the two timing checks; it skips itself unless STIR_SCALE_TESTS is set
// (STIR_SCALE_TESTS=1 ctest -L load, on an otherwise idle machine).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "core/study.h"
#include "geo/admin_db.h"
#include "gtest/gtest.h"
#include "net/epoll_server.h"
#include "obs/json.h"
#include "serve/server.h"
#include "serve/study_index.h"
#include "twitter/generator.h"

namespace stir::serve {
namespace {

using Clock = std::chrono::steady_clock;

/// The study index of a Korean-preset corpus at `scale`.
StudyIndex BuildIndex(double scale) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  twitter::DatasetGenerator generator(
      &db, twitter::DatasetGenerator::KoreanConfig(scale));
  twitter::GeneratedData data = generator.Generate();
  core::CorrelationStudy study(&db);
  return StudyIndex::Build(study.Run(data.dataset), db);
}

class ServeLoadTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    index_ = new StudyIndex(BuildIndex(0.05));
    ASSERT_FALSE(index_->empty());
  }
  static void TearDownTestSuite() {
    delete index_;
    index_ = nullptr;
  }

  static StudyIndex* index_;
};

StudyIndex* ServeLoadTest::index_ = nullptr;

/// A deterministic per-client request script. Ids are disjoint across
/// clients so lost or duplicated responses would be detectable; the mix
/// leans on lookup_user (the hot path) with district scans and summaries
/// sprinkled in.
std::vector<std::string> BuildScript(const StudyIndex& index, int client,
                                     int count) {
  std::vector<std::string> script;
  script.reserve(static_cast<size_t>(count));
  Rng rng(1000 + client);
  const auto& users = index.users();
  const auto& districts = index.districts();
  const int64_t id_base = static_cast<int64_t>(client) * 1'000'000;
  for (int i = 0; i < count; ++i) {
    const int64_t id = id_base + i;
    const int64_t roll = rng.UniformInt(0, 99);
    if (roll < 70 && !users.empty()) {
      const auto& entry = users[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(users.size()) - 1))];
      script.push_back(StrFormat(
          "{\"v\":1,\"id\":%lld,\"method\":\"lookup_user\","
          "\"params\":{\"user\":%lld}}",
          static_cast<long long>(id), static_cast<long long>(entry.user)));
    } else if (roll < 90 && !districts.empty()) {
      const auto& entry = districts[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(districts.size()) - 1))];
      // Korean-preset names are "State County" with single-token halves.
      const std::string& name = index.name(entry.name);
      size_t space = name.find(' ');
      std::string state = name.substr(0, space);
      std::string county =
          space == std::string::npos ? "" : name.substr(space + 1);
      script.push_back(StrFormat(
          "{\"v\":1,\"id\":%lld,\"method\":\"lookup_district\","
          "\"params\":{\"state\":\"%s\",\"county\":\"%s\",\"limit\":10}}",
          static_cast<long long>(id), obs::JsonEscape(state).c_str(),
          obs::JsonEscape(county).c_str()));
    } else {
      script.push_back(
          StrFormat("{\"v\":1,\"id\":%lld,\"method\":\"topk_summary\"}",
                    static_cast<long long>(id)));
    }
  }
  return script;
}

std::vector<std::vector<std::string>> BuildScripts(const StudyIndex& index,
                                                   int clients, int count) {
  std::vector<std::vector<std::string>> scripts;
  for (int c = 0; c < clients; ++c) {
    scripts.push_back(BuildScript(index, c, count));
  }
  return scripts;
}

/// What one closed-loop pass observed: every response classified, with
/// its latency from send to answer.
struct Tally {
  int64_t requests = 0;   ///< Lines sent.
  int64_t responses = 0;  ///< Lines answered.
  int64_t served = 0;     ///< "ok":true responses.
  int64_t shed = 0;       ///< Typed `overloaded` envelopes.
  int64_t expired = 0;    ///< Typed `deadline_exceeded` envelopes.
  int64_t errors = 0;     ///< Anything else, or a connection lost early.
  std::vector<int64_t> latency_us;         ///< Every response.
  std::vector<int64_t> served_latency_us;  ///< Served responses only.

  void Record(std::string_view response, Clock::time_point sent) {
    const int64_t us =
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              sent)
            .count();
    ++responses;
    latency_us.push_back(us);
    if (response.find("\"code\":\"overloaded\"") != std::string_view::npos) {
      ++shed;
    } else if (response.find("\"code\":\"deadline_exceeded\"") !=
               std::string_view::npos) {
      ++expired;
    } else if (response.find("\"ok\":true") != std::string_view::npos) {
      ++served;
      served_latency_us.push_back(us);
    } else {
      ++errors;
    }
  }

  void Merge(const Tally& other) {
    requests += other.requests;
    responses += other.responses;
    served += other.served;
    shed += other.shed;
    expired += other.expired;
    errors += other.errors;
    latency_us.insert(latency_us.end(), other.latency_us.begin(),
                      other.latency_us.end());
    served_latency_us.insert(served_latency_us.end(),
                             other.served_latency_us.begin(),
                             other.served_latency_us.end());
  }
};

int64_t P99(std::vector<int64_t> sample) {
  if (sample.empty()) return 0;
  std::sort(sample.begin(), sample.end());
  return sample[sample.size() * 99 / 100];
}

// --- Deadline sweep (DESIGN.md §15) ------------------------------------

/// One thread per script against `server`, each pipelining up to
/// `window` requests.
Tally RunInProcessLoad(Server& server,
                       const std::vector<std::vector<std::string>>& scripts,
                       size_t window) {
  struct Inflight {
    std::future<std::string> future;
    Clock::time_point sent;
  };
  std::vector<Tally> tallies(scripts.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < scripts.size(); ++c) {
    threads.emplace_back([&, c] {
      Tally& mine = tallies[c];
      std::deque<Inflight> inflight;
      auto drain_one = [&] {
        mine.Record(inflight.front().future.get(), inflight.front().sent);
        inflight.pop_front();
      };
      for (const std::string& line : scripts[c]) {
        if (inflight.size() >= window) drain_one();
        inflight.push_back({server.SubmitLine(line), Clock::now()});
        ++mine.requests;
      }
      while (!inflight.empty()) drain_one();
    });
  }
  for (std::thread& t : threads) t.join();
  Tally all;
  for (const Tally& tally : tallies) all.Merge(tally);
  return all;
}

/// Sweeps per-request budgets tight -> 10x -> none over the same scripts,
/// a fresh server per phase, and checks the exact contract: every
/// response is served or the typed expiry, client-observed expiries
/// reconcile with the scheduler, the tight budget expires requests and
/// no budget expires none. `options` must linger long enough for queueing
/// delay to be real. Returns the three phases.
std::array<Tally, 3> RunDeadlineSweep(const StudyIndex& index,
                                      const ServeOptions& options,
                                      int clients, int requests_per_client,
                                      size_t window, int64_t tight_ms) {
  const std::vector<std::vector<std::string>> base_scripts =
      BuildScripts(index, clients, requests_per_client);
  const int64_t budgets[] = {tight_ms, tight_ms * 10, 0};
  std::array<Tally, 3> phases;
  for (int p = 0; p < 3; ++p) {
    SCOPED_TRACE(budgets[p] > 0 ? StrFormat("deadline_ms %lld",
                                            static_cast<long long>(budgets[p]))
                                : std::string("no deadline"));
    std::vector<std::vector<std::string>> scripts = base_scripts;
    if (budgets[p] > 0) {
      // "deadline_ms" is a top-level request key: splice it in after '{'.
      const std::string field = StrFormat(
          "\"deadline_ms\":%lld,", static_cast<long long>(budgets[p]));
      for (auto& script : scripts) {
        for (std::string& line : script) line.insert(1, field);
      }
    }
    Server server(&index, options);
    phases[p] = RunInProcessLoad(server, scripts, window);
    server.Drain();
    const Tally& r = phases[p];
    EXPECT_EQ(r.requests,
              static_cast<int64_t>(clients) * requests_per_client);
    EXPECT_EQ(r.served + r.expired, r.requests)
        << "every response is ok or the typed deadline_exceeded envelope";
    EXPECT_EQ(r.errors + r.shed, 0);
    EXPECT_EQ(server.stats().deadline_exceeded, r.expired)
        << "client-observed expiries reconcile with the scheduler";
  }
  EXPECT_GT(phases[0].expired, 0) << "the tight budget expires requests";
  EXPECT_EQ(phases[2].expired, 0) << "no budget, no expiry";
  return phases;
}

// --- TCP front-end load (DESIGN.md §13) --------------------------------

/// One nonblocking loopback connection of the client fleet.
struct NetConn {
  int fd = -1;
  const std::vector<std::string>* script = nullptr;
  size_t next = 0;  ///< Next script line to send.
  std::deque<Clock::time_point> inflight;
  std::string in_buf;
  std::string out_buf;
  size_t out_off = 0;
  bool want_write = true;  ///< Current epoll interest includes EPOLLOUT.
  bool dead = false;
};

/// Drives one connection per script from a single epoll loop, each
/// keeping up to `window` requests in flight (closed loop: offered
/// concurrency is connections * window).
Tally RunNetLoad(uint16_t port,
                 const std::vector<std::vector<std::string>>& scripts,
                 size_t window) {
  Tally result;
  const size_t n = scripts.size();
  std::vector<NetConn> conns(n);
  const int ep = ::epoll_create1(0);
  if (ep < 0) {
    result.errors = static_cast<int64_t>(n);
    return result;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);

  size_t live = 0;
  for (size_t i = 0; i < n; ++i) {
    NetConn& conn = conns[i];
    conn.script = &scripts[i];
    conn.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (conn.fd < 0 ||
        (::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)) < 0 &&
         errno != EINPROGRESS)) {
      ++result.errors;
      conn.dead = true;
      if (conn.fd >= 0) ::close(conn.fd);
      conn.fd = -1;
      continue;
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.u64 = i;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, conn.fd, &ev);
    ++live;
  }

  auto top_up = [&](NetConn& conn) {
    while (conn.inflight.size() < window &&
           conn.next < conn.script->size()) {
      conn.out_buf += (*conn.script)[conn.next++];
      conn.out_buf += '\n';
      conn.inflight.push_back(Clock::now());
      ++result.requests;
    }
  };
  auto flush = [&](NetConn& conn) {
    while (conn.out_off < conn.out_buf.size()) {
      ssize_t written =
          ::send(conn.fd, conn.out_buf.data() + conn.out_off,
                 conn.out_buf.size() - conn.out_off, MSG_NOSIGNAL);
      if (written > 0) {
        conn.out_off += static_cast<size_t>(written);
      } else if (written < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        conn.dead = true;
        return;
      }
    }
    if (conn.out_off == conn.out_buf.size()) {
      conn.out_buf.clear();
      conn.out_off = 0;
    }
  };
  auto update_interest = [&](size_t i, NetConn& conn) {
    const bool wants = conn.out_off < conn.out_buf.size();
    if (wants == conn.want_write) return;
    conn.want_write = wants;
    epoll_event ev{};
    ev.events = EPOLLIN | (wants ? EPOLLOUT : 0u);
    ev.data.u64 = i;
    ::epoll_ctl(ep, EPOLL_CTL_MOD, conn.fd, &ev);
  };
  auto retire = [&](NetConn& conn) {
    ::epoll_ctl(ep, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    conn.fd = -1;
    --live;
  };

  std::vector<epoll_event> events(256);
  while (live > 0) {
    const int ready =
        ::epoll_wait(ep, events.data(), static_cast<int>(events.size()),
                     /*timeout_ms=*/10'000);
    if (ready <= 0) break;  // A stall fails the response-count check.
    for (int e = 0; e < ready; ++e) {
      NetConn& conn = conns[events[e].data.u64];
      if (conn.fd < 0) continue;
      if (events[e].events & EPOLLIN) {
        char buf[16 * 1024];
        for (;;) {
          ssize_t got = ::recv(conn.fd, buf, sizeof(buf), 0);
          if (got > 0) {
            conn.in_buf.append(buf, static_cast<size_t>(got));
          } else if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
          } else {
            conn.dead = true;  // EOF before all responses: counted below.
            break;
          }
        }
        size_t line_start = 0;
        for (size_t pos;
             (pos = conn.in_buf.find('\n', line_start)) != std::string::npos;
             line_start = pos + 1) {
          if (conn.inflight.empty()) {
            ++result.errors;  // An answer to nothing sent.
            continue;
          }
          result.Record(std::string_view(conn.in_buf.data() + line_start,
                                         pos - line_start),
                        conn.inflight.front());
          conn.inflight.pop_front();
        }
        conn.in_buf.erase(0, line_start);
      }
      if (!conn.dead) {
        top_up(conn);
        flush(conn);
      }
      if (conn.dead) {
        ++result.errors;
        retire(conn);
      } else if (conn.next == conn.script->size() && conn.inflight.empty() &&
                 conn.out_buf.empty()) {
        retire(conn);  // Script done, every response in: clean close.
      } else {
        update_interest(events[e].data.u64, conn);
      }
    }
  }
  for (NetConn& conn : conns) {
    if (conn.fd >= 0) retire(conn);
  }
  ::close(ep);
  return result;
}

/// One EpollServer, a baseline pass at window 1 and an overload pass at
/// window 4 (offered concurrency past the lookup tier's share of the
/// queue), checking the exact contract: one response per request, no
/// failures, shedding under overload, client-observed sheds reconciled
/// with the per-tier net and scheduler counters, every connection
/// accepted and closed. Returns the two passes.
std::array<Tally, 2> RunNetScenario(const StudyIndex& index,
                                    const ServeOptions& options, int conns,
                                    int requests_per_conn) {
  std::signal(SIGPIPE, SIG_IGN);
  std::array<Tally, 2> passes;
  Server server(&index, options);
  net::NetOptions net_options;
  net_options.max_pipeline = 64;
  net_options.max_connections = conns + 16;
  net::EpollServer net(&server, net_options);
  if (!net.Listen(0).ok() || !net.Start().ok()) {
    ADD_FAILURE() << "cannot start the TCP front end on loopback";
    return passes;
  }

  const std::vector<std::vector<std::string>> scripts =
      BuildScripts(index, conns, requests_per_conn);
  const int64_t expected = static_cast<int64_t>(conns) * requests_per_conn;
  const size_t windows[] = {1, 4};
  for (int p = 0; p < 2; ++p) {
    SCOPED_TRACE(p == 0 ? "baseline" : "2x overload");
    passes[p] = RunNetLoad(net.port(), scripts, windows[p]);
    EXPECT_EQ(passes[p].requests, expected);
    EXPECT_EQ(passes[p].responses, expected)
        << "every request got exactly one response";
    EXPECT_EQ(passes[p].errors + passes[p].expired, 0)
        << "no malformed or failed responses";
    // The loop reads this pass's closes in its own time. Start the next
    // pass once it has, or the two fleets together pass the accept cap.
    for (int i = 0; i < 10'000 && net.stats().live > 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  net.Stop();

  EXPECT_GT(passes[1].shed, 0) << "overload engaged the admission control";
  const SchedulerStats sched = server.stats();
  const net::NetStats netstats = net.stats();
  int64_t shed_by_tier_total = 0;
  for (int t = 0; t < kNumShedTiers; ++t) {
    shed_by_tier_total += sched.rejected_by_tier[t];
    EXPECT_EQ(netstats.shed_by_tier[t], sched.rejected_by_tier[t])
        << "net.shed.tier" << t << " reconciles with the scheduler";
  }
  EXPECT_EQ(passes[0].shed + passes[1].shed, shed_by_tier_total);
  EXPECT_EQ(shed_by_tier_total, sched.rejected_overload);
  EXPECT_EQ(netstats.accepted, 2 * conns);
  EXPECT_EQ(netstats.live, 0);
  return passes;
}

TEST_F(ServeLoadTest, DeadlineSweepReconcilesExactly) {
  ServeOptions options;
  options.workers = 2;
  // No batch fills, so each one lingers 5 ms: its first request has
  // waited past a 1 ms budget by dispatch.
  options.max_batch_size = 1024;
  options.batch_linger_us = 5'000;
  options.queue_capacity = 4096;
  RunDeadlineSweep(*index_, options, /*clients=*/4,
                   /*requests_per_client=*/100, /*window=*/16,
                   /*tight_ms=*/1);
}

TEST_F(ServeLoadTest, NetOverloadShedsAndReconcilesExactly) {
  ServeOptions options;
  options.workers = 1;
  // No batch fills, so the worker lingers 20 ms per batch while the
  // fleet's 8 x 4 requests meet a lookup threshold of 14 queued.
  options.max_batch_size = 1024;
  options.batch_linger_us = 20'000;
  options.queue_capacity = 16;
  options.tier1_fill_limit = 0.9;
  options.tier2_fill_limit = 0.5;
  RunNetScenario(*index_, options, /*conns=*/8, /*requests_per_conn=*/16);
}

// The timing checks: shedding keeps p99 flat instead of letting it grow
// with offered load, and the requests that survive a tight deadline do
// not pay the queueing the expired ones escaped. "Flat" is within 10x of
// the baseline, with a 1 ms floor under the baseline's p99.
TEST_F(ServeLoadTest, FiveHundredConnectionsKeepP99Flat) {
  if (std::getenv("STIR_SCALE_TESTS") == nullptr) {
    GTEST_SKIP() << "set STIR_SCALE_TESTS=1 to run the 500-connection pass";
  }
  constexpr int64_t kFloorUs = 1'000;
  const StudyIndex index = BuildIndex(1.0);  // The paper's 52,200 users.

  // One worker whose batches never fill lingers 20 ms per batch, long
  // enough for the loop to admit past the lookup threshold (921) while
  // 500 x 4 requests are offered. With four fast workers the loop thread
  // is the bottleneck and the queue never fills.
  ServeOptions net_options;
  net_options.workers = 1;
  net_options.max_batch_size = 1024;
  net_options.batch_linger_us = 20'000;
  net_options.queue_capacity = 1024;
  net_options.tier1_fill_limit = 0.9;
  net_options.tier2_fill_limit = 0.5;
  const std::array<Tally, 2> net = RunNetScenario(
      index, net_options, /*conns=*/500, /*requests_per_conn=*/40);
  const int64_t baseline_p99 = P99(net[0].latency_us);
  const int64_t overload_p99 = P99(net[1].latency_us);
  std::printf("500 connections: p99 %lld us at 1x, %lld us at 2x "
              "(%lld shed)\n",
              static_cast<long long>(baseline_p99),
              static_cast<long long>(overload_p99),
              static_cast<long long>(net[1].shed));
  EXPECT_LE(overload_p99, 10 * std::max(baseline_p99, kFloorUs));

  ServeOptions sweep_options;
  sweep_options.workers = 2;
  sweep_options.max_batch_size = 16;
  sweep_options.batch_linger_us = 2'000;
  sweep_options.queue_capacity = 4096;
  const std::array<Tally, 3> sweep = RunDeadlineSweep(
      index, sweep_options, /*clients=*/8, /*requests_per_client=*/1000,
      /*window=*/64, /*tight_ms=*/1);
  const int64_t tight_p99 = P99(sweep[0].served_latency_us);
  const int64_t free_p99 = P99(sweep[2].served_latency_us);
  std::printf("deadline sweep: survivor p99 %lld us at 1 ms (%lld expired), "
              "%lld us without a deadline\n",
              static_cast<long long>(tight_p99),
              static_cast<long long>(sweep[0].expired),
              static_cast<long long>(free_p99));
  EXPECT_LE(tight_p99, 10 * std::max(free_p99, kFloorUs));
}

}  // namespace
}  // namespace stir::serve
