// stir_serve — query-serving front end over a finished study. It runs
// the pipeline once at startup (optionally resuming from a checkpoint
// directory), freezes the result into an immutable StudyIndex, and then
// serves the line-delimited JSON protocol (DESIGN.md §10):
//
//   stir_serve --users u.tsv --tweets t.tsv --stdio   < requests.jsonl
//   stir_serve --users u.tsv --tweets t.tsv --port 7878
//
// --stdio reads requests from stdin and writes responses to stdout in
// request order — deterministic, the smoke-test and scripting surface.
// --port serves the same protocol over loopback TCP until SIGINT or
// SIGTERM. Both modes run through the same net::EpollServer event loop
// (DESIGN.md §13) — stdio is just an adopted connection — so pipelining,
// tiered admission control, and graceful drain behave identically.
// Everything informational goes to stderr so stdout stays protocol-pure.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "common/fault.h"
#include "core/study.h"
#include "core/study_config.h"
#include "geo/admin_db.h"
#include "infer/home_inferrer.h"
#include "infer/inference_index.h"
#include "net/epoll_server.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "serve/study_index.h"
#include "stream/engine.h"

#include "front_end.h"

namespace {

using stir::geo::AdminDb;
using namespace stir::front_end;

constexpr const char* kProgram = "stir_serve";
constexpr const char* kLog = "stir_serve: ";

/// "in (0, 1]": a shed tier's share of the admission queue.
Flag::Bind FillLimit(double* out) {
  return [out](const std::string& v) {
    if (!ParseDouble(v, out) || *out <= 0.0 || *out > 1.0) {
      return std::string("in (0, 1]");
    }
    return std::string();
  };
}

/// Signal-to-drain plumbing: SIGINT/SIGTERM call RequestDrain, which is
/// async-signal-safe (atomic store + eventfd write). The handlers are
/// restored to SIG_DFL once the loop exits, so a second signal during a
/// stuck shutdown force-kills the process.
stir::net::EpollServer* g_drain_target = nullptr;

void HandleShutdownSignal(int) {
  if (g_drain_target != nullptr) g_drain_target->RequestDrain();
}

void InstallDrainHandlers(stir::net::EpollServer* target) {
  g_drain_target = target;
  struct sigaction action{};
  action.sa_handler = target != nullptr ? HandleShutdownSignal : SIG_DFL;
  sigemptyset(&action.sa_mask);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  if (target == nullptr) g_drain_target = nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  stir::StudyConfig config;
  CorpusInput input;
  IoFaults io_faults;
  Streaming stream;
  bool stdio_mode = false;
  bool tcp_mode = false;
  int64_t port = 0;
  std::string metrics_out;
  int64_t max_pipeline = 64;
  int64_t max_connections = 4096;
  int64_t drain_after = 0;
  stir::serve::ServeOptions serve_options;
  stir::common::FaultInjectorOptions fault_options;
  bool degraded_on_corrupt = false;

  Flags flags;
  input.AddFlags(&flags);
  flags.push_back({"threads", "N",
                   "study-build worker threads, >= 1 (default 1)",
                   AtLeast(&config.threads, 1)});
  AddCheckpointFlags(&flags, &config);
  stream.AddFlags(&flags,
                  "incremental streaming mode: ingest the corpus through the "
                  "stream engine and serve append_tweets (DESIGN.md §12)");
  flags.insert(
      flags.end(),
      {{"stdio", nullptr,
        "serve stdin -> stdout, one request per line (deterministic)",
        Switch(&stdio_mode)},
       {"port", "N",
        "serve loopback TCP on port N (0 picks one) until SIGINT/SIGTERM",
        [&](const std::string& v) {
          if (!ParseInt64(v, &port) || port < 0 || port > 65535) {
            return std::string("in [0, 65535]");
          }
          tcp_mode = true;
          return std::string();
        }},
       {"workers", "N", "serving worker threads, >= 1 (default 4)",
        AtLeast(&serve_options.workers, 1)},
       {"max-batch", "N", "max requests per micro-batch, >= 1 (default 16)",
        AtLeast(&serve_options.max_batch_size, 1)},
       {"batch-linger-us", "US",
        "wait up to US microseconds for a fuller batch (default 0)",
        AtLeast(&serve_options.batch_linger_us, 0)},
       {"queue-capacity", "N",
        "admission queue bound; beyond it requests get 'overloaded' "
        "(default 1024)",
        AtLeast(&serve_options.queue_capacity, 1)},
       {"max-request-bytes", "N",
        "reject request lines longer than N bytes (default 65536)",
        AtLeast(&serve_options.max_request_bytes, 1)},
       {"max-pipeline", "N",
        "per-connection pipelining window, >= 1 (default 64)",
        AtLeast(&max_pipeline, 1)},
       {"max-connections", "N",
        "accept at most N concurrent connections (default 4096)",
        AtLeast(&max_connections, 1)},
       {"tier1-fill", "P",
        "shed lookups/topk once the queue is P full, (0, 1] (default 1)",
        FillLimit(&serve_options.tier1_fill_limit)},
       {"tier2-fill", "P",
        "shed append_tweets once the queue is P full, (0, 1] (default 1)",
        FillLimit(&serve_options.tier2_fill_limit)},
       {"infer-fill", "P",
        "shed infer_user once the queue is P full, (0, 1] (default 1)",
        FillLimit(&serve_options.infer_fill_limit)},
       {"infer-strategy", "NAME",
        "default infer_user strategy: spatial | diurnal | text "
        "(default diurnal)",
        [&](const std::string& v) {
          if (!stir::infer::StrategyFromString(
                  v, &serve_options.infer.default_strategy)) {
            return std::string("spatial, diurnal or text");
          }
          return std::string();
        }},
       {"infer-abstain", "P",
        "infer_user abstains (answers 'low_confidence') below confidence "
        "P, [0, 1] (default 0.4)",
        Fraction(&serve_options.infer.abstain_threshold)},
       {"infer-night-weight", "N",
        "diurnal strategy weight on night-window GPS tweets, >= 1 "
        "(default 3)",
        AtLeast(&serve_options.infer.night_weight, 1)},
       {"drain-after", "N",
        "begin a graceful drain after the Nth request line (testing hook)",
        AtLeast(&drain_after, 0)},
       {"serve-fault-rate", "P",
        "injected per-request 'unavailable' probability, [0, 1]",
        Fraction(&fault_options.error_rate)},
       {"serve-fault-seed", "N", "serving fault schedule seed",
        Seed(&fault_options.seed)},
       {"deadline-ms", "N",
        "answer requests still queued N ms after admission with the "
        "retryable 'deadline_exceeded' envelope; per-request deadline_ms "
        "overrides (default 0 = none)",
        AtLeast(&serve_options.default_deadline_ms, 0)},
       {"degraded-on-corrupt", nullptr,
        "if the corpus fails verification, serve anyway: data methods "
        "answer the retryable 'data_corrupt' envelope, server_stats and "
        "index_info stay up (default: refuse to start)",
        Switch(&degraded_on_corrupt)}});
  io_faults.AddFlags(&flags);
  flags.push_back({"metrics-out", "FILE",
                   "write a serve.* metrics JSON snapshot to FILE at shutdown",
                   Text(&metrics_out)});
  if (int rc = ParseFlags(argc, argv, 1, flags, kProgram,
                          "run the study once, then serve lookups over it "
                          "(line-delimited JSON)");
      rc >= 0) {
    return rc;
  }
  if (!input.Check(kProgram)) return 2;
  if (stdio_mode == tcp_mode) {
    std::fprintf(stderr,
                 "stir_serve: exactly one of --stdio / --port is required\n");
    return 2;
  }
  if (!CheckCheckpointFlags(kProgram, config) || !stream.Check(kProgram)) {
    return 2;
  }

  io_faults.Arm();
  // Load + run the study once; the index freezes the result.
  const AdminDb& db = input.db();
  auto reader = input.Open(kLog);
  bool degraded = false;
  if (!reader.ok()) {
    Fail(kLog, "load failed", reader.status());
    if (!degraded_on_corrupt) return 1;
    // Quarantined start: the data plane is lost but the server comes up
    // anyway — data methods answer the retryable `data_corrupt` envelope
    // while server_stats/index_info give an operator a live diagnosis
    // surface (DESIGN.md §15).
    std::fprintf(stderr, "stir_serve: serving degraded — data methods "
                         "answer 'data_corrupt'\n");
    degraded = true;
    stream.enabled = false;
    serve_options.degraded_data = true;
  }
  stir::obs::MetricsRegistry metrics;
  serve_options.metrics = &metrics;

  std::unique_ptr<stir::stream::StreamEngine> engine;
  stir::serve::StudyIndex batch_index;
  stir::infer::InferenceIndex batch_infer_index;
  std::shared_ptr<const stir::serve::StudyIndex> stream_index;
  std::shared_ptr<const stir::infer::InferenceIndex> stream_infer_index;
  int64_t stream_generation = 0;
  if (stream.enabled) {
    // The engine shares the serve registry so stream.* counters land in
    // the --metrics-out snapshot alongside serve.*.
    config.obs.metrics = &metrics;
    engine = stream.Open(reader->view(), db, config, kLog);
    if (engine == nullptr) return 1;
    stream_index = engine->CurrentIndex();
    stream_generation = engine->generation();
    serve_options.stream = engine.get();
    // Seed generation; AttachScheduler below swaps the live one in and
    // keeps it advancing at every seal.
    stream_infer_index = engine->CurrentInferIndex();
    serve_options.infer_index = stream_infer_index.get();
    std::fprintf(stderr,
                 "stir_serve: streaming index ready — generation %lld, "
                 "%zu users, %zu districts, %lld bytes\n",
                 static_cast<long long>(stream_generation),
                 stream_index->user_count(), stream_index->district_count(),
                 static_cast<long long>(stream_index->MemoryBytes()));
  } else if (degraded) {
    // batch_index stays empty; degraded_data answers the data plane.
    std::fprintf(stderr, "stir_serve: degraded index — 0 users\n");
  } else {
    stir::core::CorrelationStudy study(&db, config);
    stir::core::StudyResult result = study.Run(reader->view());
    if (result.incomplete) {
      std::fprintf(stderr,
                   "stir_serve: study did not complete; refusing to serve\n");
      return 1;
    }
    batch_index = stir::serve::StudyIndex::Build(result, db);
    // The inference twin reads the same view but only tweet evidence —
    // never profile strings (DESIGN.md §16).
    batch_infer_index = stir::infer::InferenceIndex::Build(reader->view(), db);
    serve_options.infer_index = &batch_infer_index;
    std::fprintf(stderr,
                 "stir_serve: index ready — %zu users, %zu districts, "
                 "%lld bytes\n",
                 batch_index.user_count(), batch_index.district_count(),
                 static_cast<long long>(batch_index.MemoryBytes()));
  }

  stir::common::FaultInjector fault_injector(fault_options);
  if (fault_injector.enabled()) {
    serve_options.fault_injector = &fault_injector;
  }

  int exit_code = 0;
  {
    std::unique_ptr<stir::serve::Server> server;
    if (stream.enabled) {
      server = std::make_unique<stir::serve::Server>(
          stream_index, stream_generation, serve_options);
      engine->AttachScheduler(&server->scheduler());
    } else {
      server = std::make_unique<stir::serve::Server>(&batch_index,
                                                     serve_options);
    }
    std::signal(SIGPIPE, SIG_IGN);  // Broken peers surface as EPIPE.
    stir::net::NetOptions net_options;
    net_options.max_pipeline = static_cast<int>(max_pipeline);
    net_options.max_connections = static_cast<int>(max_connections);
    net_options.drain_after_lines = drain_after;
    net_options.metrics = &metrics;
    stir::net::EpollServer net(server.get(), net_options);
    if (stdio_mode) {
      stir::Status status = net.AdoptStdio();
      if (!status.ok()) {
        std::fprintf(stderr, "stir_serve: %s\n", status.ToString().c_str());
        return 1;
      }
    } else {
      stir::Status status = net.Listen(static_cast<uint16_t>(port));
      if (!status.ok()) {
        std::fprintf(stderr, "stir_serve: %s\n", status.ToString().c_str());
        return 1;
      }
      // The port line is the startup handshake — scripts wait for it.
      std::fprintf(stderr, "stir_serve: listening on 127.0.0.1:%u\n",
                   net.port());
    }
    InstallDrainHandlers(&net);
    net.Run();  // Returns once every connection is flushed and closed.
    InstallDrainHandlers(nullptr);
    const stir::net::NetStats net_stats = net.stats();
    if (stdio_mode) {
      std::fprintf(stderr, "stir_serve: served %lld requests\n",
                   static_cast<long long>(net_stats.responses_out));
    } else {
      std::fprintf(stderr, "stir_serve: drained after %lld connections\n",
                   static_cast<long long>(net_stats.accepted));
    }
    if (net_stats.drain_micros >= 0) {
      std::fprintf(stderr, "stir_serve: graceful drain took %lld us\n",
                   static_cast<long long>(net_stats.drain_micros));
    }
    if (!metrics_out.empty() &&
        !Export(kLog, "metrics", metrics_out, metrics.Snapshot().ToJson())) {
      exit_code = 1;
    }
  }
  return exit_code;
}
