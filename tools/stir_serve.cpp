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
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "core/study.h"
#include "core/study_config.h"
#include "geo/admin_db.h"
#include "infer/home_inferrer.h"
#include "infer/inference_index.h"
#include "io/corpus_reader.h"
#include "io/fault_fs.h"
#include "net/epoll_server.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "serve/study_index.h"
#include "stream/engine.h"
#include "twitter/api.h"
#include "twitter/dataset.h"

namespace {

using stir::geo::AdminDb;

/// One command-line flag (same declarative shape as stir_cli): name,
/// optional value placeholder (null marks a boolean), help line, binder.
struct Flag {
  const char* name;
  const char* value_name;
  const char* help;
  std::function<bool(const std::string& value)> bind;
};

void PrintHelp(const std::vector<Flag>& flags) {
  std::fprintf(stderr,
               "usage: stir_serve [flags]\n"
               "run the study once, then serve lookups over it "
               "(line-delimited JSON)\n\nflags:\n");
  size_t width = 0;
  for (const Flag& flag : flags) {
    size_t w = std::strlen(flag.name) +
               (flag.value_name != nullptr ? std::strlen(flag.value_name) + 1
                                           : 0);
    width = std::max(width, w);
  }
  for (const Flag& flag : flags) {
    std::string left = flag.name;
    if (flag.value_name != nullptr) {
      left += ' ';
      left += flag.value_name;
    }
    std::fprintf(stderr, "  --%-*s  %s\n", static_cast<int>(width),
                 left.c_str(), flag.help);
  }
  std::fprintf(stderr, "  --%-*s  %s\n", static_cast<int>(width), "help",
               "show this message and exit");
}

int ParseArgs(int argc, char** argv, const std::vector<Flag>& flags,
              bool* want_help) {
  *want_help = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      *want_help = true;
      return 0;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr,
                   "stir_serve: unexpected argument '%s' (flags only; try "
                   "--help)\n",
                   arg.c_str());
      return 2;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_inline_value = false;
    size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_inline_value = true;
    }
    const Flag* match = nullptr;
    for (const Flag& flag : flags) {
      if (name == flag.name) {
        match = &flag;
        break;
      }
    }
    if (match == nullptr) {
      std::fprintf(stderr, "stir_serve: unknown flag --%s (try --help)\n",
                   name.c_str());
      return 2;
    }
    if (match->value_name == nullptr) {
      if (has_inline_value) {
        std::fprintf(stderr, "stir_serve: --%s takes no value\n",
                     name.c_str());
        return 2;
      }
    } else if (!has_inline_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "stir_serve: --%s requires a value (%s)\n",
                     name.c_str(), match->value_name);
        return 2;
      }
      value = argv[++i];
    }
    if (!match->bind(value)) return 2;
  }
  return 0;
}

bool ParseInt64(const std::string& text, int64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') return false;
  *out = static_cast<int64_t>(v);
  return true;
}

bool ParseUInt64(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

bool BadValue(const char* flag, const char* expect) {
  std::fprintf(stderr, "stir_serve: --%s must be %s\n", flag, expect);
  return false;
}

const AdminDb* GazetteerByName(const std::string& name) {
  if (name == "world") return &AdminDb::WorldCities();
  if (name == "korean") return &AdminDb::KoreanDistricts();
  return nullptr;
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
  std::string users_path;
  std::string tweets_path;
  std::string corpus_path;
  std::string gazetteer = "korean";
  bool lenient_load = false;
  bool stdio_mode = false;
  bool tcp_mode = false;
  int64_t port = 0;
  std::string metrics_out;
  int64_t max_pipeline = 64;
  int64_t max_connections = 4096;
  int64_t drain_after = 0;
  bool stream_mode = false;
  int64_t epoch_size = 0;
  stir::serve::ServeOptions serve_options;
  stir::common::FaultInjectorOptions fault_options;
  stir::io::FaultFsOptions io_fault_options;
  bool degraded_on_corrupt = false;

  std::vector<Flag> flags = {
      {"users", "FILE", "input users TSV",
       [&](const std::string& v) { users_path = v; return true; }},
      {"tweets", "FILE", "input tweets TSV",
       [&](const std::string& v) { tweets_path = v; return true; }},
      {"corpus", "FILE",
       "input self-contained v3 arena corpus (alternative to "
       "--users/--tweets; format is sniffed from magic bytes)",
       [&](const std::string& v) { corpus_path = v; return true; }},
      {"gazetteer", "NAME", "gazetteer: korean | world (default korean)",
       [&](const std::string& v) {
         if (GazetteerByName(v) == nullptr) {
           return BadValue("gazetteer", "korean or world");
         }
         gazetteer = v;
         return true;
       }},
      {"lenient-load", nullptr,
       "quarantine malformed TSV rows instead of failing the load",
       [&](const std::string&) { lenient_load = true; return true; }},
      {"threads", "N", "study-build worker threads, >= 1 (default 1)",
       [&](const std::string& v) {
         int64_t n = 0;
         if (!ParseInt64(v, &n) || n < 1) {
           return BadValue("threads", ">= 1");
         }
         config.threads = static_cast<int>(n);
         return true;
       }},
      {"checkpoint-dir", "DIR",
       "durable geocode journal + study checkpoints in DIR",
       [&](const std::string& v) {
         config.durability.checkpoint_dir = v;
         return true;
       }},
      {"resume", nullptr,
       "resume from the checkpoint in --checkpoint-dir (fresh run if none)",
       [&](const std::string&) {
         config.durability.resume = true;
         return true;
       }},
      {"crash-after", "N",
       "hard-exit (status 42) when the Nth geocode lookup starts (testing)",
       [&](const std::string& v) {
         if (!ParseInt64(v, &config.fault.crash_after) ||
             config.fault.crash_after < 1) {
           return BadValue("crash-after", ">= 1");
         }
         return true;
       }},
      {"stream", nullptr,
       "incremental streaming mode: ingest the corpus through the stream "
       "engine and serve append_tweets (DESIGN.md §12)",
       [&](const std::string&) { stream_mode = true; return true; }},
      {"epoch-size", "N",
       "streaming auto-seal threshold in tweets; 0 = one seal at startup "
       "(default 0; requires --stream)",
       [&](const std::string& v) {
         if (!ParseInt64(v, &epoch_size) || epoch_size < 0) {
           return BadValue("epoch-size", ">= 0");
         }
         return true;
       }},
      {"stdio", nullptr,
       "serve stdin -> stdout, one request per line (deterministic)",
       [&](const std::string&) { stdio_mode = true; return true; }},
      {"port", "N",
       "serve loopback TCP on port N (0 picks one) until SIGINT/SIGTERM",
       [&](const std::string& v) {
         if (!ParseInt64(v, &port) || port < 0 || port > 65535) {
           return BadValue("port", "in [0, 65535]");
         }
         tcp_mode = true;
         return true;
       }},
      {"workers", "N", "serving worker threads, >= 1 (default 4)",
       [&](const std::string& v) {
         int64_t n = 0;
         if (!ParseInt64(v, &n) || n < 1) {
           return BadValue("workers", ">= 1");
         }
         serve_options.workers = static_cast<int>(n);
         return true;
       }},
      {"max-batch", "N", "max requests per micro-batch, >= 1 (default 16)",
       [&](const std::string& v) {
         int64_t n = 0;
         if (!ParseInt64(v, &n) || n < 1) {
           return BadValue("max-batch", ">= 1");
         }
         serve_options.max_batch_size = static_cast<int>(n);
         return true;
       }},
      {"batch-linger-us", "US",
       "wait up to US microseconds for a fuller batch (default 0)",
       [&](const std::string& v) {
         int64_t n = 0;
         if (!ParseInt64(v, &n) || n < 0) {
           return BadValue("batch-linger-us", ">= 0");
         }
         serve_options.batch_linger_us = n;
         return true;
       }},
      {"queue-capacity", "N",
       "admission queue bound; beyond it requests get 'overloaded' "
       "(default 1024)",
       [&](const std::string& v) {
         int64_t n = 0;
         if (!ParseInt64(v, &n) || n < 1) {
           return BadValue("queue-capacity", ">= 1");
         }
         serve_options.queue_capacity = static_cast<int>(n);
         return true;
       }},
      {"max-request-bytes", "N",
       "reject request lines longer than N bytes (default 65536)",
       [&](const std::string& v) {
         int64_t n = 0;
         if (!ParseInt64(v, &n) || n < 1) {
           return BadValue("max-request-bytes", ">= 1");
         }
         serve_options.max_request_bytes = static_cast<size_t>(n);
         return true;
       }},
      {"max-pipeline", "N",
       "per-connection pipelining window, >= 1 (default 64)",
       [&](const std::string& v) {
         if (!ParseInt64(v, &max_pipeline) || max_pipeline < 1) {
           return BadValue("max-pipeline", ">= 1");
         }
         return true;
       }},
      {"max-connections", "N",
       "accept at most N concurrent connections (default 4096)",
       [&](const std::string& v) {
         if (!ParseInt64(v, &max_connections) || max_connections < 1) {
           return BadValue("max-connections", ">= 1");
         }
         return true;
       }},
      {"tier1-fill", "P",
       "shed lookups/topk once the queue is P full, (0, 1] (default 1)",
       [&](const std::string& v) {
         if (!ParseDouble(v, &serve_options.tier1_fill_limit) ||
             serve_options.tier1_fill_limit <= 0.0 ||
             serve_options.tier1_fill_limit > 1.0) {
           return BadValue("tier1-fill", "in (0, 1]");
         }
         return true;
       }},
      {"tier2-fill", "P",
       "shed append_tweets once the queue is P full, (0, 1] (default 1)",
       [&](const std::string& v) {
         if (!ParseDouble(v, &serve_options.tier2_fill_limit) ||
             serve_options.tier2_fill_limit <= 0.0 ||
             serve_options.tier2_fill_limit > 1.0) {
           return BadValue("tier2-fill", "in (0, 1]");
         }
         return true;
       }},
      {"infer-fill", "P",
       "shed infer_user once the queue is P full, (0, 1] (default 1)",
       [&](const std::string& v) {
         if (!ParseDouble(v, &serve_options.infer_fill_limit) ||
             serve_options.infer_fill_limit <= 0.0 ||
             serve_options.infer_fill_limit > 1.0) {
           return BadValue("infer-fill", "in (0, 1]");
         }
         return true;
       }},
      {"infer-strategy", "NAME",
       "default infer_user strategy: spatial | diurnal | text "
       "(default diurnal)",
       [&](const std::string& v) {
         if (!stir::infer::StrategyFromString(
                 v, &serve_options.infer.default_strategy)) {
           return BadValue("infer-strategy", "spatial, diurnal or text");
         }
         return true;
       }},
      {"infer-abstain", "P",
       "infer_user abstains (answers 'low_confidence') below confidence P, "
       "[0, 1] (default 0.4)",
       [&](const std::string& v) {
         if (!ParseDouble(v, &serve_options.infer.abstain_threshold) ||
             serve_options.infer.abstain_threshold < 0.0 ||
             serve_options.infer.abstain_threshold > 1.0) {
           return BadValue("infer-abstain", "in [0, 1]");
         }
         return true;
       }},
      {"infer-night-weight", "N",
       "diurnal strategy weight on night-window GPS tweets, >= 1 "
       "(default 3)",
       [&](const std::string& v) {
         int64_t n = 0;
         if (!ParseInt64(v, &n) || n < 1) {
           return BadValue("infer-night-weight", ">= 1");
         }
         serve_options.infer.night_weight = n;
         return true;
       }},
      {"drain-after", "N",
       "begin a graceful drain after the Nth request line (testing hook)",
       [&](const std::string& v) {
         if (!ParseInt64(v, &drain_after) || drain_after < 0) {
           return BadValue("drain-after", ">= 0");
         }
         return true;
       }},
      {"serve-fault-rate", "P",
       "injected per-request 'unavailable' probability, [0, 1]",
       [&](const std::string& v) {
         if (!ParseDouble(v, &fault_options.error_rate) ||
             fault_options.error_rate < 0.0 ||
             fault_options.error_rate > 1.0) {
           return BadValue("serve-fault-rate", "in [0, 1]");
         }
         return true;
       }},
      {"serve-fault-seed", "N", "serving fault schedule seed",
       [&](const std::string& v) {
         if (!ParseUInt64(v, &fault_options.seed)) {
           return BadValue("serve-fault-seed", "a non-negative integer");
         }
         return true;
       }},
      {"deadline-ms", "N",
       "answer requests still queued N ms after admission with the "
       "retryable 'deadline_exceeded' envelope; per-request deadline_ms "
       "overrides (default 0 = none)",
       [&](const std::string& v) {
         int64_t n = 0;
         if (!ParseInt64(v, &n) || n < 0) {
           return BadValue("deadline-ms", ">= 0");
         }
         serve_options.default_deadline_ms = n;
         return true;
       }},
      {"degraded-on-corrupt", nullptr,
       "if the corpus fails verification, serve anyway: data methods "
       "answer the retryable 'data_corrupt' envelope, server_stats and "
       "index_info stay up (default: refuse to start)",
       [&](const std::string&) { degraded_on_corrupt = true; return true; }},
      {"io-fault-seed", "N", "storage fault schedule seed",
       [&](const std::string& v) {
         if (!ParseUInt64(v, &io_fault_options.seed)) {
           return BadValue("io-fault-seed", "a non-negative integer");
         }
         return true;
       }},
      {"io-fault-write-error-rate", "P",
       "injected per-write EIO probability, [0, 1]",
       [&](const std::string& v) {
         if (!ParseDouble(v, &io_fault_options.write_error_rate) ||
             io_fault_options.write_error_rate < 0.0 ||
             io_fault_options.write_error_rate > 1.0) {
           return BadValue("io-fault-write-error-rate", "in [0, 1]");
         }
         return true;
       }},
      {"io-fault-short-write-rate", "P",
       "injected per-write short-count probability, [0, 1]",
       [&](const std::string& v) {
         if (!ParseDouble(v, &io_fault_options.short_write_rate) ||
             io_fault_options.short_write_rate < 0.0 ||
             io_fault_options.short_write_rate > 1.0) {
           return BadValue("io-fault-short-write-rate", "in [0, 1]");
         }
         return true;
       }},
      {"io-fault-fsync-error-rate", "P",
       "injected per-fsync failure probability, [0, 1]",
       [&](const std::string& v) {
         if (!ParseDouble(v, &io_fault_options.fsync_error_rate) ||
             io_fault_options.fsync_error_rate < 0.0 ||
             io_fault_options.fsync_error_rate > 1.0) {
           return BadValue("io-fault-fsync-error-rate", "in [0, 1]");
         }
         return true;
       }},
      {"io-fault-eintr-rate", "P",
       "injected per-syscall EINTR probability, [0, 1]",
       [&](const std::string& v) {
         if (!ParseDouble(v, &io_fault_options.eintr_rate) ||
             io_fault_options.eintr_rate < 0.0 ||
             io_fault_options.eintr_rate > 1.0) {
           return BadValue("io-fault-eintr-rate", "in [0, 1]");
         }
         return true;
       }},
      {"io-fault-enospc-after", "BYTES",
       "simulated disk capacity: writes past BYTES fail ENOSPC (-1 = off)",
       [&](const std::string& v) {
         if (!ParseInt64(v, &io_fault_options.enospc_after_bytes)) {
           return BadValue("io-fault-enospc-after", "an integer");
         }
         return true;
       }},
      {"io-fault-page-flip-rate", "P",
       "injected per-window corpus corruption probability, [0, 1]",
       [&](const std::string& v) {
         if (!ParseDouble(v, &io_fault_options.page_flip_rate) ||
             io_fault_options.page_flip_rate < 0.0 ||
             io_fault_options.page_flip_rate > 1.0) {
           return BadValue("io-fault-page-flip-rate", "in [0, 1]");
         }
         return true;
       }},
      {"metrics-out", "FILE",
       "write a serve.* metrics JSON snapshot to FILE at shutdown",
       [&](const std::string& v) { metrics_out = v; return true; }},
  };

  bool want_help = false;
  int rc = ParseArgs(argc, argv, flags, &want_help);
  if (rc != 0) return rc;
  if (want_help) {
    PrintHelp(flags);
    return 0;
  }
  const bool tsv_in = !users_path.empty() || !tweets_path.empty();
  if (corpus_path.empty() == !tsv_in) {
    std::fprintf(stderr,
                 "stir_serve: exactly one input form is required: "
                 "--corpus FILE, or --users FILE with --tweets FILE\n");
    return 2;
  }
  if (tsv_in && (users_path.empty() || tweets_path.empty())) {
    std::fprintf(stderr, "stir_serve: --users and --tweets go together\n");
    return 2;
  }
  if (stdio_mode == tcp_mode) {
    std::fprintf(stderr,
                 "stir_serve: exactly one of --stdio / --port is required\n");
    return 2;
  }
  if (config.durability.resume && config.durability.checkpoint_dir.empty()) {
    std::fprintf(stderr, "stir_serve: --resume requires --checkpoint-dir\n");
    return 2;
  }
  if (epoch_size != 0 && !stream_mode) {
    std::fprintf(stderr, "stir_serve: --epoch-size requires --stream\n");
    return 2;
  }

  // Arm the storage fault layer before the first byte is read or
  // written, so the load itself runs under the schedule.
  if (io_fault_options.enabled()) {
    stir::io::FaultFs::Instance().Configure(io_fault_options);
  }

  // Load + run the study once; the index freezes the result.
  const AdminDb& db = *GazetteerByName(gazetteer);
  stir::io::CorpusSpec spec;
  spec.corpus_path = corpus_path;
  spec.users_path = users_path;
  spec.tweets_path = tweets_path;
  spec.tsv.strict = !lenient_load;
  auto reader = stir::io::CorpusReader::Open(spec);
  bool degraded = false;
  if (!reader.ok()) {
    if (degraded_on_corrupt) {
      // Quarantined start: the data plane is lost but the server comes
      // up anyway — data methods answer the retryable `data_corrupt`
      // envelope while server_stats/index_info give an operator a live
      // diagnosis surface (DESIGN.md §15).
      std::fprintf(stderr,
                   "stir_serve: load failed: %s\n"
                   "stir_serve: serving degraded — data methods answer "
                   "'data_corrupt'\n",
                   reader.status().ToString().c_str());
      degraded = true;
      stream_mode = false;
      serve_options.degraded_data = true;
    } else {
      std::fprintf(stderr, "stir_serve: load failed: %s\n",
                   reader.status().ToString().c_str());
      return 1;
    }
  }
  if (!degraded && reader->tsv_stats().quarantined() > 0) {
    std::fprintf(stderr, "stir_serve: lenient load quarantined %lld rows\n",
                 static_cast<long long>(reader->tsv_stats().quarantined()));
  }
  // The stream engine ingests row-oriented tweets; the batch study runs
  // off the reader's view.
  const stir::twitter::Dataset* dataset = nullptr;
  if (!degraded && stream_mode) {
    auto materialized = reader->Materialize();
    if (!materialized.ok()) {
      std::fprintf(stderr, "stir_serve: load failed: %s\n",
                   materialized.status().ToString().c_str());
      return 1;
    }
    dataset = *materialized;
  }
  stir::obs::MetricsRegistry metrics;
  serve_options.metrics = &metrics;

  std::unique_ptr<stir::stream::StreamEngine> engine;
  stir::serve::StudyIndex batch_index;
  stir::infer::InferenceIndex batch_infer_index;
  std::shared_ptr<const stir::serve::StudyIndex> stream_index;
  std::shared_ptr<const stir::infer::InferenceIndex> stream_infer_index;
  int64_t stream_generation = 0;
  if (stream_mode) {
    stir::stream::StreamOptions stream_options;
    stream_options.epoch_size = epoch_size;
    stream_options.durable_dir = config.durability.checkpoint_dir;
    stream_options.resume = config.durability.resume;
    stream_options.fsync = config.durability.fsync;
    // The engine shares the serve registry so stream.* counters land in
    // the --metrics-out snapshot alongside serve.*.
    config.obs.metrics = &metrics;
    engine = std::make_unique<stir::stream::StreamEngine>(&db, config,
                                                          stream_options);
    stir::Status status = engine->Open();
    if (!status.ok()) {
      std::fprintf(stderr, "stir_serve: stream engine open failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    // Pre-ingest the corpus in stream order: users in dataset order, then
    // tweets in time order carrying their dataset indices as fault keys,
    // so every sealed generation is byte-identical to a batch study over
    // the same prefix. A resumed engine skips whatever its journal
    // already replayed.
    const int64_t skip_tweets = engine->ingested_tweets();
    for (const stir::twitter::User& user : dataset->users()) {
      if (engine->HasUser(user.id)) continue;
      status = engine->AddUser(user);
      if (!status.ok()) break;
    }
    if (status.ok()) {
      stir::twitter::StreamingApi api(dataset);
      int64_t delivered = 0;
      api.Replay(
          [&](size_t dataset_index, const stir::twitter::Tweet& tweet) {
            if (!status.ok() || delivered++ < skip_tweets) return;
            status =
                engine->AddTweet(tweet, static_cast<int64_t>(dataset_index));
          });
    }
    if (!status.ok()) {
      std::fprintf(stderr, "stir_serve: stream ingest failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    engine->SealEpoch();
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
    if (stream_mode) {
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
    net_options.max_line_bytes = serve_options.max_request_bytes;
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
    if (!metrics_out.empty()) {
      std::ofstream out(metrics_out);
      if (out) {
        out << metrics.Snapshot().ToJson() << '\n';
      }
      if (!out) {
        std::fprintf(stderr, "stir_serve: cannot write %s\n",
                     metrics_out.c_str());
        exit_code = 1;
      } else {
        std::fprintf(stderr, "stir_serve: metrics written to %s\n",
                     metrics_out.c_str());
      }
    }
  }
  return exit_code;
}
