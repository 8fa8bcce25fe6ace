// stir — command-line front end for the library. The workflow a
// downstream user runs without writing C++:
//
//   stir generate --preset korean --scale 0.1 --users u.tsv --tweets t.tsv
//   stir study    --users u.tsv --tweets t.tsv --report-dir out/
//   stir study    --users u.tsv --tweets t.tsv --metrics-out metrics.json
//   stir infer    --corpus corpus.stir
//   stir audit    < locations.txt
//
// generate: synthesize a corpus (Korean crawl or Lady Gaga Search-API
//           preset) and persist it as TSV.
// study:    run the paper's full pipeline on a TSV corpus, print the
//           funnel + group table, optionally export plotting CSVs, a
//           versioned JSON report, pipeline metrics, and a stage trace.
// infer:    predict home districts from tweet evidence alone and score
//           the predictions against the corpus's ground-truth sidecar.
// audit:    classify free-text profile locations from stdin.
//
// Flags are declared in per-command tables (see StudyFlags etc.) that
// bind directly onto stir::StudyConfig; --help output is generated from
// the same tables, and unknown flags are rejected with exit code 2.

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/report.h"
#include "core/study.h"
#include "core/study_config.h"
#include "geo/admin_db.h"
#include "infer/eval.h"
#include "infer/home_inferrer.h"
#include "infer/inference_index.h"
#include "io/corpus.h"
#include "io/corpus_reader.h"
#include "io/fault_fs.h"
#include "io/truth_sidecar.h"
#include "obs/metrics.h"
#include "stream/engine.h"
#include "text/location_parser.h"
#include "twitter/api.h"
#include "twitter/generator.h"

namespace {

using stir::geo::AdminDb;

// ---------------------------------------------------------------------------
// Declarative flag table

/// One command-line flag: its name, an optional value placeholder (null
/// for booleans), the --help line, and a binder that parses the value
/// into whatever the command's config object is. The binder returns
/// false (after printing its own diagnostic) on a bad value.
struct Flag {
  const char* name;        ///< Without the leading "--".
  const char* value_name;  ///< e.g. "N"; nullptr marks a boolean flag.
  const char* help;
  std::function<bool(const std::string& value)> bind;
};

void PrintHelp(const char* command, const char* summary,
               const std::vector<Flag>& flags) {
  std::fprintf(stderr, "usage: stir_cli %s [flags]\n%s\n\nflags:\n", command,
               summary);
  size_t width = 0;
  for (const Flag& flag : flags) {
    size_t w = std::strlen(flag.name) +
               (flag.value_name != nullptr
                    ? std::strlen(flag.value_name) + 1
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

/// Parses argv[first..) against the flag table. Accepts "--name value"
/// and "--name=value". Returns 0 on success, 2 on any error (unknown
/// flag, missing value, bad value — diagnostics go to stderr), and sets
/// `*want_help` when --help/-h was seen (caller prints help, exits 0).
int ParseArgs(int argc, char** argv, int first,
              const std::vector<Flag>& flags, const char* command,
              bool* want_help) {
  *want_help = false;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      *want_help = true;
      return 0;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr,
                   "stir_cli %s: unexpected argument '%s' (flags only; try "
                   "--help)\n",
                   command, arg.c_str());
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
      std::fprintf(stderr, "stir_cli %s: unknown flag --%s (try --help)\n",
                   command, name.c_str());
      return 2;
    }
    if (match->value_name == nullptr) {
      if (has_inline_value) {
        std::fprintf(stderr, "stir_cli %s: --%s takes no value\n", command,
                     name.c_str());
        return 2;
      }
    } else if (!has_inline_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "stir_cli %s: --%s requires a value (%s)\n",
                     command, name.c_str(), match->value_name);
        return 2;
      }
      value = argv[++i];
    }
    if (!match->bind(value)) return 2;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Value parsers (strict: the whole token must consume, unlike atoi)

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

bool BadValue(const char* command, const char* flag, const char* expect) {
  std::fprintf(stderr, "stir_cli %s: --%s must be %s\n", command, flag,
               expect);
  return false;
}

const AdminDb* GazetteerByName(const std::string& name) {
  if (name == "world") return &AdminDb::WorldCities();
  if (name == "korean") return &AdminDb::KoreanDistricts();
  return nullptr;
}

stir::Status WriteTextFile(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  if (!out) return stir::Status::IOError("cannot open for write: " + path);
  out << body;
  if (!body.empty() && body.back() != '\n') out << '\n';
  if (!out) return stir::Status::IOError("write failed: " + path);
  return stir::Status::OK();
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  stir_cli generate [flags]   synthesize a TSV corpus\n"
               "  stir_cli study    [flags]   run the correlation study\n"
               "  stir_cli infer    [flags]   infer home districts, score "
               "vs ground truth\n"
               "  stir_cli audit    [flags]   classify stdin locations\n"
               "run 'stir_cli <command> --help' for the command's flags\n");
  return 2;
}

// ---------------------------------------------------------------------------
// generate

int RunGenerate(int argc, char** argv) {
  std::string preset = "korean";
  double scale = 0.1;
  bool has_seed = false;
  uint64_t seed = 0;
  std::string users_path;
  std::string tweets_path;
  std::string corpus_path;
  double night_home_bias = 0.0;
  bool no_truth = false;

  const char* cmd = "generate";
  std::vector<Flag> flags = {
      {"preset", "NAME", "corpus preset: korean | ladygaga (default korean)",
       [&](const std::string& v) {
         if (v != "korean" && v != "ladygaga") {
           return BadValue(cmd, "preset", "korean or ladygaga");
         }
         preset = v;
         return true;
       }},
      {"scale", "S", "corpus scale factor, > 0 (default 0.1)",
       [&](const std::string& v) {
         if (!ParseDouble(v, &scale) || scale <= 0.0) {
           return BadValue(cmd, "scale", "a number > 0");
         }
         return true;
       }},
      {"seed", "N", "generator seed (default: preset's)",
       [&](const std::string& v) {
         if (!ParseUInt64(v, &seed)) {
           return BadValue(cmd, "seed", "a non-negative integer");
         }
         has_seed = true;
         return true;
       }},
      {"users", "FILE", "output TSV for users",
       [&](const std::string& v) { users_path = v; return true; }},
      {"tweets", "FILE", "output TSV for tweets",
       [&](const std::string& v) { tweets_path = v; return true; }},
      {"corpus", "FILE",
       "output a self-contained v3 arena corpus instead of TSV (streamed: "
       "generator memory stays O(users))",
       [&](const std::string& v) { corpus_path = v; return true; }},
      {"night-home-bias", "P",
       "probability a night-window tweet is redirected to the user's home "
       "district, [0, 1] (default 0 = historical byte-identical corpora)",
       [&](const std::string& v) {
         if (!ParseDouble(v, &night_home_bias) || night_home_bias < 0.0 ||
             night_home_bias > 1.0) {
           return BadValue(cmd, "night-home-bias", "in [0, 1]");
         }
         return true;
       }},
      {"no-truth", nullptr,
       "skip the <corpus>.truth ground-truth sidecar (written by default "
       "with --corpus so `stir_cli infer` can score without regenerating)",
       [&](const std::string&) {
         no_truth = true;
         return true;
       }},
  };

  bool want_help = false;
  int rc = ParseArgs(argc, argv, 2, flags, cmd, &want_help);
  if (rc != 0) return rc;
  if (want_help) {
    PrintHelp(cmd,
              "synthesize a study corpus and persist it as TSV or a v3 "
              "arena corpus",
              flags);
    return 0;
  }
  const bool tsv_out = !users_path.empty() || !tweets_path.empty();
  if (corpus_path.empty() == !tsv_out) {
    std::fprintf(stderr,
                 "stir_cli %s: exactly one output form is required: "
                 "--corpus FILE, or --users FILE with --tweets FILE\n",
                 cmd);
    return 2;
  }
  if (tsv_out && (users_path.empty() || tweets_path.empty())) {
    std::fprintf(stderr,
                 "stir_cli %s: --users and --tweets go together\n", cmd);
    return 2;
  }

  const AdminDb& db = preset == "ladygaga" ? AdminDb::WorldCities()
                                           : AdminDb::KoreanDistricts();
  stir::twitter::DatasetGeneratorOptions options =
      preset == "ladygaga"
          ? stir::twitter::DatasetGenerator::LadyGagaConfig(scale)
          : stir::twitter::DatasetGenerator::KoreanConfig(scale);
  if (has_seed) options.seed = seed;
  options.mobility.night_home_bias = night_home_bias;
  stir::twitter::DatasetGenerator generator(&db, options);
  if (!corpus_path.empty()) {
    // Out-of-core path: users and tweets stream straight into the arena
    // writer, which spills tweet columns to disk as it goes. Ground truth
    // streams into the sidecar the same way (one record per user).
    stir::io::CorpusWriter writer(corpus_path);
    std::optional<stir::io::TruthSidecarWriter> truth;
    if (!no_truth) {
      truth.emplace(stir::io::TruthSidecarPath(corpus_path));
    }
    auto info = generator.GenerateToCorpus(&writer,
                                           truth ? &*truth : nullptr);
    stir::StatusOr<stir::io::CorpusWriteStats> stats =
        info.ok() ? writer.Finish()
                  : stir::StatusOr<stir::io::CorpusWriteStats>(info.status());
    if (!stats.ok()) {
      std::fprintf(stderr, "corpus write failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    if (truth) {
      stir::Status truth_status = truth->Finish();
      if (!truth_status.ok()) {
        std::fprintf(stderr, "truth sidecar write failed: %s\n",
                     truth_status.ToString().c_str());
        return 1;
      }
    }
    std::printf("wrote %lld users (%lld tweets, %lld materialized, %lld GPS) "
                "to %s (%lld bytes%s)\n",
                static_cast<long long>(stats->users),
                static_cast<long long>(stats->total_tweets),
                static_cast<long long>(stats->tweets),
                static_cast<long long>(stats->gps_tweets),
                corpus_path.c_str(),
                static_cast<long long>(stats->file_bytes),
                stats->grouped ? ", grouped" : "");
    if (truth) {
      std::printf("wrote %lld truth records to %s\n",
                  static_cast<long long>(truth->record_count()),
                  stir::io::TruthSidecarPath(corpus_path).c_str());
    }
    return 0;
  }
  stir::twitter::GeneratedData data = generator.Generate();
  stir::Status status = data.dataset.SaveTsv(users_path, tweets_path);
  if (!status.ok()) {
    std::fprintf(stderr, "save failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu users (%lld tweets, %lld materialized, %lld GPS) "
              "to %s / %s\n",
              data.dataset.users().size(),
              static_cast<long long>(data.dataset.total_tweet_count()),
              static_cast<long long>(data.dataset.tweets().size()),
              static_cast<long long>(data.dataset.gps_tweet_count()),
              users_path.c_str(), tweets_path.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// study

int RunStudy(int argc, char** argv) {
  stir::StudyConfig config;
  std::string users_path;
  std::string tweets_path;
  std::string corpus_path;
  std::string gazetteer = "korean";
  std::string report_dir;
  int report_schema = stir::core::kReportSchemaVersion;
  std::string metrics_out;
  std::string trace_out;

  const char* cmd = "study";
  bool lenient_load = false;
  bool stream_mode = false;
  int64_t epoch_size = 0;
  stir::io::FaultFsOptions io_fault_options;
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
           return BadValue(cmd, "gazetteer", "korean or world");
         }
         gazetteer = v;
         return true;
       }},
      {"report-dir", "DIR",
       "write funnel/groups/users CSVs + report.json into DIR",
       [&](const std::string& v) { report_dir = v; return true; }},
      {"report-schema", "N", "report.json schema version: 1 | 2 (default 2)",
       [&](const std::string& v) {
         int64_t n = 0;
         if (!ParseInt64(v, &n) || n < 1 ||
             n > stir::core::kReportSchemaVersion) {
           return BadValue(cmd, "report-schema", "1 or 2");
         }
         report_schema = static_cast<int>(n);
         return true;
       }},
      {"xml-pipeline", nullptr,
       "route geocoding through the faithful XML serialize/parse path",
       [&](const std::string&) {
         config.refinement.faithful_xml_pipeline = true;
         return true;
       }},
      {"no-text-fallback", nullptr,
       "disable degraded-mode text salvage of faulted geocodes",
       [&](const std::string&) {
         config.refinement.degraded_text_fallback = false;
         return true;
       }},
      {"threads", "N", "worker threads, >= 1 (default 1 = serial)",
       [&](const std::string& v) {
         int64_t n = 0;
         if (!ParseInt64(v, &n) || n < 1) {
           return BadValue(cmd, "threads", ">= 1");
         }
         config.threads = static_cast<int>(n);
         return true;
       }},
      {"tie-break", "RULE",
       "grouping tie rule: lexicographic | reverse (ablation knob)",
       [&](const std::string& v) {
         if (v == "lexicographic") {
           config.tie_break = stir::core::TieBreak::kLexicographic;
         } else if (v == "reverse") {
           config.tie_break = stir::core::TieBreak::kReverseLexicographic;
         } else {
           return BadValue(cmd, "tie-break", "lexicographic or reverse");
         }
         return true;
       }},
      {"geocode-quota", "N",
       "geocoder lookup quota; -1 = unlimited (default)",
       [&](const std::string& v) {
         if (!ParseInt64(v, &config.geocoder.quota) ||
             config.geocoder.quota < -1) {
           return BadValue(cmd, "geocode-quota", ">= -1");
         }
         return true;
       }},
      {"fault-rate", "P", "injected geocoder fault probability, [0, 1]",
       [&](const std::string& v) {
         if (!ParseDouble(v, &config.fault.error_rate) ||
             config.fault.error_rate < 0.0 || config.fault.error_rate > 1.0) {
           return BadValue(cmd, "fault-rate", "in [0, 1]");
         }
         return true;
       }},
      {"fault-seed", "N", "fault schedule seed",
       [&](const std::string& v) {
         if (!ParseUInt64(v, &config.fault.seed)) {
           return BadValue(cmd, "fault-seed", "a non-negative integer");
         }
         return true;
       }},
      {"retry-max", "N", "max geocode attempts per lookup, >= 1",
       [&](const std::string& v) {
         int64_t n = 0;
         if (!ParseInt64(v, &n) || n < 1) {
           return BadValue(cmd, "retry-max", ">= 1");
         }
         config.retry.max_attempts = static_cast<int>(n);
         return true;
       }},
      {"retry-base-ms", "MS", "base simulated backoff per retry, >= 0",
       [&](const std::string& v) {
         if (!ParseInt64(v, &config.retry.base_backoff_ms) ||
             config.retry.base_backoff_ms < 0) {
           return BadValue(cmd, "retry-base-ms", ">= 0");
         }
         return true;
       }},
      {"metrics-out", "FILE",
       "collect pipeline metrics, write JSON snapshot to FILE",
       [&](const std::string& v) {
         metrics_out = v;
         config.obs.enable_metrics = true;
         return true;
       }},
      {"trace-out", "FILE",
       "record stage spans, write Chrome trace_event JSON to FILE",
       [&](const std::string& v) {
         trace_out = v;
         config.obs.enable_trace = true;
         return true;
       }},
      {"trace-real-time", nullptr,
       "time spans with a real clock instead of the deterministic one",
       [&](const std::string&) {
         config.obs.real_time_trace = true;
         return true;
       }},
      {"no-geocode-spans", nullptr,
       "omit per-lookup geocode spans (keep stage spans only)",
       [&](const std::string&) {
         config.obs.trace_geocode_calls = false;
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
      {"checkpoint-every", "N",
       "snapshot refinement progress every N users per shard (default 64)",
       [&](const std::string& v) {
         if (!ParseInt64(v, &config.durability.checkpoint_every_users) ||
             config.durability.checkpoint_every_users < 1) {
           return BadValue(cmd, "checkpoint-every", ">= 1");
         }
         return true;
       }},
      {"crash-after", "N",
       "hard-exit (status 42) when the Nth geocode lookup starts (testing)",
       [&](const std::string& v) {
         if (!ParseInt64(v, &config.fault.crash_after) ||
             config.fault.crash_after < 1) {
           return BadValue(cmd, "crash-after", ">= 1");
         }
         return true;
       }},
      {"lenient-load", nullptr,
       "quarantine malformed TSV rows instead of failing the load",
       [&](const std::string&) {
         lenient_load = true;
         return true;
       }},
      {"stream", nullptr,
       "run the study through the incremental stream engine instead of "
       "the batch pipeline (byte-identical output; DESIGN.md §12)",
       [&](const std::string&) {
         stream_mode = true;
         return true;
       }},
      {"epoch-size", "N",
       "streaming auto-seal threshold in tweets; 0 seals once at the end "
       "(default 0; requires --stream)",
       [&](const std::string& v) {
         if (!ParseInt64(v, &epoch_size) || epoch_size < 0) {
           return BadValue(cmd, "epoch-size", ">= 0");
         }
         return true;
       }},
      {"io-fault-seed", "N", "storage fault schedule seed",
       [&](const std::string& v) {
         if (!ParseUInt64(v, &io_fault_options.seed)) {
           return BadValue(cmd, "io-fault-seed", "a non-negative integer");
         }
         return true;
       }},
      {"io-fault-write-error-rate", "P",
       "injected per-write EIO probability, [0, 1]",
       [&](const std::string& v) {
         if (!ParseDouble(v, &io_fault_options.write_error_rate) ||
             io_fault_options.write_error_rate < 0.0 ||
             io_fault_options.write_error_rate > 1.0) {
           return BadValue(cmd, "io-fault-write-error-rate", "in [0, 1]");
         }
         return true;
       }},
      {"io-fault-short-write-rate", "P",
       "injected per-write short-count probability, [0, 1] (always "
       "recovered by the write-all loops; byte-identical output)",
       [&](const std::string& v) {
         if (!ParseDouble(v, &io_fault_options.short_write_rate) ||
             io_fault_options.short_write_rate < 0.0 ||
             io_fault_options.short_write_rate > 1.0) {
           return BadValue(cmd, "io-fault-short-write-rate", "in [0, 1]");
         }
         return true;
       }},
      {"io-fault-fsync-error-rate", "P",
       "injected per-fsync failure probability, [0, 1]",
       [&](const std::string& v) {
         if (!ParseDouble(v, &io_fault_options.fsync_error_rate) ||
             io_fault_options.fsync_error_rate < 0.0 ||
             io_fault_options.fsync_error_rate > 1.0) {
           return BadValue(cmd, "io-fault-fsync-error-rate", "in [0, 1]");
         }
         return true;
       }},
      {"io-fault-eintr-rate", "P",
       "injected per-syscall EINTR probability, [0, 1] (always recovered "
       "by the retry loops; byte-identical output)",
       [&](const std::string& v) {
         if (!ParseDouble(v, &io_fault_options.eintr_rate) ||
             io_fault_options.eintr_rate < 0.0 ||
             io_fault_options.eintr_rate > 1.0) {
           return BadValue(cmd, "io-fault-eintr-rate", "in [0, 1]");
         }
         return true;
       }},
      {"io-fault-enospc-after", "BYTES",
       "simulated disk capacity: writes past BYTES fail ENOSPC (-1 = off)",
       [&](const std::string& v) {
         if (!ParseInt64(v, &io_fault_options.enospc_after_bytes)) {
           return BadValue(cmd, "io-fault-enospc-after", "an integer");
         }
         return true;
       }},
      {"io-fault-page-flip-rate", "P",
       "injected per-window corpus corruption probability, [0, 1] "
       "(affected users drop into funnel.drop.corrupt_window)",
       [&](const std::string& v) {
         if (!ParseDouble(v, &io_fault_options.page_flip_rate) ||
             io_fault_options.page_flip_rate < 0.0 ||
             io_fault_options.page_flip_rate > 1.0) {
           return BadValue(cmd, "io-fault-page-flip-rate", "in [0, 1]");
         }
         return true;
       }},
  };

  bool want_help = false;
  int rc = ParseArgs(argc, argv, 2, flags, cmd, &want_help);
  if (rc != 0) return rc;
  if (want_help) {
    PrintHelp(cmd, "run the paper's full pipeline on a corpus", flags);
    return 0;
  }
  const bool tsv_in = !users_path.empty() || !tweets_path.empty();
  if (corpus_path.empty() == !tsv_in) {
    std::fprintf(stderr,
                 "stir_cli %s: exactly one input form is required: "
                 "--corpus FILE, or --users FILE with --tweets FILE\n",
                 cmd);
    return 2;
  }
  if (tsv_in && (users_path.empty() || tweets_path.empty())) {
    std::fprintf(stderr, "stir_cli %s: --users and --tweets go together\n",
                 cmd);
    return 2;
  }
  if (config.durability.resume && config.durability.checkpoint_dir.empty()) {
    std::fprintf(stderr, "stir_cli %s: --resume requires --checkpoint-dir\n",
                 cmd);
    return 2;
  }
  if (epoch_size != 0 && !stream_mode) {
    std::fprintf(stderr, "stir_cli %s: --epoch-size requires --stream\n",
                 cmd);
    return 2;
  }

  // With --metrics-out the CLI owns the registry (instead of letting Run
  // create a per-run one) so loader-side counters like
  // io.dataset.quarantined land in the exported snapshot too.
  stir::obs::MetricsRegistry cli_metrics;
  if (config.obs.enable_metrics) config.obs.metrics = &cli_metrics;

  // Arm the storage fault layer before the first byte is read or
  // written, so the load and every journal/report write run under the
  // schedule.
  if (io_fault_options.enabled()) {
    stir::io::FaultFs::Instance().Configure(io_fault_options);
  }

  const AdminDb& db = *GazetteerByName(gazetteer);
  stir::io::CorpusSpec spec;
  spec.corpus_path = corpus_path;
  spec.users_path = users_path;
  spec.tweets_path = tweets_path;
  spec.tsv.strict = !lenient_load;
  auto reader = stir::io::CorpusReader::Open(spec);
  if (!reader.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 reader.status().ToString().c_str());
    return 1;
  }
  const stir::twitter::Dataset::TsvLoadStats& load_stats =
      reader->tsv_stats();
  if (load_stats.quarantined() > 0) {
    std::fprintf(stderr,
                 "lenient load quarantined %lld malformed rows "
                 "(%lld user, %lld tweet)\n",
                 static_cast<long long>(load_stats.quarantined()),
                 static_cast<long long>(load_stats.quarantined_user_rows),
                 static_cast<long long>(load_stats.quarantined_tweet_rows));
  }
  if (config.obs.metrics != nullptr) {
    config.obs.metrics->GetCounter("io.dataset.quarantined")
        ->Increment(load_stats.quarantined());
  }
  // The stream engine ingests row-oriented tweets; the batch study runs
  // off the reader's view.
  const stir::twitter::Dataset* dataset = nullptr;
  if (stream_mode) {
    auto materialized = reader->Materialize();
    if (!materialized.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   materialized.status().ToString().c_str());
      return 1;
    }
    dataset = *materialized;
  }

  stir::core::StudyResult result;
  if (stream_mode) {
    // Incremental path: ingest the corpus through the stream engine (users
    // in dataset order, tweets in time order with dataset-index fault
    // keys), then snapshot through the same grouping/aggregation stages
    // the batch pipeline runs — byte-identical stdout and reports.
    stir::obs::Tracer cli_tracer;
    if (config.obs.enable_trace && config.obs.tracer == nullptr) {
      config.obs.tracer = &cli_tracer;
    }
    stir::stream::StreamOptions stream_options;
    stream_options.epoch_size = epoch_size;
    stream_options.durable_dir = config.durability.checkpoint_dir;
    stream_options.resume = config.durability.resume;
    stream_options.fsync = config.durability.fsync;
    stir::stream::StreamEngine engine(&db, config, stream_options);
    stir::Status status = engine.Open();
    if (!status.ok()) {
      std::fprintf(stderr, "stream engine open failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    const int64_t skip_tweets = engine.ingested_tweets();
    for (const stir::twitter::User& user : dataset->users()) {
      if (engine.HasUser(user.id)) continue;
      status = engine.AddUser(user);
      if (!status.ok()) break;
    }
    if (status.ok()) {
      stir::twitter::StreamingApi api(dataset);
      int64_t delivered = 0;
      api.Replay(
          [&](size_t dataset_index, const stir::twitter::Tweet& tweet) {
            if (!status.ok() || delivered++ < skip_tweets) return;
            status =
                engine.AddTweet(tweet, static_cast<int64_t>(dataset_index));
          });
    }
    if (!status.ok()) {
      std::fprintf(stderr, "stream ingest failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    engine.SealEpoch();
    std::fprintf(stderr,
                 "streamed %lld users, %lld tweets in %lld epochs "
                 "(generation %lld)\n",
                 static_cast<long long>(engine.ingested_users()),
                 static_cast<long long>(engine.ingested_tweets()),
                 static_cast<long long>(engine.epochs_sealed()),
                 static_cast<long long>(engine.generation()));
    result = engine.SnapshotResult();
    if (config.obs.metrics != nullptr) {
      result.metrics = config.obs.metrics->Snapshot();
    }
    if (config.obs.tracer != nullptr) {
      result.trace = config.obs.tracer->Snapshot();
    }
  } else {
    stir::core::CorrelationStudy study(&db, config);
    result = study.Run(reader->view());
  }
  std::printf("%s\n%s\n%s", result.FunnelString().c_str(),
              result.GroupTableString().c_str(),
              stir::core::RenderGpsTweetHistogram(result).c_str());

  if (!report_dir.empty()) {
    stir::Status status = stir::core::WriteStudyReportCsv(result, report_dir);
    if (status.ok()) {
      status =
          stir::core::WriteStudyReportJson(result, report_dir, report_schema);
    }
    if (!status.ok()) {
      std::fprintf(stderr, "report export failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("\nreport CSVs written to %s\n", report_dir.c_str());
  }
  // Observability exports announce on stderr so stdout stays byte-
  // identical to a run without them.
  if (!metrics_out.empty()) {
    stir::Status status = WriteTextFile(metrics_out, result.metrics.ToJson());
    if (!status.ok()) {
      std::fprintf(stderr, "metrics export failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "metrics written to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    stir::Status status =
        WriteTextFile(trace_out, result.trace.ToChromeTrace());
    if (!status.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "trace written to %s\n", trace_out.c_str());
  }
  if (stir::io::FaultFs::Instance().enabled()) {
    // Accounting line on stderr (stdout stays byte-identical): the chaos
    // harness and operators read the invariant
    // injected == recovered + surfaced + quarantined off this.
    const stir::io::FaultFsStats fs = stir::io::FaultFs::Instance().stats();
    std::fprintf(stderr,
                 "io faults: injected=%lld recovered=%lld surfaced=%lld "
                 "quarantined=%lld\n",
                 static_cast<long long>(fs.injected),
                 static_cast<long long>(fs.recovered),
                 static_cast<long long>(fs.surfaced),
                 static_cast<long long>(fs.quarantined));
  }
  return 0;
}

// ---------------------------------------------------------------------------
// infer

int RunInfer(int argc, char** argv) {
  std::string users_path;
  std::string tweets_path;
  std::string corpus_path;
  std::string truth_path;
  std::string gazetteer = "korean";
  std::string strategy_name;  // Empty evaluates every strategy.
  std::string metrics_out;
  stir::infer::InferParams params;
  int64_t min_gps = 5;
  bool lenient_load = false;

  const char* cmd = "infer";
  std::vector<Flag> flags = {
      {"users", "FILE", "input users TSV",
       [&](const std::string& v) { users_path = v; return true; }},
      {"tweets", "FILE", "input tweets TSV",
       [&](const std::string& v) { tweets_path = v; return true; }},
      {"corpus", "FILE",
       "input self-contained v3 arena corpus (alternative to "
       "--users/--tweets; format is sniffed from magic bytes)",
       [&](const std::string& v) { corpus_path = v; return true; }},
      {"truth", "FILE",
       "ground-truth sidecar to score against (default: the .truth file "
       "next to the corpus)",
       [&](const std::string& v) { truth_path = v; return true; }},
      {"gazetteer", "NAME", "gazetteer: korean | world (default korean)",
       [&](const std::string& v) {
         if (GazetteerByName(v) == nullptr) {
           return BadValue(cmd, "gazetteer", "korean or world");
         }
         gazetteer = v;
         return true;
       }},
      {"strategy", "NAME",
       "evaluate one strategy: spatial | diurnal | text (default: all)",
       [&](const std::string& v) {
         stir::infer::Strategy unused;
         if (!stir::infer::StrategyFromString(v, &unused)) {
           return BadValue(cmd, "strategy", "spatial, diurnal or text");
         }
         strategy_name = v;
         return true;
       }},
      {"abstain", "P",
       "confidence threshold below which strategies abstain, [0, 1] "
       "(default 0.4)",
       [&](const std::string& v) {
         if (!ParseDouble(v, &params.abstain_threshold) ||
             params.abstain_threshold < 0.0 ||
             params.abstain_threshold > 1.0) {
           return BadValue(cmd, "abstain", "in [0, 1]");
         }
         return true;
       }},
      {"night-weight", "N",
       "diurnal strategy weight multiplier for night-window tweets, >= 1 "
       "(default 3)",
       [&](const std::string& v) {
         if (!ParseInt64(v, &params.night_weight) ||
             params.night_weight < 1) {
           return BadValue(cmd, "night-weight", ">= 1");
         }
         return true;
       }},
      {"min-gps", "N",
       "located GPS tweets for the \"GPS-rich\" accuracy slice, >= 0 "
       "(default 5)",
       [&](const std::string& v) {
         if (!ParseInt64(v, &min_gps) || min_gps < 0) {
           return BadValue(cmd, "min-gps", ">= 0");
         }
         return true;
       }},
      {"metrics-out", "FILE",
       "write the evaluation counters as a JSON metrics snapshot to FILE",
       [&](const std::string& v) { metrics_out = v; return true; }},
      {"lenient-load", nullptr,
       "quarantine malformed TSV rows instead of failing the load",
       [&](const std::string&) {
         lenient_load = true;
         return true;
       }},
  };

  bool want_help = false;
  int rc = ParseArgs(argc, argv, 2, flags, cmd, &want_help);
  if (rc != 0) return rc;
  if (want_help) {
    PrintHelp(cmd,
              "infer each user's home district from tweet evidence alone "
              "and score the predictions against generator ground truth",
              flags);
    return 0;
  }
  const bool tsv_in = !users_path.empty() || !tweets_path.empty();
  if (corpus_path.empty() == !tsv_in) {
    std::fprintf(stderr,
                 "stir_cli %s: exactly one input form is required: "
                 "--corpus FILE, or --users FILE with --tweets FILE\n",
                 cmd);
    return 2;
  }
  if (tsv_in && (users_path.empty() || tweets_path.empty())) {
    std::fprintf(stderr, "stir_cli %s: --users and --tweets go together\n",
                 cmd);
    return 2;
  }

  const AdminDb& db = *GazetteerByName(gazetteer);
  stir::io::CorpusSpec spec;
  spec.corpus_path = corpus_path;
  spec.users_path = users_path;
  spec.tweets_path = tweets_path;
  spec.tsv.strict = !lenient_load;
  auto reader = stir::io::CorpusReader::Open(spec);
  if (!reader.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 reader.status().ToString().c_str());
    return 1;
  }

  // Resolve the truth sidecar: an explicit --truth wins; otherwise the
  // one the reader detected next to the corpus.
  if (truth_path.empty() && reader->has_truth()) {
    truth_path = reader->truth_path();
  }
  if (truth_path.empty()) {
    std::fprintf(stderr,
                 "stir_cli %s: no ground-truth sidecar found next to the "
                 "corpus; pass --truth FILE (sidecars are written by "
                 "`stir_cli generate --corpus`)\n",
                 cmd);
    return 2;
  }
  auto truth = stir::io::ReadTruthSidecar(truth_path);
  if (!truth.ok()) {
    std::fprintf(stderr, "truth sidecar load failed: %s\n",
                 truth.status().ToString().c_str());
    return 1;
  }

  // Build the evidence index from tweets only. Profile strings and the
  // truth records never reach this layer.
  stir::infer::InferenceIndex index =
      stir::infer::InferenceIndex::Build(reader->view(), db);

  std::vector<stir::infer::StrategyEval> evals;
  if (strategy_name.empty()) {
    for (int s = 0; s < stir::infer::kNumStrategies; ++s) {
      evals.push_back(stir::infer::EvaluateStrategy(
          index, *truth, static_cast<stir::infer::Strategy>(s), params,
          min_gps));
    }
  } else {
    stir::infer::Strategy strategy = params.default_strategy;
    stir::infer::StrategyFromString(strategy_name, &strategy);
    evals.push_back(
        stir::infer::EvaluateStrategy(index, *truth, strategy, params,
                                      min_gps));
  }
  std::printf("%s", stir::infer::RenderEvalReport(evals).c_str());

  if (!metrics_out.empty()) {
    stir::obs::MetricsRegistry metrics;
    for (const stir::infer::StrategyEval& eval : evals) {
      const std::string prefix =
          std::string("infer.eval.") +
          stir::infer::StrategyToString(eval.strategy);
      metrics.GetCounter(prefix + ".users")->Increment(eval.users);
      metrics.GetCounter(prefix + ".decided")->Increment(eval.decided);
      metrics.GetCounter(prefix + ".abstained")->Increment(eval.abstained);
      metrics.GetCounter(prefix + ".correct_district")
          ->Increment(eval.correct_district);
      metrics.GetCounter(prefix + ".correct_province")
          ->Increment(eval.correct_province);
      metrics.GetCounter(prefix + ".gps_rich_users")
          ->Increment(eval.gps_rich_users);
      metrics.GetCounter(prefix + ".gps_rich_correct_district")
          ->Increment(eval.gps_rich_correct_district);
    }
    stir::Status status =
        WriteTextFile(metrics_out, metrics.Snapshot().ToJson());
    if (!status.ok()) {
      std::fprintf(stderr, "metrics export failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "metrics written to %s\n", metrics_out.c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// audit

int RunAudit(int argc, char** argv) {
  std::string gazetteer = "korean";

  const char* cmd = "audit";
  std::vector<Flag> flags = {
      {"gazetteer", "NAME", "gazetteer: korean | world (default korean)",
       [&](const std::string& v) {
         if (GazetteerByName(v) == nullptr) {
           return BadValue(cmd, "gazetteer", "korean or world");
         }
         gazetteer = v;
         return true;
       }},
  };

  bool want_help = false;
  int rc = ParseArgs(argc, argv, 2, flags, cmd, &want_help);
  if (rc != 0) return rc;
  if (want_help) {
    PrintHelp(cmd, "classify free-text profile locations from stdin", flags);
    return 0;
  }

  const AdminDb& db = *GazetteerByName(gazetteer);
  stir::text::LocationParser parser(&db);
  std::string line;
  while (std::getline(std::cin, line)) {
    stir::text::ParsedLocation parsed = parser.Parse(line);
    std::printf("%s\t%s", line.c_str(),
                stir::text::LocationQualityToString(parsed.quality));
    if (parsed.quality == stir::text::LocationQuality::kWellDefined) {
      std::printf("\t%s", db.region(parsed.region).FullName().c_str());
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "--help") == 0 || std::strcmp(argv[1], "-h") == 0) {
    Usage();
    return 0;
  }
  if (std::strcmp(argv[1], "generate") == 0) return RunGenerate(argc, argv);
  if (std::strcmp(argv[1], "study") == 0) return RunStudy(argc, argv);
  if (std::strcmp(argv[1], "infer") == 0) return RunInfer(argc, argv);
  if (std::strcmp(argv[1], "audit") == 0) return RunAudit(argc, argv);
  std::fprintf(stderr, "stir_cli: unknown command '%s'\n", argv[1]);
  return Usage();
}
