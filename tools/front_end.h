#ifndef STIR_TOOLS_FRONT_END_H_
#define STIR_TOOLS_FRONT_END_H_

// The front end stir_cli and stir_serve share: the declarative flag
// table with its parser and --help printer, strict value parsers, and
// the flag groups more than one command takes (corpus input, storage
// faults, checkpointing, streaming), each with the set-up it implies.
// Header-only; both executables compile it in.
//
// Diagnostics take a prefix: `program` ("stir_cli study", "stir_serve")
// for usage errors, `log` ("" for stir_cli, "stir_serve: ") for run-time
// failures.

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/study_config.h"
#include "geo/admin_db.h"
#include "io/corpus_reader.h"
#include "io/fault_fs.h"
#include "stream/engine.h"

namespace stir::front_end {

// ---------------------------------------------------------------------------
// Declarative flag table

/// One command-line flag: its name, an optional value placeholder (null
/// for booleans), the --help line, and a binder that stores the value.
/// The binder returns an empty string, or for a bad value what the value
/// must be (ParseFlags prints "--name must be <that>" and exits 2).
struct Flag {
  using Bind = std::function<std::string(const std::string& value)>;
  const char* name;        ///< Without the leading "--".
  const char* value_name;  ///< e.g. "N"; nullptr marks a boolean flag.
  const char* help;
  Bind bind;
};
using Flags = std::vector<Flag>;

inline void PrintHelp(const char* program, const char* summary,
                      const Flags& flags) {
  std::fprintf(stderr, "usage: %s [flags]\n%s\n\nflags:\n", program, summary);
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

/// Parses argv[first..) against the flag table. Accepts "--name value"
/// and "--name=value". Returns -1 when the command should run, 0 after
/// printing --help (-h), and 2 on any usage error (unknown flag, missing
/// value, bad value — diagnostics go to stderr).
inline int ParseFlags(int argc, char** argv, int first, const Flags& flags,
                      const char* program, const char* summary) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintHelp(program, summary, flags);
      return 0;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr,
                   "%s: unexpected argument '%s' (flags only; try --help)\n",
                   program, arg.c_str());
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
      std::fprintf(stderr, "%s: unknown flag --%s (try --help)\n", program,
                   name.c_str());
      return 2;
    }
    if (match->value_name == nullptr) {
      if (has_inline_value) {
        std::fprintf(stderr, "%s: --%s takes no value\n", program,
                     name.c_str());
        return 2;
      }
    } else if (!has_inline_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --%s requires a value (%s)\n", program,
                     name.c_str(), match->value_name);
        return 2;
      }
      value = argv[++i];
    }
    const std::string expect = match->bind(value);
    if (!expect.empty()) {
      std::fprintf(stderr, "%s: --%s must be %s\n", program, name.c_str(),
                   expect.c_str());
      return 2;
    }
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Value parsers (strict: the whole token must consume, unlike atoi)

inline bool ParseInt64(const std::string& text, int64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') return false;
  *out = static_cast<int64_t>(v);
  return true;
}

inline bool ParseUInt64(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

inline bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

// Binders for the value shapes most flags take.

inline Flag::Bind Text(std::string* out) {
  return [out](const std::string& v) {
    *out = v;
    return std::string();
  };
}

/// A boolean flag: its presence stores `value`.
inline Flag::Bind Switch(bool* out, bool value = true) {
  return [out, value](const std::string&) {
    *out = value;
    return std::string();
  };
}

/// An integer >= `min`.
template <typename T>
Flag::Bind AtLeast(T* out, int64_t min) {
  return [out, min](const std::string& v) {
    int64_t n = 0;
    if (!ParseInt64(v, &n) || n < min) return ">= " + std::to_string(min);
    *out = static_cast<T>(n);
    return std::string();
  };
}

/// A probability in [0, 1].
inline Flag::Bind Fraction(double* out) {
  return [out](const std::string& v) {
    double p = 0.0;
    if (!ParseDouble(v, &p) || p < 0.0 || p > 1.0) {
      return std::string("in [0, 1]");
    }
    *out = p;
    return std::string();
  };
}

inline Flag::Bind Seed(uint64_t* out) {
  return [out](const std::string& v) {
    return ParseUInt64(v, out) ? std::string()
                               : std::string("a non-negative integer");
  };
}

inline const geo::AdminDb* GazetteerByName(const std::string& name) {
  if (name == "world") return &geo::AdminDb::WorldCities();
  if (name == "korean") return &geo::AdminDb::KoreanDistricts();
  return nullptr;
}

inline Flag GazetteerFlag(std::string* name) {
  return {"gazetteer", "NAME", "gazetteer: korean | world (default korean)",
          [name](const std::string& v) {
            if (GazetteerByName(v) == nullptr) {
              return std::string("korean or world");
            }
            *name = v;
            return std::string();
          }};
}

// ---------------------------------------------------------------------------
// Run-time diagnostics and exports

/// Prints "<log><what>: <status>" to stderr; returns exit code 1.
inline int Fail(const char* log, const char* what, const Status& status) {
  std::fprintf(stderr, "%s%s: %s\n", log, what, status.ToString().c_str());
  return 1;
}

/// Writes `body` (newline-terminated) to `path`.
inline Status WriteTextFile(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out << body;
  if (!body.empty() && body.back() != '\n') out << '\n';
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

/// Writes an observability export (`what` is "metrics" or "trace") and
/// announces it on stderr, so stdout stays byte-identical to a run
/// without it. Returns false after printing the failure.
inline bool Export(const char* log, const char* what, const std::string& path,
                   const std::string& body) {
  Status status = WriteTextFile(path, body);
  if (!status.ok()) {
    Fail(log, (std::string(what) + " export failed").c_str(), status);
    return false;
  }
  std::fprintf(stderr, "%s%s written to %s\n", log, what, path.c_str());
  return true;
}

// ---------------------------------------------------------------------------
// Flag groups (a group's flags bind to its members, so it is not copyable)

/// Requires exactly one corpus form: `corpus`, or `users` with `tweets`.
/// `role` ("input", "output") names it in the diagnostic.
inline bool CheckCorpusForm(const char* program, const char* role,
                            const std::string& corpus,
                            const std::string& users,
                            const std::string& tweets) {
  const bool tsv = !users.empty() || !tweets.empty();
  if (corpus.empty() == !tsv) {
    std::fprintf(stderr,
                 "%s: exactly one %s form is required: --corpus FILE, or "
                 "--users FILE with --tweets FILE\n",
                 program, role);
    return false;
  }
  if (tsv && (users.empty() || tweets.empty())) {
    std::fprintf(stderr, "%s: --users and --tweets go together\n", program);
    return false;
  }
  return true;
}

/// --users/--tweets/--corpus/--gazetteer/--lenient-load: the corpus a
/// command reads and the gazetteer it resolves places against.
struct CorpusInput {
  CorpusInput() = default;
  CorpusInput(const CorpusInput&) = delete;
  CorpusInput& operator=(const CorpusInput&) = delete;

  io::CorpusSpec spec;
  std::string gazetteer = "korean";

  void AddFlags(Flags* flags) {
    flags->insert(
        flags->end(),
        {{"users", "FILE", "input users TSV", Text(&spec.users_path)},
         {"tweets", "FILE", "input tweets TSV", Text(&spec.tweets_path)},
         {"corpus", "FILE",
          "input self-contained v3 arena corpus (alternative to "
          "--users/--tweets; format is sniffed from magic bytes)",
          Text(&spec.corpus_path)},
         GazetteerFlag(&gazetteer),
         {"lenient-load", nullptr,
          "quarantine malformed TSV rows instead of failing the load",
          Switch(&spec.tsv.strict, false)}});
  }

  bool Check(const char* program) const {
    return CheckCorpusForm(program, "input", spec.corpus_path,
                           spec.users_path, spec.tweets_path);
  }

  const geo::AdminDb& db() const { return *GazetteerByName(gazetteer); }

  /// Opens the corpus. A lenient load that quarantined rows says so on
  /// stderr.
  StatusOr<io::CorpusReader> Open(const char* log) const {
    StatusOr<io::CorpusReader> reader = io::CorpusReader::Open(spec);
    if (reader.ok() && reader->tsv_stats().quarantined() > 0) {
      const twitter::Dataset::TsvLoadStats& stats = reader->tsv_stats();
      std::fprintf(stderr,
                   "%slenient load quarantined %lld malformed rows "
                   "(%lld user, %lld tweet)\n",
                   log, static_cast<long long>(stats.quarantined()),
                   static_cast<long long>(stats.quarantined_user_rows),
                   static_cast<long long>(stats.quarantined_tweet_rows));
    }
    return reader;
  }
};

/// The seven --io-fault-* flags: a seeded storage fault schedule.
struct IoFaults {
  IoFaults() = default;
  IoFaults(const IoFaults&) = delete;
  IoFaults& operator=(const IoFaults&) = delete;

  io::FaultFsOptions options;

  void AddFlags(Flags* flags) {
    flags->insert(
        flags->end(),
        {{"io-fault-seed", "N", "storage fault schedule seed",
          Seed(&options.seed)},
         {"io-fault-write-error-rate", "P",
          "injected per-write EIO probability, [0, 1]",
          Fraction(&options.write_error_rate)},
         {"io-fault-short-write-rate", "P",
          "injected per-write short-count probability, [0, 1] (always "
          "recovered by the write-all loops; byte-identical output)",
          Fraction(&options.short_write_rate)},
         {"io-fault-fsync-error-rate", "P",
          "injected per-fsync failure probability, [0, 1]",
          Fraction(&options.fsync_error_rate)},
         {"io-fault-eintr-rate", "P",
          "injected per-syscall EINTR probability, [0, 1] (always "
          "recovered by the retry loops; byte-identical output)",
          Fraction(&options.eintr_rate)},
         {"io-fault-enospc-after", "BYTES",
          "simulated disk capacity: writes past BYTES fail ENOSPC (-1 = off)",
          [this](const std::string& v) {
            return ParseInt64(v, &options.enospc_after_bytes)
                       ? std::string()
                       : std::string("an integer");
          }},
         {"io-fault-page-flip-rate", "P",
          "injected per-window corpus corruption probability, [0, 1] "
          "(affected users drop into funnel.drop.corrupt_window)",
          Fraction(&options.page_flip_rate)}});
  }

  /// Arms the storage fault layer. Call before the first byte is read or
  /// written, so the load and every journal/report write run under the
  /// schedule.
  void Arm() const {
    if (options.enabled()) io::FaultFs::Instance().Configure(options);
  }
};

/// --checkpoint-dir/--resume/--crash-after, bound to `config`.
inline void AddCheckpointFlags(Flags* flags, StudyConfig* config) {
  flags->insert(
      flags->end(),
      {{"checkpoint-dir", "DIR",
        "durable geocode journal + study checkpoints in DIR",
        Text(&config->durability.checkpoint_dir)},
       {"resume", nullptr,
        "resume from the checkpoint in --checkpoint-dir (fresh run if none)",
        Switch(&config->durability.resume)},
       {"crash-after", "N",
        "hard-exit (status 42) when the Nth geocode lookup starts (testing)",
        AtLeast(&config->fault.crash_after, 1)}});
}

inline bool CheckCheckpointFlags(const char* program,
                                 const StudyConfig& config) {
  if (config.durability.resume && config.durability.checkpoint_dir.empty()) {
    std::fprintf(stderr, "%s: --resume requires --checkpoint-dir\n", program);
    return false;
  }
  return true;
}

/// --stream/--epoch-size: run the study through the incremental stream
/// engine (DESIGN.md §12).
struct Streaming {
  Streaming() = default;
  Streaming(const Streaming&) = delete;
  Streaming& operator=(const Streaming&) = delete;

  bool enabled = false;
  int64_t epoch_size = 0;

  /// `stream_help` is the --stream help line, which names what the
  /// command does with the engine.
  void AddFlags(Flags* flags, const char* stream_help) {
    flags->insert(
        flags->end(),
        {{"stream", nullptr, stream_help, Switch(&enabled)},
         {"epoch-size", "N",
          "streaming auto-seal threshold in tweets; 0 seals once, after the "
          "corpus is ingested (default 0; requires --stream)",
          AtLeast(&epoch_size, 0)}});
  }

  bool Check(const char* program) const {
    if (epoch_size != 0 && !enabled) {
      std::fprintf(stderr, "%s: --epoch-size requires --stream\n", program);
      return false;
    }
    return true;
  }

  /// Opens an engine over the corpus view (journaling into, and with
  /// --resume replaying, `config.durability`), pre-ingests the view and
  /// seals. Users go in row order, then tweet rows in (time, id) order,
  /// each carrying its row as fault key, so every sealed generation is
  /// byte-identical to a batch study over the same prefix; a resumed
  /// engine skips what its journal already holds. A repeated user id
  /// fails the start before the engine opens. Returns null after
  /// printing the failure.
  std::unique_ptr<stream::StreamEngine> Open(const io::CorpusView& view,
                                             const geo::AdminDb& db,
                                             const StudyConfig& config,
                                             const char* log) const {
    // The arena's structural checks let a crafted file repeat a user id,
    // and a resumed engine would skip both rows as already held.
    std::vector<twitter::UserId> ids(view.user_count());
    for (size_t row = 0; row < ids.size(); ++row) ids[row] = view.user_id(row);
    std::sort(ids.begin(), ids.end());
    if (auto repeat = std::adjacent_find(ids.begin(), ids.end());
        repeat != ids.end()) {
      Fail(log, "load failed",
           Status::InvalidArgument("corpus " + view.path() +
                                   ": duplicate user id " +
                                   std::to_string(*repeat)));
      return nullptr;
    }
    stream::StreamOptions options;
    options.epoch_size = epoch_size;
    auto engine = std::make_unique<stream::StreamEngine>(&db, config, options);
    Status status = engine->Open();
    if (!status.ok()) {
      Fail(log, "stream engine open failed", status);
      return nullptr;
    }
    for (size_t row = 0; status.ok() && row < view.user_count(); ++row) {
      twitter::User user;
      user.id = view.user_id(row);
      if (engine->HasUser(user.id)) continue;
      user.handle = view.user_handle(row);
      user.profile_location = view.user_profile_location(row);
      user.total_tweets = view.user_total_tweets(row);
      status = engine->AddUser(user);
    }
    // The streaming endpoint's replay order: rows sorted by (time, id).
    std::vector<size_t> order(view.tweet_count());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&view](size_t a, size_t b) {
      if (view.tweet_time(a) != view.tweet_time(b)) {
        return view.tweet_time(a) < view.tweet_time(b);
      }
      return view.tweet_id(a) < view.tweet_id(b);
    });
    for (size_t i = static_cast<size_t>(engine->ingested_tweets());
         status.ok() && i < order.size(); ++i) {
      status = engine->AddTweet(view.MaterializeTweet(order[i]),
                                static_cast<int64_t>(order[i]));
    }
    if (!status.ok()) {
      Fail(log, "stream ingest failed", status);
      return nullptr;
    }
    engine->SealEpoch();
    return engine;
  }
};

}  // namespace stir::front_end

#endif  // STIR_TOOLS_FRONT_END_H_
