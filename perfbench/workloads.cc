// The three benchmark workloads (see perfbench/README.md):
//
//   study — closed-loop batch job: cold start from an arena corpus to a
//           servable index, then every pooled read executed in-process and
//           checked byte for byte against a reference built through the
//           row-store entry point.
//   serve — open-loop reads over loopback TCP against a batch index, at a
//           few fixed offered rates.
//   live  — the same reads beside a fixed-rate append_tweets stream into
//           a StreamEngine backend whose epochs seal as the log replays.
//
// Every timing is taken here, around calls into the program's public
// API; the traced runs additionally hand the program metric and trace
// sinks and read what it publishes.

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "client.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/study.h"
#include "geo/admin_db.h"
#include "geo/reverse_geocoder.h"
#include "infer/inference_index.h"
#include "io/corpus.h"
#include "net/epoll_server.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/study_index.h"
#include "stream/engine.h"
#include "twitter/api.h"
#include "twitter/generator.h"

namespace stir::perfbench {
namespace {

// --- Workload shape ---------------------------------------------------
//
// These constants define the benchmark; changing any of them changes
// what every metric means, so they change only together with
// BENCHMARK.json and README.md.

/// Corpus scales (1.0 = the paper's 52,200-user crawl).
constexpr double kStudyScale = 4.0;
constexpr double kServeScale = 2.0;
/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 3;
/// Offered read rates of the serve workload, ascending, each with its
/// share of --seconds. The first is the reference rate at which
/// net.read_p50_us is reported; the last, the saturation phase, lies far
/// beyond the knee and gives net.read_max_rps. The study and live workloads
/// read at the reference rate, then at the saturation rate.
struct RatePhase {
  double rate;
  double share;
};
constexpr RatePhase kServePhases[] = {
    {10000.0, 0.5}, {40000.0, 0.2}, {80000.0, 0.1}, {400000.0, 0.08}};
constexpr double kReferenceRate = kServePhases[0].rate;
constexpr RatePhase kSaturation = kServePhases[std::size(kServePhases) - 1];
/// Reads are summarised per window of this length as well as per phase
/// (see ReadStats::floor_p50_us and peak_rps); a window counts for the
/// p50 when at least kMinWindowReads reads were due in it.
constexpr int64_t kWindowNs = 250'000'000;
constexpr size_t kMinWindowReads = 200;
/// study_s is rescaled to a machine on which CalibrationSeconds() takes
/// this long (see ScaledStudySeconds).
constexpr double kCalibrationReferenceS = 0.3;
/// Calibration loops run before each set-up repetition of serve and live
/// (study runs one before each of its timed repetitions).
constexpr int kCalibrationsPerSetup = 2;
/// Distinct read requests per workload; shots draw from this pool.
constexpr size_t kReadPoolSize = 4096;
/// A phase whose last tenth of reads waits longer than this at the median
/// has a growing backlog (noted in the latency curve).
constexpr double kBacklogLimitUs = 5000.0;
/// Live: tweet rate of the append stream, tweets per append, and the
/// auto-seal epoch size (a multiple of the batch, so every seal lands on
/// an append boundary). Four seals a second keep about a seventh of the
/// reads waiting behind one, and hold the event loop for a share of the
/// saturation phase.
constexpr double kLiveTweetRate = 4000.0;
constexpr int kLiveAppendBatch = 100;
constexpr int64_t kLiveEpochSize = 1000;
/// How long the client waits for stragglers after the last due time.
constexpr int64_t kDrainTimeoutNs = 20'000'000'000;

const geo::AdminDb& Db() { return geo::AdminDb::KoreanDistricts(); }

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "stir_perfbench: %s\n", what.c_str());
  std::exit(1);
}

double SecondsSince(int64_t start_us) {
  return static_cast<double>(NowUs() - start_us) / 1e6;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

twitter::DatasetGeneratorOptions CorpusOptions(uint64_t seed, double scale) {
  twitter::DatasetGeneratorOptions options =
      twitter::DatasetGenerator::KoreanConfig(scale);
  options.seed = seed;
  return options;
}

/// Streams a generated corpus to `path` (the out-of-core writer).
void WriteCorpus(uint64_t seed, double scale, const std::string& path) {
  twitter::DatasetGenerator generator(&Db(), CorpusOptions(seed, scale));
  io::CorpusWriterOptions writer_options;
  writer_options.fsync = false;
  io::CorpusWriter writer(path, writer_options);
  auto info = generator.GenerateToCorpus(&writer);
  if (!info.ok()) Fatal("corpus generation failed: " + info.status().message());
  auto stats = writer.Finish();
  if (!stats.ok()) Fatal("corpus write failed: " + stats.status().message());
}

std::string CorpusPath(const Args& args, const char* name) {
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  return args.work_dir + "/" + name + ".stir";
}

/// Wall seconds of a fixed piece of work that uses none of the program:
/// BenchThreads() threads each chase a seeded pseudo-random walk through
/// a private 8 MB table. It slows with the machine the way the study's
/// parallel, memory-bound refinement does.
double CalibrationSeconds() {
  constexpr size_t kWords = 1u << 20;  // 8 MB per thread.
  constexpr int kSteps = 1 << 21;
  const int threads = BenchThreads();
  std::vector<std::vector<uint64_t>> tables(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    std::vector<uint64_t>& table = tables[static_cast<size_t>(t)];
    table.resize(kWords);
    uint64_t x = 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(t + 1);
    for (uint64_t& word : table) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      word = x;
    }
  }
  std::vector<uint64_t> sums(static_cast<size_t>(threads));
  const int64_t t0 = NowNs();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&tables, &sums, t] {
      const std::vector<uint64_t>& table = tables[static_cast<size_t>(t)];
      uint64_t at = 0;
      uint64_t sum = 0;
      for (int i = 0; i < kSteps; ++i) {
        const uint64_t word = table[at];
        sum += word * 0x2545F4914F6CDD1Dull;
        at = (word ^ sum) & (kWords - 1);
      }
      sums[static_cast<size_t>(t)] = sum;
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
  // Keep the walk from being optimised away.
  if (std::find(sums.begin(), sums.end(), 1u) != sums.end()) std::puts("");
  return seconds;
}

// --- Cold start: corpus file -> servable indexes -----------------------

struct Servable {
  io::CorpusView view;
  core::StudyResult result;
  std::shared_ptr<const serve::StudyIndex> index;
  std::shared_ptr<const infer::InferenceIndex> infer;
  double seconds = 0.0;  ///< Open through the inference build.
};

/// Open -> study -> StudyIndex::Build -> InferenceIndex::Build, timed as a
/// whole. With a tracer, each step is also a span under one
/// "bench.cold_start" root, and the program's own stage spans nest inside.
Servable ColdStart(const std::string& path, obs::MetricsRegistry* metrics,
                   obs::Tracer* tracer) {
  Servable s;
  const int64_t t0 = NowUs();
  obs::Tracer::ScopedSpan root(tracer, "bench.cold_start");
  {
    obs::Tracer::ScopedSpan span(tracer, "io.open");
    auto view = io::CorpusView::Open(path);
    if (!view.ok()) Fatal("corpus open failed: " + view.status().message());
    s.view = std::move(*view);
  }
  {
    obs::Tracer::ScopedSpan span(tracer, "core.study");
    StudyConfig config;
    config.threads = BenchThreads();
    config.obs.metrics = metrics;
    config.obs.tracer = tracer;
    config.obs.trace_geocode_calls = false;
    core::CorrelationStudy study(&Db(), config);
    s.result = study.Run(s.view);
  }
  {
    obs::Tracer::ScopedSpan span(tracer, "serve.index_build");
    s.index = std::make_shared<const serve::StudyIndex>(
        serve::StudyIndex::Build(s.result, Db()));
  }
  {
    obs::Tracer::ScopedSpan span(tracer, "infer.build");
    s.infer = std::make_shared<const infer::InferenceIndex>(
        infer::InferenceIndex::Build(s.view, Db()));
  }
  s.seconds = SecondsSince(t0);
  return s;
}

/// Wall-time layer ledger of one traced cold start. The refinement stage
/// runs on the pool; its wall time is split between profile parsing,
/// geocoding and the rest in proportion to the per-thread time the
/// program publishes for each.
struct Ledger {
  double open_ms = 0, parse_ms = 0, geocode_ms = 0, refine_rest_ms = 0,
         group_ms = 0, aggregate_ms = 0, study_other_ms = 0, index_ms = 0,
         infer_ms = 0, total_ms = 0;
  double refine_ms = 0;  ///< Whole refinement span.
  double Sum() const {
    return open_ms + parse_ms + geocode_ms + refine_rest_ms + group_ms +
           aggregate_ms + study_other_ms + index_ms + infer_ms;
  }
};

Ledger BuildLedger(const obs::TraceSnapshot& trace,
                   const obs::MetricsSnapshot& metrics) {
  auto duration_ms = [&](std::string_view name) {
    double total = 0.0;
    for (const obs::SpanRecord& span : trace.spans) {
      if (span.name == name && span.end_us >= span.start_us) {
        total += static_cast<double>(span.end_us - span.start_us) / 1e3;
      }
    }
    return total;
  };
  Ledger l;
  l.total_ms = duration_ms("bench.cold_start");
  l.open_ms = duration_ms("io.open");
  l.index_ms = duration_ms("serve.index_build");
  l.infer_ms = duration_ms("infer.build");
  l.refine_ms = duration_ms("refinement");
  l.group_ms = duration_ms("grouping");
  l.aggregate_ms = duration_ms("aggregate");
  const double merge_ms = duration_ms("refine.merge");
  double shard_ms = duration_ms("refine.shard");
  const double parallel_ms = std::max(0.0, l.refine_ms - merge_ms);
  if (shard_ms <= 0.0) shard_ms = parallel_ms;  // Serial refinement.
  const double parse_cpu_ms =
      static_cast<double>(metrics.counter("funnel.stage.profile_parse_us")) /
      1e3;
  const double geocode_cpu_ms =
      static_cast<double>(metrics.counter("funnel.stage.geocode_us")) / 1e3;
  if (shard_ms > 0.0) {
    l.parse_ms = parallel_ms * std::min(1.0, parse_cpu_ms / shard_ms);
    l.geocode_ms = parallel_ms * std::min(1.0, geocode_cpu_ms / shard_ms);
  }
  l.refine_rest_ms = std::max(0.0, l.refine_ms - l.parse_ms - l.geocode_ms);
  // Everything inside the benchmark's core.study span that is not one of
  // the three stages: geocoder and pool set-up, result snapshots.
  l.study_other_ms = std::max(
      0.0, duration_ms("core.study") - l.refine_ms - l.group_ms -
               l.aggregate_ms);
  return l;
}

/// Max / mean of the per-worker busy time the pool publishes.
double BusyImbalance(const obs::MetricsSnapshot& metrics) {
  std::vector<double> busy;
  for (const auto& [name, value] : metrics.counters) {
    if (name.rfind("pool.worker.", 0) == 0 &&
        name.size() > 8 && name.compare(name.size() - 8, 8, ".busy_us") == 0) {
      busy.push_back(static_cast<double>(value));
    }
  }
  const double mean = Mean(busy);
  if (mean <= 0.0) return 0.0;
  return *std::max_element(busy.begin(), busy.end()) / mean;
}

double HistogramMean(const obs::MetricsSnapshot& metrics,
                     const std::string& name) {
  auto it = metrics.histograms.find(name);
  if (it == metrics.histograms.end() || it->second.count == 0) return 0.0;
  return static_cast<double>(it->second.sum) /
         static_cast<double>(it->second.count);
}

/// Layer values of one traced cold start.
void ColdStartLayers(const Servable& s, const Ledger& ledger,
                     const obs::MetricsSnapshot& m, LayerValues* out) {
  LayerValues& v = *out;
  v["io.open_ms"] = ledger.open_ms;
  v["io.mapped_mb"] =
      static_cast<double>(s.view.bytes_mapped()) / (1024.0 * 1024.0);
  v["text.parse_ms"] =
      static_cast<double>(m.counter("funnel.stage.profile_parse_us")) / 1e3;
  v["text.parses"] = static_cast<double>(m.counter("funnel.users.crawled"));
  v["geo.geocode_ms"] =
      static_cast<double>(m.counter("funnel.stage.geocode_us")) / 1e3;
  const double queries = static_cast<double>(m.counter("geocode.queries"));
  v["geo.lookups"] = queries;
  v["geo.cache_hit_ratio"] =
      queries > 0 ? static_cast<double>(m.counter("geocode.cache_hits")) /
                        queries
                  : 0.0;
  v["core.refine_ms"] = ledger.refine_ms;
  v["core.group_ms"] = ledger.group_ms;
  v["core.aggregate_ms"] = ledger.aggregate_ms;
  v["core.final_users"] = static_cast<double>(s.result.final_users);
  v["pool.busy_imbalance"] = BusyImbalance(m);
  v["pool.queue_wait_us"] = HistogramMean(m, "pool.queue_wait_us");
  v["serve.index_build_ms"] = ledger.index_ms;
  v["infer.build_ms"] = ledger.infer_ms;
}

/// Mean ns of one ReverseGeocoder::Reverse over every GPS fix of the
/// corpus, on a fresh geocoder with default options.
double GeocodeNsPerLookup(const io::CorpusView& view) {
  geo::ReverseGeocoder geocoder(&Db());
  int64_t lookups = 0;
  const int64_t t0 = NowNs();
  for (size_t row = 0; row < view.tweet_count(); ++row) {
    if (!view.tweet_has_gps(row)) continue;
    geocoder.Reverse(view.tweet_gps(row));
    ++lookups;
  }
  return Ratio(static_cast<double>(NowNs() - t0), static_cast<double>(lookups));
}

// --- Read scripts -------------------------------------------------------

/// What reads may ask for: final users (lookup_user), users the inferrer
/// decides on (infer_user), and districts (lookup_district).
struct ReadTargets {
  std::vector<twitter::UserId> users;
  std::vector<twitter::UserId> infer_users;
  std::vector<std::pair<std::string, std::string>> districts;
};

bool ResponseOk(std::string_view response) {
  const size_t ok = response.find("\"ok\":");
  return ok != std::string_view::npos &&
         response.compare(ok + 5, 4, "true") == 0;
}

ReadTargets SelectTargets(const serve::StudyIndex& index,
                          const infer::InferenceIndex& infer_index) {
  ReadTargets t;
  for (const serve::UserEntry& entry : index.users()) {
    t.users.push_back(entry.user);
  }
  for (const serve::DistrictEntry& entry : index.districts()) {
    const std::string& name = index.name(entry.name);
    const size_t space = name.find(' ');
    if (space == std::string::npos) continue;
    t.districts.emplace_back(name.substr(0, space), name.substr(space + 1));
  }
  // Most users make the inferrer abstain; probe an even spread and keep
  // the ones it decides on, so infer_user reads do real work.
  const auto& users = infer_index.users();
  const size_t step = std::max<size_t>(1, users.size() / 20000);
  const infer::InferParams params;
  for (size_t i = 0; i < users.size() && t.infer_users.size() < 2000;
       i += step) {
    serve::Request request;
    request.id = 0;
    request.method = serve::Method::kInferUser;
    request.user = users[i].user;
    if (ResponseOk(serve::ExecuteInferUser(&infer_index, params, request))) {
      t.infer_users.push_back(users[i].user);
    }
  }
  return t;
}

/// The request pool: every line is `{"v":1,"id":<id>` followed by a
/// stored body, so a schedule of millions of reads needs only the ids.
/// Bodies with a known answer also store the expected response body
/// (the response after its own `{"v":1,"id":<id>`).
constexpr std::string_view kHead = "{\"v\":1,\"id\":";

struct RequestPool {
  std::vector<std::string> bodies;
  std::vector<std::string> expected;  ///< Empty: check id and ok only.
  std::vector<uint8_t> is_read;

  uint32_t Add(std::string_view line, bool read) {
    bodies.emplace_back(StripHead(line));
    is_read.push_back(read ? 1 : 0);
    return static_cast<uint32_t>(bodies.size() - 1);
  }
  void Render(const Shot& shot, std::string* out) const {
    out->append(kHead);
    out->append(std::to_string(shot.id));
    out->append(bodies[shot.request]);
  }
  std::string Line(const Shot& shot) const {
    std::string line;
    Render(shot, &line);
    return line;
  }
  static std::string_view StripHead(std::string_view line) {
    if (line.substr(0, kHead.size()) != kHead) return line;
    size_t pos = kHead.size();
    while (pos < line.size() && (line[pos] == '-' || std::isdigit(
                                     static_cast<unsigned char>(line[pos])))) {
      ++pos;
    }
    return line.substr(pos);
  }
};

/// One read of the mix: 60% lookup_user, 20% infer_user, 15%
/// lookup_district, 5% topk_summary. The id is 0; shots supply theirs.
std::string ReadLine(const ReadTargets& t, Rng& rng) {
  const int64_t roll = rng.UniformInt(0, 99);
  auto pick = [&](size_t n) {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
  };
  if (roll < 20 && !t.infer_users.empty()) {
    return StrFormat(
        "{\"v\":1,\"id\":0,\"method\":\"infer_user\","
        "\"params\":{\"user\":%lld}}",
        static_cast<long long>(t.infer_users[pick(t.infer_users.size())]));
  }
  if (roll < 35 && !t.districts.empty()) {
    const auto& [state, county] = t.districts[pick(t.districts.size())];
    return StrFormat(
        "{\"v\":1,\"id\":0,\"method\":\"lookup_district\","
        "\"params\":{\"state\":\"%s\",\"county\":\"%s\",\"limit\":10}}",
        obs::JsonEscape(state).c_str(), obs::JsonEscape(county).c_str());
  }
  if (roll < 40 || t.users.empty()) {
    return "{\"v\":1,\"id\":0,\"method\":\"topk_summary\"}";
  }
  return StrFormat(
      "{\"v\":1,\"id\":0,\"method\":\"lookup_user\","
      "\"params\":{\"user\":%lld}}",
      static_cast<long long>(t.users[pick(t.users.size())]));
}

/// The response the protocol owes `line`, computed straight from the
/// indexes (no scheduler, no network).
std::string ExpectedResponse(std::string_view line,
                             const serve::StudyIndex& index,
                             const infer::InferenceIndex& infer_index) {
  serve::ParseOutcome parsed = serve::ParseRequest(line, 64 * 1024);
  if (!parsed.ok) return "<unparseable request>";
  if (parsed.request.method == serve::Method::kInferUser) {
    return serve::ExecuteInferUser(&infer_index, infer::InferParams{},
                                   parsed.request);
  }
  return serve::ExecuteOnIndex(index, parsed.request);
}

/// Adds kReadPoolSize reads of the mix; with indexes given, also their
/// expected answers.
void AddReadPool(const ReadTargets& targets, Rng& rng,
                 const serve::StudyIndex* index,
                 const infer::InferenceIndex* infer_index,
                 RequestPool* pool) {
  for (size_t i = 0; i < kReadPoolSize; ++i) {
    const std::string line = ReadLine(targets, rng);
    pool->Add(line, /*read=*/true);
    if (index != nullptr) {
      pool->expected.emplace_back(RequestPool::StripHead(
          ExpectedResponse(line, *index, *infer_index)));
    }
  }
}

/// Appends `count` evenly spaced reads from the first kReadPoolSize pool
/// entries, round robin over connections [0, conns), with ids from
/// `id_base`.
void AddReads(double rate, int64_t count, int conns, int64_t id_base,
              Rng& rng, std::vector<Shot>* shots) {
  const double gap_ns = 1e9 / rate;
  for (int64_t i = 0; i < count; ++i) {
    Shot shot;
    shot.due_ns = std::llround(static_cast<double>(i) * gap_ns);
    shot.conn = static_cast<int>(i % conns);
    shot.request = static_cast<uint32_t>(
        rng.UniformInt(0, static_cast<int64_t>(kReadPoolSize) - 1));
    shot.id = id_base + i;
    shots->push_back(shot);
  }
}

/// The id a response line carries (-1 when it has none).
int64_t ResponseId(std::string_view response) {
  if (response.substr(0, kHead.size()) != kHead) return -1;
  return std::strtoll(
      std::string(response.substr(kHead.size(), 24)).c_str(), nullptr, 10);
}

/// The integer after `"key":` in a response (-1 when absent).
int64_t JsonIntField(std::string_view response, std::string_view key) {
  std::string needle(1, '"');
  needle.append(key);
  needle.append("\":");
  const size_t at = response.find(needle);
  if (at == std::string_view::npos) return -1;
  return std::strtoll(
      std::string(response.substr(at + needle.size(), 24)).c_str(), nullptr,
      10);
}

/// True when `response` answers `shot`: the right id, and either the
/// expected body or, with no expectation stored, an ok envelope or an
/// inference abstention (a valid answer while evidence accumulates).
bool ResponseMatches(const RequestPool& pool, const Shot& shot,
                     std::string_view response) {
  if (ResponseId(response) != shot.id) return false;
  if (shot.request < pool.expected.size()) {
    return RequestPool::StripHead(response) == pool.expected[shot.request];
  }
  return ResponseOk(response) ||
         response.find("\"code\":\"low_confidence\"") !=
             std::string_view::npos;
}

// --- Server harness -----------------------------------------------------

/// The client and the event loop take a thread each; one more CPU is left
/// to the kernel's loopback work. With two workers on four CPUs the read
/// tail at the reference rate was about twice as long and wandered more
/// between runs than with one.
int ServeWorkers() { return std::max(1, BenchThreads() - 3); }

int ClientConns() { return BenchThreads(); }

serve::ServeOptions BaseServeOptions() {
  serve::ServeOptions options;
  options.workers = ServeWorkers();
  options.max_batch_size = 16;
  options.queue_capacity = 1024;
  return options;
}

/// serve::Server + net::EpollServer on an ephemeral loopback port.
class Harness {
 public:
  Harness(std::unique_ptr<serve::Server> server,
          obs::MetricsRegistry* metrics)
      : server_(std::move(server)) {
    net::NetOptions options;
    options.metrics = metrics;
    net_ = std::make_unique<net::EpollServer>(server_.get(), options);
    Status status = net_->Listen(0);
    if (status.ok()) status = net_->Start();
    if (!status.ok()) Fatal("server start failed: " + status.message());
  }
  ~Harness() { Stop(); }
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  uint16_t port() const { return net_->port(); }
  serve::Server& server() { return *server_; }

  /// Drains and joins; afterwards the stats below are final.
  void Stop() {
    if (stopped_) return;
    stopped_ = true;
    net_->Stop();
    server_->Drain();
  }
  serve::SchedulerStats scheduler_stats() const { return server_->stats(); }
  net::NetStats net_stats() const { return net_->stats(); }

 private:
  std::unique_ptr<serve::Server> server_;
  std::unique_ptr<net::EpollServer> net_;
  bool stopped_ = false;
};

/// Client-side outcome of a set of reads.
struct ReadStats {
  int64_t count = 0;
  int64_t failed = 0;  ///< Unanswered, error, shed, wrong id, mismatch.
  double p50_us = 0.0;
  double p99_us = 0.0;
  /// The lowest p50 of the reads due in one window: the phase's p50 with
  /// the machine's own pauses least in the way.
  double floor_p50_us = 0.0;
  double late_p90_us = 0.0;
  double late_p99_us = 0.0;
  double achieved_rps = 0.0;  ///< Reads answered / first due to last answer.
  /// The most reads answered in one window, per second: the server's
  /// capacity when the phase offers more than it can take.
  double peak_rps = 0.0;
  bool backlog = false;  ///< The end of the phase waited past the limit.
};

/// A load run plus the per-shot verdicts its response callback reached.
struct CheckedLoad {
  LoadResult load;
  std::vector<uint8_t> ok;       ///< 1 when the response checked out.
  std::vector<int64_t> sealed;   ///< append_tweets: epochs_sealed.
  int64_t shed = 0;              ///< `overloaded` envelopes seen.
};

/// Runs `shots` over `conns` connections and checks every response:
/// reads against the pool (see ResponseMatches), appends for the right
/// id, an ok envelope and the full batch appended.
CheckedLoad RunChecked(const Harness& harness, int conns,
                       const std::vector<Shot>& shots, const RequestPool& pool,
                       Report* report) {
  CheckedLoad out;
  out.ok.assign(shots.size(), 0);
  out.sealed.assign(shots.size(), 0);
  int64_t noted = 0;
  out.load = RunOpenLoop(
      harness.port(), conns, shots,
      [&](const Shot& shot, std::string* line) { pool.Render(shot, line); },
      [&](size_t i, std::string_view response) {
        const Shot& shot = shots[i];
        bool good;
        if (pool.is_read[shot.request]) {
          good = ResponseMatches(pool, shot, response);
        } else {
          good = ResponseId(response) == shot.id && ResponseOk(response) &&
                 JsonIntField(response, "appended_tweets") == kLiveAppendBatch;
          out.sealed[i] =
              std::max<int64_t>(0, JsonIntField(response, "epochs_sealed"));
        }
        if (response.find("\"code\":\"overloaded\"") != std::string::npos) {
          ++out.shed;
        }
        out.ok[i] = good ? 1 : 0;
        if (!good && noted < 3) {
          ++noted;
          report->Note("unexpected response to " + pool.Line(shot) + ": " +
                       std::string(response.substr(0, 400)));
        }
      },
      kDrainTimeoutNs);
  if (out.load.connect_failed) report->Incorrect("client could not connect");
  return out;
}

/// Latency statistics of the read shots in [begin, end).
ReadStats SummarizeReads(const std::vector<Shot>& shots,
                         const CheckedLoad& run, const RequestPool& pool,
                         size_t begin, size_t end) {
  ReadStats r;
  std::vector<double> latency;
  std::vector<double> late;
  int64_t first_due = -1;
  int64_t last_done = -1;
  for (size_t i = begin; i < end; ++i) {
    if (!pool.is_read[shots[i].request]) continue;
    ++r.count;
    const ShotTiming& t = run.load.timings[i];
    if (t.done_ns < 0 || !run.ok[i]) {
      ++r.failed;
      continue;
    }
    latency.push_back(static_cast<double>(t.done_ns - shots[i].due_ns) / 1e3);
    late.push_back(static_cast<double>(t.sent_ns - shots[i].due_ns) / 1e3);
    if (first_due < 0) first_due = shots[i].due_ns;
    last_done = std::max(last_done, t.done_ns);
  }
  // Backlog: the last tenth of the phase waits longer than the limit.
  if (latency.size() >= 10) {
    std::vector<double> tail(latency.end() - latency.size() / 10,
                             latency.end());
    r.backlog = Median(tail) > kBacklogLimitUs;
  }
  r.p50_us = Quantile(latency, 0.5);
  r.p99_us = Quantile(latency, 0.99);
  r.late_p90_us = Quantile(late, 0.90);
  r.late_p99_us = Quantile(late, 0.99);
  if (first_due >= 0 && last_done > first_due) {
    r.achieved_rps = static_cast<double>(latency.size()) * 1e9 /
                     static_cast<double>(last_done - first_due);
  }
  // Per window: the p50 of the reads due in it, and the reads answered in
  // it (windows counted from the first due time; the last, partial one of
  // the answers is left out).
  std::vector<std::vector<double>> due_in;
  std::vector<int64_t> answered_in;
  for (size_t i = begin; i < end; ++i) {
    const ShotTiming& t = run.load.timings[i];
    if (!pool.is_read[shots[i].request] || t.done_ns < 0 || !run.ok[i]) {
      continue;
    }
    const size_t due_w =
        static_cast<size_t>((shots[i].due_ns - first_due) / kWindowNs);
    if (due_in.size() <= due_w) due_in.resize(due_w + 1);
    due_in[due_w].push_back(static_cast<double>(t.done_ns - shots[i].due_ns) /
                            1e3);
    const size_t done_w =
        static_cast<size_t>((t.done_ns - first_due) / kWindowNs);
    if (answered_in.size() <= done_w) answered_in.resize(done_w + 1, 0);
    ++answered_in[done_w];
  }
  std::vector<double> window_p50;
  for (const std::vector<double>& w : due_in) {
    if (w.size() >= kMinWindowReads) window_p50.push_back(Median(w));
  }
  r.floor_p50_us =
      window_p50.empty()
          ? r.p50_us
          : *std::min_element(window_p50.begin(), window_p50.end());
  for (size_t w = 0; w + 1 < answered_in.size(); ++w) {
    r.peak_rps = std::max(r.peak_rps, static_cast<double>(answered_in[w]) *
                                          1e9 / static_cast<double>(kWindowNs));
  }
  return r;
}

/// Notes when the client, rather than the server, fell behind its
/// schedule: then the latencies of that phase blame the server for the
/// client, and its timings are invalid. A pause of the whole machine
/// delays a few sends; only a client late for a tenth of its sends counts
/// as behind. The outputs are still checked, so the run stays correct;
/// client.late_p99_us reports the lateness.
void CheckClientKeptUp(const ReadStats& stats, const std::string& phase,
                       Report* report) {
  constexpr double kMaxClientLateUs = 2000.0;
  if (stats.late_p90_us > kMaxClientLateUs) {
    report->Note(StrFormat(
        "TIMINGS INVALID: %s: the load generator fell behind its schedule "
        "(late p90 %.0f us)",
        phase.c_str(), stats.late_p90_us));
  }
}

/// Sheds the client saw must equal the scheduler's and the front end's
/// ledgers, and every line sent must have been framed and answered.
void Reconcile(const Harness& harness, int64_t lines, int64_t client_shed,
               Report* report) {
  const serve::SchedulerStats sched = harness.scheduler_stats();
  const net::NetStats net = harness.net_stats();
  int64_t net_shed = 0;
  int64_t sched_shed = 0;
  for (int t = 0; t < serve::kNumShedTiers; ++t) {
    net_shed += net.shed_by_tier[t];
    sched_shed += sched.rejected_by_tier[t];
  }
  if (client_shed != sched_shed || sched_shed != net_shed ||
      sched_shed != sched.rejected_overload) {
    report->Incorrect(StrFormat(
        "shed ledgers disagree: client %lld, scheduler %lld (tiers %lld), "
        "net %lld",
        static_cast<long long>(client_shed),
        static_cast<long long>(sched.rejected_overload),
        static_cast<long long>(sched_shed), static_cast<long long>(net_shed)));
  }
  if (net.lines_in != lines || net.responses_out != lines ||
      sched.received != lines) {
    report->Incorrect(StrFormat(
        "line ledgers disagree: sent %lld, net in %lld / out %lld, "
        "scheduler received %lld",
        static_cast<long long>(lines), static_cast<long long>(net.lines_in),
        static_cast<long long>(net.responses_out),
        static_cast<long long>(sched.received)));
  }
}

/// Serve and net layer values from a traced server's registry.
void ServeLayers(const obs::MetricsSnapshot& m, const net::NetStats& net,
                 LayerValues* out) {
  LayerValues& v = *out;
  v["serve.batch_size_mean"] = HistogramMean(m, "serve.batch_size");
  v["serve.queue_depth_max"] =
      static_cast<double>(m.gauge("serve.queue_depth_max"));
  v["serve.shed"] = static_cast<double>(m.counter("serve.rejected.overload"));
  v["pool.busy_imbalance"] = BusyImbalance(m);
  v["pool.queue_wait_us"] = HistogramMean(m, "pool.queue_wait_us");
  if (net.lines_in > 0) {
    v["net.bytes_per_request"] =
        static_cast<double>(net.bytes_in + net.bytes_out) /
        static_cast<double>(net.lines_in);
  }
}

/// Mean µs per call of ParseRequest, of ExecuteOnIndex (index methods)
/// and of ExecuteInferUser, over the pool's reads.
void RequestPathLayers(const RequestPool& pool, const serve::StudyIndex& index,
                       const infer::InferenceIndex& infer_index,
                       LayerValues* out) {
  std::vector<std::string> lines;
  for (uint32_t i = 0; i < pool.bodies.size(); ++i) {
    if (pool.is_read[i]) lines.push_back(pool.Line(Shot{0, 0, i, i + 1}));
  }
  std::vector<serve::Request> requests;
  requests.reserve(lines.size());
  int64_t t0 = NowNs();
  for (const std::string& line : lines) {
    serve::ParseOutcome parsed = serve::ParseRequest(line, 64 * 1024);
    if (parsed.ok) requests.push_back(std::move(parsed.request));
  }
  const double parse_us = static_cast<double>(NowNs() - t0) / 1e3;
  size_t index_calls = 0;
  size_t infer_calls = 0;
  double index_us = 0.0;
  double infer_us = 0.0;
  const infer::InferParams params;
  for (const serve::Request& request : requests) {
    t0 = NowNs();
    if (request.method == serve::Method::kInferUser) {
      serve::ExecuteInferUser(&infer_index, params, request);
      infer_us += static_cast<double>(NowNs() - t0) / 1e3;
      ++infer_calls;
    } else {
      serve::ExecuteOnIndex(index, request);
      index_us += static_cast<double>(NowNs() - t0) / 1e3;
      ++index_calls;
    }
  }
  LayerValues& v = *out;
  if (!lines.empty()) {
    v["serve.parse_us"] = parse_us / static_cast<double>(lines.size());
  }
  if (index_calls > 0) {
    v["serve.execute_us"] = index_us / static_cast<double>(index_calls);
  }
  if (infer_calls > 0) {
    v["infer.execute_us"] = infer_us / static_cast<double>(infer_calls);
  }
}

/// Median µs from due time to completion of the first `count` shots
/// submitted in-process (Server::SubmitLineWith, no network) on their
/// schedule.
double InProcessP50(serve::Server* server, const std::vector<Shot>& shots,
                    const RequestPool& pool, size_t count) {
  const size_t n = std::min(shots.size(), count);
  std::vector<std::string> lines;
  lines.reserve(n);
  for (size_t i = 0; i < n; ++i) lines.push_back(pool.Line(shots[i]));
  std::vector<std::atomic<int64_t>> done(n);
  for (auto& d : done) d.store(-1);
  const int64_t start = NowNs();
  for (size_t i = 0; i < n; ++i) {
    const int64_t due = start + shots[i].due_ns;
    for (int64_t now = NowNs(); now < due; now = NowNs()) {
      if (due - now > 200'000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 100'000));
      }
    }
    server->SubmitLineWith(lines[i],
                           [&done, i](std::string, const serve::ResponseMeta&) {
                             done[i].store(NowNs());
                           });
  }
  server->Drain();
  std::vector<double> latency;
  for (size_t i = 0; i < n; ++i) {
    const int64_t d = done[i].load();
    if (d >= 0) {
      latency.push_back(static_cast<double>(d - start - shots[i].due_ns) / 1e3);
    }
  }
  return Median(latency);
}

/// The fastest of several repetitions of the same work: a pause of the
/// machine only ever adds time, so the fastest is what the code costs.
double Fastest(const std::vector<double>& seconds) {
  return seconds.empty() ? 0.0
                         : *std::min_element(seconds.begin(), seconds.end());
}

void ReportEndToEnd(Report* report, double setup_s, double study_s) {
  report->Metric("setup_s", setup_s, "s");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  report->Metric("study_s", study_s, "s");
}

/// The read metrics of a traced run: net.read_p50_us and net.read_p99_us
/// from the reference-rate reads, net.read_max_rps from the saturation
/// phase.
void ReadLayers(const ReadStats& reference, const ReadStats& saturation,
                LayerValues* out) {
  LayerValues& v = *out;
  v["net.read_p50_us"] = reference.floor_p50_us;
  v["net.read_p99_us"] = reference.p99_us;
  v["net.read_max_rps"] = saturation.peak_rps;
  v["client.late_p99_us"] = reference.late_p99_us;
}

/// The fastest cold start, rescaled by how fast the machine ran the
/// calibration loop in this run: seconds on a machine where it takes
/// kCalibrationReferenceS. A shared host that slows for minutes slows the
/// loop alike, so the scaled time moves with the program, not the host.
double ScaledStudySeconds(const std::vector<double>& cold_starts,
                          const std::vector<double>& calibrations,
                          Report* report) {
  const double fastest = Fastest(cold_starts);
  const double calibration = Median(calibrations);
  report->Note(StrFormat(
      "fastest cold start %.3f s, calibration loop %.3f s (median of %zu), "
      "scaled study_s %.3f s",
      fastest, calibration, calibrations.size(),
      Ratio(fastest * kCalibrationReferenceS, calibration)));
  return Ratio(fastest * kCalibrationReferenceS, calibration);
}

std::string DescribeReads(const std::string& label, const ReadStats& r) {
  return StrFormat(
      "%s: %lld reads, failed %lld, p50 %.0f us (best window %.0f us), "
      "p99 %.0f us, achieved %.0f/s (best window %.0f/s), client late p99 "
      "%.0f us%s",
      label.c_str(), static_cast<long long>(r.count),
      static_cast<long long>(r.failed), r.p50_us, r.floor_p50_us, r.p99_us,
      r.achieved_rps, r.peak_rps, r.late_p99_us,
      r.backlog ? ", BACKLOG" : "");
}

/// The median of each per-layer value over several traced repetitions.
void MedianLayers(const std::vector<LayerValues>& runs, LayerValues* out) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    std::vector<double> values;
    for (const LayerValues& v : runs) {
      auto it = v.find(name);
      if (it != v.end()) values.push_back(it->second);
    }
    if (!values.empty()) (*out)[name] = Median(values);
  }
}

/// Warms `harness` up with 2,000 reads, then sends reads at the reference
/// rate and then at the saturation rate, each for its phase's share of
/// --seconds. All are checked against the pool and counted; the ledgers
/// are reconciled after the harness stops. Returns the stats of the
/// reference and the saturation phase.
std::pair<ReadStats, ReadStats> ReadReferenceThenSaturation(
    Harness& harness, const RequestPool& pool, const Args& args, Rng& rng,
    const std::string& label, Report* report) {
  const int conns = ClientConns();
  std::vector<std::vector<Shot>> phases(3);
  AddReads(kReferenceRate, 2000, conns, 1, rng, &phases[0]);
  for (int p = 1; p <= 2; ++p) {
    const RatePhase& phase = p == 1 ? kServePhases[0] : kSaturation;
    AddReads(phase.rate, std::llround(phase.rate * phase.share * args.seconds),
             conns, p * 1'000'000'000LL, rng, &phases[p]);
  }
  std::vector<ReadStats> stats;
  int64_t lines = 0;
  int64_t shed = 0;
  for (const std::vector<Shot>& shots : phases) {
    const CheckedLoad run = RunChecked(harness, conns, shots, pool, report);
    stats.push_back(SummarizeReads(shots, run, pool, 0, shots.size()));
    report->AddAttempted(stats.back().count);
    report->AddFailed(stats.back().failed, label);
    lines += static_cast<int64_t>(shots.size());
    shed += run.shed;
  }
  harness.Stop();
  Reconcile(harness, lines, shed, report);
  CheckClientKeptUp(stats[1], label, report);
  report->Note(DescribeReads(label, stats[1]));
  report->Note(DescribeReads(label + " (saturation)", stats[2]));
  return {stats[1], stats[2]};
}

}  // namespace

// --- study ----------------------------------------------------------------

void RunStudy(const Args& args, Report* report) {
  const std::string path = CorpusPath(args, "study");
  // Set-up: stream the corpus to disk (repeated; setup_s is the median).
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const int64_t t0 = NowUs();
    WriteCorpus(args.seed, kStudyScale, path);
    setups.push_back(SecondsSince(t0));
  }

  // Reference through the second entry point: the in-memory generator,
  // the row-store study and the row-store inference build.
  const int64_t ref_t0 = NowUs();
  twitter::DatasetGenerator generator(&Db(),
                                      CorpusOptions(args.seed, kStudyScale));
  twitter::GeneratedData data = generator.Generate();
  StudyConfig ref_config;
  ref_config.threads = BenchThreads();
  core::CorrelationStudy reference_study(&Db(), ref_config);
  const core::StudyResult reference = reference_study.Run(data.dataset);
  const serve::StudyIndex reference_index =
      serve::StudyIndex::Build(reference, Db());
  const infer::InferenceIndex reference_infer =
      infer::InferenceIndex::Build(data.dataset, Db());
  const std::string reference_groups = reference.GroupTableString();
  const std::string reference_funnel = reference.FunnelString();
  data = twitter::GeneratedData{};
  report->Note(StrFormat("reference (generate + row-store study) %.2f s",
                         SecondsSince(ref_t0)));

  Rng rng(args.seed * 7919 + 17);
  RequestPool pool;
  AddReadPool(SelectTargets(reference_index, reference_infer), rng,
              &reference_index, &reference_infer, &pool);

  // Timed phase: a fixed number of repetitions, so that the operation
  // count depends only on --seconds.
  const int reps = std::max(4, (args.seconds * 2 + 2) / 3);
  std::vector<double> untraced_s;
  std::vector<double> calibrations;
  std::vector<double> traced_s;
  std::vector<LayerValues> traced_layers;
  std::vector<double> coverage;
  Servable last;  // The last repetition's indexes, served below.
  for (int rep = 0; rep < reps; ++rep) {
    // Traced runs alternate traced and untraced repetitions; the ratio of
    // their medians is the tracing overhead.
    const bool traced = args.trace && rep % 2 == 1;
    obs::MetricsRegistry metrics;
    obs::SteadyClock clock;
    obs::Tracer::Options tracer_options;
    tracer_options.clock = &clock;
    obs::Tracer tracer(tracer_options);
    calibrations.push_back(CalibrationSeconds());
    Servable s = ColdStart(path, traced ? &metrics : nullptr,
                           traced ? &tracer : nullptr);
    (traced ? traced_s : untraced_s).push_back(s.seconds);
    report->AddAttempted(1);
    const bool same = s.result.GroupTableString() == reference_groups &&
                      s.result.FunnelString() == reference_funnel &&
                      s.index->user_count() == reference_index.user_count() &&
                      s.infer->user_count() == reference_infer.user_count();
    report->AddFailed(same ? 0 : 1,
                      "cold start result differs from the reference");
    if (traced) {
      const obs::MetricsSnapshot snapshot = metrics.Snapshot();
      const Ledger ledger = BuildLedger(tracer.Snapshot(), snapshot);
      LayerValues v;
      ColdStartLayers(s, ledger, snapshot, &v);
      traced_layers.push_back(std::move(v));
      coverage.push_back(Ratio(ledger.Sum(), ledger.total_ms));
    }

    // Every pooled read, executed in-process on this repetition's indexes,
    // must answer byte for byte as the reference does.
    int64_t mismatches = 0;
    for (uint32_t i = 0; i < pool.bodies.size(); ++i) {
      const Shot shot{0, 0, i, static_cast<int64_t>(i) + 1};
      const std::string response =
          ExpectedResponse(pool.Line(shot), *s.index, *s.infer);
      if (!ResponseMatches(pool, shot, response)) ++mismatches;
    }
    report->AddAttempted(static_cast<int64_t>(pool.bodies.size()));
    report->AddFailed(mismatches, "reads differ from the reference answers");
    if (rep == reps - 1) last = std::move(s);
  }
  std::string rep_times;
  for (double t : untraced_s) rep_times += StrFormat(" %.3f", t);
  report->Note(StrFormat("study: %d repetitions, untraced cold starts:%s",
                         reps, rep_times.c_str()));
  const double study_s = ScaledStudySeconds(untraced_s, calibrations, report);

  // Reads over TCP at the reference rate, from a server freshly started
  // on the last repetition's indexes.
  obs::MetricsRegistry serve_metrics;
  serve::ServeOptions options = BaseServeOptions();
  options.infer_index = last.infer.get();
  if (args.trace) options.metrics = &serve_metrics;
  Harness harness(std::make_unique<serve::Server>(last.index.get(), options),
                  args.trace ? &serve_metrics : nullptr);
  const auto [reads, saturation] = ReadReferenceThenSaturation(
      harness, pool, args, rng, "study reads", report);
  LayerValues layers;
  if (!args.trace) {
    ReportEndToEnd(report, Median(setups), study_s);
    return;
  }
  ServeLayers(serve_metrics.Snapshot(), harness.net_stats(), &layers);
  RequestPathLayers(pool, *last.index, *last.infer, &layers);
  layers["geo.ns_per_lookup"] = GeocodeNsPerLookup(last.view);
  ReadLayers(reads, saturation, &layers);
  MedianLayers(traced_layers, &layers);
  layers["ledger.coverage"] = Median(coverage);
  layers["trace.overhead_ratio"] = Ratio(Median(traced_s), Median(untraced_s));
  const double cov = layers["ledger.coverage"];
  report->Note(StrFormat(
      "ledger: layer self times sum to %.3f of the traced cold start", cov));
  if (cov < 0.9 || cov > 1.1) {
    report->Incorrect(
        "layer ledger does not sum to the traced cold start within 10%");
  }
  ReportLayers(layers, report);
}

// --- serve ----------------------------------------------------------------

void RunServe(const Args& args, Report* report) {
  const std::string path = CorpusPath(args, "serve");
  // Set-up: corpus and cold start to servable indexes. A traced run makes
  // one more repetition and traces every other one, for the overhead.
  const int repeats = args.trace ? kSetupRepeats + 1 : kSetupRepeats;
  std::vector<double> setups;
  std::vector<double> cold_untraced;
  std::vector<double> cold_traced;
  obs::SteadyClock clock;
  obs::Tracer::Options tracer_options;
  tracer_options.clock = &clock;
  LayerValues layers;
  std::vector<double> calibrations;
  Servable s;
  for (int i = 0; i < repeats; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    s = Servable{};  // One generation of indexes alive at a time.
    for (int c = 0; c < kCalibrationsPerSetup; ++c) {
      calibrations.push_back(CalibrationSeconds());
    }
    const int64_t t0 = NowUs();
    WriteCorpus(args.seed, kServeScale, path);
    obs::MetricsRegistry metrics;
    obs::Tracer tracer(tracer_options);
    s = ColdStart(path, traced ? &metrics : nullptr,
                  traced ? &tracer : nullptr);
    setups.push_back(SecondsSince(t0));
    (traced ? cold_traced : cold_untraced).push_back(s.seconds);
    if (traced) {
      const obs::MetricsSnapshot snapshot = metrics.Snapshot();
      ColdStartLayers(s, BuildLedger(tracer.Snapshot(), snapshot), snapshot,
                      &layers);
    }
  }

  Rng rng(args.seed * 7919 + 29);
  RequestPool pool;
  AddReadPool(SelectTargets(*s.index, *s.infer), rng, s.index.get(),
              s.infer.get(), &pool);
  const int conns = ClientConns();
  std::vector<std::vector<Shot>> phases;
  for (size_t p = 0; p < std::size(kServePhases); ++p) {
    const RatePhase& phase = kServePhases[p];
    phases.emplace_back();
    AddReads(phase.rate, std::llround(phase.rate * phase.share * args.seconds),
             conns, static_cast<int64_t>(p + 1) * 1'000'000'000, rng,
             &phases.back());
  }

  obs::MetricsRegistry serve_metrics;
  serve::ServeOptions options = BaseServeOptions();
  options.infer_index = s.infer.get();
  if (args.trace) options.metrics = &serve_metrics;
  Harness harness(std::make_unique<serve::Server>(s.index.get(), options),
                  args.trace ? &serve_metrics : nullptr);
  report->Note(StrFormat("peak RSS after set-up %.1f MB", PeakRssMb()));
  // Warm-up at the reference rate (checked, not measured, not counted).
  int64_t lines = 0;
  int64_t shed = 0;
  {
    const std::vector<Shot> warm(
        phases[0].begin(),
        phases[0].begin() +
            static_cast<std::ptrdiff_t>(std::min<size_t>(phases[0].size(),
                                                         2000)));
    const CheckedLoad run = RunChecked(harness, conns, warm, pool, report);
    lines += static_cast<int64_t>(warm.size());
    shed += run.shed;
  }

  std::vector<ReadStats> stats;
  for (size_t p = 0; p < phases.size(); ++p) {
    const CheckedLoad run = RunChecked(harness, conns, phases[p], pool, report);
    const ReadStats r =
        SummarizeReads(phases[p], run, pool, 0, phases[p].size());
    lines += static_cast<int64_t>(phases[p].size());
    shed += run.shed;
    const std::string label =
        StrFormat("serve @ %.0f/s", kServePhases[p].rate);
    report->AddAttempted(r.count);
    report->AddFailed(r.failed, label);
    report->Note(DescribeReads(label, r));
    if (p == 0) CheckClientKeptUp(r, label, report);
    stats.push_back(r);
  }
  harness.Stop();
  Reconcile(harness, lines, shed, report);

  if (!args.trace) {
    ReportEndToEnd(report, Median(setups),
                   ScaledStudySeconds(cold_untraced, calibrations, report));
    return;
  }
  ServeLayers(serve_metrics.Snapshot(), harness.net_stats(), &layers);
  RequestPathLayers(pool, *s.index, *s.infer, &layers);
  {
    serve::ServeOptions inproc_options = BaseServeOptions();
    inproc_options.infer_index = s.infer.get();
    serve::Server inproc(s.index.get(), inproc_options);
    layers["serve.inproc_p50_us"] = InProcessP50(
        &inproc, phases[0], pool, static_cast<size_t>(kReferenceRate));
  }
  layers["net.overhead_us"] = stats[0].p50_us - layers["serve.inproc_p50_us"];
  layers["geo.ns_per_lookup"] = GeocodeNsPerLookup(s.view);
  ReadLayers(stats[0], stats.back(), &layers);
  layers["trace.overhead_ratio"] =
      Ratio(Median(cold_traced), Median(cold_untraced));
  ReportLayers(layers, report);
}

// --- live -----------------------------------------------------------------

namespace {

std::string AppendLine(const twitter::Dataset& dataset,
                       const std::vector<size_t>& log, size_t begin,
                       size_t end) {
  std::string line =
      "{\"v\":1,\"id\":0,\"method\":\"append_tweets\",\"params\":{\"tweets\":[";
  for (size_t i = begin; i < end; ++i) {
    const twitter::Tweet& tweet = dataset.tweets()[log[i]];
    if (i > begin) line += ',';
    line += StrFormat("{\"id\":%lld,\"user\":%lld,\"time\":%lld",
                      static_cast<long long>(tweet.id),
                      static_cast<long long>(tweet.user),
                      static_cast<long long>(tweet.time));
    if (tweet.gps.has_value()) {
      // %.17g round-trips the double exactly, so the streamed geocode
      // sees the same point the batch reference does.
      line += StrFormat(",\"lat\":%.17g,\"lng\":%.17g", tweet.gps->lat,
                        tweet.gps->lng);
    }
    line += ",\"text\":\"" + obs::JsonEscape(tweet.text) + "\"}";
  }
  line += "]}}";
  return line;
}

/// Byte-compares the answers two generations give: topk, every user and
/// district of `batch`, and infer_user for a spread of users. Returns the
/// number of differing answers; `compared` receives how many were made.
int64_t CompareGenerations(const serve::StudyIndex& streamed,
                           const infer::InferenceIndex& streamed_infer,
                           const serve::StudyIndex& batch,
                           const infer::InferenceIndex& batch_infer,
                           int64_t* compared) {
  int64_t differ = streamed.user_count() == batch.user_count() ? 0 : 1;
  *compared = 1;
  auto check = [&](const serve::Request& request) {
    ++*compared;
    if (serve::ExecuteOnIndex(streamed, request) !=
        serve::ExecuteOnIndex(batch, request)) {
      ++differ;
    }
  };
  serve::Request topk;
  topk.method = serve::Method::kTopkSummary;
  check(topk);
  for (const serve::UserEntry& entry : batch.users()) {
    serve::Request lookup;
    lookup.method = serve::Method::kLookupUser;
    lookup.user = entry.user;
    check(lookup);
  }
  for (const serve::DistrictEntry& entry : batch.districts()) {
    const std::string& name = batch.name(entry.name);
    const size_t space = name.find(' ');
    if (space == std::string::npos) continue;
    serve::Request lookup;
    lookup.method = serve::Method::kLookupDistrict;
    lookup.state = name.substr(0, space);
    lookup.county = name.substr(space + 1);
    lookup.limit = 10;
    check(lookup);
  }
  const infer::InferParams params;
  const auto& users = batch_infer.users();
  const size_t step = std::max<size_t>(1, users.size() / 4000);
  for (size_t i = 0; i < users.size(); i += step) {
    serve::Request request;
    request.method = serve::Method::kInferUser;
    request.user = users[i].user;
    ++*compared;
    if (serve::ExecuteInferUser(&streamed_infer, params, request) !=
        serve::ExecuteInferUser(&batch_infer, params, request)) {
      ++differ;
    }
  }
  return differ;
}

struct LiveSetup {
  twitter::GeneratedData data;
  std::vector<size_t> log;   ///< Dataset tweet indices in replay order.
  int64_t timed_tweets = 0;  ///< Log suffix appended in the timed phase.
  size_t preload = 0;        ///< Log prefix ingested in set-up.
  std::unique_ptr<stream::StreamEngine> engine;
  double cold_start_s = 0.0;  ///< Engine open, ingest and first seal.
};

/// Generates the corpus and ingests every user and the log prefix into a
/// fresh in-memory engine. The timed phase appends kLiveTweetRate tweets
/// per second for --seconds, capped at half the log, in whole epochs.
LiveSetup SetUpLive(const Args& args, obs::MetricsRegistry* metrics) {
  LiveSetup setup;
  twitter::DatasetGenerator generator(&Db(),
                                      CorpusOptions(args.seed, kServeScale));
  setup.data = generator.Generate();
  const twitter::Dataset& dataset = setup.data.dataset;
  twitter::StreamingApi api(&dataset);
  api.Replay([&](size_t index, const twitter::Tweet&) {
    setup.log.push_back(index);
  });
  const int64_t wanted = static_cast<int64_t>(kLiveTweetRate) * args.seconds;
  setup.timed_tweets =
      std::min(wanted, static_cast<int64_t>(setup.log.size()) / 2);
  setup.timed_tweets -= setup.timed_tweets % kLiveEpochSize;
  if (setup.timed_tweets <= 0) Fatal("corpus too small for the live workload");
  setup.preload = setup.log.size() - static_cast<size_t>(setup.timed_tweets);

  const int64_t t0 = NowUs();
  StudyConfig config;
  config.threads = BenchThreads();
  config.obs.metrics = metrics;
  stream::StreamOptions options;
  options.epoch_size = kLiveEpochSize;
  setup.engine =
      std::make_unique<stream::StreamEngine>(&Db(), config, options);
  Status status = setup.engine->Open();
  for (const twitter::User& user : dataset.users()) {
    if (status.ok()) status = setup.engine->AddUser(user);
  }
  for (size_t i = 0; i < setup.preload && status.ok(); ++i) {
    status = setup.engine->AddTweet(dataset.tweets()[setup.log[i]],
                                    static_cast<int64_t>(setup.log[i]));
  }
  if (!status.ok()) Fatal("stream ingest failed: " + status.message());
  setup.engine->SealEpoch();
  setup.cold_start_s = SecondsSince(t0);
  return setup;
}

}  // namespace

void RunLive(const Args& args, Report* report) {
  obs::MetricsRegistry metrics;  // Engine, scheduler and front end.
  // Registries of discarded traced set-ups; declared before `setup` so
  // that they outlive the engines (and generations) that publish to them.
  std::vector<std::unique_ptr<obs::MetricsRegistry>> discarded;
  const int repeats = args.trace ? kSetupRepeats + 1 : kSetupRepeats;
  std::vector<double> setups;
  std::vector<double> cold_untraced;
  std::vector<double> cold_traced;
  std::vector<double> calibrations;
  LiveSetup setup;
  for (int i = 0; i < repeats; ++i) {
    // The kept (last) set-up is traced in a traced run.
    const bool traced = args.trace && (repeats - 1 - i) % 2 == 0;
    obs::MetricsRegistry* sink = nullptr;
    if (traced && i == repeats - 1) {
      sink = &metrics;
    } else if (traced) {
      discarded.push_back(std::make_unique<obs::MetricsRegistry>());
      sink = discarded.back().get();
    }
    setup = LiveSetup{};
    for (int c = 0; c < kCalibrationsPerSetup; ++c) {
      calibrations.push_back(CalibrationSeconds());
    }
    const int64_t t0 = NowUs();
    setup = SetUpLive(args, sink);
    setups.push_back(SecondsSince(t0));
    (traced ? cold_traced : cold_untraced).push_back(setup.cold_start_s);
  }
  stream::StreamEngine& engine = *setup.engine;
  const twitter::Dataset& dataset = setup.data.dataset;

  // Reference: the batch study and inference build over the whole log.
  const int64_t ref_t0 = NowUs();
  StudyConfig ref_config;
  ref_config.threads = BenchThreads();
  core::CorrelationStudy reference_study(&Db(), ref_config);
  const serve::StudyIndex reference_index =
      serve::StudyIndex::Build(reference_study.Run(dataset), Db());
  const infer::InferenceIndex reference_infer =
      infer::InferenceIndex::Build(dataset, Db());
  report->Note(StrFormat("reference (batch study over the full log) %.2f s",
                         SecondsSince(ref_t0)));

  // Reads target what the preloaded generation already serves: final
  // users and districts stay answerable as the log grows. Their answers
  // change with every seal, so reads are checked for id and status.
  Rng rng(args.seed * 7919 + 43);
  RequestPool pool;
  AddReadPool(SelectTargets(*engine.CurrentIndex(), *engine.CurrentInferIndex()),
              rng, nullptr, nullptr, &pool);
  // Reads at the reference rate, then, for the saturation share of the
  // run, at the saturation rate; the appends go on throughout.
  const int conns = ClientConns();
  const double reference_s =
      (1.0 - kSaturation.share) * static_cast<double>(args.seconds);
  const int64_t saturation_start_ns = std::llround(reference_s * 1e9);
  std::vector<Shot> shots;
  AddReads(kReferenceRate, std::llround(kReferenceRate * reference_s), conns,
           1, rng, &shots);
  const size_t reference_reads = shots.size();
  AddReads(kSaturation.rate,
           std::llround(kSaturation.rate * kSaturation.share * args.seconds),
           conns, 2'000'000'000, rng, &shots);
  for (size_t i = reference_reads; i < shots.size(); ++i) {
    shots[i].due_ns += saturation_start_ns;
  }
  const size_t appends =
      static_cast<size_t>(setup.timed_tweets / kLiveAppendBatch);
  const double append_gap_ns = 1e9 * kLiveAppendBatch / kLiveTweetRate;
  for (size_t a = 0; a < appends; ++a) {
    const size_t begin = setup.preload + a * kLiveAppendBatch;
    Shot shot;
    shot.due_ns = std::llround(static_cast<double>(a) * append_gap_ns);
    shot.conn = conns;  // Appends have a connection of their own.
    shot.request = pool.Add(
        AppendLine(dataset, setup.log, begin, begin + kLiveAppendBatch),
        /*read=*/false);
    shot.id = 1'000'000'000 + static_cast<int64_t>(a);
    shots.push_back(shot);
  }
  std::stable_sort(shots.begin(), shots.end(),
                   [](const Shot& a, const Shot& b) {
                     return a.due_ns < b.due_ns;
                   });

  serve::ServeOptions options = BaseServeOptions();
  options.stream = &engine;
  const std::shared_ptr<const infer::InferenceIndex> seed_infer =
      engine.CurrentInferIndex();
  options.infer_index = seed_infer.get();
  if (args.trace) options.metrics = &metrics;
  auto server = std::make_unique<serve::Server>(engine.CurrentIndex(),
                                                engine.generation(), options);
  engine.AttachScheduler(&server->scheduler());
  Harness harness(std::move(server), args.trace ? &metrics : nullptr);
  const obs::MetricsSnapshot before = metrics.Snapshot();
  const int64_t sealed_before = engine.epochs_sealed();
  const CheckedLoad run = RunChecked(harness, conns + 1, shots, pool, report);
  harness.Stop();
  engine.AttachScheduler(nullptr);
  const obs::MetricsSnapshot after = metrics.Snapshot();

  const size_t split = static_cast<size_t>(
      std::partition_point(shots.begin(), shots.end(),
                           [&](const Shot& shot) {
                             return shot.due_ns < saturation_start_ns;
                           }) -
      shots.begin());
  const ReadStats reads = SummarizeReads(shots, run, pool, 0, split);
  const ReadStats saturation =
      SummarizeReads(shots, run, pool, split, shots.size());
  report->AddAttempted(reads.count + saturation.count);
  report->AddFailed(reads.failed + saturation.failed, "live reads");
  CheckClientKeptUp(reads, "live reads", report);

  // Appends, seals and visibility: a batch becomes readable when the
  // first append at or after it reports a sealed epoch. Latencies are
  // taken before the saturation phase, whose read backlog they would
  // otherwise include.
  std::vector<double> append_us;
  std::vector<double> seal_ms;
  std::vector<double> visible_ms;
  std::vector<std::pair<int64_t, int64_t>> seal_windows;
  int64_t append_failed = 0;
  int64_t seals = 0;
  std::vector<size_t> unsealed;
  for (size_t i = 0; i < shots.size(); ++i) {
    if (pool.is_read[shots[i].request]) continue;
    const ShotTiming& t = run.load.timings[i];
    if (t.done_ns < 0 || !run.ok[i]) {
      ++append_failed;
      continue;
    }
    seals += std::max<int64_t>(run.sealed[i], 0);
    if (i >= split) continue;
    const double latency_us =
        static_cast<double>(t.done_ns - shots[i].due_ns) / 1e3;
    append_us.push_back(latency_us);
    unsealed.push_back(i);
    if (run.sealed[i] > 0) {
      seal_ms.push_back(latency_us / 1e3);
      seal_windows.emplace_back(t.sent_ns, t.done_ns);
      for (size_t j : unsealed) {
        visible_ms.push_back(
            static_cast<double>(t.done_ns - shots[j].due_ns) / 1e6);
      }
      unsealed.clear();
    }
  }
  report->AddAttempted(static_cast<int64_t>(appends));
  report->AddFailed(append_failed, "live appends");
  const int64_t expected_seals = setup.timed_tweets / kLiveEpochSize;
  if (seals != expected_seals ||
      engine.epochs_sealed() - sealed_before != expected_seals) {
    report->Incorrect(StrFormat("expected %lld seals, responses report %lld",
                                static_cast<long long>(expected_seals),
                                static_cast<long long>(seals)));
  }
  // Reads in flight while a sealing append was outstanding.
  int64_t behind = 0;
  for (size_t i = 0; i < split; ++i) {
    const ShotTiming& t = run.load.timings[i];
    if (!pool.is_read[shots[i].request] || t.done_ns < 0) continue;
    for (const auto& [s0, s1] : seal_windows) {
      if (t.sent_ns < s1 && t.done_ns > s0) {
        ++behind;
        break;
      }
    }
  }
  Reconcile(harness, static_cast<int64_t>(shots.size()), run.shed, report);

  // The final generation must answer exactly as the batch study over the
  // same log does.
  engine.SealEpoch();
  int64_t compared = 0;
  const int64_t differ = CompareGenerations(
      *engine.CurrentIndex(), *engine.CurrentInferIndex(), reference_index,
      reference_infer, &compared);
  report->AddAttempted(compared);
  report->AddFailed(differ, "final generation differs from the batch study");

  report->Note(DescribeReads("live reads", reads));
  report->Note(DescribeReads("live reads (saturation)", saturation));
  report->Note(StrFormat(
      "live appends: %zu x %d tweets, %lld seals, append p99 %.0f us, seal "
      "p50 %.1f ms, visible p50 %.1f ms, reads behind a seal %lld",
      appends, kLiveAppendBatch, static_cast<long long>(seals),
      Quantile(append_us, 0.99), Median(seal_ms), Median(visible_ms),
      static_cast<long long>(behind)));

  if (!args.trace) {
    ReportEndToEnd(report, Median(setups),
                   ScaledStudySeconds(cold_untraced, calibrations, report));
    return;
  }
  LayerValues layers;
  ServeLayers(after, harness.net_stats(), &layers);
  const int64_t d_sealed = after.counter("stream.epochs_sealed") -
                           before.counter("stream.epochs_sealed");
  const int64_t d_seal_us =
      after.counter("stream.seal_us") - before.counter("stream.seal_us");
  layers["stream.seals"] = static_cast<double>(seals);
  layers["stream.seal_ms"] =
      Ratio(static_cast<double>(d_seal_us) / 1e3, static_cast<double>(d_sealed));
  {
    auto a = after.histograms.find("stream.swap_us");
    auto b = before.histograms.find("stream.swap_us");
    if (a != after.histograms.end() && b != before.histograms.end()) {
      layers["stream.swap_us"] =
          Ratio(static_cast<double>(a->second.sum - b->second.sum),
                static_cast<double>(a->second.count - b->second.count));
    }
  }
  {
    const int64_t t0 = NowUs();
    const core::StudyResult snapshot = engine.SnapshotResult();
    layers["stream.snapshot_ms"] = static_cast<double>(NowUs() - t0) / 1e3;
    layers["core.final_users"] = static_cast<double>(snapshot.final_users);
  }
  layers["stream.reads_behind_seal_ratio"] =
      Ratio(static_cast<double>(behind), static_cast<double>(reads.count));
  layers["stream.append_p99_us"] = Quantile(append_us, 0.99);
  layers["stream.seal_p50_ms"] = Median(seal_ms);
  layers["stream.visible_p50_ms"] = Median(visible_ms);
  const double queries = static_cast<double>(after.counter("geocode.queries"));
  layers["geo.lookups"] = queries;
  layers["geo.cache_hit_ratio"] =
      Ratio(static_cast<double>(after.counter("geocode.cache_hits")), queries);
  RequestPathLayers(pool, *engine.CurrentIndex(), *engine.CurrentInferIndex(),
                    &layers);
  ReadLayers(reads, saturation, &layers);
  layers["trace.overhead_ratio"] =
      Ratio(Median(cold_traced), Median(cold_untraced));
  ReportLayers(layers, report);
}

// --- per-layer metric table ----------------------------------------------

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"io.open_ms", "ms"},
      {"io.mapped_mb", "MB"},
      {"text.parse_ms", "ms"},
      {"text.parses", "count"},
      {"geo.geocode_ms", "ms"},
      {"geo.lookups", "count"},
      {"geo.cache_hit_ratio", "ratio"},
      {"geo.ns_per_lookup", "ns"},
      {"core.refine_ms", "ms"},
      {"core.group_ms", "ms"},
      {"core.aggregate_ms", "ms"},
      {"core.final_users", "count"},
      {"pool.busy_imbalance", "ratio"},
      {"pool.queue_wait_us", "us"},
      {"serve.index_build_ms", "ms"},
      {"serve.parse_us", "us"},
      {"serve.execute_us", "us"},
      {"serve.inproc_p50_us", "us"},
      {"serve.batch_size_mean", "count"},
      {"serve.queue_depth_max", "count"},
      {"serve.shed", "count"},
      {"net.overhead_us", "us"},
      {"net.bytes_per_request", "bytes"},
      {"net.read_p50_us", "us"},
      {"net.read_p99_us", "us"},
      {"net.read_max_rps", "req/s"},
      {"stream.seal_ms", "ms"},
      {"stream.seals", "count"},
      {"stream.swap_us", "us"},
      {"stream.snapshot_ms", "ms"},
      {"stream.reads_behind_seal_ratio", "ratio"},
      {"stream.append_p99_us", "us"},
      {"stream.seal_p50_ms", "ms"},
      {"stream.visible_p50_ms", "ms"},
      {"infer.build_ms", "ms"},
      {"infer.execute_us", "us"},
      {"client.late_p99_us", "us"},
      {"ledger.coverage", "ratio"},
      {"trace.overhead_ratio", "ratio"},
  };
  return kMetrics;
}

void ReportLayers(const LayerValues& values, Report* report) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    auto it = values.find(name);
    report->Metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

}  // namespace stir::perfbench
