// Performance microbenchmarks (google-benchmark): throughput of the hot
// components — reverse geocoding, profile parsing, grouping, and the
// end-to-end study — so regressions in the substrate are visible.
//
// `--json <path>` (consumed before google-benchmark sees the argv)
// additionally writes the machine-readable shape shared with
// bench_stream and bench_infer (bench_util.h): a "host" block, then
// {"benchmarks":[{"name","iterations","ns_per_op"}]} and a "process"
// object with peak RSS and peak mapped corpus bytes. The bench_snapshots
// target of a Release build writes BENCH_perf.json this way.
//
// `--scale S` switches to the out-of-core mode: stream-generate a v3
// arena corpus at Korean-preset scale S (1.0 = 52,200 users) to a temp
// file, run the full columnar study off the mmapped view, and gate peak
// RSS against half the on-disk corpus size (the working set must not be
// resident). S = 20 reproduces the million-user acceptance run.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>

#include "bench_util.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/study.h"
#include "geo/reverse_geocoder.h"
#include "infer/inference_index.h"
#include "io/corpus.h"
#include "text/location_parser.h"
#include "twitter/generator.h"

namespace {

using namespace stir;

/// 4,096 GPS fixes, each sampled inside a uniformly drawn district.
std::vector<geo::LatLng> SampleFixes(const geo::AdminDb& db) {
  Rng rng(1);
  std::vector<geo::LatLng> points;
  for (int i = 0; i < 4096; ++i) {
    auto id = static_cast<geo::RegionId>(
        rng.UniformInt(0, static_cast<int64_t>(db.size()) - 1));
    points.push_back(db.SamplePointIn(id, rng));
  }
  return points;
}

void BM_ReverseGeocode(benchmark::State& state) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  geo::ReverseGeocoderOptions options;
  options.enable_cache = state.range(0) != 0;
  geo::ReverseGeocoder geocoder(&db, options);
  const std::vector<geo::LatLng> points = SampleFixes(db);
  size_t i = 0;
  for (auto _ : state) {
    auto result = geocoder.Reverse(points[i++ & 4095]);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReverseGeocode)->Arg(0)->Arg(1);

/// The study's geocode path: ReverseGeocoder::Locate (a RegionId, no
/// strings, no memo) over BM_ReverseGeocode's fixes.
void BM_Locate(benchmark::State& state) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  geo::ReverseGeocoder geocoder(&db);
  const std::vector<geo::LatLng> points = SampleFixes(db);
  size_t i = 0;
  for (auto _ : state) {
    auto region = geocoder.Locate(points[i++ & 4095]);
    benchmark::DoNotOptimize(region);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Locate);

/// AdminDb construction (name tables, safe radii, ownership raster) of
/// the Korean (0) and world (1) gazetteers, copying the region list in.
void BM_AdminDbBuild(benchmark::State& state) {
  const bool korean = state.range(0) == 0;
  const geo::AdminDb& source =
      korean ? geo::AdminDb::KoreanDistricts() : geo::AdminDb::WorldCities();
  for (auto _ : state) {
    geo::AdminDb db(source.regions(), source.coverage_slack_km());
    benchmark::DoNotOptimize(db);
  }
  state.counters["raster_bytes"] =
      static_cast<double>(source.raster().MemoryBytes());
}
BENCHMARK(BM_AdminDbBuild)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_ReverseGeocodeXmlRoundTrip(benchmark::State& state) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  geo::ReverseGeocoderOptions options;
  options.enable_cache = false;
  geo::ReverseGeocoder geocoder(&db, options);
  geo::LatLng p{37.5170, 126.8666};
  for (auto _ : state) {
    auto xml = geocoder.ReverseToXml(p);
    auto parsed = geo::ReverseGeocoder::ParseResponse(*xml);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReverseGeocodeXmlRoundTrip);

void BM_ProfileLocationParse(benchmark::State& state) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  text::LocationParser parser(&db);
  const std::vector<std::string> samples = {
      "Seoul Yangcheon-gu", "Uiwang-si",     "Jung-gu",
      "37.517000,126.866600", "Earth",        "Seoul",
      "Gold Coast Australia / Jung-gu",       "seoul mapo-gu, korea",
  };
  size_t i = 0;
  for (auto _ : state) {
    auto parsed = parser.Parse(samples[i++ % samples.size()]);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileLocationParse);

void BM_GroupUser(benchmark::State& state) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  Rng rng(2);
  core::RefinedUser user;
  user.user = 1;
  user.profile_region = 0;
  for (int64_t i = 0; i < state.range(0); ++i) {
    user.tweet_regions.push_back(static_cast<geo::RegionId>(
        rng.UniformInt(0, 7)));  // 8 districts, realistic multiplicity
  }
  for (auto _ : state) {
    core::UserGrouping grouping = core::GroupUser(user, db);
    benchmark::DoNotOptimize(grouping);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupUser)->Arg(16)->Arg(64)->Arg(256);

void BM_DatasetGeneration(benchmark::State& state) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  double scale = static_cast<double>(state.range(0)) / 1000.0;
  for (auto _ : state) {
    twitter::DatasetGenerator generator(
        &db, twitter::DatasetGenerator::KoreanConfig(scale));
    auto data = generator.Generate();
    benchmark::DoNotOptimize(data);
    state.counters["users"] =
        static_cast<double>(data.dataset.users().size());
  }
}
BENCHMARK(BM_DatasetGeneration)
    ->Arg(10)
    ->Arg(50)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

/// The follower graph alone, at the populations the Korean preset crawls
/// at scale 1 (83,520 nodes) and scale 4 (334,080).
void BM_SocialGraph(benchmark::State& state) {
  twitter::SocialGraphOptions options;
  options.num_users = state.range(0);
  for (auto _ : state) {
    Rng rng(1);
    twitter::SocialGraph graph = twitter::SocialGraph::Generate(options, rng);
    state.counters["edges"] = static_cast<double>(graph.num_edges());
    state.counters["graph_bytes"] =
        static_cast<double>(graph.memory_bytes());
  }
}
BENCHMARK(BM_SocialGraph)
    ->Arg(83520)
    ->Arg(334080)
    ->Unit(benchmark::kMillisecond);

void BM_FullStudy(benchmark::State& state) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  double scale = static_cast<double>(state.range(0)) / 1000.0;
  twitter::DatasetGenerator generator(
      &db, twitter::DatasetGenerator::KoreanConfig(scale));
  auto data = generator.Generate();
  core::CorrelationStudy study(&db);
  for (auto _ : state) {
    core::StudyResult result = study.Run(data.dataset);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.dataset.users().size()));
}
BENCHMARK(BM_FullStudy)->Arg(20)->Arg(100)->Unit(benchmark::kMillisecond);

// Serial-vs-parallel comparison on the default benchmark corpus: Arg is
// the thread count (1 = the serial code path). Thread counts beyond the
// machine's cores measure oversubscription, not speedup.
void BM_FullStudyThreads(benchmark::State& state) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  twitter::DatasetGenerator generator(
      &db, twitter::DatasetGenerator::KoreanConfig(0.1));
  auto data = generator.Generate();
  StudyConfig options;
  options.threads = static_cast<int>(state.range(0));
  core::CorrelationStudy study(&db, options);
  for (auto _ : state) {
    core::StudyResult result = study.Run(data.dataset);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.dataset.users().size()));
  state.counters["threads"] = static_cast<double>(options.threads);
}
BENCHMARK(BM_FullStudyThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Full study off the mmapped v3 arena view (generated once per Arg into
// a temp file). BM_FullStudy runs the same view study behind the Dataset
// adapter, so the gap between the two rows is the in-memory encode.
void BM_FullStudyArena(benchmark::State& state) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  double scale = static_cast<double>(state.range(0)) / 1000.0;
  std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("stir_bench_perf_arena_" + std::to_string(state.range(0)) + ".corpus");
  {
    twitter::DatasetGenerator generator(
        &db, twitter::DatasetGenerator::KoreanConfig(scale));
    io::CorpusWriter writer(path.string());
    auto info = generator.GenerateToCorpus(&writer);
    if (!info.ok()) {
      state.SkipWithError(info.status().ToString().c_str());
      return;
    }
    auto stats = writer.Finish();
    if (!stats.ok()) {
      state.SkipWithError(stats.status().ToString().c_str());
      return;
    }
  }
  {
    auto view = io::CorpusView::Open(path.string());
    if (!view.ok()) {
      state.SkipWithError(view.status().ToString().c_str());
      return;
    }
    core::CorrelationStudy study(&db);
    for (auto _ : state) {
      core::StudyResult result = study.Run(*view);
      benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(view->user_count()));
    state.counters["mapped_bytes"] =
        static_cast<double>(view->bytes_mapped());
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
}
BENCHMARK(BM_FullStudyArena)->Arg(20)->Arg(100)->Unit(benchmark::kMillisecond);

/// A scale-1 arena corpus (52,200 users), generated into a temp file on
/// first use and kept mapped for the rest of the run. The file is
/// unlinked once mapped, so nothing is left behind.
const io::CorpusView& ScaleOneCorpus() {
  static const io::CorpusView& view = *[] {
    const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("stir_bench_perf_scale1_" + std::to_string(::getpid()) + ".corpus");
    twitter::DatasetGenerator generator(
        &db, twitter::DatasetGenerator::KoreanConfig(1.0));
    io::CorpusWriter writer(path.string());
    STIR_CHECK(generator.GenerateToCorpus(&writer).ok());
    STIR_CHECK(writer.Finish().ok());
    auto opened = io::CorpusView::Open(path.string());
    STIR_CHECK(opened.ok()) << opened.status().ToString();
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return new io::CorpusView(std::move(*opened));
  }();
  return view;
}

/// The inference evidence build off the scale-1 corpus: inline (Arg 0)
/// and on a pool of Arg workers. Wall time; each iteration also frees
/// the previous index, as a stream seal does.
void BM_InferenceBuildView(benchmark::State& state) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  const io::CorpusView& view = ScaleOneCorpus();
  common::ThreadPool pool(static_cast<int>(state.range(0)));
  infer::InferenceIndex index;
  for (auto _ : state) {
    index = infer::InferenceIndex::Build(view, db, &pool);
    benchmark::DoNotOptimize(index);
  }
  size_t regions = 0;
  for (const infer::UserEvidenceView& user : index.users()) {
    regions += user.regions.size();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(view.user_count()));
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["users"] = static_cast<double>(index.user_count());
  state.counters["regions"] = static_cast<double>(regions);
  state.counters["index_bytes"] = static_cast<double>(index.MemoryBytes());
}
BENCHMARK(BM_InferenceBuildView)
    ->Arg(0)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

const twitter::Dataset& ScanCorpus() {
  static const twitter::GeneratedData& data = *new twitter::GeneratedData(
      [] {
        const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
        auto config = twitter::DatasetGenerator::KoreanConfig(0.2);
        config.plain_tweet_sample = 0.05;  // ~100k materialized tweets
        return twitter::DatasetGenerator(&db, config).Generate();
      }());
  return data.dataset;
}

void BM_ScanRowStore(benchmark::State& state) {
  const twitter::Dataset& dataset = ScanCorpus();
  for (auto _ : state) {
    int64_t gps = 0;
    SimTime latest = 0;
    for (const twitter::Tweet& tweet : dataset.tweets()) {
      if (tweet.gps.has_value()) {
        ++gps;
        latest = std::max(latest, tweet.time);
      }
    }
    benchmark::DoNotOptimize(gps);
    benchmark::DoNotOptimize(latest);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dataset.tweets().size()));
}
BENCHMARK(BM_ScanRowStore);

// The same GPS/time scan over the arena columns (the dataset's in-memory
// image, as CorrelationStudy::Run(Dataset) reads it).
void BM_ScanArena(benchmark::State& state) {
  static const io::CorpusView& view = *new io::CorpusView([] {
    auto image = io::CorpusView::FromDataset(ScanCorpus());
    STIR_CHECK(image.ok()) << image.status().ToString();
    return std::move(*image);
  }());
  for (auto _ : state) {
    int64_t gps = 0;
    SimTime latest = 0;
    for (size_t row = 0; row < view.tweet_count(); ++row) {
      if (view.tweet_has_gps(row)) {
        ++gps;
        latest = std::max(latest, view.tweet_time(row));
      }
    }
    benchmark::DoNotOptimize(gps);
    benchmark::DoNotOptimize(latest);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(view.tweet_count()));
  state.counters["bytes"] = static_cast<double>(view.bytes_mapped());
}
BENCHMARK(BM_ScanArena);

// Console output plus a side-channel collecting (name, iterations,
// ns/op) per measured run for the --json file. Aggregate rows (mean/
// median/stddev under --benchmark_repetitions) are display-only.
class TeeReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred ||
          run.iterations <= 0) {
        continue;
      }
      stir::bench::BenchJsonEntry entry;
      entry.name = run.benchmark_name();
      entry.iterations = run.iterations;
      entry.ns_per_op = run.real_accumulated_time * 1e9 /
                        static_cast<double>(run.iterations);
      // Plain user counters; rates (items_per_second) derive from the
      // entry's own numbers.
      for (const auto& [name, counter] : run.counters) {
        if ((counter.flags & benchmark::Counter::kIsRate) == 0) {
          entry.extra.emplace_back(name, counter.value);
        }
      }
      entries_.push_back(std::move(entry));
    }
  }

  const std::vector<stir::bench::BenchJsonEntry>& entries() const {
    return entries_;
  }

 private:
  std::vector<stir::bench::BenchJsonEntry> entries_;
};

// Out-of-core acceptance mode (--scale S): stream-generate a v3 arena
// corpus at Korean-preset scale S straight to disk, run the full
// columnar study off the mmapped view, and require peak RSS to stay
// under half the on-disk corpus size. Returns a process exit code.
int RunScaleMode(double scale, const std::string& json_path) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  std::filesystem::path path =
      std::filesystem::temp_directory_path() / "stir_bench_perf_scale.corpus";
  std::printf("out-of-core arena study, Korean preset at scale %.2f\n",
              scale);

  auto gen_start = std::chrono::steady_clock::now();
  stir::io::CorpusWriteStats stats;
  {
    twitter::DatasetGeneratorOptions options =
        twitter::DatasetGenerator::KoreanConfig(scale);
    // The preset materializes only a 0.05% sample of plain tweets so
    // in-memory runs stay small; the out-of-core mode is about the tweet
    // columns dominating the snapshot, so materialize 10% (at scale 20
    // that is ~22M tweet rows, a multi-GB corpus).
    options.plain_tweet_sample = 0.1;
    twitter::DatasetGenerator generator(&db, options);
    stir::io::CorpusWriter writer(path.string());
    auto info = generator.GenerateToCorpus(&writer);
    if (!info.ok()) {
      std::fprintf(stderr, "generate failed: %s\n",
                   info.status().ToString().c_str());
      return 1;
    }
    auto finished = writer.Finish();
    if (!finished.ok()) {
      std::fprintf(stderr, "corpus write failed: %s\n",
                   finished.status().ToString().c_str());
      return 1;
    }
    stats = *finished;
  }
  double gen_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - gen_start)
                     .count();
  std::printf("  generated %lld users, %lld total tweets "
              "(%lld materialized, %lld GPS) -> %lld bytes in %.1f s\n",
              static_cast<long long>(stats.users),
              static_cast<long long>(stats.total_tweets),
              static_cast<long long>(stats.tweets),
              static_cast<long long>(stats.gps_tweets),
              static_cast<long long>(stats.file_bytes), gen_s);

  auto study_start = std::chrono::steady_clock::now();
  int64_t mapped_bytes = 0;
  int64_t final_users = 0;
  {
    auto view = stir::io::CorpusView::Open(path.string());
    if (!view.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   view.status().ToString().c_str());
      return 1;
    }
    mapped_bytes = view->bytes_mapped();
    core::CorrelationStudy study(&db);
    core::StudyResult result = study.Run(*view);
    final_users = result.final_users;
  }
  double study_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - study_start)
                       .count();
  std::error_code ec;
  std::filesystem::remove(path, ec);

  int64_t peak_rss = stir::bench::CurrentPeakRssBytes();
  std::printf("  full study: %.1f s (%lld final users), "
              "peak RSS %lld bytes, corpus %lld bytes, mapped %lld bytes\n",
              study_s, static_cast<long long>(final_users),
              static_cast<long long>(peak_rss),
              static_cast<long long>(stats.file_bytes),
              static_cast<long long>(mapped_bytes));
  bool ok = stir::bench::Check(
      peak_rss * 2 < stats.file_bytes,
      "peak RSS stays below half the on-disk corpus size");

  if (!json_path.empty()) {
    std::vector<stir::bench::BenchJsonEntry> entries;
    stir::bench::BenchJsonEntry gen;
    gen.name = "ArenaGenerate/scale";
    gen.iterations = 1;
    gen.ns_per_op = gen_s * 1e9;
    gen.extra.emplace_back("users", static_cast<double>(stats.users));
    gen.extra.emplace_back("corpus_bytes",
                           static_cast<double>(stats.file_bytes));
    entries.push_back(std::move(gen));
    stir::bench::BenchJsonEntry run;
    run.name = "ArenaFullStudy/scale";
    run.iterations = 1;
    run.ns_per_op = study_s * 1e9;
    run.extra.emplace_back("final_users", static_cast<double>(final_users));
    entries.push_back(std::move(run));
    if (!stir::bench::WriteBenchJson(json_path, entries, mapped_bytes)) {
      return 1;
    }
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Pull out --json <path> and --scale <S> before google-benchmark
  // rejects them as unrecognized flags.
  std::string json_path;
  double scale = 0.0;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::string_view(argv[i]) == "--scale" && i + 1 < argc) {
      scale = std::atof(argv[++i]);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (scale > 0.0) return RunScaleMode(scale, json_path);
  int passthrough_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&passthrough_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(passthrough_argc,
                                             passthrough.data())) {
    return 1;
  }
  TeeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() &&
      !stir::bench::WriteBenchJson(json_path, reporter.entries())) {
    return 1;
  }
  return 0;
}
