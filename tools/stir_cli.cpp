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
// Flags are declared in per-command tables that bind directly onto
// stir::StudyConfig, with the groups stir_serve shares (corpus input,
// storage faults, checkpointing, streaming) from front_end.h; --help
// output is generated from the same tables, and unknown flags are
// rejected with exit code 2.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
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
#include "io/fault_fs.h"
#include "io/truth_sidecar.h"
#include "obs/metrics.h"
#include "obs/options.h"
#include "stream/engine.h"
#include "text/location_parser.h"
#include "twitter/generator.h"

#include "front_end.h"

namespace {

using stir::geo::AdminDb;
using namespace stir::front_end;

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

  const char* program = "stir_cli generate";
  Flags flags = {
      {"preset", "NAME", "corpus preset: korean | ladygaga (default korean)",
       [&](const std::string& v) {
         if (v != "korean" && v != "ladygaga") {
           return std::string("korean or ladygaga");
         }
         preset = v;
         return std::string();
       }},
      {"scale", "S", "corpus scale factor, > 0 (default 0.1)",
       [&](const std::string& v) {
         if (!ParseDouble(v, &scale) || scale <= 0.0) {
           return std::string("a number > 0");
         }
         return std::string();
       }},
      {"seed", "N", "generator seed (default: preset's)",
       [&](const std::string& v) {
         has_seed = true;
         return Seed(&seed)(v);
       }},
      {"users", "FILE", "output TSV for users", Text(&users_path)},
      {"tweets", "FILE", "output TSV for tweets", Text(&tweets_path)},
      {"corpus", "FILE",
       "output a self-contained v3 arena corpus instead of TSV (streamed: "
       "generator memory stays O(users))",
       Text(&corpus_path)},
      {"night-home-bias", "P",
       "probability a night-window tweet is redirected to the user's home "
       "district, [0, 1] (default 0 = historical byte-identical corpora)",
       Fraction(&night_home_bias)},
      {"no-truth", nullptr,
       "skip the <corpus>.truth ground-truth sidecar (written by default "
       "with --corpus so `stir_cli infer` can score without regenerating)",
       Switch(&no_truth)},
  };
  if (int rc = ParseFlags(argc, argv, 2, flags, program,
                          "synthesize a study corpus and persist it as TSV "
                          "or a v3 arena corpus");
      rc >= 0) {
    return rc;
  }
  if (!CheckCorpusForm(program, "output", corpus_path, users_path,
                       tweets_path)) {
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
    if (!stats.ok()) return Fail("", "corpus write failed", stats.status());
    if (truth) {
      stir::Status truth_status = truth->Finish();
      if (!truth_status.ok()) {
        return Fail("", "truth sidecar write failed", truth_status);
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
  if (!status.ok()) return Fail("", "save failed", status);
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
  CorpusInput input;
  IoFaults io_faults;
  Streaming stream;
  std::string report_dir;
  int report_schema = stir::core::kReportSchemaVersion;
  std::string metrics_out;
  std::string trace_out;

  const char* program = "stir_cli study";
  Flags flags;
  input.AddFlags(&flags);
  flags.insert(
      flags.end(),
      {{"report-dir", "DIR",
        "write funnel/groups/users CSVs + report.json into DIR",
        Text(&report_dir)},
       {"report-schema", "N", "report.json schema version: 1 | 2 (default 2)",
        [&](const std::string& v) {
          int64_t n = 0;
          if (!ParseInt64(v, &n) || n < 1 ||
              n > stir::core::kReportSchemaVersion) {
            return std::string("1 or 2");
          }
          report_schema = static_cast<int>(n);
          return std::string();
        }},
       {"xml-pipeline", nullptr,
        "route geocoding through the faithful XML serialize/parse path",
        Switch(&config.refinement.faithful_xml_pipeline)},
       {"no-text-fallback", nullptr,
        "disable degraded-mode text salvage of faulted geocodes",
        Switch(&config.refinement.degraded_text_fallback, false)},
       {"threads", "N", "worker threads, >= 1 (default 1 = serial)",
        AtLeast(&config.threads, 1)},
       {"tie-break", "RULE",
        "grouping tie rule: lexicographic | reverse (ablation knob)",
        [&](const std::string& v) {
          if (v == "lexicographic") {
            config.tie_break = stir::core::TieBreak::kLexicographic;
          } else if (v == "reverse") {
            config.tie_break = stir::core::TieBreak::kReverseLexicographic;
          } else {
            return std::string("lexicographic or reverse");
          }
          return std::string();
        }},
       {"geocode-quota", "N",
        "geocoder lookup quota; -1 = unlimited (default)",
        AtLeast(&config.geocoder.quota, -1)},
       {"fault-rate", "P", "injected geocoder fault probability, [0, 1]",
        Fraction(&config.fault.error_rate)},
       {"fault-seed", "N", "fault schedule seed", Seed(&config.fault.seed)},
       {"retry-max", "N", "max geocode attempts per lookup, >= 1",
        AtLeast(&config.retry.max_attempts, 1)},
       {"retry-base-ms", "MS", "base simulated backoff per retry, >= 0",
        AtLeast(&config.retry.base_backoff_ms, 0)},
       {"metrics-out", "FILE",
        "collect pipeline metrics, write JSON snapshot to FILE",
        [&](const std::string& v) {
          metrics_out = v;
          config.obs.enable_metrics = true;
          return std::string();
        }},
       {"trace-out", "FILE",
        "record stage spans, write Chrome trace_event JSON to FILE",
        [&](const std::string& v) {
          trace_out = v;
          config.obs.enable_trace = true;
          return std::string();
        }},
       {"trace-real-time", nullptr,
        "time spans with a real clock instead of the deterministic one",
        Switch(&config.obs.real_time_trace)},
       {"no-geocode-spans", nullptr,
        "omit per-lookup geocode spans (keep stage spans only)",
        Switch(&config.obs.trace_geocode_calls, false)},
       {"checkpoint-every", "N",
        "snapshot refinement progress every N users per shard (default 64)",
        AtLeast(&config.durability.checkpoint_every_users, 1)}});
  AddCheckpointFlags(&flags, &config);
  stream.AddFlags(&flags,
                  "run the study through the incremental stream engine "
                  "instead of the batch pipeline (byte-identical output; "
                  "DESIGN.md §12)");
  io_faults.AddFlags(&flags);
  if (int rc = ParseFlags(argc, argv, 2, flags, program,
                          "run the paper's full pipeline on a corpus");
      rc >= 0) {
    return rc;
  }
  if (!input.Check(program) || !CheckCheckpointFlags(program, config) ||
      !stream.Check(program)) {
    return 2;
  }

  io_faults.Arm();
  const AdminDb& db = input.db();
  auto reader = input.Open("");
  if (!reader.ok()) return Fail("", "load failed", reader.status());
  // The CLI owns the sinks the enable flags ask for (instead of letting
  // Run create per-run ones), so loader-side counters like
  // io.dataset.quarantined land in the exported snapshot too and both
  // study paths record into the same sinks.
  stir::obs::RunSinks sinks(&config.obs);
  if (config.obs.metrics != nullptr) {
    config.obs.metrics->GetCounter("io.dataset.quarantined")
        ->Increment(reader->tsv_stats().quarantined());
  }

  stir::core::StudyResult result;
  if (stream.enabled) {
    // Incremental path: the engine's snapshot runs the same grouping/
    // aggregation stages the batch pipeline runs — byte-identical stdout
    // and reports.
    std::unique_ptr<stir::stream::StreamEngine> engine =
        stream.Open(reader->view(), db, config, "");
    if (engine == nullptr) return 1;
    std::fprintf(stderr,
                 "streamed %lld users, %lld tweets in %lld epochs "
                 "(generation %lld)\n",
                 static_cast<long long>(engine->ingested_users()),
                 static_cast<long long>(engine->ingested_tweets()),
                 static_cast<long long>(engine->epochs_sealed()),
                 static_cast<long long>(engine->generation()));
    result = engine->SnapshotResult();
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
    if (!status.ok()) return Fail("", "report export failed", status);
    std::printf("\nreport CSVs written to %s\n", report_dir.c_str());
  }
  if (!metrics_out.empty() &&
      !Export("", "metrics", metrics_out, result.metrics.ToJson())) {
    return 1;
  }
  if (!trace_out.empty() &&
      !Export("", "trace", trace_out, result.trace.ToChromeTrace())) {
    return 1;
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
  CorpusInput input;
  std::string truth_path;
  std::string strategy_name;  // Empty evaluates every strategy.
  std::string metrics_out;
  stir::infer::InferParams params;
  int64_t min_gps = 5;

  const char* program = "stir_cli infer";
  Flags flags;
  input.AddFlags(&flags);
  flags.insert(
      flags.end(),
      {{"truth", "FILE",
        "ground-truth sidecar to score against (default: the .truth file "
        "next to the corpus)",
        Text(&truth_path)},
       {"strategy", "NAME",
        "evaluate one strategy: spatial | diurnal | text (default: all)",
        [&](const std::string& v) {
          stir::infer::Strategy unused;
          if (!stir::infer::StrategyFromString(v, &unused)) {
            return std::string("spatial, diurnal or text");
          }
          strategy_name = v;
          return std::string();
        }},
       {"abstain", "P",
        "confidence threshold below which strategies abstain, [0, 1] "
        "(default 0.4)",
        Fraction(&params.abstain_threshold)},
       {"night-weight", "N",
        "diurnal strategy weight multiplier for night-window tweets, >= 1 "
        "(default 3)",
        AtLeast(&params.night_weight, 1)},
       {"min-gps", "N",
        "located GPS tweets for the \"GPS-rich\" accuracy slice, >= 0 "
        "(default 5)",
        AtLeast(&min_gps, 0)},
       {"metrics-out", "FILE",
        "write the evaluation counters as a JSON metrics snapshot to FILE",
        Text(&metrics_out)}});
  if (int rc = ParseFlags(argc, argv, 2, flags, program,
                          "infer each user's home district from tweet "
                          "evidence alone and score the predictions against "
                          "generator ground truth");
      rc >= 0) {
    return rc;
  }
  if (!input.Check(program)) return 2;

  const AdminDb& db = input.db();
  auto reader = input.Open("");
  if (!reader.ok()) return Fail("", "load failed", reader.status());

  // Resolve the truth sidecar: an explicit --truth wins; otherwise the
  // one the reader detected next to the corpus.
  if (truth_path.empty() && reader->has_truth()) {
    truth_path = reader->truth_path();
  }
  if (truth_path.empty()) {
    std::fprintf(stderr,
                 "%s: no ground-truth sidecar found next to the corpus; "
                 "pass --truth FILE (sidecars are written by "
                 "`stir_cli generate --corpus`)\n",
                 program);
    return 2;
  }
  auto truth = stir::io::ReadTruthSidecar(truth_path);
  if (!truth.ok()) {
    return Fail("", "truth sidecar load failed", truth.status());
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
    if (!Export("", "metrics", metrics_out, metrics.Snapshot().ToJson())) {
      return 1;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// audit

int RunAudit(int argc, char** argv) {
  std::string gazetteer = "korean";
  Flags flags = {GazetteerFlag(&gazetteer)};
  if (int rc = ParseFlags(argc, argv, 2, flags, "stir_cli audit",
                          "classify free-text profile locations from stdin");
      rc >= 0) {
    return rc;
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
