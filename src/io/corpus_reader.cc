#include "io/corpus_reader.h"

#include <cstdio>
#include <string_view>

#include "io/atomic_file.h"
#include "io/truth_sidecar.h"

namespace stir::io {

namespace {

/// Magic bytes of the retired v2 tweet column snapshot (and its v1
/// predecessor), recognized only to reject them by name.
constexpr std::string_view kRetiredColumnMagics[] = {"STIRCOL1", "STIRCOL2"};

/// The sidecar path when one exists next to `data_path`, else "".
std::string DetectTruthSidecar(const std::string& data_path) {
  std::string candidate = TruthSidecarPath(data_path);
  return PathExists(candidate) ? candidate : std::string();
}

}  // namespace

const char* CorpusFormatName(CorpusFormat format) {
  switch (format) {
    case CorpusFormat::kTsv:
      return "tsv";
    case CorpusFormat::kArenaV3:
      return "arena-v3";
  }
  return "unknown";
}

StatusOr<CorpusFormat> CorpusReader::SniffFormat(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open for read: " + path);
  }
  char magic[8] = {0};
  size_t got = std::fread(magic, 1, sizeof(magic), f);
  std::fclose(f);
  std::string_view head(magic, got);
  if (head == kCorpusMagic) return CorpusFormat::kArenaV3;
  for (std::string_view retired : kRetiredColumnMagics) {
    if (head == retired) {
      return Status::InvalidArgument(
          path + " is a v2 tweet column snapshot (" + std::string(retired) +
          "), a retired format; regenerate the corpus as TSV or as an "
          "arena corpus (stir_cli generate --corpus)");
    }
  }
  return CorpusFormat::kTsv;
}

StatusOr<CorpusReader> CorpusReader::Open(const CorpusSpec& spec) {
  CorpusReader reader;

  if (!spec.corpus_path.empty()) {
    if (!spec.users_path.empty() || !spec.tweets_path.empty()) {
      return Status::InvalidArgument(
          "pass either corpus_path or users_path+tweets_path, not both");
    }
    STIR_ASSIGN_OR_RETURN(CorpusFormat format,
                          SniffFormat(spec.corpus_path));
    if (format != CorpusFormat::kArenaV3) {
      return Status::InvalidArgument(
          spec.corpus_path + " is " + CorpusFormatName(format) +
          ", not a self-contained arena corpus; pass it as users/tweets");
    }
    STIR_ASSIGN_OR_RETURN(CorpusView view,
                          CorpusView::Open(spec.corpus_path, spec.view));
    reader.format_ = CorpusFormat::kArenaV3;
    reader.view_ = std::move(view);
    reader.truth_path_ = DetectTruthSidecar(spec.corpus_path);
    return reader;
  }

  if (spec.users_path.empty() || spec.tweets_path.empty()) {
    return Status::InvalidArgument(
        "CorpusSpec needs corpus_path or users_path+tweets_path");
  }
  reader.truth_path_ = DetectTruthSidecar(spec.tweets_path);
  STIR_ASSIGN_OR_RETURN(CorpusFormat format, SniffFormat(spec.tweets_path));
  switch (format) {
    case CorpusFormat::kArenaV3:
      return Status::InvalidArgument(
          spec.tweets_path +
          " is a self-contained arena corpus; pass it as corpus_path "
          "(it already carries the user table)");
    case CorpusFormat::kTsv: {
      STIR_ASSIGN_OR_RETURN(
          twitter::Dataset dataset,
          twitter::Dataset::LoadTsv(spec.users_path, spec.tweets_path,
                                    spec.tsv, &reader.tsv_stats_));
      STIR_ASSIGN_OR_RETURN(reader.view_, CorpusView::FromDataset(dataset));
      reader.format_ = CorpusFormat::kTsv;
      reader.dataset_ = std::move(dataset);
      return reader;
    }
  }
  return Status::Internal("unreachable corpus format");
}

StatusOr<const twitter::Dataset*> CorpusReader::Materialize() {
  if (!dataset_) {
    STIR_ASSIGN_OR_RETURN(twitter::Dataset dataset, MaterializeDataset(view_));
    dataset_ = std::move(dataset);
  }
  return &*dataset_;
}

StatusOr<twitter::Dataset> MaterializeDataset(const CorpusView& view) {
  twitter::Dataset dataset;
  for (size_t row = 0; row < view.user_count(); ++row) {
    twitter::User user;
    user.id = view.user_id(row);
    user.handle = std::string(view.user_handle(row));
    user.profile_location = std::string(view.user_profile_location(row));
    user.total_tweets = view.user_total_tweets(row);
    if (dataset.FindUser(user.id) != nullptr) {
      return Status::InvalidArgument("corpus " + view.path() +
                                     ": duplicate user id " +
                                     std::to_string(user.id));
    }
    dataset.AddUser(std::move(user));
  }
  for (size_t row = 0; row < view.tweet_count(); ++row) {
    dataset.AddTweet(view.MaterializeTweet(row));
  }
  return dataset;
}

}  // namespace stir::io
