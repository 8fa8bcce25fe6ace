#ifndef STIR_IO_CORPUS_READER_H_
#define STIR_IO_CORPUS_READER_H_

#include <string>

#include "common/status.h"
#include "io/corpus.h"
#include "twitter/dataset.h"

namespace stir::io {

/// The corpus encodings the reader accepts.
enum class CorpusFormat {
  kTsv,      // users TSV + tweets TSV (the human-readable interchange format)
  kArenaV3,  // self-contained STIRARN3 arena corpus (users + tweets)
};

const char* CorpusFormatName(CorpusFormat format);

/// What to open. Either `corpus_path` names a self-contained v3 file, or
/// `users_path` + `tweets_path` name a TSV pair; the reader sniffs file
/// contents (magic bytes, never extensions) and picks the decoder.
struct CorpusSpec {
  std::string corpus_path;
  std::string users_path;
  std::string tweets_path;
  /// Malformed-row handling for the TSV decoder (strict by default).
  twitter::Dataset::TsvLoadOptions tsv;
  /// v3 open options (CRC verification on by default).
  CorpusViewOptions view;
};

/// One façade over every corpus load path (DESIGN.md §14). Every format
/// opens into a CorpusView: a v3 corpus zero-copy off its mapping, a TSV
/// pair decoded into a Dataset, encoded into an in-memory arena image and
/// then dropped. The batch study, the inference build and the stream
/// engine's pre-ingest all read that view; the reader keeps no
/// row-oriented Dataset.
///
///   STIR_ASSIGN_OR_RETURN(auto reader, CorpusReader::Open(spec));
///   RunStudy(reader.view());
class CorpusReader {
 public:
  /// Sniffs the on-disk format of `path` from its leading bytes.
  /// IOError when unreadable; InvalidArgument for a retired v2 tweet
  /// column snapshot (STIRCOL1/STIRCOL2); a file with no known magic is
  /// TSV.
  static StatusOr<CorpusFormat> SniffFormat(const std::string& path);

  static StatusOr<CorpusReader> Open(const CorpusSpec& spec);

  CorpusFormat format() const { return format_; }

  const CorpusView& view() const { return view_; }

  /// Quarantine counts from the TSV decoder (zero for v3).
  const twitter::Dataset::TsvLoadStats& tsv_stats() const {
    return tsv_stats_;
  }

  /// True when a ground-truth sidecar (truth_sidecar.h) sits next to the
  /// opened corpus — `<corpus>.truth`, or `<tweets>.truth` for a TSV
  /// pair. Surfaced so evaluation tooling (`stir_cli infer`) can score
  /// predictions without regenerating; the serving and inference layers
  /// never read it.
  bool has_truth() const { return !truth_path_.empty(); }
  const std::string& truth_path() const { return truth_path_; }

 private:
  CorpusFormat format_ = CorpusFormat::kTsv;
  CorpusView view_;
  twitter::Dataset::TsvLoadStats tsv_stats_;
  std::string truth_path_;  ///< Empty when no sidecar was found.
};

}  // namespace stir::io

#endif  // STIR_IO_CORPUS_READER_H_
