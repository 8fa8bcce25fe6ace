#ifndef STIR_IO_CORPUS_READER_H_
#define STIR_IO_CORPUS_READER_H_

#include <optional>
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
/// pair decoded and encoded into an in-memory arena image. The batch
/// study and the inference build read that view; a row-oriented Dataset
/// is only materialized on demand (the stream engine ingests rows).
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

  /// The row-oriented dataset: the decoded TSV pair, or a v3 corpus once
  /// Materialize() has run; nullptr otherwise.
  const twitter::Dataset* dataset() const {
    return dataset_ ? &*dataset_ : nullptr;
  }

  /// Materializes (for v3) and returns the row-oriented dataset.
  StatusOr<const twitter::Dataset*> Materialize();

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
  std::optional<twitter::Dataset> dataset_;
  twitter::Dataset::TsvLoadStats tsv_stats_;
  std::string truth_path_;  ///< Empty when no sidecar was found.
};

/// Decodes a v3 view into a row-oriented Dataset (field-identical to the
/// corpus the writer ingested, in the same order). InvalidArgument on
/// referential corruption a crafted file could smuggle past structural
/// checks (duplicate user ids).
StatusOr<twitter::Dataset> MaterializeDataset(const CorpusView& view);

}  // namespace stir::io

#endif  // STIR_IO_CORPUS_READER_H_
