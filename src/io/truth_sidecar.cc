#include "io/truth_sidecar.h"

#include <charconv>
#include <cstdlib>

#include "common/string_util.h"
#include "io/atomic_file.h"

namespace stir::io {

namespace {

/// Header row after the magic line; checked on read so a column
/// reordering in a future revision fails loudly instead of misparsing.
constexpr std::string_view kHeader =
    "user\tarchetype\thome_state\thome_county\tclaimed_state\tclaimed_county";

std::vector<std::string_view> SplitTabs(std::string_view line) {
  std::vector<std::string_view> fields;
  size_t start = 0;
  while (true) {
    size_t pos = line.find('\t', start);
    if (pos == std::string_view::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, pos - start));
    start = pos + 1;
  }
}

}  // namespace

std::string TruthSidecarPath(const std::string& corpus_path) {
  return corpus_path + ".truth";
}

TruthSidecarWriter::TruthSidecarWriter(std::string path, bool fsync)
    : path_(std::move(path)), fsync_(fsync) {
  body_.append(kTruthSidecarMagic);
  body_ += '\n';
  body_.append(kHeader);
  body_ += '\n';
}

void TruthSidecarWriter::Add(const TruthRecord& record) {
  char id[24];
  body_.append(id, std::to_chars(id, id + sizeof(id), record.user).ptr);
  body_ += '\t';
  body_ += record.archetype;
  body_ += '\t';
  body_ += record.home_state;
  body_ += '\t';
  body_ += record.home_county;
  body_ += '\t';
  body_ += record.claimed_state;
  body_ += '\t';
  body_ += record.claimed_county;
  body_ += '\n';
  ++records_;
}

Status TruthSidecarWriter::Finish() {
  if (finished_) {
    return Status::Internal("truth sidecar writer already finished");
  }
  finished_ = true;
  Status status = AtomicWriteFile(path_, body_, fsync_);
  body_.clear();
  return status;
}

StatusOr<std::vector<TruthRecord>> ReadTruthSidecar(const std::string& path) {
  STIR_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(path));
  std::vector<TruthRecord> records;
  size_t start = 0;
  int64_t line_no = 0;
  while (start < contents.size()) {
    size_t pos = contents.find('\n', start);
    if (pos == std::string::npos) pos = contents.size();
    std::string_view line(contents.data() + start, pos - start);
    start = pos + 1;
    ++line_no;
    if (line_no == 1) {
      if (line != kTruthSidecarMagic) {
        return Status::InvalidArgument(
            StrFormat("%s: not a truth sidecar (bad magic)", path.c_str()));
      }
      continue;
    }
    if (line_no == 2) {
      if (line != kHeader) {
        return Status::InvalidArgument(
            StrFormat("%s: unrecognized truth sidecar header", path.c_str()));
      }
      continue;
    }
    if (line.empty()) continue;  // Trailing newline.
    std::vector<std::string_view> fields = SplitTabs(line);
    if (fields.size() != 6) {
      return Status::InvalidArgument(
          StrFormat("%s:%lld: expected 6 tab-separated fields, got %zu",
                    path.c_str(), static_cast<long long>(line_no),
                    fields.size()));
    }
    TruthRecord record;
    std::string user_text(fields[0]);
    char* end = nullptr;
    record.user = std::strtoll(user_text.c_str(), &end, 10);
    if (end == user_text.c_str() || *end != '\0') {
      return Status::InvalidArgument(
          StrFormat("%s:%lld: bad user id '%s'", path.c_str(),
                    static_cast<long long>(line_no), user_text.c_str()));
    }
    record.archetype = std::string(fields[1]);
    record.home_state = std::string(fields[2]);
    record.home_county = std::string(fields[3]);
    record.claimed_state = std::string(fields[4]);
    record.claimed_county = std::string(fields[5]);
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace stir::io
