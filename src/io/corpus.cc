#include "io/corpus.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <limits>

#include "common/crc32c.h"
#include "common/hash.h"
#include "io/fault_fs.h"
#include "io/sigbus_guard.h"
#include "twitter/dataset.h"

namespace stir::io {

static_assert(std::endian::native == std::endian::little,
              "v3 corpus files are little-endian");

namespace {

Status Errno(const char* op, const std::string& path) {
  return Status::IOError(std::string(op) + " failed for " + path + ": " +
                         std::strerror(errno));
}

Status SyncParentDir(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return Errno("open(dir)", dir);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("fsync(dir)", dir);
  return Status::OK();
}

uint64_t Align8(uint64_t n) { return (n + 7) & ~uint64_t{7}; }

Status Corrupt(const std::string& path, const std::string& why) {
  return Status::InvalidArgument("corpus " + path + ": " + why);
}

struct SectionPlan {
  CorpusSection id;
  uint64_t offset = 0;
  uint64_t size = 0;
};

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

}  // namespace

// ---------------------------------------------------------------------
// CorpusWriter
// ---------------------------------------------------------------------

/// Snapshot assembly target: a file written through io::FaultFs, or an
/// owned in-memory image. Counts bytes written and (once armed) feeds
/// every byte into the running payload CRC.
class CorpusWriter::Sink {
 public:
  /// File sink.
  Sink(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}
  /// In-memory sink; Begin() allocates the image.
  Sink() = default;

  /// Called once the final size is known.
  void Begin(uint64_t size) {
    if (file_ == nullptr) {
      image_.reset(new uint64_t[size / 8]);
      image_size_ = size;
    }
  }

  Status Write(const void* data, size_t bytes) {
    if (bytes > 0) {
      if (file_ == nullptr) {
        std::memcpy(reinterpret_cast<char*>(image_.get()) + pos_, data, bytes);
      } else if (FaultFs::Instance().Fwrite(data, 1, bytes, file_) != bytes) {
        return Errno("write", path_);
      }
    }
    if (tracking_) {
      crc_ = Crc32cExtend(
          crc_, std::string_view(static_cast<const char*>(data), bytes));
    }
    pos_ += bytes;
    return Status::OK();
  }

  Status Pad(uint64_t target_pos) {
    static const char kZeros[8] = {0};
    while (pos_ < target_pos) {
      size_t n = std::min<uint64_t>(target_pos - pos_, sizeof(kZeros));
      STIR_RETURN_IF_ERROR(Write(kZeros, n));
    }
    return Status::OK();
  }

  /// Overwrites the leading placeholder header once the CRC is known.
  Status PatchHeader(const std::string& header) {
    if (file_ == nullptr) {
      std::memcpy(image_.get(), header.data(), header.size());
      return Status::OK();
    }
    if (std::fflush(file_) != 0 || std::fseek(file_, 0, SEEK_SET) != 0 ||
        FaultFs::Instance().Fwrite(header.data(), 1, header.size(), file_) !=
            header.size() ||
        std::fflush(file_) != 0) {
      return Errno("write(header)", path_);
    }
    return Status::OK();
  }

  void StartCrc() { tracking_ = true; }
  uint32_t FinishCrc() const { return Crc32cFinish(crc_); }

  MappedFile TakeImage() {
    return MappedFile::FromBuffer(std::move(image_), image_size_,
                                  "(in-memory corpus image)");
  }

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  std::unique_ptr<uint64_t[]> image_;
  uint64_t image_size_ = 0;
  bool tracking_ = false;
  uint32_t crc_ = kCrc32cInit;
  uint64_t pos_ = 0;
};

CorpusWriter::CorpusWriter(std::string path, CorpusWriterOptions options)
    : path_(std::move(path)), options_(options) {
  if (options_.tweet_spill_rows == 0 || options_.tweet_spill_rows % 64 != 0) {
    deferred_error_ = Status::InvalidArgument(
        "CorpusWriterOptions.tweet_spill_rows must be a positive multiple "
        "of 64");
  }
  const char* names[] = {"ids",  "urows", "times",  "lats",
                         "lngs", "gps",   "toffs", "text"};
  SpillColumn* cols[] = {&spill_ids_,      &spill_user_rows_,
                         &spill_times_,    &spill_lats_,
                         &spill_lngs_,     &spill_gps_bits_,
                         &spill_text_offsets_, &spill_text_};
  for (size_t i = 0; i < 8; ++i) {
    cols[i]->path = path_ + ".spill." + names[i];
  }
}

CorpusWriter::CorpusWriter() = default;

CorpusWriter::~CorpusWriter() { CloseAndRemoveSpills(); }

void CorpusWriter::CloseAndRemoveSpills() {
  SpillColumn* cols[] = {&spill_ids_,      &spill_user_rows_,
                         &spill_times_,    &spill_lats_,
                         &spill_lngs_,     &spill_gps_bits_,
                         &spill_text_offsets_, &spill_text_};
  for (SpillColumn* col : cols) {
    if (col->file != nullptr) {
      std::fclose(col->file);
      col->file = nullptr;
    }
    if (!col->path.empty()) ::unlink(col->path.c_str());
  }
}

size_t CorpusWriter::RowSlot(twitter::UserId id) const {
  const size_t mask = row_slots_.size() - 1;
  size_t i = Mix64(static_cast<uint64_t>(id)) & mask;
  while (row_slots_[i] != kNoRow && user_ids_[row_slots_[i]] != id) {
    i = (i + 1) & mask;
  }
  return i;
}

Status CorpusWriter::Spill(SpillColumn* column, const void* data,
                           size_t bytes) {
  if (bytes == 0) return Status::OK();
  if (column->file == nullptr) {
    column->file = std::fopen(column->path.c_str(), "wb");
    if (column->file == nullptr) return Errno("open", column->path);
  }
  if (FaultFs::Instance().Fwrite(data, 1, bytes, column->file) != bytes) {
    return Errno("write", column->path);
  }
  column->bytes += bytes;
  return Status::OK();
}

Status CorpusWriter::AddUser(const twitter::User& user) {
  if (!deferred_error_.ok()) return deferred_error_;
  if (finished_) return Status::FailedPrecondition("writer already finished");
  if (user_ids_.size() >=
      static_cast<size_t>(std::numeric_limits<uint32_t>::max())) {
    return Status::ResourceExhausted("corpus user table full (2^32-1 rows)");
  }
  const size_t slot = RowSlot(user.id);
  if (row_slots_[slot] != kNoRow) {
    return Status::InvalidArgument("duplicate user id " +
                                   std::to_string(user.id));
  }
  std::optional<uint32_t> handle = arena_.Intern(user.handle);
  std::optional<uint32_t> profile =
      handle ? arena_.Intern(user.profile_location) : std::nullopt;
  if (!profile) {
    return Status::ResourceExhausted(
        "corpus string arena full (2^32-1 strings)");
  }
  row_slots_[slot] = static_cast<uint32_t>(user_ids_.size());
  user_ids_.push_back(user.id);
  if (2 * user_ids_.size() > row_slots_.size()) {
    row_slots_.assign(2 * row_slots_.size(), kNoRow);
    for (size_t row = 0; row < user_ids_.size(); ++row) {
      row_slots_[RowSlot(user_ids_[row])] = static_cast<uint32_t>(row);
    }
  }
  user_handle_refs_.push_back(*handle);
  user_profile_refs_.push_back(*profile);
  user_total_tweets_.push_back(user.total_tweets);
  user_tweet_counts_.push_back(0);
  return Status::OK();
}

Status CorpusWriter::AddTweet(const twitter::Tweet& tweet) {
  if (!deferred_error_.ok()) return deferred_error_;
  if (finished_) return Status::FailedPrecondition("writer already finished");
  // Tweets mostly follow their user, so the user added last needs no
  // probe.
  uint32_t user_row;
  if (!user_ids_.empty() && user_ids_.back() == tweet.user) {
    user_row = static_cast<uint32_t>(user_ids_.size() - 1);
  } else {
    user_row = row_slots_[RowSlot(tweet.user)];
    if (user_row == kNoRow) {
      return Status::InvalidArgument("tweet " + std::to_string(tweet.id) +
                                     " from unknown user " +
                                     std::to_string(tweet.user));
    }
  }
  if (tweet_rows_ > 0 && static_cast<int64_t>(user_row) < last_user_row_) {
    grouped_ = false;
  }
  last_user_row_ = user_row;

  buf_ids_.push_back(tweet.id);
  buf_user_rows_.push_back(user_row);
  buf_times_.push_back(tweet.time);
  buf_lats_.push_back(tweet.gps ? tweet.gps->lat : 0.0);
  buf_lngs_.push_back(tweet.gps ? tweet.gps->lng : 0.0);
  size_t local = buf_ids_.size() - 1;
  if (local / 64 == buf_gps_bits_.size()) buf_gps_bits_.push_back(0);
  if (tweet.gps) {
    buf_gps_bits_[local / 64] |= uint64_t{1} << (local % 64);
    ++gps_tweets_;
  }
  buf_text_.append(tweet.text);
  text_bytes_ += tweet.text.size();
  buf_text_offsets_.push_back(text_bytes_);  // end offset of this tweet
  ++user_tweet_counts_[user_row];
  ++tweet_rows_;

  if (!path_.empty() && buf_ids_.size() >= options_.tweet_spill_rows) {
    STIR_RETURN_IF_ERROR(FlushTweetBuffers());
  }
  return Status::OK();
}

Status CorpusWriter::FlushTweetBuffers() {
  size_t n = buf_ids_.size();
  if (n == 0) return Status::OK();
  // Non-final flushes happen on tweet_spill_rows boundaries (a multiple
  // of 64), so spilled bitmap words are always complete.
  STIR_RETURN_IF_ERROR(Spill(&spill_ids_, buf_ids_.data(), n * 8));
  STIR_RETURN_IF_ERROR(Spill(&spill_user_rows_, buf_user_rows_.data(), n * 4));
  STIR_RETURN_IF_ERROR(Spill(&spill_times_, buf_times_.data(), n * 8));
  STIR_RETURN_IF_ERROR(Spill(&spill_lats_, buf_lats_.data(), n * 8));
  STIR_RETURN_IF_ERROR(Spill(&spill_lngs_, buf_lngs_.data(), n * 8));
  STIR_RETURN_IF_ERROR(
      Spill(&spill_gps_bits_, buf_gps_bits_.data(), buf_gps_bits_.size() * 8));
  STIR_RETURN_IF_ERROR(
      Spill(&spill_text_offsets_, buf_text_offsets_.data(), n * 8));
  STIR_RETURN_IF_ERROR(Spill(&spill_text_, buf_text_.data(), buf_text_.size()));
  buf_ids_.clear();
  buf_user_rows_.clear();
  buf_times_.clear();
  buf_lats_.clear();
  buf_lngs_.clear();
  buf_gps_bits_.clear();
  buf_text_offsets_.clear();
  buf_text_.clear();
  return Status::OK();
}

StatusOr<CorpusWriteStats> CorpusWriter::Finish() {
  if (!deferred_error_.ok()) return deferred_error_;
  if (finished_) return Status::FailedPrecondition("writer already finished");
  finished_ = true;
  STIR_RETURN_IF_ERROR(FlushTweetBuffers());
  SpillColumn* cols[] = {&spill_ids_,      &spill_user_rows_,
                         &spill_times_,    &spill_lats_,
                         &spill_lngs_,     &spill_gps_bits_,
                         &spill_text_offsets_, &spill_text_};
  for (SpillColumn* col : cols) {
    if (col->file != nullptr && std::fflush(col->file) != 0) {
      return Errno("flush", col->path);
    }
  }

  // Assemble the snapshot in a temporary sibling, then rename.
  std::string tmp = path_ + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) return Errno("open", tmp);
  Sink sink(out, tmp);
  StatusOr<CorpusWriteStats> stats = Assemble(&sink);
  Status status = stats.status();
  if (status.ok() && options_.fsync &&
      FaultFs::Instance().Fsync(::fileno(out)) != 0) {
    status = Errno("fsync", tmp);
  }
  if (std::fclose(out) != 0 && status.ok()) status = Errno("close", tmp);
  CloseAndRemoveSpills();
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Errno("rename", path_);
  }
  if (options_.fsync) STIR_RETURN_IF_ERROR(SyncParentDir(path_));
  return stats;
}

StatusOr<CorpusWriteStats> CorpusWriter::Assemble(Sink* sink) {
  const uint64_t users = user_ids_.size();
  const uint64_t tweets = static_cast<uint64_t>(tweet_rows_);

  // CSR offsets from the per-user counts.
  std::vector<uint64_t> csr_begin(users + 1, 0);
  for (uint64_t u = 0; u < users; ++u) {
    csr_begin[u + 1] = csr_begin[u] + user_tweet_counts_[u];
  }

  // Ungrouped corpora need the explicit CSR permutation, built by
  // scattering the per-tweet user-row column (spilled rows first, then
  // the buffered tail). This is the one finalization step that is
  // O(tweets) in memory; the generator's grouped order never takes it.
  std::vector<uint32_t> csr_rows;
  if (!grouped_ && tweets > 0) {
    csr_rows.resize(tweets);
    std::vector<uint64_t> cursor(csr_begin.begin(), csr_begin.end() - 1);
    uint64_t t = 0;
    auto scatter = [&](const uint32_t* rows, size_t n) {
      for (size_t i = 0; i < n; ++i) {
        csr_rows[cursor[rows[i]]++] = static_cast<uint32_t>(t + i);
      }
      t += n;
    };
    const uint64_t spilled = spill_user_rows_.bytes / 4;
    if (spilled > 0) {
      std::FILE* in = std::fopen(spill_user_rows_.path.c_str(), "rb");
      if (in == nullptr) return Errno("open", spill_user_rows_.path);
      std::vector<uint32_t> chunk(1u << 16);
      while (t < spilled) {
        size_t want = std::min<uint64_t>(chunk.size(), spilled - t);
        size_t got = std::fread(chunk.data(), 4, want, in);
        if (got != want) {
          std::fclose(in);
          return Errno("read", spill_user_rows_.path);
        }
        scatter(chunk.data(), got);
      }
      std::fclose(in);
    }
    scatter(buf_user_rows_.data(), buf_user_rows_.size());
  }

  int64_t total_tweets = 0;
  for (int64_t total : user_total_tweets_) total_tweets += total;

  // Section plan, in id order.
  const uint64_t bitmap_words = (tweets + 63) / 64;
  std::vector<SectionPlan> plan;
  plan.push_back({CorpusSection::kUserIds, 0, users * 8});
  plan.push_back({CorpusSection::kUserHandleRefs, 0, users * 4});
  plan.push_back({CorpusSection::kUserProfileRefs, 0, users * 4});
  plan.push_back({CorpusSection::kUserTotalTweets, 0, users * 8});
  plan.push_back({CorpusSection::kUserTweetBegin, 0, (users + 1) * 8});
  if (!grouped_) {
    plan.push_back({CorpusSection::kUserTweetRows, 0, tweets * 4});
  }
  plan.push_back({CorpusSection::kTweetIds, 0, tweets * 8});
  plan.push_back({CorpusSection::kTweetUserRows, 0, tweets * 4});
  plan.push_back({CorpusSection::kTweetTimes, 0, tweets * 8});
  plan.push_back({CorpusSection::kTweetLats, 0, tweets * 8});
  plan.push_back({CorpusSection::kTweetLngs, 0, tweets * 8});
  plan.push_back({CorpusSection::kTweetGpsBitmap, 0, bitmap_words * 8});
  plan.push_back({CorpusSection::kTweetTextOffsets, 0, (tweets + 1) * 8});
  plan.push_back({CorpusSection::kTweetTextBytes, 0, text_bytes_});
  plan.push_back({CorpusSection::kArenaOffsets, 0,
                  (static_cast<uint64_t>(arena_.size()) + 1) * 8});
  plan.push_back({CorpusSection::kArenaBytes, 0, arena_.blob_bytes()});

  uint64_t cursor = kCorpusHeaderSize + plan.size() * 24;
  for (SectionPlan& s : plan) {
    cursor = Align8(cursor);
    s.offset = cursor;
    cursor += s.size;
  }
  const uint64_t file_size = Align8(cursor);
  sink->Begin(file_size);

  static const char kZeroHeader[kCorpusHeaderSize] = {0};
  STIR_RETURN_IF_ERROR(sink->Write(kZeroHeader, kCorpusHeaderSize));
  sink->StartCrc();

  std::string table;
  table.reserve(plan.size() * 24);
  for (const SectionPlan& s : plan) {
    PutU32(&table, static_cast<uint32_t>(s.id));
    PutU32(&table, 0);
    PutU64(&table, s.offset);
    PutU64(&table, s.size);
  }
  STIR_RETURN_IF_ERROR(sink->Write(table.data(), table.size()));

  auto write_mem = [&](const SectionPlan& s, const void* data) -> Status {
    STIR_RETURN_IF_ERROR(sink->Pad(s.offset));
    return sink->Write(data, s.size);
  };
  // A tweet column is its spill file followed by its buffered tail.
  auto write_column = [&](const SectionPlan& s, const SpillColumn& col,
                          const auto& buffer,
                          uint64_t prefix_zero_u64s) -> Status {
    STIR_RETURN_IF_ERROR(sink->Pad(s.offset));
    for (uint64_t i = 0; i < prefix_zero_u64s; ++i) {
      uint64_t zero = 0;
      STIR_RETURN_IF_ERROR(sink->Write(&zero, 8));
    }
    if (col.bytes > 0) {
      std::FILE* in = std::fopen(col.path.c_str(), "rb");
      if (in == nullptr) return Errno("open", col.path);
      std::vector<char> chunk(1u << 20);
      uint64_t left = col.bytes;
      while (left > 0) {
        size_t want = std::min<uint64_t>(chunk.size(), left);
        size_t got = std::fread(chunk.data(), 1, want, in);
        if (got != want) {
          std::fclose(in);
          return Errno("read", col.path);
        }
        Status st = sink->Write(chunk.data(), got);
        if (!st.ok()) {
          std::fclose(in);
          return st;
        }
        left -= got;
      }
      std::fclose(in);
    }
    return sink->Write(buffer.data(), buffer.size() * sizeof(buffer[0]));
  };

  size_t p = 0;
  STIR_RETURN_IF_ERROR(write_mem(plan[p++], user_ids_.data()));
  STIR_RETURN_IF_ERROR(write_mem(plan[p++], user_handle_refs_.data()));
  STIR_RETURN_IF_ERROR(write_mem(plan[p++], user_profile_refs_.data()));
  STIR_RETURN_IF_ERROR(write_mem(plan[p++], user_total_tweets_.data()));
  STIR_RETURN_IF_ERROR(write_mem(plan[p++], csr_begin.data()));
  if (!grouped_) {
    STIR_RETURN_IF_ERROR(write_mem(plan[p++], csr_rows.data()));
  }
  STIR_RETURN_IF_ERROR(write_column(plan[p++], spill_ids_, buf_ids_, 0));
  STIR_RETURN_IF_ERROR(
      write_column(plan[p++], spill_user_rows_, buf_user_rows_, 0));
  STIR_RETURN_IF_ERROR(write_column(plan[p++], spill_times_, buf_times_, 0));
  STIR_RETURN_IF_ERROR(write_column(plan[p++], spill_lats_, buf_lats_, 0));
  STIR_RETURN_IF_ERROR(write_column(plan[p++], spill_lngs_, buf_lngs_, 0));
  STIR_RETURN_IF_ERROR(
      write_column(plan[p++], spill_gps_bits_, buf_gps_bits_, 0));
  // Text offsets are stored as end positions; the section leads with
  // the implicit 0 so readers see tweets+1 monotone offsets.
  STIR_RETURN_IF_ERROR(
      write_column(plan[p++], spill_text_offsets_, buf_text_offsets_, 1));
  STIR_RETURN_IF_ERROR(write_column(plan[p++], spill_text_, buf_text_, 0));
  STIR_RETURN_IF_ERROR(write_mem(plan[p++], arena_.offsets().data()));
  STIR_RETURN_IF_ERROR(write_mem(plan[p++], arena_.blob().data()));
  STIR_RETURN_IF_ERROR(sink->Pad(file_size));

  // Patch the real header in.
  std::string header;
  header.reserve(kCorpusHeaderSize);
  header.append(kCorpusMagic);
  PutU32(&header, kCorpusFormatVersion);
  PutU32(&header, sink->FinishCrc());
  PutU64(&header, file_size);
  PutU64(&header, users);
  PutU64(&header, tweets);
  PutU64(&header, static_cast<uint64_t>(gps_tweets_));
  PutU64(&header, static_cast<uint64_t>(total_tweets));
  PutU32(&header, grouped_ ? kCorpusFlagGrouped : 0);
  PutU32(&header, static_cast<uint32_t>(plan.size()));
  STIR_RETURN_IF_ERROR(sink->PatchHeader(header));

  CorpusWriteStats stats;
  stats.users = static_cast<int64_t>(users);
  stats.tweets = tweet_rows_;
  stats.gps_tweets = gps_tweets_;
  stats.total_tweets = total_tweets;
  stats.arena_strings = static_cast<int64_t>(arena_.size());
  stats.file_bytes = static_cast<int64_t>(file_size);
  stats.grouped = grouped_;
  return stats;
}

namespace {

Status AddDataset(const twitter::Dataset& dataset, CorpusWriter* writer) {
  for (const twitter::User& user : dataset.users()) {
    STIR_RETURN_IF_ERROR(writer->AddUser(user));
  }
  for (const twitter::Tweet& tweet : dataset.tweets()) {
    STIR_RETURN_IF_ERROR(writer->AddTweet(tweet));
  }
  return Status::OK();
}

}  // namespace

StatusOr<CorpusWriteStats> CorpusWriter::WriteDataset(
    const twitter::Dataset& dataset, const std::string& path,
    CorpusWriterOptions options) {
  CorpusWriter writer(path, options);
  STIR_RETURN_IF_ERROR(AddDataset(dataset, &writer));
  return writer.Finish();
}

StatusOr<MappedFile> CorpusWriter::EncodeDataset(
    const twitter::Dataset& dataset) {
  CorpusWriter writer;
  STIR_RETURN_IF_ERROR(AddDataset(dataset, &writer));
  Sink sink;
  STIR_RETURN_IF_ERROR(writer.Assemble(&sink).status());
  return sink.TakeImage();
}

// ---------------------------------------------------------------------
// CorpusView
// ---------------------------------------------------------------------

StatusOr<CorpusView> CorpusView::Open(const std::string& path,
                                      CorpusViewOptions options) {
  STIR_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
  return FromImage(std::move(file), options.verify_crc);
}

StatusOr<CorpusView> CorpusView::FromDataset(const twitter::Dataset& dataset) {
  STIR_ASSIGN_OR_RETURN(MappedFile image, CorpusWriter::EncodeDataset(dataset));
  return FromImage(std::move(image), /*verify_crc=*/false);
}

StatusOr<CorpusView> CorpusView::FromImage(MappedFile file, bool verify_crc) {
  const std::string path = file.path();
  const char* base = file.data();
  const size_t size = file.size();
  if (size < kCorpusHeaderSize) return Corrupt(path, "truncated header");
  if (std::string_view(base, kCorpusMagic.size()) != kCorpusMagic) {
    return Corrupt(path, "bad magic");
  }
  auto read_u32 = [&](size_t off) {
    uint32_t v;
    std::memcpy(&v, base + off, 4);
    return v;
  };
  auto read_u64 = [&](size_t off) {
    uint64_t v;
    std::memcpy(&v, base + off, 8);
    return v;
  };
  if (read_u32(8) != kCorpusFormatVersion) {
    return Corrupt(path, "unsupported version " + std::to_string(read_u32(8)));
  }
  const uint32_t want_crc = read_u32(12);
  const uint64_t file_size = read_u64(16);
  if (file_size != size) {
    return Corrupt(path, "size mismatch (header says " +
                             std::to_string(file_size) + ", file has " +
                             std::to_string(size) + " bytes — torn write?)");
  }

  CorpusView view;
  view.user_count_ = read_u64(24);
  view.tweet_count_ = read_u64(32);
  view.gps_count_ = static_cast<int64_t>(read_u64(40));
  view.total_tweet_count_ = static_cast<int64_t>(read_u64(48));
  view.flags_ = read_u32(56);
  const uint32_t section_count = read_u32(60);
  if (section_count == 0 || section_count > 64) {
    return Corrupt(path, "implausible section count");
  }
  const uint64_t table_end = kCorpusHeaderSize + uint64_t{section_count} * 24;
  if (table_end > size) return Corrupt(path, "section table truncated");

  view.file_salt_ = Fnv1a64(path);
  if (verify_crc) {
    // Windowed so the verification pass itself does not drag the whole
    // file into the resident set: extend, release, repeat. The running
    // CRC at each window boundary is recorded so released windows can be
    // re-verified after a later re-fault from a disk gone bad (see
    // ReverifyWindow). The whole pass runs under a SIGBUS guard: a file
    // truncated under the map turns into a typed error, not a crash.
    constexpr size_t kWindow = kCorpusVerifyWindow;
    uint32_t crc = kCrc32cInit;
    // Reserved up front: no allocation happens inside the guarded region.
    view.window_crc_boundaries_.reserve((size - kCorpusHeaderSize) / kWindow +
                                        2);
    view.window_crc_boundaries_.push_back(crc);
    bool completed = RunSigbusProtected([&] {
      for (size_t off = kCorpusHeaderSize; off < size; off += kWindow) {
        size_t n = std::min(kWindow, size - off);
        crc = Crc32cExtend(crc, std::string_view(base + off, n));
        view.window_crc_boundaries_.push_back(crc);
        file.ReleaseRange(off, n);
      }
    });
    if (!completed) {
      return Corrupt(path,
                     "SIGBUS during verify (file truncated or page lost "
                     "under the map)");
    }
    if (Crc32cFinish(crc) != want_crc) {
      return Corrupt(path, "CRC mismatch (corrupt payload)");
    }
    view.window_count_ =
        static_cast<int64_t>(view.window_crc_boundaries_.size()) - 1;
    view.quarantine_ = std::make_shared<QuarantineState>();
    view.quarantine_->flags = std::make_unique<std::atomic<uint8_t>[]>(
        static_cast<size_t>(view.window_count_));
  }

  SectionRef sections[17];
  for (uint32_t i = 0; i < section_count; ++i) {
    size_t entry = kCorpusHeaderSize + i * 24;
    uint32_t id = read_u32(entry);
    uint64_t offset = read_u64(entry + 8);
    uint64_t sec_size = read_u64(entry + 16);
    if (id == 0 || id > 16) continue;  // unknown sections are skippable
    if (offset % 8 != 0 || offset < table_end || offset > size ||
        sec_size > size - offset) {
      return Corrupt(path, "section " + std::to_string(id) + " out of bounds");
    }
    if (sections[id].present) {
      return Corrupt(path, "duplicate section " + std::to_string(id));
    }
    sections[id] = {offset, sec_size, true};
  }

  const uint64_t users = view.user_count_;
  const uint64_t tweets = view.tweet_count_;
  const bool grouped = (view.flags_ & kCorpusFlagGrouped) != 0;
  auto require = [&](CorpusSection id, uint64_t expect_size,
                     const char* what) -> Status {
    const SectionRef& ref = sections[static_cast<uint32_t>(id)];
    if (!ref.present) return Corrupt(path, std::string("missing ") + what);
    if (ref.size != expect_size) {
      return Corrupt(path, std::string(what) + " has " +
                               std::to_string(ref.size) + " bytes, expected " +
                               std::to_string(expect_size));
    }
    return Status::OK();
  };
  auto ptr = [&](CorpusSection id) {
    return base + sections[static_cast<uint32_t>(id)].offset;
  };

  STIR_RETURN_IF_ERROR(require(CorpusSection::kUserIds, users * 8, "user ids"));
  STIR_RETURN_IF_ERROR(
      require(CorpusSection::kUserHandleRefs, users * 4, "handle refs"));
  STIR_RETURN_IF_ERROR(
      require(CorpusSection::kUserProfileRefs, users * 4, "profile refs"));
  STIR_RETURN_IF_ERROR(
      require(CorpusSection::kUserTotalTweets, users * 8, "user totals"));
  STIR_RETURN_IF_ERROR(
      require(CorpusSection::kUserTweetBegin, (users + 1) * 8, "CSR offsets"));
  if (grouped) {
    if (sections[static_cast<uint32_t>(CorpusSection::kUserTweetRows)]
            .present) {
      return Corrupt(path, "grouped corpus carries a CSR row section");
    }
  } else {
    STIR_RETURN_IF_ERROR(
        require(CorpusSection::kUserTweetRows, tweets * 4, "CSR rows"));
  }
  STIR_RETURN_IF_ERROR(
      require(CorpusSection::kTweetIds, tweets * 8, "tweet ids"));
  STIR_RETURN_IF_ERROR(
      require(CorpusSection::kTweetUserRows, tweets * 4, "tweet user rows"));
  STIR_RETURN_IF_ERROR(
      require(CorpusSection::kTweetTimes, tweets * 8, "tweet times"));
  STIR_RETURN_IF_ERROR(
      require(CorpusSection::kTweetLats, tweets * 8, "tweet lats"));
  STIR_RETURN_IF_ERROR(
      require(CorpusSection::kTweetLngs, tweets * 8, "tweet lngs"));
  STIR_RETURN_IF_ERROR(require(CorpusSection::kTweetGpsBitmap,
                               (tweets + 63) / 64 * 8, "gps bitmap"));
  STIR_RETURN_IF_ERROR(require(CorpusSection::kTweetTextOffsets,
                               (tweets + 1) * 8, "text offsets"));
  const SectionRef& text_sec =
      sections[static_cast<uint32_t>(CorpusSection::kTweetTextBytes)];
  if (!text_sec.present) return Corrupt(path, "missing text bytes");
  const SectionRef& arena_off_sec =
      sections[static_cast<uint32_t>(CorpusSection::kArenaOffsets)];
  if (!arena_off_sec.present || arena_off_sec.size < 8 ||
      arena_off_sec.size % 8 != 0) {
    return Corrupt(path, "missing or malformed arena offsets");
  }
  const SectionRef& arena_bytes_sec =
      sections[static_cast<uint32_t>(CorpusSection::kArenaBytes)];
  if (!arena_bytes_sec.present) return Corrupt(path, "missing arena bytes");

  view.user_ids_ =
      reinterpret_cast<const int64_t*>(ptr(CorpusSection::kUserIds));
  view.user_handle_refs_ =
      reinterpret_cast<const uint32_t*>(ptr(CorpusSection::kUserHandleRefs));
  view.user_profile_refs_ =
      reinterpret_cast<const uint32_t*>(ptr(CorpusSection::kUserProfileRefs));
  view.user_total_tweets_ =
      reinterpret_cast<const int64_t*>(ptr(CorpusSection::kUserTotalTweets));
  view.user_tweet_begin_ =
      reinterpret_cast<const uint64_t*>(ptr(CorpusSection::kUserTweetBegin));
  view.user_tweet_rows_ =
      grouped ? nullptr
              : reinterpret_cast<const uint32_t*>(
                    ptr(CorpusSection::kUserTweetRows));
  view.tweet_ids_ =
      reinterpret_cast<const int64_t*>(ptr(CorpusSection::kTweetIds));
  view.tweet_user_rows_ =
      reinterpret_cast<const uint32_t*>(ptr(CorpusSection::kTweetUserRows));
  view.tweet_times_ =
      reinterpret_cast<const int64_t*>(ptr(CorpusSection::kTweetTimes));
  view.tweet_lats_ =
      reinterpret_cast<const double*>(ptr(CorpusSection::kTweetLats));
  view.tweet_lngs_ =
      reinterpret_cast<const double*>(ptr(CorpusSection::kTweetLngs));
  view.tweet_gps_bitmap_ =
      reinterpret_cast<const uint64_t*>(ptr(CorpusSection::kTweetGpsBitmap));
  view.tweet_text_offsets_ =
      reinterpret_cast<const uint64_t*>(ptr(CorpusSection::kTweetTextOffsets));
  view.tweet_text_bytes_ = ptr(CorpusSection::kTweetTextBytes);
  view.arena_offsets_ =
      reinterpret_cast<const uint64_t*>(ptr(CorpusSection::kArenaOffsets));
  view.arena_bytes_ = ptr(CorpusSection::kArenaBytes);
  view.arena_count_ = arena_off_sec.size / 8 - 1;

  // Structural invariants, so the accessors can stay unchecked. Each
  // check releases the pages it touched (RSS hygiene, same as the CRC
  // pass).
  auto monotone = [&](const uint64_t* offs, uint64_t count, uint64_t limit,
                      const char* what) -> Status {
    if (offs[0] != 0 || offs[count] != limit) {
      return Corrupt(path, std::string(what) + " endpoints corrupt");
    }
    for (uint64_t i = 0; i < count; ++i) {
      if (offs[i] > offs[i + 1]) {
        return Corrupt(path, std::string(what) + " not monotone");
      }
    }
    return Status::OK();
  };
  STIR_RETURN_IF_ERROR(monotone(view.tweet_text_offsets_, tweets,
                                text_sec.size, "text offsets"));
  STIR_RETURN_IF_ERROR(monotone(view.arena_offsets_, view.arena_count_,
                                arena_bytes_sec.size, "arena offsets"));
  STIR_RETURN_IF_ERROR(monotone(view.user_tweet_begin_, users, tweets,
                                "CSR offsets"));
  for (uint64_t t = 0; t < tweets; ++t) {
    if (view.tweet_user_rows_[t] >= users) {
      return Corrupt(path, "tweet user row out of range");
    }
  }
  if (view.user_tweet_rows_ != nullptr) {
    for (uint64_t t = 0; t < tweets; ++t) {
      if (view.user_tweet_rows_[t] >= tweets) {
        return Corrupt(path, "CSR row out of range");
      }
    }
  }
  for (uint64_t u = 0; u < users; ++u) {
    if (view.user_handle_refs_[u] >= view.arena_count_ ||
        view.user_profile_refs_[u] >= view.arena_count_) {
      return Corrupt(path, "arena ref out of range");
    }
  }
  int64_t gps = 0;
  for (uint64_t w = 0; w < (tweets + 63) / 64; ++w) {
    gps += std::popcount(view.tweet_gps_bitmap_[w]);
  }
  if (gps != view.gps_count_) {
    return Corrupt(path, "gps bitmap population does not match header");
  }

  // The validation passes touched most columns; hand those pages back
  // so a fresh view starts with a near-empty resident set.
  file.ReleaseRange(0, size);

  view.sec_tweet_fixed_[0] =
      sections[static_cast<uint32_t>(CorpusSection::kTweetIds)];
  view.sec_tweet_fixed_[1] =
      sections[static_cast<uint32_t>(CorpusSection::kTweetUserRows)];
  view.sec_tweet_fixed_[2] =
      sections[static_cast<uint32_t>(CorpusSection::kTweetTimes)];
  view.sec_tweet_fixed_[3] =
      sections[static_cast<uint32_t>(CorpusSection::kTweetLats)];
  view.sec_tweet_fixed_[4] =
      sections[static_cast<uint32_t>(CorpusSection::kTweetLngs)];
  view.sec_tweet_fixed_[5] =
      sections[static_cast<uint32_t>(CorpusSection::kTweetTextOffsets)];
  view.sec_tweet_text_ = text_sec;
  view.sec_gps_bitmap_ =
      sections[static_cast<uint32_t>(CorpusSection::kTweetGpsBitmap)];
  view.file_ = std::move(file);
  return view;
}

bool CorpusView::ReverifyWindow(int64_t w) const {
  if (quarantine_ == nullptr || w < 0 || w >= window_count_) return true;
  QuarantineState& q = *quarantine_;
  std::lock_guard<std::mutex> lock(q.mu);
  std::atomic<uint8_t>& flag = q.flags[static_cast<size_t>(w)];
  if (flag.load(std::memory_order_relaxed) == 2) return false;
  bool bad = false;
  if (FaultFs::Instance().FlipWindow(file_salt_, w)) {
    // Injected flip: FaultFs already accounted it as quarantined.
    bad = true;
  } else {
    const size_t off =
        kCorpusHeaderSize + static_cast<size_t>(w) * kCorpusVerifyWindow;
    const size_t n = std::min(kCorpusVerifyWindow, file_.size() - off);
    uint32_t crc = window_crc_boundaries_[static_cast<size_t>(w)];
    bool completed = RunSigbusProtected([&] {
      crc = Crc32cExtend(crc, std::string_view(file_.data() + off, n));
    });
    if (!completed ||
        crc != window_crc_boundaries_[static_cast<size_t>(w) + 1]) {
      bad = true;
      FaultFs::Instance().NoteExternalQuarantine(1);
    }
  }
  if (bad) {
    flag.store(2, std::memory_order_relaxed);
    q.quarantined.fetch_add(1, std::memory_order_release);
  }
  return !bad;
}

int64_t CorpusView::ReverifyAllWindows() const {
  for (int64_t w = 0; w < window_count_; ++w) ReverifyWindow(w);
  return quarantined_windows();
}

bool CorpusView::WindowQuarantined(int64_t w) const {
  if (quarantine_ == nullptr || w < 0 || w >= window_count_) return false;
  return quarantine_->flags[static_cast<size_t>(w)].load(
             std::memory_order_relaxed) == 2;
}

int64_t CorpusView::quarantined_windows() const {
  if (quarantine_ == nullptr) return 0;
  return quarantine_->quarantined.load(std::memory_order_acquire);
}

bool CorpusView::ByteRangeQuarantined(uint64_t offset, uint64_t size) const {
  if (size == 0 || offset < kCorpusHeaderSize) return false;
  int64_t first = WindowOfByte(offset);
  int64_t last = WindowOfByte(offset + size - 1);
  for (int64_t w = first; w <= last && w < window_count_; ++w) {
    if (quarantine_->flags[static_cast<size_t>(w)].load(
            std::memory_order_relaxed) == 2) {
      return true;
    }
  }
  return false;
}

bool CorpusView::TweetRowsQuarantined(size_t begin_row,
                                      size_t end_row) const {
  if (quarantine_ == nullptr ||
      quarantine_->quarantined.load(std::memory_order_acquire) == 0) {
    return false;  // The byte-identical fast path: nothing quarantined.
  }
  if (begin_row >= end_row || end_row > tweet_count_) return false;
  static constexpr uint64_t kWidths[6] = {8, 4, 8, 8, 8, 8};
  for (int i = 0; i < 6; ++i) {
    const SectionRef& sec = sec_tweet_fixed_[i];
    if (!sec.present) continue;
    if (ByteRangeQuarantined(sec.offset + begin_row * kWidths[i],
                             (end_row - begin_row) * kWidths[i])) {
      return true;
    }
  }
  if (sec_gps_bitmap_.present) {
    const uint64_t word_begin = begin_row / 64;
    const uint64_t word_end = (end_row + 63) / 64;
    if (ByteRangeQuarantined(sec_gps_bitmap_.offset + word_begin * 8,
                             (word_end - word_begin) * 8)) {
      return true;
    }
  }
  const uint64_t text_begin = tweet_text_offsets_[begin_row];
  const uint64_t text_end = tweet_text_offsets_[end_row];
  return text_end > text_begin &&
         ByteRangeQuarantined(sec_tweet_text_.offset + text_begin,
                              text_end - text_begin);
}

twitter::Tweet CorpusView::MaterializeTweet(size_t row) const {
  twitter::Tweet tweet;
  tweet.id = tweet_id(row);
  tweet.user = user_id(tweet_user_row(row));
  tweet.time = tweet_time(row);
  if (tweet_has_gps(row)) tweet.gps = tweet_gps(row);
  tweet.text = std::string(tweet_text(row));
  return tweet;
}

void CorpusView::ReleaseTweetRows(size_t begin_row, size_t end_row) const {
  if (begin_row >= end_row || end_row > tweet_count_) return;
  static constexpr uint64_t kWidths[6] = {8, 4, 8, 8, 8, 8};
  for (int i = 0; i < 6; ++i) {
    const SectionRef& sec = sec_tweet_fixed_[i];
    if (!sec.present) continue;
    file_.ReleaseRange(sec.offset + begin_row * kWidths[i],
                       (end_row - begin_row) * kWidths[i]);
  }
  uint64_t text_begin = tweet_text_offsets_[begin_row];
  uint64_t text_end = tweet_text_offsets_[end_row];
  file_.ReleaseRange(sec_tweet_text_.offset + text_begin,
                     text_end - text_begin);
}

bool IsArenaCorpusFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char magic[8];
  size_t got = std::fread(magic, 1, 8, f);
  std::fclose(f);
  return got == 8 && std::string_view(magic, 8) == kCorpusMagic;
}

}  // namespace stir::io
