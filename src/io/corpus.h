#ifndef STIR_IO_CORPUS_H_
#define STIR_IO_CORPUS_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "geo/latlng.h"
#include "io/mapped_file.h"
#include "io/string_arena.h"
#include "twitter/model.h"

namespace stir::twitter {
class Dataset;
}  // namespace stir::twitter

namespace stir::io {

/// ---------------------------------------------------------------------
/// v3 corpus snapshot ("arena corpus", magic STIRARN3) — DESIGN.md §14.
///
/// A self-contained, mmap-able, CRC-guarded columnar corpus: the user
/// table, the tweet table (struct-of-arrays), a CSR user→tweet index,
/// and one string-interned arena holding every corpus string exactly
/// once. It is read zero-copy through CorpusView — no parse, no
/// per-string allocation, resident set proportional to the touched
/// working set.
///
/// File layout (all integers little-endian, all sections 8-byte
/// aligned so mapped columns can be read through typed pointers):
///
///   bytes  0..7   magic "STIRARN3"
///   bytes  8..11  u32 format version (kCorpusFormatVersion)
///   bytes 12..15  u32 CRC32C of bytes [64, file_size)
///   bytes 16..23  u64 file_size
///   bytes 24..31  u64 user_count
///   bytes 32..39  u64 tweet_count        (materialized tweet rows)
///   bytes 40..47  u64 gps_tweet_count
///   bytes 48..55  u64 total_tweet_count  (sum of user total_tweets)
///   bytes 56..59  u32 flags (kCorpusFlagGrouped, ...)
///   bytes 60..63  u32 section_count
///   bytes 64..    section table: section_count × {u32 id, u32 pad,
///                 u64 offset, u64 size}, then the section payloads.
///
/// The CRC covers the section table and every payload byte (including
/// alignment padding), so a torn tail, a flipped bit, or a truncated
/// arena all fail verification at open.
/// ---------------------------------------------------------------------

inline constexpr std::string_view kCorpusMagic = "STIRARN3";
inline constexpr uint32_t kCorpusFormatVersion = 1;
inline constexpr size_t kCorpusHeaderSize = 64;

/// Granularity of the windowed CRC verify at open and of the runtime
/// window quarantine: the payload [kCorpusHeaderSize, file_size) is
/// checked (and, on storage faults, quarantined) in chunks of this many
/// bytes.
inline constexpr size_t kCorpusVerifyWindow = 16u << 20;

/// Tweets were appended grouped by user, in user-row order: the CSR row
/// array is the identity permutation and is omitted from the file — a
/// user's tweet rows are the contiguous range [begin, end).
inline constexpr uint32_t kCorpusFlagGrouped = 1u << 0;

/// Section ids. Fixed-width sections carry exactly count × element-size
/// bytes; readers reject size mismatches.
enum class CorpusSection : uint32_t {
  kUserIds = 1,          // i64[users]
  kUserHandleRefs = 2,   // u32[users], arena ids
  kUserProfileRefs = 3,  // u32[users], arena ids
  kUserTotalTweets = 4,  // i64[users]
  kUserTweetBegin = 5,   // u64[users+1], CSR offsets
  kUserTweetRows = 6,    // u32[tweets]; absent when kCorpusFlagGrouped
  kTweetIds = 7,         // i64[tweets]
  kTweetUserRows = 8,    // u32[tweets]
  kTweetTimes = 9,       // i64[tweets]
  kTweetLats = 10,       // f64[tweets]
  kTweetLngs = 11,       // f64[tweets]
  kTweetGpsBitmap = 12,  // u64[ceil(tweets/64)]
  kTweetTextOffsets = 13,  // u64[tweets+1]
  kTweetTextBytes = 14,    // bytes
  kArenaOffsets = 15,      // u64[strings+1]
  kArenaBytes = 16,        // bytes
};

struct CorpusWriterOptions {
  /// Tweet columns are buffered in memory and spilled to temporary
  /// sibling files every this many rows, so writer memory stays bounded
  /// by the user table + one buffer regardless of corpus size. Must be
  /// a multiple of 64 (the GPS bitmap spills whole words).
  size_t tweet_spill_rows = 1u << 19;
  bool fsync = true;
};

struct CorpusWriteStats {
  int64_t users = 0;
  int64_t tweets = 0;           // materialized rows
  int64_t gps_tweets = 0;
  int64_t total_tweets = 0;     // sum of user total_tweets
  int64_t arena_strings = 0;
  int64_t file_bytes = 0;
  bool grouped = false;
};

/// Streaming v3 writer: AddUser/AddTweet in ingest order, then Finish()
/// assembles the snapshot atomically (temp sibling + rename, like every
/// durable artifact in the tree). Tweets may arrive in any order, but
/// when they arrive grouped by user in user order — the generator's
/// natural order — the writer detects it, omits the CSR permutation,
/// and finalization streams the spill files straight into the snapshot
/// without ever holding a tweet column in memory.
class CorpusWriter {
 public:
  explicit CorpusWriter(std::string path, CorpusWriterOptions options = {});
  ~CorpusWriter();
  CorpusWriter(const CorpusWriter&) = delete;
  CorpusWriter& operator=(const CorpusWriter&) = delete;

  /// Users must precede their tweets; duplicate ids rejected.
  Status AddUser(const twitter::User& user);
  /// The tweet's user must have been added.
  Status AddTweet(const twitter::Tweet& tweet);

  /// Writes the snapshot. The writer is spent afterwards.
  StatusOr<CorpusWriteStats> Finish();

  /// One-shot conversion of an in-memory dataset (insertion order is
  /// preserved, so a materialized round-trip is field-identical).
  static StatusOr<CorpusWriteStats> WriteDataset(
      const twitter::Dataset& dataset, const std::string& path,
      CorpusWriterOptions options = {});

  /// The bytes WriteDataset would write, as an owned in-memory image.
  /// Nothing touches the filesystem: no spills, no io::FaultFs call.
  static StatusOr<MappedFile> EncodeDataset(const twitter::Dataset& dataset);

  int64_t user_count() const { return static_cast<int64_t>(user_ids_.size()); }
  int64_t tweet_count() const { return tweet_rows_; }

 private:
  struct SpillColumn {
    std::string path;
    std::FILE* file = nullptr;
    uint64_t bytes = 0;
  };

  class Sink;

  /// In-memory writer (EncodeDataset): tweets are never spilled.
  CorpusWriter();

  /// The slot of `id` in row_slots_: the one holding its row, or the
  /// empty slot where that row would go.
  size_t RowSlot(twitter::UserId id) const;

  Status Spill(SpillColumn* column, const void* data, size_t bytes);
  Status FlushTweetBuffers();
  void CloseAndRemoveSpills();
  /// Shared by Finish and EncodeDataset: plans the sections and streams
  /// header, section table and payloads into `sink`. Tweet columns come
  /// from the spill files followed by whatever is still buffered.
  StatusOr<CorpusWriteStats> Assemble(Sink* sink);

  std::string path_;  ///< Empty for the in-memory writer.
  CorpusWriterOptions options_;
  Status deferred_error_;
  bool finished_ = false;

  // User columns (held in memory; users are the small axis).
  std::vector<int64_t> user_ids_;
  std::vector<uint32_t> user_handle_refs_;
  std::vector<uint32_t> user_profile_refs_;
  std::vector<int64_t> user_total_tweets_;
  std::vector<uint32_t> user_tweet_counts_;
  /// id -> row: open addressing over user rows, probed from the id's
  /// hash and keyed by user_ids_[row]; a power of two, at most half
  /// full, kNoRow where empty.
  static constexpr uint32_t kNoRow = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> row_slots_ = std::vector<uint32_t>(64, kNoRow);
  StringArena arena_;

  // Tweet column buffers (spilled every tweet_spill_rows rows).
  std::vector<int64_t> buf_ids_;
  std::vector<uint32_t> buf_user_rows_;
  std::vector<int64_t> buf_times_;
  std::vector<double> buf_lats_;
  std::vector<double> buf_lngs_;
  std::vector<uint64_t> buf_gps_bits_;
  std::vector<uint64_t> buf_text_offsets_;  // absolute
  std::string buf_text_;
  SpillColumn spill_ids_, spill_user_rows_, spill_times_, spill_lats_,
      spill_lngs_, spill_gps_bits_, spill_text_offsets_, spill_text_;

  int64_t tweet_rows_ = 0;
  int64_t gps_tweets_ = 0;
  uint64_t text_bytes_ = 0;
  int64_t last_user_row_ = -1;
  bool grouped_ = true;
};

struct CorpusViewOptions {
  /// Verify the payload CRC at open (one sequential pass over the file).
  /// Always on for untrusted input; benches may disable it to measure
  /// pure open cost.
  bool verify_crc = true;
};

/// Zero-copy reader over a mapped v3 corpus. All accessors are
/// bounds-unchecked row reads into the mapping — the structural
/// invariants (section sizes, offset monotonicity, CSR consistency) are
/// validated once at Open, which rejects torn, truncated, or
/// bit-flipped files with InvalidArgument (missing file: IOError).
class CorpusView {
 public:
  static StatusOr<CorpusView> Open(const std::string& path,
                                   CorpusViewOptions options = {});

  /// A view over the in-memory image of `dataset` (the bytes
  /// CorpusWriter::WriteDataset would write). The batch study reads
  /// every corpus through a view; this is how a row-oriented dataset
  /// gets one. No filesystem or io::FaultFs call. The image is
  /// structurally validated but not CRC-verified, so it has no verify
  /// windows and storage-fault schedules cannot quarantine it.
  static StatusOr<CorpusView> FromDataset(const twitter::Dataset& dataset);

  CorpusView() = default;
  CorpusView(CorpusView&&) = default;
  CorpusView& operator=(CorpusView&&) = default;

  size_t user_count() const { return user_count_; }
  size_t tweet_count() const { return tweet_count_; }
  int64_t gps_tweet_count() const { return gps_count_; }
  int64_t total_tweet_count() const { return total_tweet_count_; }
  bool grouped() const { return (flags_ & kCorpusFlagGrouped) != 0; }
  /// Whole-file mapping size (the bench "bytes mapped" numerator).
  int64_t bytes_mapped() const { return static_cast<int64_t>(file_.size()); }
  /// The corpus file, or a placeholder name for an in-memory image.
  const std::string& path() const { return file_.path(); }

  // --- user columns (row = append order) ---
  twitter::UserId user_id(size_t row) const { return user_ids_[row]; }
  std::string_view user_handle(size_t row) const {
    return arena_string(user_handle_refs_[row]);
  }
  std::string_view user_profile_location(size_t row) const {
    return arena_string(user_profile_refs_[row]);
  }
  uint32_t user_profile_ref(size_t row) const {
    return user_profile_refs_[row];
  }
  int64_t user_total_tweets(size_t row) const {
    return user_total_tweets_[row];
  }

  // --- CSR user→tweet index ---
  uint64_t user_tweet_begin(size_t row) const {
    return user_tweet_begin_[row];
  }
  uint64_t user_tweet_end(size_t row) const {
    return user_tweet_begin_[row + 1];
  }
  /// Tweet row at CSR position `pos` (pos in [begin, end)).
  size_t user_tweet_row(uint64_t pos) const {
    return user_tweet_rows_ == nullptr ? static_cast<size_t>(pos)
                                       : user_tweet_rows_[pos];
  }

  // --- tweet columns (row = append order) ---
  twitter::TweetId tweet_id(size_t row) const { return tweet_ids_[row]; }
  uint32_t tweet_user_row(size_t row) const { return tweet_user_rows_[row]; }
  SimTime tweet_time(size_t row) const { return tweet_times_[row]; }
  bool tweet_has_gps(size_t row) const {
    return (tweet_gps_bitmap_[row >> 6] >> (row & 63)) & 1;
  }
  geo::LatLng tweet_gps(size_t row) const {
    return geo::LatLng{tweet_lats_[row], tweet_lngs_[row]};
  }
  std::string_view tweet_text(size_t row) const {
    return std::string_view(tweet_text_bytes_ + tweet_text_offsets_[row],
                            tweet_text_offsets_[row + 1] -
                                tweet_text_offsets_[row]);
  }

  // --- arena ---
  size_t arena_size() const { return arena_count_; }
  std::string_view arena_string(uint32_t id) const {
    return std::string_view(arena_bytes_ + arena_offsets_[id],
                            arena_offsets_[id + 1] - arena_offsets_[id]);
  }

  /// Materializes one tweet (the stream engine's pre-ingest and tests;
  /// the batch paths read columns directly).
  twitter::Tweet MaterializeTweet(size_t row) const;

  /// Returns the resident pages of the tweet columns covering rows
  /// [begin_row, end_row) to the kernel (best-effort madvise). Shard
  /// scans call this after finishing a shard so peak RSS stays bounded
  /// by the shard working set even when the corpus exceeds RAM. A no-op
  /// on an in-memory image.
  void ReleaseTweetRows(size_t begin_row, size_t end_row) const;

  // --- storage-fault quarantine (DESIGN.md §15) ------------------------
  //
  // The verify pass at Open records the running CRC at every
  // kCorpusVerifyWindow boundary. Released windows are re-faulted from
  // disk on the next touch, and a disk gone bad in the meantime hands
  // back a flipped page (bad bytes) or a lost one (SIGBUS). Reverify*
  // re-checks a window against the recorded boundary CRCs inside a
  // SIGBUS guard — and consults the io::FaultFs page-flip schedule — and
  // quarantines windows that fail, stickily. Readers that honor the
  // quarantine (the refinement funnel, degraded serve) skip quarantined
  // rows instead of trusting or crashing on them.

  /// Number of verify windows over the payload (0 when opened with
  /// verify_crc off, which also disables re-verification).
  int64_t window_count() const { return window_count_; }

  /// Re-verifies window `w`; returns false (and quarantines it) when the
  /// window re-reads corrupt, SIGBUSes, or an injected page flip is
  /// scheduled for it. Sticky: a quarantined window stays quarantined.
  /// Thread-safe.
  bool ReverifyWindow(int64_t w) const;

  /// Re-verifies every window; returns the total now quarantined.
  int64_t ReverifyAllWindows() const;

  bool WindowQuarantined(int64_t w) const;
  int64_t quarantined_windows() const;

  /// True when any byte of any tweet column covering rows
  /// [begin_row, end_row) lies in a quarantined window. O(1) when
  /// nothing is quarantined (the byte-identical fast path).
  bool TweetRowsQuarantined(size_t begin_row, size_t end_row) const;

 private:
  struct SectionRef {
    uint64_t offset = 0;
    uint64_t size = 0;
    bool present = false;
  };

  /// Heap-held (movability) shared quarantine state. Flags are atomic so
  /// shard readers can consult the quarantine lock-free while a
  /// re-verification marks windows.
  struct QuarantineState {
    std::mutex mu;  ///< Serializes re-verification passes.
    /// Per window: 0 = not quarantined, 2 = quarantined (sticky).
    std::unique_ptr<std::atomic<uint8_t>[]> flags;
    std::atomic<int64_t> quarantined{0};
  };

  /// Validates and indexes a v3 image (mapped file or in-memory), with
  /// the windowed CRC pass when `verify_crc` is set.
  static StatusOr<CorpusView> FromImage(MappedFile file, bool verify_crc);

  int64_t WindowOfByte(uint64_t file_offset) const {
    return static_cast<int64_t>((file_offset - kCorpusHeaderSize) /
                                kCorpusVerifyWindow);
  }
  bool ByteRangeQuarantined(uint64_t offset, uint64_t size) const;

  MappedFile file_;
  size_t user_count_ = 0;
  size_t tweet_count_ = 0;
  int64_t gps_count_ = 0;
  int64_t total_tweet_count_ = 0;
  uint32_t flags_ = 0;
  size_t arena_count_ = 0;

  const int64_t* user_ids_ = nullptr;
  const uint32_t* user_handle_refs_ = nullptr;
  const uint32_t* user_profile_refs_ = nullptr;
  const int64_t* user_total_tweets_ = nullptr;
  const uint64_t* user_tweet_begin_ = nullptr;
  const uint32_t* user_tweet_rows_ = nullptr;  // null when grouped
  const int64_t* tweet_ids_ = nullptr;
  const uint32_t* tweet_user_rows_ = nullptr;
  const int64_t* tweet_times_ = nullptr;
  const double* tweet_lats_ = nullptr;
  const double* tweet_lngs_ = nullptr;
  const uint64_t* tweet_gps_bitmap_ = nullptr;
  const uint64_t* tweet_text_offsets_ = nullptr;
  const char* tweet_text_bytes_ = nullptr;
  const uint64_t* arena_offsets_ = nullptr;
  const char* arena_bytes_ = nullptr;

  // Byte extents of the per-tweet sections (for ReleaseTweetRows).
  SectionRef sec_tweet_fixed_[6];  // ids, user rows, times, lats, lngs, text offsets
  SectionRef sec_tweet_text_;
  SectionRef sec_gps_bitmap_;

  // Window re-verification state: running payload CRC at each window
  // boundary (window_count_ + 1 entries; window w is intact iff
  // Crc32cExtend(boundary[w], window bytes) == boundary[w + 1]).
  int64_t window_count_ = 0;
  std::vector<uint32_t> window_crc_boundaries_;
  uint64_t file_salt_ = 0;  ///< Keys the FaultFs page-flip schedule.
  std::shared_ptr<QuarantineState> quarantine_;
};

/// True when `path` begins with the v3 corpus magic.
bool IsArenaCorpusFile(const std::string& path);

}  // namespace stir::io

#endif  // STIR_IO_CORPUS_H_
