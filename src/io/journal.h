#ifndef STIR_IO_JOURNAL_H_
#define STIR_IO_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/logging.h"
#include "common/status.h"

namespace stir::io {

/// Write-ahead journal file layout (DESIGN.md §9):
///
///   header (16 bytes): 8-byte caller magic | u32 format version |
///                      u32 CRC32C of the preceding 12 bytes
///   record frame:      u32 payload length | u32 CRC32C(payload) | payload
///
/// Appends are a single write() per record, so a crash can only produce a
/// partial frame at the tail — which replay truncates (valid prefix
/// wins). A bit-flipped record fails its CRC and is quarantined (skipped,
/// counted) without losing the frames after it.
inline constexpr uint32_t kJournalFormatVersion = 1;
inline constexpr size_t kJournalMagicSize = 8;
inline constexpr size_t kJournalHeaderSize = 16;
inline constexpr size_t kJournalFrameOverhead = 8;
/// Upper bound on one record's payload; a larger length field means the
/// frame header itself is corrupt, so replay treats the rest as torn.
inline constexpr uint32_t kJournalMaxRecordSize = 1u << 28;

/// Replay accounting. `valid_bytes` is the offset just past the last
/// structurally parseable frame — the append position for a resuming
/// writer (quarantined records stay in place; torn tail bytes beyond it
/// are discarded).
struct JournalReplayStats {
  int64_t records = 0;      ///< Frames delivered to the callback.
  int64_t quarantined = 0;  ///< Frames skipped on a CRC mismatch.
  int64_t truncated_bytes = 0;  ///< Torn-tail bytes past the valid prefix.
  int64_t valid_bytes = 0;
};

/// Replays every intact record of the journal at `path` through
/// `callback`, in append order. A missing or empty file — and a torn
/// header shorter than kJournalHeaderSize — replays as zero records
/// (OK): both are what a crash before the first append leaves behind.
/// A *complete* header with the wrong magic, a bad header CRC, or an
/// unsupported version is a hard InvalidArgument: the file is not (or no
/// longer recognizably) this journal, and truncating it would destroy
/// someone else's data. Callers that must never abort treat that error
/// as "journal unusable" and start fresh elsewhere.
StatusOr<JournalReplayStats> ReplayJournal(
    const std::string& path, std::string_view magic,
    const std::function<void(std::string_view payload)>& callback);

/// Appender for the journal format above. Thread-safe: concurrent
/// Append calls are serialized internally. With `fsync_each_append` every
/// record is fdatasync'd before Append returns (full write-ahead
/// durability); without it, crash loss is bounded by the OS flush window
/// but the valid-prefix recovery guarantee is unchanged.
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Starts a fresh journal (truncates any existing file, writes the
  /// header). `magic` must be kJournalMagicSize bytes.
  Status OpenFresh(const std::string& path, std::string_view magic,
                   bool fsync_each_append = true);

  /// Resumes an existing journal: truncates it to `valid_bytes` (as
  /// reported by ReplayJournal — dropping any torn tail) and appends
  /// after it. With `valid_bytes` 0 this is OpenFresh.
  Status OpenForResume(const std::string& path, std::string_view magic,
                       int64_t valid_bytes, bool fsync_each_append = true);

  /// Appends one record frame (a single write syscall).
  Status Append(std::string_view payload);

  /// Flushes pending OS buffers to disk (no-op with fsync_each_append).
  Status Sync();

  /// Final fsync + close. The fsync result is propagated — a failed
  /// barrier here means earlier appends may not be durable, which the
  /// caller must hear about. Idempotent; the destructor calls it and
  /// discards the status (it has no one to report to).
  Status Close();
  bool is_open() const { return fd_ >= 0; }
  /// Records appended through this writer (not counting replayed ones).
  int64_t appended() const;

 private:
  Status OpenInternal(const std::string& path, std::string_view magic,
                      int64_t valid_bytes, bool fsync_each_append);

  mutable std::mutex mu_;
  int fd_ = -1;
  std::string path_;
  bool fsync_each_append_ = true;
  int64_t appended_ = 0;
};

/// Opens or resumes a typed journal (geo::GeocodeJournal,
/// stream::StreamJournal) at `path` into `*journal`, the one way a run
/// does so. With `resume` the file is replayed and appended after its
/// valid prefix; an unusable file is logged ("<name> journal unusable")
/// and started fresh. Without `resume` it is started fresh. A journal
/// that cannot be opened is logged and left null, so the run goes on
/// without journaling its `records`. Returns the replay, empty unless a
/// usable journal was resumed.
template <typename Journal>
auto OpenJournal(const std::string& path, bool resume, bool fsync,
                 std::string_view name, std::string_view records,
                 std::unique_ptr<Journal>* journal) {
  decltype(Journal::Replay(path)) replay;
  bool fresh = true;
  if (resume) {
    replay = Journal::Replay(path);
    fresh = !replay.usable;
    if (fresh) {
      STIR_LOG(Warning) << name << " journal unusable, starting a fresh one: "
                        << replay.error;
      replay = {};
    }
  }
  *journal = std::make_unique<Journal>();
  Status status =
      fresh ? (*journal)->OpenFresh(path, fsync)
            : (*journal)->OpenForResume(path, replay.stats.valid_bytes, fsync);
  if (!status.ok()) {
    STIR_LOG(Warning) << name << " journal unavailable (" << records
                      << " will not be journaled): " << status.message();
    journal->reset();
  }
  return replay;
}

}  // namespace stir::io

#endif  // STIR_IO_JOURNAL_H_
