#include "io/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/crc32c_internal.h"
#include "common/random.h"
#include "geo/geocode_journal.h"
#include "io/atomic_file.h"
#include "io/corpus.h"
#include "io/serialize.h"
#include "io/snapshot.h"

namespace stir::io {
namespace {

constexpr std::string_view kMagic = "STIRJNL1";

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string CorpusPath(const std::string& name) {
  return std::string(STIR_TEST_DATA_DIR) + "/journal/" + name;
}

std::vector<std::string> Replay(const std::string& path,
                                JournalReplayStats* stats) {
  std::vector<std::string> payloads;
  auto result = ReplayJournal(path, kMagic, [&](std::string_view payload) {
    payloads.emplace_back(payload);
  });
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok() && stats != nullptr) *stats = *result;
  return payloads;
}

TEST(Crc32cTest, KnownVectors) {
  // The canonical CRC-32C check value.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0x00000000u);
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8A9136AAu);
  // Incremental form must match one-shot.
  uint32_t state = kCrc32cInit;
  state = Crc32cExtend(state, "12345");
  state = Crc32cExtend(state, "6789");
  EXPECT_EQ(Crc32cFinish(state), Crc32c("123456789"));
}

/// Byte-at-a-time, bit-at-a-time CRC-32C: the reference the library's
/// sliced form must reproduce.
uint32_t BytewiseCrc32c(std::string_view data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (char c : data) {
    crc ^= static_cast<unsigned char>(c);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32cTest, MatchesBytewiseReferenceOnSeededBuffers) {
  // Longer than one corpus verify window, so the window-sized extends
  // CorpusView::Open makes are covered too.
  Rng rng(0xC3C32C);
  std::string buffer(kCorpusVerifyWindow + 4099, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.Next() & 0xFFu);
  const std::string_view view(buffer);
  const uint32_t whole = BytewiseCrc32c(view);
  EXPECT_EQ(Crc32c(view), whole);

  // Every implementation this host runs, not only the one Crc32c picked.
  std::string ran;
  for (const crc32c_internal::Implementation& impl :
       crc32c_internal::Implementations()) {
    SCOPED_TRACE(impl.name);
    ran += std::string(ran.empty() ? "" : ", ") + impl.name;
    const auto crc = [&](std::string_view data) {
      return Crc32cFinish(impl.extend(kCrc32cInit, data));
    };
    EXPECT_EQ(crc(view), whole);
    // Every length from 0 to 130 at every alignment from 0 to 7, so each
    // implementation's word loop and byte tail see every split.
    for (size_t align = 0; align < 8; ++align) {
      for (size_t length = 0; length <= 130; ++length) {
        const std::string_view slice = view.substr(align, length);
        EXPECT_EQ(crc(slice), BytewiseCrc32c(slice))
            << "align " << align << " length " << length;
      }
    }
    // Every split point through the incremental form.
    const std::string_view small = view.substr(3, 130);
    const uint32_t small_crc = BytewiseCrc32c(small);
    for (size_t split = 0; split <= small.size(); ++split) {
      uint32_t state = impl.extend(kCrc32cInit, small.substr(0, split));
      state = impl.extend(state, small.substr(split));
      EXPECT_EQ(Crc32cFinish(state), small_crc) << "split " << split;
    }
  }
  std::printf("[          ] CRC32C implementations checked: %s\n",
              ran.c_str());
}

TEST(SerializeTest, RoundTrip) {
  BinaryWriter w;
  w.U32(0xDEADBEEFu);
  w.U64(1ull << 40);
  w.I32(-7);
  w.I64(-(1ll << 50));
  w.Bool(true);
  w.Bool(false);
  w.Double(3.5);
  w.String("payload with\0embedded nul");
  w.String("");
  std::string bytes = w.Take();

  BinaryReader r(bytes);
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int32_t i32 = 0;
  int64_t i64 = 0;
  bool b1 = false, b2 = true;
  double d = 0;
  std::string s1, s2;
  ASSERT_TRUE(r.U32(&u32));
  ASSERT_TRUE(r.U64(&u64));
  ASSERT_TRUE(r.I32(&i32));
  ASSERT_TRUE(r.I64(&i64));
  ASSERT_TRUE(r.Bool(&b1));
  ASSERT_TRUE(r.Bool(&b2));
  ASSERT_TRUE(r.Double(&d));
  ASSERT_TRUE(r.String(&s1));
  ASSERT_TRUE(r.String(&s2));
  EXPECT_TRUE(r.Done());
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 1ull << 40);
  EXPECT_EQ(i32, -7);
  EXPECT_EQ(i64, -(1ll << 50));
  EXPECT_TRUE(b1);
  EXPECT_FALSE(b2);
  EXPECT_DOUBLE_EQ(d, 3.5);
  EXPECT_EQ(s1, "payload with");  // string_view literal stops at the nul.
  EXPECT_TRUE(s2.empty());
}

TEST(SerializeTest, ReaderRejectsUnderrun) {
  BinaryWriter w;
  w.U32(7);
  BinaryReader r(w.bytes());
  uint64_t u64 = 0;
  EXPECT_FALSE(r.U64(&u64));  // only 4 bytes available
  std::string s;
  BinaryReader r2(w.bytes());
  // Length prefix alone underruns an 8-byte u64.
  EXPECT_FALSE(r2.String(&s));
}

TEST(AtomicFileTest, WriteReadRoundTrip) {
  std::string path = TempPath("atomic_roundtrip.bin");
  std::string contents("binary\0data", 11);
  ASSERT_TRUE(AtomicWriteFile(path, contents).ok());
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, contents);
  // Replace in place: no .tmp sibling left behind.
  ASSERT_TRUE(AtomicWriteFile(path, "second").ok());
  read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "second");
  EXPECT_FALSE(PathExists(path + ".tmp"));
}

TEST(AtomicFileTest, EnsureDirectoryCreatesParents) {
  std::string dir = TempPath("ensure/a/b/c");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  EXPECT_TRUE(PathExists(dir));
  // Idempotent.
  EXPECT_TRUE(EnsureDirectory(dir).ok());
}

TEST(SnapshotTest, RoundTripAndCorruptionRejected) {
  std::string path = TempPath("snap.bin");
  std::string payload = "snapshot payload bytes";
  ASSERT_TRUE(WriteSnapshotFile(path, kMagic, payload).ok());
  auto read = ReadSnapshotFile(path, kMagic);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);

  auto raw = ReadFileToString(path);
  ASSERT_TRUE(raw.ok());
  EXPECT_TRUE(SnapshotHasMagic(*raw, kMagic));
  EXPECT_FALSE(SnapshotHasMagic(*raw, "WRONGMAG"));

  // Wrong magic on read.
  EXPECT_FALSE(ReadSnapshotFile(path, "WRONGMAG").ok());

  // Flip one payload byte: checksum mismatch.
  std::string corrupt = *raw;
  corrupt[kSnapshotHeaderSize] ^= 0x01;
  ASSERT_TRUE(AtomicWriteFile(path, corrupt).ok());
  EXPECT_FALSE(ReadSnapshotFile(path, kMagic).ok());

  // Truncated payload.
  ASSERT_TRUE(AtomicWriteFile(path, raw->substr(0, raw->size() - 1)).ok());
  EXPECT_FALSE(ReadSnapshotFile(path, kMagic).ok());

  // Missing file is IOError (distinct from corruption).
  auto missing = ReadSnapshotFile(TempPath("no_such_snapshot"), kMagic);
  EXPECT_EQ(missing.status().code(), StatusCode::kIOError);
}

TEST(JournalTest, WriteThenReplay) {
  std::string path = TempPath("journal_basic.journal");
  JournalWriter writer;
  ASSERT_TRUE(writer.OpenFresh(path, kMagic).ok());
  ASSERT_TRUE(writer.Append("alpha").ok());
  ASSERT_TRUE(writer.Append("").ok());  // empty payloads are legal
  ASSERT_TRUE(writer.Append("charlie").ok());
  EXPECT_EQ(writer.appended(), 3);
  writer.Close();
  EXPECT_FALSE(writer.is_open());

  JournalReplayStats stats;
  auto payloads = Replay(path, &stats);
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(payloads[0], "alpha");
  EXPECT_EQ(payloads[1], "");
  EXPECT_EQ(payloads[2], "charlie");
  EXPECT_EQ(stats.records, 3);
  EXPECT_EQ(stats.quarantined, 0);
  EXPECT_EQ(stats.truncated_bytes, 0);
}

TEST(JournalTest, MissingFileReplaysEmpty) {
  JournalReplayStats stats;
  auto payloads = Replay(TempPath("never_created.journal"), &stats);
  EXPECT_TRUE(payloads.empty());
  EXPECT_EQ(stats.records, 0);
  EXPECT_EQ(stats.valid_bytes, 0);
}

TEST(JournalTest, TornTailTruncatedOnReplay) {
  std::string path = TempPath("journal_torn.journal");
  JournalWriter writer;
  ASSERT_TRUE(writer.OpenFresh(path, kMagic).ok());
  ASSERT_TRUE(writer.Append("alpha").ok());
  ASSERT_TRUE(writer.Append("bravo").ok());
  writer.Close();

  // Simulate a crash mid-append: a frame header claiming more payload
  // than is present.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    uint32_t length = 100, crc = 0;
    out.write(reinterpret_cast<const char*>(&length), sizeof(length));
    out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    out.write("par", 3);
  }

  JournalReplayStats stats;
  auto payloads = Replay(path, &stats);
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(stats.records, 2);
  EXPECT_EQ(stats.truncated_bytes, 11);
  int64_t expected_valid =
      static_cast<int64_t>(kJournalHeaderSize + 2 * (kJournalFrameOverhead + 5));
  EXPECT_EQ(stats.valid_bytes, expected_valid);

  // A resuming writer truncates the torn tail and appends cleanly.
  JournalWriter resumed;
  ASSERT_TRUE(resumed.OpenForResume(path, kMagic, stats.valid_bytes).ok());
  ASSERT_TRUE(resumed.Append("charlie").ok());
  resumed.Close();
  payloads = Replay(path, &stats);
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(payloads[2], "charlie");
  EXPECT_EQ(stats.truncated_bytes, 0);
}

TEST(JournalTest, BitFlipQuarantinedWithoutLosingLaterRecords) {
  std::string path = TempPath("journal_flip.journal");
  JournalWriter writer;
  ASSERT_TRUE(writer.OpenFresh(path, kMagic).ok());
  ASSERT_TRUE(writer.Append("alpha").ok());
  ASSERT_TRUE(writer.Append("bravo").ok());
  ASSERT_TRUE(writer.Append("charlie").ok());
  writer.Close();

  auto raw = ReadFileToString(path);
  ASSERT_TRUE(raw.ok());
  // Flip a payload byte inside "bravo" (second frame).
  size_t offset =
      kJournalHeaderSize + (kJournalFrameOverhead + 5) + kJournalFrameOverhead;
  std::string corrupt = *raw;
  corrupt[offset] ^= 0x40;
  ASSERT_TRUE(AtomicWriteFile(path, corrupt).ok());

  JournalReplayStats stats;
  auto payloads = Replay(path, &stats);
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0], "alpha");
  EXPECT_EQ(payloads[1], "charlie");
  EXPECT_EQ(stats.quarantined, 1);
  EXPECT_EQ(stats.truncated_bytes, 0);
}

TEST(JournalTest, WrongMagicIsHardError) {
  std::string path = TempPath("journal_wrong_magic.journal");
  JournalWriter writer;
  ASSERT_TRUE(writer.OpenFresh(path, "OTHERMAG").ok());
  ASSERT_TRUE(writer.Append("alpha").ok());
  writer.Close();
  auto result = ReplayJournal(path, kMagic, [](std::string_view) {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// --- Corruption corpus (tests/data/journal/) -------------------------------

TEST(JournalCorpusTest, ValidFile) {
  JournalReplayStats stats;
  auto payloads = Replay(CorpusPath("valid.journal"), &stats);
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(payloads[0], "alpha");
  EXPECT_EQ(payloads[1], "bravo");
  EXPECT_EQ(payloads[2], "charlie");
  EXPECT_EQ(stats.quarantined, 0);
  EXPECT_EQ(stats.truncated_bytes, 0);
}

TEST(JournalCorpusTest, TruncatedTail) {
  JournalReplayStats stats;
  auto payloads = Replay(CorpusPath("truncated_tail.journal"), &stats);
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0], "alpha");
  EXPECT_EQ(payloads[1], "bravo");
  EXPECT_EQ(stats.quarantined, 0);
  EXPECT_GT(stats.truncated_bytes, 0);
}

TEST(JournalCorpusTest, BitFlip) {
  JournalReplayStats stats;
  auto payloads = Replay(CorpusPath("bit_flip.journal"), &stats);
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0], "alpha");
  EXPECT_EQ(payloads[1], "charlie");
  EXPECT_EQ(stats.quarantined, 1);
}

TEST(JournalCorpusTest, BadMagic) {
  auto result =
      ReplayJournal(CorpusPath("bad_magic.journal"), kMagic,
                    [](std::string_view) { FAIL() << "delivered a record"; });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(JournalCorpusTest, ZeroLength) {
  JournalReplayStats stats;
  auto payloads = Replay(CorpusPath("zero_length.journal"), &stats);
  EXPECT_TRUE(payloads.empty());
  EXPECT_EQ(stats.records, 0);
  EXPECT_EQ(stats.valid_bytes, 0);
}

TEST(JournalCorpusTest, DuplicateRecordsAllDelivered) {
  JournalReplayStats stats;
  auto payloads = Replay(CorpusPath("duplicate_records.journal"), &stats);
  ASSERT_EQ(payloads.size(), 4u);
  EXPECT_EQ(payloads[0], "alpha");
  EXPECT_EQ(payloads[1], "alpha");
  EXPECT_EQ(payloads[2], "bravo");
  EXPECT_EQ(payloads[3], "alpha");
  EXPECT_EQ(stats.quarantined, 0);
}

// --- Geocode journal --------------------------------------------------------

geo::GeocodeResult SampleResult() {
  geo::GeocodeResult result;
  result.country = "kr";
  result.state = "seoul";
  result.county = "gangnam";
  result.town = "yeoksam";
  result.region = 42;
  return result;
}

TEST(GeocodeJournalTest, EncodeDecodeRoundTrip) {
  std::string payload = geo::GeocodeJournal::EncodeEntry("wydm6k3", SampleResult());
  geo::GeocodeJournalEntry entry;
  ASSERT_TRUE(geo::GeocodeJournal::DecodeEntry(payload, &entry));
  EXPECT_EQ(entry.cache_key, "wydm6k3");
  EXPECT_EQ(entry.result.country, "kr");
  EXPECT_EQ(entry.result.state, "seoul");
  EXPECT_EQ(entry.result.county, "gangnam");
  EXPECT_EQ(entry.result.town, "yeoksam");
  EXPECT_EQ(entry.result.region, 42);

  // Trailing garbage and truncation are decode failures, not crashes.
  EXPECT_FALSE(geo::GeocodeJournal::DecodeEntry(payload + "x", &entry));
  EXPECT_FALSE(geo::GeocodeJournal::DecodeEntry(
      std::string_view(payload).substr(0, payload.size() - 1), &entry));
}

TEST(GeocodeJournalTest, WriteThenReplay) {
  std::string path = TempPath("geocode_roundtrip.journal");
  geo::GeocodeJournal journal;
  ASSERT_TRUE(journal.OpenFresh(path).ok());
  ASSERT_TRUE(journal.Append("keyaaaa", SampleResult()).ok());
  geo::GeocodeResult other = SampleResult();
  other.town = "jamsil";
  other.region = 7;
  ASSERT_TRUE(journal.Append("keybbbb", other).ok());
  EXPECT_EQ(journal.appended(), 2);
  journal.Close();

  auto replay = geo::GeocodeJournal::Replay(path);
  ASSERT_TRUE(replay.usable) << replay.error;
  ASSERT_EQ(replay.entries.size(), 2u);
  EXPECT_EQ(replay.entries[0].cache_key, "keyaaaa");
  EXPECT_EQ(replay.entries[1].result.town, "jamsil");
  EXPECT_EQ(replay.entries[1].result.region, 7);
  EXPECT_EQ(replay.stats.quarantined, 0);
}

TEST(GeocodeJournalTest, UnusableJournalReportedNotFatal) {
  // A journal carrying a different magic is structurally unusable.
  auto replay = geo::GeocodeJournal::Replay(CorpusPath("valid.journal"));
  EXPECT_FALSE(replay.usable);
  EXPECT_FALSE(replay.error.empty());
  EXPECT_TRUE(replay.entries.empty());
}

TEST(GeocodeJournalTest, UndecodablePayloadQuarantined) {
  std::string path = TempPath("geocode_garbage.journal");
  JournalWriter writer;
  ASSERT_TRUE(writer.OpenFresh(path, geo::GeocodeJournal::kMagic).ok());
  ASSERT_TRUE(
      writer.Append(geo::GeocodeJournal::EncodeEntry("ok1", SampleResult()))
          .ok());
  ASSERT_TRUE(writer.Append("not a geocode entry").ok());
  writer.Close();

  auto replay = geo::GeocodeJournal::Replay(path);
  ASSERT_TRUE(replay.usable) << replay.error;
  ASSERT_EQ(replay.entries.size(), 1u);
  EXPECT_EQ(replay.entries[0].cache_key, "ok1");
  EXPECT_EQ(replay.stats.quarantined, 1);
  EXPECT_EQ(replay.stats.records, 1);
}

}  // namespace
}  // namespace stir::io
