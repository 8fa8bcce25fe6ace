#ifndef STIR_IO_STRING_ARENA_H_
#define STIR_IO_STRING_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace stir::io {

/// Build-side string intern pool for the v3 corpus (DESIGN.md §14):
/// every distinct string (user handles, profile locations, district
/// keys) is stored once in a single byte blob, addressed by a dense
/// 32-bit id. Interning happens once at ingest; every later pipeline
/// stage passes ids around and resolves them against the frozen arena
/// (the blob + offset table persisted as two corpus sections) without
/// re-hashing. Lookups go through one open-addressing table of ids
/// keyed by blob slices, so a string's bytes live only in the blob.
///
/// Id 0 is always the empty string, so zero-initialized columns are
/// valid references.
class StringArena {
 public:
  /// Ids are 32-bit: at most 2^32-1 distinct strings (ids 0..2^32-2).
  static constexpr size_t kMaxStrings = std::numeric_limits<uint32_t>::max();

  StringArena();

  /// Returns the id for `s`, adding it on first sight; nullopt when `s`
  /// is new and the arena already holds kMaxStrings strings. Ids are
  /// assigned densely in first-intern order, which makes arena contents
  /// a pure function of the ingest sequence (deterministic corpora).
  std::optional<uint32_t> Intern(std::string_view s);

  /// The string for a previously returned id.
  std::string_view At(uint32_t id) const {
    return std::string_view(blob_).substr(
        offsets_[id], offsets_[id + 1] - offsets_[id]);
  }

  /// Number of distinct strings (including the implicit empty string).
  size_t size() const { return offsets_.size() - 1; }
  /// Total payload bytes.
  size_t blob_bytes() const { return blob_.size(); }

  /// Frozen representation, persisted verbatim as corpus sections:
  /// offsets() has size()+1 entries; string i is blob()[offsets()[i],
  /// offsets()[i+1]).
  const std::string& blob() const { return blob_; }
  const std::vector<uint64_t>& offsets() const { return offsets_; }

 private:
  static constexpr uint32_t kNoId = std::numeric_limits<uint32_t>::max();

  /// A table entry: the id of a string and the low bits of its hash
  /// (a cheap mismatch test, and the key a rehash places it by).
  struct Slot {
    uint32_t id = kNoId;
    uint32_t hash = 0;
  };

  /// Puts `id` in the first free slot of its probe sequence.
  void Place(uint32_t hash, uint32_t id);

  std::string blob_;
  std::vector<uint64_t> offsets_;  // size()+1, offsets_[0] == 0
  std::vector<Slot> slots_;        // power of two, at most half full
};

}  // namespace stir::io

#endif  // STIR_IO_STRING_ARENA_H_
