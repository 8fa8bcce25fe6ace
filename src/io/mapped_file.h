#ifndef STIR_IO_MAPPED_FILE_H_
#define STIR_IO_MAPPED_FILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"

namespace stir::io {

/// Read-only memory-mapped file (RAII). The backbone of the zero-copy v3
/// corpus reader (DESIGN.md §14): open once, hand out pointers into the
/// mapping, and let the kernel page data in on demand so the resident set
/// tracks the touched working set, not the file size.
///
/// Process-wide accounting: every live mapping contributes to
/// MappedBytesNow()/MappedBytesPeak(), which the bench harness reports
/// next to peak RSS to prove out-of-core behavior (RSS ≪ bytes mapped).
///
/// A MappedFile can instead own an in-memory image (FromBuffer): the
/// same read-only byte range, held in process memory rather than mapped
/// from a file. Such an image is not counted as mapped, and
/// ReleaseRange leaves it intact.
class MappedFile {
 public:
  /// Maps `path` read-only. IOError when the file cannot be opened or
  /// mapped. Empty files map to size()==0 with data()==nullptr.
  static StatusOr<MappedFile> Open(const std::string& path);

  /// Takes ownership of `words`, whose first `size` bytes are the image
  /// (8-byte aligned, like a page-aligned mapping). `name` stands in for
  /// the path in messages. Makes no filesystem call.
  static MappedFile FromBuffer(std::unique_ptr<uint64_t[]> words, size_t size,
                               std::string name);

  MappedFile() = default;
  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;

  const char* data() const { return data_; }
  size_t size() const { return size_; }
  const std::string& path() const { return path_; }

  /// madvise hints; best-effort (errors ignored — hints only).
  void AdviseSequential() const;
  void AdviseRandom() const;

  /// Drops the resident pages covering [offset, offset+length) back to
  /// the kernel (madvise MADV_DONTNEED; the mapping stays valid and
  /// re-faults from the file on next touch). Out-of-core shard scans call
  /// this after finishing a shard so peak RSS stays bounded by the shard
  /// working set. Offsets are rounded inward to page boundaries;
  /// best-effort. A no-op on an owned image: MADV_DONTNEED would
  /// zero-fill its private anonymous pages instead of re-reading them.
  void ReleaseRange(size_t offset, size_t length) const;

 private:
  void Unmap();

  const char* data_ = nullptr;
  size_t size_ = 0;
  std::string path_;
  std::unique_ptr<uint64_t[]> owned_;  ///< Set for an in-memory image.
};

/// Bytes currently mapped / high-water mark across all live MappedFiles
/// in this process (bench reporting; see WriteBenchJson).
int64_t MappedBytesNow();
int64_t MappedBytesPeak();

}  // namespace stir::io

#endif  // STIR_IO_MAPPED_FILE_H_
