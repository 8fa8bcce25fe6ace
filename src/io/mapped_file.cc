#include "io/mapped_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>

#include "io/fault_fs.h"

namespace stir::io {

namespace {

std::atomic<int64_t> g_mapped_now{0};
std::atomic<int64_t> g_mapped_peak{0};

void AccountMap(int64_t bytes) {
  int64_t now = g_mapped_now.fetch_add(bytes) + bytes;
  int64_t peak = g_mapped_peak.load();
  while (now > peak && !g_mapped_peak.compare_exchange_weak(peak, now)) {
  }
}

size_t PageSize() {
  static const size_t kPage = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  return kPage;
}

}  // namespace

StatusOr<MappedFile> MappedFile::Open(const std::string& path) {
  int fd;
  do {
    fd = FaultFs::Instance().Open(path.c_str(), O_RDONLY, 0);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return Status::IOError("open failed for " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status status = Status::IOError("fstat failed for " + path + ": " +
                                    std::strerror(errno));
    ::close(fd);
    return status;
  }
  MappedFile file;
  file.path_ = path;
  file.size_ = static_cast<size_t>(st.st_size);
  if (file.size_ > 0) {
    void* map = ::mmap(nullptr, file.size_, PROT_READ, MAP_SHARED, fd, 0);
    if (map == MAP_FAILED) {
      Status status = Status::IOError("mmap failed for " + path + ": " +
                                      std::strerror(errno));
      ::close(fd);
      return status;
    }
    file.data_ = static_cast<const char*>(map);
    AccountMap(static_cast<int64_t>(file.size_));
  }
  ::close(fd);  // The mapping keeps the file alive.
  return file;
}

MappedFile MappedFile::FromBuffer(std::unique_ptr<uint64_t[]> words,
                                  size_t size, std::string name) {
  MappedFile image;
  image.owned_ = std::move(words);
  image.data_ = reinterpret_cast<const char*>(image.owned_.get());
  image.size_ = size;
  image.path_ = std::move(name);
  return image;
}

void MappedFile::Unmap() {
  if (data_ != nullptr && owned_ == nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
    g_mapped_now.fetch_sub(static_cast<int64_t>(size_));
  }
}

MappedFile::~MappedFile() { Unmap(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_),
      size_(other.size_),
      path_(std::move(other.path_)),
      owned_(std::move(other.owned_)) {
  other.data_ = nullptr;
  other.size_ = 0;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    Unmap();
    data_ = other.data_;
    size_ = other.size_;
    path_ = std::move(other.path_);
    owned_ = std::move(other.owned_);
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

void MappedFile::AdviseSequential() const {
  if (data_ != nullptr) {
    ::madvise(const_cast<char*>(data_), size_, MADV_SEQUENTIAL);
  }
}

void MappedFile::AdviseRandom() const {
  if (data_ != nullptr) {
    ::madvise(const_cast<char*>(data_), size_, MADV_RANDOM);
  }
}

void MappedFile::ReleaseRange(size_t offset, size_t length) const {
  if (data_ == nullptr || owned_ != nullptr || length == 0 ||
      offset >= size_) {
    return;
  }
  size_t end = offset + length;
  if (end > size_) end = size_;
  // Round inward: never drop pages shared with bytes outside the range.
  size_t page = PageSize();
  size_t begin = (offset + page - 1) / page * page;
  end = end / page * page;
  if (begin >= end) return;
  ::madvise(const_cast<char*>(data_ + begin), end - begin, MADV_DONTNEED);
}

int64_t MappedBytesNow() { return g_mapped_now.load(); }
int64_t MappedBytesPeak() { return g_mapped_peak.load(); }

}  // namespace stir::io
