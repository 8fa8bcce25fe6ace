#include "io/atomic_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "io/fault_fs.h"

namespace stir::io {

namespace {

Status Errno(const char* op, const std::string& path) {
  return Status::IOError(std::string(op) + " failed for " + path + ": " +
                         std::strerror(errno));
}

/// fsyncs the directory containing `path` so the rename itself is
/// durable (POSIX: a crashed rename without the directory sync may
/// resurface the old name).
Status SyncParentDir(const std::string& path) {
  const auto parent = std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? std::string(".") : parent.string();
  int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return Errno("open(dir)", dir);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("fsync(dir)", dir);
  return Status::OK();
}

}  // namespace

Status AtomicWriteFile(const std::string& path, std::string_view contents,
                       bool fsync) {
  FaultFs& fs = FaultFs::Instance();
  std::string tmp = path + ".tmp";
  int fd;
  do {
    fd = fs.Open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return Errno("open", tmp);

  size_t written = 0;
  while (written < contents.size()) {
    ssize_t n = fs.Write(fd, contents.data() + written,
                         contents.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Errno("write", tmp);
    }
    written += static_cast<size_t>(n);
  }
  if (fsync && fs.Fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return Errno("fsync", tmp);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Errno("close", tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Errno("rename", path);
  }
  if (fsync) return SyncParentDir(path);
  return Status::OK();
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IOError("read failed: " + path);
  return contents;
}

Status EnsureDirectory(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) {
    return Status::IOError("cannot create directory " + path + ": " +
                           ec.message());
  }
  return Status::OK();
}

bool PathExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace stir::io
