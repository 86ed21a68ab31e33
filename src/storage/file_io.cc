#include "storage/file_io.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

namespace drli {

namespace {

Status ErrnoStatus(const std::string& call, const std::string& detail,
                   int err) {
  return Status::IoError(call + "(" + detail + "): " + std::strerror(err));
}

}  // namespace

Status WriteFileAtomic(const std::string& path,
                       std::span<const ByteSpan> parts) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) return ErrnoStatus("open", tmp, errno);
  // Every failure past this point closes (if still open) and removes
  // the temp file, so `path` never sees a partial write.
  bool open = true;
  const auto fail = [&](const char* call, const std::string& detail) {
    const int err = errno;
    if (open) ::close(fd);
    ::unlink(tmp.c_str());
    return ErrnoStatus(call, detail, err);
  };
  for (const ByteSpan part : parts) {
    std::size_t done = 0;
    while (done < part.size()) {
      const ssize_t n = ::write(fd, part.data() + done, part.size() - done);
      if (n < 0) {
        if (errno == EINTR) continue;
        return fail("write", tmp);
      }
      done += static_cast<std::size_t>(n);
    }
  }
  // The bytes are on disk before any name points at them.
  if (::fsync(fd) != 0) return fail("fsync", tmp);
  open = false;
  if (::close(fd) != 0) return fail("close", tmp);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail("rename", tmp + " -> " + path);
  }
  return Status::Ok();
}

bool FileStartsWithMagic(const std::string& path, std::uint32_t magic) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  std::uint8_t bytes[sizeof(magic)];
  std::size_t done = 0;
  while (done < sizeof(bytes)) {
    const ssize_t n = ::read(fd, bytes + done, sizeof(bytes) - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    done += static_cast<std::size_t>(n);
  }
  ::close(fd);
  std::uint32_t found = 0;
  return ByteReader(ByteSpan(bytes, done)).ReadU32(&found) && found == magic;
}

std::string DirOf(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash + 1);
}

std::string BaseOf(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool SafeRelativeFile(const std::string& name) {
  if (name.empty() || name == "." || name == "..") return false;
  return name.find('/') == std::string::npos &&
         name.find('\\') == std::string::npos;
}

}  // namespace drli
