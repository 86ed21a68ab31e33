// Read-only memory-mapped file with shared ownership. The zero-copy
// snapshot loader (core/serialization, format v2) points PointSet
// views directly at the mapping; each view holds a
// shared_ptr<MmapFile> keepalive, so the mapping lives exactly as long
// as the last structure referencing it -- the index can outlive the
// loader, move across threads, or be destroyed in any order.

#ifndef DRLI_STORAGE_MMAP_FILE_H_
#define DRLI_STORAGE_MMAP_FILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace drli {

class MmapFile {
 public:
  // Maps `path` read-only (MAP_PRIVATE). An empty file maps to
  // data() == nullptr, size() == 0.
  static StatusOr<std::shared_ptr<MmapFile>> Open(const std::string& path);

  // Owning-read fallback for callers that cannot (or chose not to) map:
  // reads the whole file through plain read(2), retrying interrupted
  // and short reads (EINTR, signal-truncated transfers) until EOF.
  // Errors carry the failing call and errno detail in the Status
  // message -- never a bare kIoError.
  static StatusOr<std::vector<std::uint8_t>> ReadFileContents(
      const std::string& path);

  ~MmapFile();
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  MmapFile(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace drli

#endif  // DRLI_STORAGE_MMAP_FILE_H_
