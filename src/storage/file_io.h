// The byte-level codec shared by every on-disk writer -- the v2 index
// snapshot (core/serialization), the shard and tiered manifests
// (storage/manifest_codec) and the serving directory's
// CURRENT pointer (server/serving_engine) -- and by the wire protocol
// (server/protocol).
//
//  * Little-endian integers and IEEE-754 doubles. Every supported host
//    is little-endian -- the snapshot loader maps its arrays in place
//    -- so both directions are plain copies, and a static_assert pins
//    the assumption. ByteReader bounds every read by the bytes left, so
//    a truncated or lying input becomes a `false` (->
//    Status::Corruption), never an out-of-bounds read.
//  * WriteFileAtomic: the one write path. The bytes go to "<path>.tmp",
//    are fsync'ed, and only then renamed over `path`. A crash or a
//    full disk leaves either the old file or the complete new one, and
//    a file named by a later write (a manifest, CURRENT) never reaches
//    the disk before the bytes it names.
//  * Path helpers for manifests that address sibling files by name.

#ifndef DRLI_STORAGE_FILE_IO_H_
#define DRLI_STORAGE_FILE_IO_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace drli {

using ByteSpan = std::span<const std::uint8_t>;

static_assert(std::endian::native == std::endian::little,
              "on-disk and wire layouts are little-endian copies");

namespace file_io_detail {
template <typename T>
void AppendLe(std::vector<std::uint8_t>* out, T v) {
  static_assert(std::is_arithmetic_v<T>);
  // resize + memcpy: a vector::insert of the value's bytes trips GCC
  // 12's -Warray-bounds at -O3.
  const std::size_t at = out->size();
  out->resize(at + sizeof(T));
  std::memcpy(out->data() + at, &v, sizeof(T));
}
}  // namespace file_io_detail

// Appends `v` little-endian: 4 or 8 bytes, least significant first.
// A double is stored as its IEEE-754 bit pattern. Inline, like the
// reader below: the wire protocol encodes and decodes every request
// field through them.
inline void AppendU32(std::vector<std::uint8_t>* out, std::uint32_t v) {
  file_io_detail::AppendLe(out, v);
}
inline void AppendU64(std::vector<std::uint8_t>* out, std::uint64_t v) {
  file_io_detail::AppendLe(out, v);
}
inline void AppendF64(std::vector<std::uint8_t>* out, double v) {
  file_io_detail::AppendLe(out, v);
}

// Bounded little-endian reader over a byte buffer it does not own.
// Every Read checks the bytes left first; a failed read consumes
// nothing.
class ByteReader {
 public:
  explicit ByteReader(ByteSpan bytes) : bytes_(bytes) {}

  bool ReadU8(std::uint8_t* v) { return ReadLe(v); }
  bool ReadU32(std::uint32_t* v) { return ReadLe(v); }
  bool ReadU64(std::uint64_t* v) { return ReadLe(v); }
  bool ReadF64(double* v) { return ReadLe(v); }
  // Reads `length` raw bytes into `v`.
  bool ReadString(std::uint64_t length, std::string* v) {
    if (remaining() < length) return false;
    v->assign(reinterpret_cast<const char*>(bytes_.data() + pos_),
              static_cast<std::size_t>(length));
    pos_ += static_cast<std::size_t>(length);
    return true;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  template <typename T>
  bool ReadLe(T* v) {
    if (remaining() < sizeof(T)) return false;
    std::memcpy(v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  ByteSpan bytes_;
  std::size_t pos_ = 0;
};

// Writes the concatenation of `parts` to `path` atomically and
// durably (temp file, fsync, rename; see the header comment). On any
// failure the temp file is removed, `path` is untouched, and the
// IoError names the failing call, the file and the errno text.
Status WriteFileAtomic(const std::string& path,
                       std::span<const ByteSpan> parts);

// True when the file at `path` starts with the little-endian `magic`;
// false when it is shorter or cannot be opened.
bool FileStartsWithMagic(const std::string& path, std::uint32_t magic);

// Directory prefix of `path` including the trailing separator, "" for a
// bare file name.
std::string DirOf(const std::string& path);
// `path` without its directory prefix.
std::string BaseOf(const std::string& path);
// A file name a manifest may reference: non-empty, not "." or "..",
// and free of path separators, so it stays inside the manifest's
// directory.
bool SafeRelativeFile(const std::string& name);

}  // namespace drli

#endif  // DRLI_STORAGE_FILE_IO_H_
