#include "storage/file_io.h"

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "storage/mmap_file.h"

namespace drli {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

// A manifest- or wire-shaped record: fixed-width fields, then a
// length-prefixed string.
std::vector<std::uint8_t> EncodeRecord() {
  std::vector<std::uint8_t> bytes;
  bytes.push_back(0x7f);
  AppendU32(&bytes, 0x04030201u);
  AppendU64(&bytes, 0x0c0b0a0908070605ull);
  AppendF64(&bytes, -2.0);
  const std::string name = "run";
  AppendU64(&bytes, name.size());
  bytes.insert(bytes.end(), name.begin(), name.end());
  return bytes;
}

struct Record {
  std::uint8_t tag = 0;
  std::uint32_t a = 0;
  std::uint64_t b = 0;
  double x = 0.0;
  std::string name;
};

bool DecodeRecord(ByteSpan bytes, Record* r) {
  ByteReader reader(bytes);
  std::uint64_t name_len = 0;
  return reader.ReadU8(&r->tag) && reader.ReadU32(&r->a) &&
         reader.ReadU64(&r->b) && reader.ReadF64(&r->x) &&
         reader.ReadU64(&name_len) && reader.ReadString(name_len, &r->name) &&
         reader.remaining() == 0;
}

TEST(FileIoTest, LittleEndianEncodingIsPinnedByteForByte) {
  const std::vector<std::uint8_t> want = {
      0x7f,                                            // u8
      0x01, 0x02, 0x03, 0x04,                          // u32
      0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c,  // u64
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0,  // f64 -2.0
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // name length
      'r',  'u',  'n'};
  const std::vector<std::uint8_t> bytes = EncodeRecord();
  EXPECT_EQ(bytes, want);

  Record r;
  ASSERT_TRUE(DecodeRecord(bytes, &r));
  EXPECT_EQ(r.tag, 0x7f);
  EXPECT_EQ(r.a, 0x04030201u);
  EXPECT_EQ(r.b, 0x0c0b0a0908070605ull);
  EXPECT_EQ(r.x, -2.0);
  EXPECT_EQ(r.name, "run");
}

TEST(FileIoTest, EveryTruncatedPrefixIsRejected) {
  const std::vector<std::uint8_t> bytes = EncodeRecord();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    Record r;
    EXPECT_FALSE(DecodeRecord(ByteSpan(bytes).first(len), &r))
        << "prefix of " << len << " bytes decoded";
  }
  // A failed read consumes nothing, and a lying length is bounded.
  ByteReader reader(ByteSpan(bytes).first(3));
  std::uint32_t a = 0;
  EXPECT_FALSE(reader.ReadU32(&a));
  EXPECT_EQ(reader.remaining(), 3u);
  std::string s;
  EXPECT_FALSE(reader.ReadString(~std::uint64_t{0}, &s));
  EXPECT_EQ(reader.remaining(), 3u);
}

TEST(FileIoTest, WriteFileAtomicConcatenatesPartsAndReplaces) {
  const std::string path = TempPath("drli_file_io_gather.bin");
  const std::vector<std::uint8_t> head = {1, 2, 3};
  const std::vector<std::uint8_t> tail = {4, 5};
  const ByteSpan parts[] = {head, ByteSpan(), tail};
  ASSERT_TRUE(WriteFileAtomic(path, parts).ok());
  auto read = MmapFile::ReadFileContents(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));

  const ByteSpan shorter[] = {tail};
  ASSERT_TRUE(WriteFileAtomic(path, shorter).ok());
  read = MmapFile::ReadFileContents(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), tail);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  fs::remove(path);
}

TEST(FileIoTest, WriteFileAtomicFailsCleanlyIntoMissingDirectory) {
  const std::string path = TempPath("drli_file_io_no_dir") + "/file.bin";
  const std::vector<std::uint8_t> bytes = {7};
  const ByteSpan parts[] = {bytes};
  const Status status = WriteFileAtomic(path, parts);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("No such file"), std::string::npos)
      << status.ToString();
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(FileIoTest, WriteFileAtomicLeavesDirectoryDestinationUntouched) {
  const std::string path = TempPath("drli_file_io_dir_dest");
  fs::remove_all(path);
  ASSERT_TRUE(fs::create_directory(path));
  const std::string inside = path + "/kept";
  fs::create_directory(inside);
  const std::vector<std::uint8_t> bytes = {7, 8};
  const ByteSpan parts[] = {bytes};
  const Status status = WriteFileAtomic(path, parts);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("rename("), std::string::npos)
      << status.ToString();
  EXPECT_TRUE(fs::is_directory(path));
  EXPECT_TRUE(fs::is_directory(inside));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  fs::remove_all(path);
}

TEST(FileIoTest, MagicProbeAndManifestPaths) {
  const std::string path = TempPath("drli_file_io_magic.bin");
  std::vector<std::uint8_t> bytes;
  AppendU32(&bytes, 0x534c5244u);
  const ByteSpan parts[] = {bytes};
  ASSERT_TRUE(WriteFileAtomic(path, parts).ok());
  EXPECT_TRUE(FileStartsWithMagic(path, 0x534c5244u));
  EXPECT_FALSE(FileStartsWithMagic(path, 0x544c5244u));
  const ByteSpan short_parts[] = {ByteSpan(bytes).first(3)};
  ASSERT_TRUE(WriteFileAtomic(path, short_parts).ok());
  EXPECT_FALSE(FileStartsWithMagic(path, 0x534c5244u));
  EXPECT_FALSE(FileStartsWithMagic(path + ".missing", 0x534c5244u));
  fs::remove(path);

  EXPECT_EQ(DirOf("/srv/drli/index.bin"), "/srv/drli/");
  EXPECT_EQ(BaseOf("/srv/drli/index.bin"), "index.bin");
  EXPECT_EQ(DirOf("index.bin"), "");
  EXPECT_EQ(BaseOf("index.bin"), "index.bin");
  EXPECT_TRUE(SafeRelativeFile("index.bin.shard-0001"));
  for (const char* unsafe : {"", ".", "..", "../x", "a/b", "a\\b"}) {
    EXPECT_FALSE(SafeRelativeFile(unsafe)) << unsafe;
  }
}

}  // namespace
}  // namespace drli
