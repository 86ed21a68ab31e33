// On-disk layout of DualLayerIndex snapshot format v2, shared by the
// serializer (core/serialization), the metadata inspector (`drli
// inspect`), and the fault injector (testing/fault_inject).
//
// File layout (all integers little-endian):
//
//   [HeaderV2, 56 bytes]            magic/version/shape + header CRC
//   [SectionEntry x num_sections]   32 bytes each, at
//                                   header.section_table_offset (= 56)
//   [payload sections]              each 64-byte aligned; gaps between
//                                   sections are zero bytes
//
// Every region is tamper-evident: the header carries its own CRC-32C
// (computed with header_crc = 0) and the CRC of the section table; each
// section entry carries the CRC of its payload; padding gaps must be
// zero and the file must end exactly where the last section ends.
// Payload sections are aligned so numeric arrays can be reinterpreted
// in place by the mmap loader (doubles need 8-byte alignment; 64 keeps
// them cache-line aligned).

#ifndef DRLI_CORE_SNAPSHOT_FORMAT_H_
#define DRLI_CORE_SNAPSHOT_FORMAT_H_

#include <cstddef>
#include <cstdint>

namespace drli {
namespace snapshot {

inline constexpr std::uint32_t kMagic = 0x494c5244;  // "DRLI"
inline constexpr std::uint32_t kVersionV1 = 1;       // legacy stream format
inline constexpr std::uint32_t kVersionV2 = 2;       // sectioned + CRC32C
inline constexpr std::size_t kSectionAlignment = 64;

// Sanity bounds enforced before any allocation sized from file data.
inline constexpr std::uint32_t kMaxDim = 4096;
inline constexpr std::uint32_t kMaxSections = 64;

enum class SectionKind : std::uint32_t {
  kName = 1,            // index display name (char bytes)
  kPoints = 2,          // num_points * dim doubles, row-major
  kVirtualPoints = 3,   // num_virtual * dim doubles, row-major
  kCoarseOf = 4,        // num_nodes u32: coarse layer per node
  kFineOf = 5,          // num_nodes u32: fine sublayer per node
  kCoarseOffsets = 6,   // CSR offsets of the ∀-dominance graph
  kCoarseTargets = 7,   // CSR targets of the ∀-dominance graph
  kFineOffsets = 8,     // CSR offsets of the ∃-dominance graph
  kFineTargets = 9,     // CSR targets of the ∃-dominance graph
  kLayerOffsets = 10,   // num_coarse_layers + 1 u32 into kLayerMembers
  kLayerMembers = 11,   // real tuple ids grouped by coarse layer
  kWeightChain = 12,    // 2-d zero-layer chain (tuple ids, x-ascending)
};

// Short lower-case identifier, e.g. "points"; "?" for unknown kinds.
const char* SectionKindName(SectionKind kind);

struct HeaderV2 {
  std::uint32_t magic = kMagic;
  std::uint32_t version = kVersionV2;
  std::uint32_t dim = 0;
  std::uint32_t flags = 0;  // kFlagWeightTable | kFlagVerifiedFineEdges
  std::uint64_t num_points = 0;
  std::uint64_t num_virtual = 0;
  std::uint32_t num_sections = 0;
  std::uint32_t section_table_crc = 0;
  std::uint64_t section_table_offset = 0;
  std::uint32_t header_crc = 0;  // CRC-32C of header with this field 0
  std::uint32_t reserved = 0;
};
static_assert(sizeof(HeaderV2) == 56);

inline constexpr std::uint32_t kFlagWeightTable = 1u << 0;
// Every ∃-edge passed FacetIsVerifiedEds (EdsMargin::kRounding,
// core/eds.h) at build. Files without it, v1 files included, have
// their ∃ in-sets re-verified at load.
inline constexpr std::uint32_t kFlagVerifiedFineEdges = 1u << 1;

struct SectionEntry {
  std::uint32_t kind = 0;
  std::uint32_t reserved = 0;
  std::uint64_t offset = 0;  // absolute file offset, kSectionAlignment-ed
  std::uint64_t length = 0;  // payload bytes
  std::uint32_t crc = 0;     // CRC-32C of the payload
  std::uint32_t reserved2 = 0;
};
static_assert(sizeof(SectionEntry) == 32);

// CRC-32C of `header` serialized with header_crc treated as zero.
std::uint32_t ComputeHeaderCrc(const HeaderV2& header);

}  // namespace snapshot
}  // namespace drli

#endif  // DRLI_CORE_SNAPSHOT_FORMAT_H_
