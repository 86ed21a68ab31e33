#include "core/serialization.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "core/eds.h"
#include "storage/mmap_file.h"

namespace drli {

namespace {

using snapshot::HeaderV2;
using snapshot::SectionEntry;
using snapshot::SectionKind;

constexpr std::size_t kNumSections = 12;  // SectionKind values 1..12
constexpr std::uint64_t kMaxNameBytes = 1u << 16;

constexpr std::array<SectionKind, kNumSections> kAllSections = {
    SectionKind::kName,          SectionKind::kPoints,
    SectionKind::kVirtualPoints, SectionKind::kCoarseOf,
    SectionKind::kFineOf,        SectionKind::kCoarseOffsets,
    SectionKind::kCoarseTargets, SectionKind::kFineOffsets,
    SectionKind::kFineTargets,   SectionKind::kLayerOffsets,
    SectionKind::kLayerMembers,  SectionKind::kWeightChain,
};

// Bytes per array element of a section (1 = opaque bytes).
std::uint64_t ElementSize(SectionKind kind) {
  switch (kind) {
    case SectionKind::kName:
      return 1;
    case SectionKind::kPoints:
    case SectionKind::kVirtualPoints:
      return sizeof(double);
    default:
      return sizeof(std::uint32_t);
  }
}

std::uint64_t AlignUp(std::uint64_t value) {
  const std::uint64_t a = snapshot::kSectionAlignment;
  return (value + a - 1) / a * a;
}

// ---------------------------------------------------------------------------
// v1 stream writers (legacy format, still emitted on request).

void WriteU32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void WriteU64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void WriteDoubles(std::ostream& out, std::span<const double> v) {
  WriteU64(out, v.size());
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(double)));
}
void WriteString(std::ostream& out, const std::string& s) {
  WriteU64(out, s.size());
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}
template <typename T>
void WriteIds(std::ostream& out, const std::vector<T>& v) {
  static_assert(sizeof(T) == sizeof(std::uint32_t));
  WriteU64(out, v.size());
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}
template <typename T>
void WriteAdjacency(std::ostream& out, const std::vector<std::vector<T>>& v) {
  WriteU64(out, v.size());
  for (const auto& list : v) WriteIds(out, list);
}
// CSR graphs serialize in the same per-node list format as
// vector<vector> adjacency, so the v1 on-disk layout is unchanged.
void WriteAdjacency(std::ostream& out, const CsrGraph& graph) {
  WriteU64(out, graph.num_nodes());
  for (std::size_t node = 0; node < graph.num_nodes(); ++node) {
    const auto list = graph[node];
    WriteU64(out, list.size());
    out.write(reinterpret_cast<const char*>(list.data()),
              static_cast<std::streamsize>(list.size() *
                                           sizeof(CsrGraph::NodeId)));
  }
}

// ---------------------------------------------------------------------------
// v1 bounded stream reader. Every length prefix is checked against the
// bytes actually left in the file BEFORE any allocation, so a corrupt
// prefix surfaces as `false` (-> Status::Corruption), never as
// bad_alloc / length_error from resize(n) on attacker-controlled n.

class BoundedReader {
 public:
  BoundedReader(std::istream& in, std::uint64_t file_size)
      : in_(in), remaining_(file_size) {}

  std::uint64_t remaining() const { return remaining_; }
  std::uint64_t consumed() const { return consumed_; }

  bool ReadU32(std::uint32_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadU64(std::uint64_t* v) { return ReadRaw(v, sizeof(*v)); }

  bool ReadDoubles(std::vector<double>* v) {
    std::uint64_t n = 0;
    if (!ReadU64(&n) || n > remaining_ / sizeof(double)) return false;
    v->resize(n);
    return ReadRaw(v->data(), n * sizeof(double));
  }
  bool ReadString(std::string* s) {
    std::uint64_t n = 0;
    if (!ReadU64(&n) || n > remaining_ || n > kMaxNameBytes) return false;
    s->resize(n);
    return ReadRaw(s->data(), n);
  }
  template <typename T>
  bool ReadIds(std::vector<T>* v) {
    static_assert(sizeof(T) == sizeof(std::uint32_t));
    std::uint64_t n = 0;
    if (!ReadU64(&n) || n > remaining_ / sizeof(T)) return false;
    v->resize(n);
    return ReadRaw(v->data(), n * sizeof(T));
  }
  template <typename T>
  bool ReadAdjacency(std::vector<std::vector<T>>* v) {
    std::uint64_t n = 0;
    // Each non-empty adjacency list costs at least its 8-byte prefix.
    if (!ReadU64(&n) || n > remaining_ / sizeof(std::uint64_t)) return false;
    v->resize(n);
    for (auto& list : *v) {
      if (!ReadIds(&list)) return false;
    }
    return true;
  }

  // Skips `bytes` without reading them (metadata-only inspection).
  bool Skip(std::uint64_t bytes) {
    if (bytes > remaining_) return false;
    in_.seekg(static_cast<std::streamoff>(bytes), std::ios::cur);
    if (!in_) return false;
    remaining_ -= bytes;
    consumed_ += bytes;
    return true;
  }

 private:
  bool ReadRaw(void* out, std::uint64_t bytes) {
    if (bytes > remaining_) return false;
    in_.read(static_cast<char*>(out),
             static_cast<std::streamsize>(bytes));
    if (!in_) return false;
    remaining_ -= bytes;
    consumed_ += bytes;
    return true;
  }

  std::istream& in_;
  std::uint64_t remaining_;
  std::uint64_t consumed_ = 0;
};

StatusOr<std::uint64_t> FileSize(std::istream& in, const std::string& path) {
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  if (!in || size < 0) return Status::IoError("cannot stat " + path);
  return static_cast<std::uint64_t>(size);
}

// Finishes a temp-file write: flush, close, verify, rename over `path`.
// The destination never holds a torn file -- on any failure the temp
// file is removed and `path` is untouched.
Status CommitAtomic(std::ofstream& out, const std::string& tmp,
                    const std::string& path) {
  out.flush();
  const bool flushed = bool(out);
  out.close();
  if (!flushed || out.fail()) {
    std::remove(tmp.c_str());
    return Status::IoError("write failure on " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename " + tmp + " over " + path);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// v2 section indexing: header + table + per-section validation over a
// raw byte buffer (an mmap or an in-memory copy of the file).

struct SectionView {
  bool present = false;
  const std::uint8_t* data = nullptr;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint32_t crc = 0;
  bool crc_ok = false;
};

struct SectionMap {
  HeaderV2 header;
  std::array<SectionView, kNumSections + 1> by_kind;  // indexed by kind

  const SectionView& operator[](SectionKind kind) const {
    return by_kind[static_cast<std::uint32_t>(kind)];
  }
};

// Parses and validates the v2 container: header CRC, section-table
// CRC, per-section bounds/alignment/overlap, zeroed padding gaps, an
// exact file-size match, and the element-size/shape of every section.
// Payload CRCs are always computed into SectionView::crc_ok; with
// `strict_crc` a mismatch is also a Corruption (the loader), without
// it the caller reports per-section results (`drli inspect`).
Status IndexSections(const std::uint8_t* base, std::uint64_t size,
                     bool strict_crc, SectionMap* map) {
  if (size < sizeof(HeaderV2)) {
    return Status::Corruption("file smaller than snapshot header");
  }
  HeaderV2& h = map->header;
  std::memcpy(&h, base, sizeof(h));
  if (h.magic != snapshot::kMagic) return Status::Corruption("bad magic");
  if (h.version != snapshot::kVersionV2) {
    return Status::Corruption("unsupported snapshot version");
  }
  if (snapshot::ComputeHeaderCrc(h) != h.header_crc) {
    return Status::Corruption("header CRC mismatch");
  }
  if (h.reserved != 0) return Status::Corruption("nonzero header reserved");
  if ((h.flags & ~(snapshot::kFlagWeightTable |
                   snapshot::kFlagVerifiedFineEdges)) != 0) {
    return Status::Corruption("unknown header flags");
  }
  if (h.dim == 0 || h.dim > snapshot::kMaxDim) {
    return Status::Corruption("implausible dimensionality");
  }
  if (h.num_sections == 0 || h.num_sections > snapshot::kMaxSections) {
    return Status::Corruption("implausible section count");
  }
  constexpr std::uint64_t kMaxNodes =
      std::numeric_limits<std::uint32_t>::max();
  if (h.num_points > kMaxNodes || h.num_virtual > kMaxNodes ||
      h.num_points + h.num_virtual > kMaxNodes) {
    return Status::Corruption("node count overflows 32-bit ids");
  }
  if (h.section_table_offset != sizeof(HeaderV2)) {
    return Status::Corruption("section table not adjacent to header");
  }
  const std::uint64_t table_bytes =
      std::uint64_t{h.num_sections} * sizeof(SectionEntry);
  if (table_bytes > size - sizeof(HeaderV2)) {
    return Status::Corruption("section table out of range");
  }
  if (Crc32c(base + h.section_table_offset, table_bytes) !=
      h.section_table_crc) {
    return Status::Corruption("section table CRC mismatch");
  }

  std::vector<SectionEntry> entries(h.num_sections);
  std::memcpy(entries.data(), base + h.section_table_offset, table_bytes);
  std::sort(entries.begin(), entries.end(),
            [](const SectionEntry& a, const SectionEntry& b) {
              return a.offset < b.offset;
            });

  std::uint64_t cursor = h.section_table_offset + table_bytes;
  for (const SectionEntry& entry : entries) {
    if (entry.kind == 0 || entry.kind > kNumSections) {
      return Status::Corruption("unknown section kind");
    }
    const auto kind = static_cast<SectionKind>(entry.kind);
    SectionView& view = map->by_kind[entry.kind];
    if (view.present) {
      return Status::Corruption(std::string("duplicate section ") +
                                snapshot::SectionKindName(kind));
    }
    if (entry.reserved != 0 || entry.reserved2 != 0) {
      return Status::Corruption("nonzero section reserved field");
    }
    if (entry.offset % snapshot::kSectionAlignment != 0) {
      return Status::Corruption(std::string("misaligned section ") +
                                snapshot::SectionKindName(kind));
    }
    if (entry.offset > size || entry.length > size - entry.offset) {
      return Status::Corruption(std::string("section out of range: ") +
                                snapshot::SectionKindName(kind));
    }
    if (entry.length % ElementSize(kind) != 0) {
      return Status::Corruption(std::string("ragged section length: ") +
                                snapshot::SectionKindName(kind));
    }
    if (entry.offset < cursor) {
      return Status::Corruption("overlapping sections");
    }
    for (std::uint64_t i = cursor; i < entry.offset; ++i) {
      if (base[i] != 0) {
        return Status::Corruption("nonzero padding between sections");
      }
    }
    cursor = entry.offset + entry.length;

    view.present = true;
    view.data = base + entry.offset;
    view.offset = entry.offset;
    view.length = entry.length;
    view.crc = entry.crc;
    view.crc_ok = Crc32c(view.data, view.length) == entry.crc;
    if (strict_crc && !view.crc_ok) {
      return Status::Corruption(std::string("section CRC mismatch: ") +
                                snapshot::SectionKindName(kind));
    }
  }
  if (cursor != size) {
    return Status::Corruption("file size disagrees with section table");
  }
  for (SectionKind kind : kAllSections) {
    if (!(*map)[kind].present) {
      return Status::Corruption(std::string("missing section ") +
                                snapshot::SectionKindName(kind));
    }
  }

  // Shape checks tying section lengths to the header's geometry.
  const auto expect_len = [&](SectionKind kind,
                              std::uint64_t elems) -> Status {
    const unsigned __int128 want =
        static_cast<unsigned __int128>(elems) * ElementSize(kind);
    if (want != (*map)[kind].length) {
      return Status::Corruption(std::string("wrong section size: ") +
                                snapshot::SectionKindName(kind));
    }
    return Status::Ok();
  };
  const std::uint64_t total = h.num_points + h.num_virtual;
  if (Status s = expect_len(SectionKind::kPoints, h.num_points * h.dim);
      !s.ok()) {
    return s;
  }
  if (Status s =
          expect_len(SectionKind::kVirtualPoints, h.num_virtual * h.dim);
      !s.ok()) {
    return s;
  }
  if (Status s = expect_len(SectionKind::kCoarseOf, total); !s.ok()) return s;
  if (Status s = expect_len(SectionKind::kFineOf, total); !s.ok()) return s;
  if (Status s = expect_len(SectionKind::kCoarseOffsets, total + 1); !s.ok()) {
    return s;
  }
  if (Status s = expect_len(SectionKind::kFineOffsets, total + 1); !s.ok()) {
    return s;
  }
  if ((*map)[SectionKind::kName].length > kMaxNameBytes) {
    return Status::Corruption("implausible name length");
  }
  if ((*map)[SectionKind::kLayerOffsets].length < sizeof(std::uint32_t)) {
    return Status::Corruption("empty layer offsets section");
  }
  return Status::Ok();
}

template <typename T>
std::span<const T> SectionSpan(const SectionView& view) {
  return std::span<const T>(reinterpret_cast<const T*>(view.data),
                            view.length / sizeof(T));
}

// Pre-validates CSR shape so CsrGraph::FromViews / FromVectors
// preconditions hold on untrusted data (their DRLI_CHECKs must never
// fire on file input).
Status ValidateCsrShape(std::span<const std::uint32_t> offsets,
                        std::uint64_t num_targets, std::uint64_t total,
                        const char* what) {
  if (offsets.size() != total + 1) {
    return Status::Corruption(std::string(what) + " CSR offsets size");
  }
  if (offsets.front() != 0 || offsets.back() != num_targets) {
    return Status::Corruption(std::string(what) + " CSR bounds corrupt");
  }
  for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return Status::Corruption(std::string(what) +
                                " CSR offsets not monotone");
    }
  }
  return Status::Ok();
}

}  // namespace

// Friend of DualLayerIndex: reads/writes its private representation.
class DualLayerSerializer {
 public:
  // ------------------------------------------------------------------ save

  static Status SaveV1(const DualLayerIndex& index, const std::string& path) {
    const std::string tmp = path + ".tmp";
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open " + tmp + " for writing");

    WriteU32(out, snapshot::kMagic);
    WriteU32(out, snapshot::kVersionV1);
    WriteString(out, index.name_);
    WriteU32(out, static_cast<std::uint32_t>(index.points_.dim()));
    WriteDoubles(out, index.points_.raw());
    WriteDoubles(out, index.virtual_points_.raw());
    WriteIds(out, index.coarse_of_);
    WriteIds(out, index.fine_of_);
    WriteAdjacency(out, index.coarse_out_);
    WriteAdjacency(out, index.fine_out_);
    WriteAdjacency(out, index.coarse_layers_);
    WriteU32(out, index.use_weight_table_ ? 1 : 0);
    WriteIds(out, index.weight_table_.chain());

    return CommitAtomic(out, tmp, path);
  }

  static Status SaveV2(const DualLayerIndex& index, const std::string& path) {
    // Flatten the per-layer member lists into offsets + one id array.
    std::vector<std::uint32_t> layer_offsets;
    std::vector<TupleId> layer_members;
    layer_offsets.reserve(index.coarse_layers_.size() + 1);
    layer_offsets.push_back(0);
    for (const auto& layer : index.coarse_layers_) {
      layer_members.insert(layer_members.end(), layer.begin(), layer.end());
      layer_offsets.push_back(
          static_cast<std::uint32_t>(layer_members.size()));
    }

    const std::span<const double> points_raw = index.points_.raw();
    const std::span<const double> virtual_raw = index.virtual_points_.raw();
    const auto coarse_offsets = index.coarse_out_.offsets();
    const auto coarse_targets = index.coarse_out_.targets();
    const auto fine_offsets = index.fine_out_.offsets();
    const auto fine_targets = index.fine_out_.targets();
    const std::vector<TupleId>& chain = index.weight_table_.chain();

    struct Payload {
      SectionKind kind;
      const void* data;
      std::uint64_t bytes;
    };
    const std::array<Payload, kNumSections> payloads = {{
        {SectionKind::kName, index.name_.data(), index.name_.size()},
        {SectionKind::kPoints, points_raw.data(),
         points_raw.size() * sizeof(double)},
        {SectionKind::kVirtualPoints, virtual_raw.data(),
         virtual_raw.size() * sizeof(double)},
        {SectionKind::kCoarseOf, index.coarse_of_.data(),
         index.coarse_of_.size() * sizeof(std::uint32_t)},
        {SectionKind::kFineOf, index.fine_of_.data(),
         index.fine_of_.size() * sizeof(std::uint32_t)},
        {SectionKind::kCoarseOffsets, coarse_offsets.data(),
         coarse_offsets.size() * sizeof(std::uint32_t)},
        {SectionKind::kCoarseTargets, coarse_targets.data(),
         coarse_targets.size() * sizeof(std::uint32_t)},
        {SectionKind::kFineOffsets, fine_offsets.data(),
         fine_offsets.size() * sizeof(std::uint32_t)},
        {SectionKind::kFineTargets, fine_targets.data(),
         fine_targets.size() * sizeof(std::uint32_t)},
        {SectionKind::kLayerOffsets, layer_offsets.data(),
         layer_offsets.size() * sizeof(std::uint32_t)},
        {SectionKind::kLayerMembers, layer_members.data(),
         layer_members.size() * sizeof(std::uint32_t)},
        {SectionKind::kWeightChain, chain.data(),
         chain.size() * sizeof(std::uint32_t)},
    }};

    HeaderV2 header;
    header.dim = static_cast<std::uint32_t>(index.points_.dim());
    header.flags = snapshot::kFlagVerifiedFineEdges |
                   (index.use_weight_table_ ? snapshot::kFlagWeightTable : 0);
    header.num_points = index.points_.size();
    header.num_virtual = index.virtual_points_.size();
    header.num_sections = kNumSections;
    header.section_table_offset = sizeof(HeaderV2);

    std::array<SectionEntry, kNumSections> entries;
    std::uint64_t cursor =
        sizeof(HeaderV2) + kNumSections * sizeof(SectionEntry);
    for (std::size_t i = 0; i < kNumSections; ++i) {
      const Payload& p = payloads[i];
      SectionEntry& entry = entries[i];
      entry.kind = static_cast<std::uint32_t>(p.kind);
      entry.offset = AlignUp(cursor);
      entry.length = p.bytes;
      entry.crc = Crc32c(p.data, p.bytes);
      cursor = entry.offset + entry.length;
    }
    header.section_table_crc =
        Crc32c(entries.data(), sizeof(SectionEntry) * entries.size());
    header.header_crc = snapshot::ComputeHeaderCrc(header);

    const std::string tmp = path + ".tmp";
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open " + tmp + " for writing");
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));
    out.write(reinterpret_cast<const char*>(entries.data()),
              static_cast<std::streamsize>(sizeof(SectionEntry) *
                                           entries.size()));
    std::uint64_t written =
        sizeof(HeaderV2) + kNumSections * sizeof(SectionEntry);
    static constexpr char kZeros[snapshot::kSectionAlignment] = {};
    for (std::size_t i = 0; i < kNumSections; ++i) {
      const std::uint64_t pad = entries[i].offset - written;
      out.write(kZeros, static_cast<std::streamsize>(pad));
      out.write(static_cast<const char*>(payloads[i].data),
                static_cast<std::streamsize>(payloads[i].bytes));
      written = entries[i].offset + payloads[i].bytes;
    }
    return CommitAtomic(out, tmp, path);
  }

  // ------------------------------------------------------------------ load

  static StatusOr<DualLayerIndex> LoadV1(std::istream& in,
                                         std::uint64_t file_size,
                                         const std::string& path) {
    BoundedReader reader(in, file_size);
    std::uint32_t magic = 0, version = 0;
    if (!reader.ReadU32(&magic) || magic != snapshot::kMagic ||
        !reader.ReadU32(&version) || version != snapshot::kVersionV1) {
      return Status::Corruption("bad v1 header in " + path);
    }

    DualLayerIndex index;
    std::uint32_t dim = 0;
    std::vector<double> points_raw;
    std::vector<double> virtual_raw;
    std::uint32_t use_table = 0;
    std::vector<TupleId> chain;
    std::vector<std::vector<CsrGraph::NodeId>> coarse_adj;
    std::vector<std::vector<CsrGraph::NodeId>> fine_adj;
    std::vector<std::vector<TupleId>> coarse_layers;
    if (!reader.ReadString(&index.name_) || !reader.ReadU32(&dim) ||
        dim == 0 || dim > snapshot::kMaxDim ||
        !reader.ReadDoubles(&points_raw) ||
        !reader.ReadDoubles(&virtual_raw) ||
        !reader.ReadIds(&index.coarse_of_) ||
        !reader.ReadIds(&index.fine_of_) ||
        !reader.ReadAdjacency(&coarse_adj) ||
        !reader.ReadAdjacency(&fine_adj) ||
        !reader.ReadAdjacency(&coarse_layers) ||
        !reader.ReadU32(&use_table) || !reader.ReadIds(&chain)) {
      return Status::Corruption("truncated or corrupt index file " + path);
    }
    if (points_raw.size() % dim != 0 || virtual_raw.size() % dim != 0) {
      return Status::Corruption("point buffer not divisible by dim");
    }

    index.points_ = PointSet::FromVector(dim, std::move(points_raw));
    index.virtual_points_ = PointSet::FromVector(dim, std::move(virtual_raw));
    const std::size_t total = index.num_nodes();
    if (coarse_adj.size() != total || fine_adj.size() != total) {
      return Status::Corruption("node array size mismatch");
    }
    // Targets are range-checked in FinishLoadedIndex, but 32-bit CSR
    // offsets must not overflow before that.
    const auto count_edges = [](const auto& adj) {
      std::uint64_t edges = 0;
      for (const auto& list : adj) edges += list.size();
      return edges;
    };
    if (count_edges(coarse_adj) > std::numeric_limits<std::uint32_t>::max() ||
        count_edges(fine_adj) > std::numeric_limits<std::uint32_t>::max()) {
      return Status::Corruption("edge count overflows CSR offsets");
    }
    index.coarse_out_ = CsrGraph::FromAdjacency(coarse_adj);
    index.fine_out_ = CsrGraph::FromAdjacency(fine_adj);
    index.coarse_layers_ = std::move(coarse_layers);
    return FinishLoadedIndex(std::move(index), use_table != 0,
                             std::move(chain), /*fine_edges_verified=*/false);
  }

  static StatusOr<DualLayerIndex> LoadV2(
      const std::uint8_t* base, std::uint64_t size,
      std::shared_ptr<const void> keepalive) {
    SectionMap map;
    if (Status s = IndexSections(base, size, /*strict_crc=*/true, &map);
        !s.ok()) {
      return s;
    }
    const HeaderV2& h = map.header;
    const std::uint64_t total = h.num_points + h.num_virtual;

    const auto coarse_offsets =
        SectionSpan<std::uint32_t>(map[SectionKind::kCoarseOffsets]);
    const auto coarse_targets =
        SectionSpan<CsrGraph::NodeId>(map[SectionKind::kCoarseTargets]);
    const auto fine_offsets =
        SectionSpan<std::uint32_t>(map[SectionKind::kFineOffsets]);
    const auto fine_targets =
        SectionSpan<CsrGraph::NodeId>(map[SectionKind::kFineTargets]);
    if (Status s = ValidateCsrShape(coarse_offsets, coarse_targets.size(),
                                    total, "coarse");
        !s.ok()) {
      return s;
    }
    if (Status s =
            ValidateCsrShape(fine_offsets, fine_targets.size(), total, "fine");
        !s.ok()) {
      return s;
    }
    const auto layer_offsets =
        SectionSpan<std::uint32_t>(map[SectionKind::kLayerOffsets]);
    const auto layer_members =
        SectionSpan<TupleId>(map[SectionKind::kLayerMembers]);
    if (Status s = ValidateCsrShape(layer_offsets, layer_members.size(),
                                    layer_offsets.size() - 1, "layer");
        !s.ok()) {
      return s;
    }

    DualLayerIndex index;
    const SectionView& name = map[SectionKind::kName];
    index.name_.assign(reinterpret_cast<const char*>(name.data),
                       name.length);
    const auto points = SectionSpan<double>(map[SectionKind::kPoints]);
    const auto virtuals =
        SectionSpan<double>(map[SectionKind::kVirtualPoints]);
    if (keepalive != nullptr) {
      // Zero-copy: the point and adjacency payloads stay in the mapped
      // file; views keep the mapping alive.
      index.points_ =
          PointSet::FromView(h.dim, points.data(), points.size(), keepalive);
      index.virtual_points_ = PointSet::FromView(h.dim, virtuals.data(),
                                                 virtuals.size(), keepalive);
      index.coarse_out_ =
          CsrGraph::FromViews(coarse_offsets, coarse_targets, keepalive);
      index.fine_out_ =
          CsrGraph::FromViews(fine_offsets, fine_targets, keepalive);
    } else {
      index.points_ = PointSet::FromVector(
          h.dim, std::vector<double>(points.begin(), points.end()));
      index.virtual_points_ = PointSet::FromVector(
          h.dim, std::vector<double>(virtuals.begin(), virtuals.end()));
      index.coarse_out_ = CsrGraph::FromVectors(
          std::vector<std::uint32_t>(coarse_offsets.begin(),
                                     coarse_offsets.end()),
          std::vector<CsrGraph::NodeId>(coarse_targets.begin(),
                                        coarse_targets.end()));
      index.fine_out_ = CsrGraph::FromVectors(
          std::vector<std::uint32_t>(fine_offsets.begin(),
                                     fine_offsets.end()),
          std::vector<CsrGraph::NodeId>(fine_targets.begin(),
                                        fine_targets.end()));
    }
    const auto coarse_of = SectionSpan<std::uint32_t>(
        map[SectionKind::kCoarseOf]);
    const auto fine_of = SectionSpan<std::uint32_t>(map[SectionKind::kFineOf]);
    index.coarse_of_.assign(coarse_of.begin(), coarse_of.end());
    index.fine_of_.assign(fine_of.begin(), fine_of.end());
    index.coarse_layers_.resize(layer_offsets.size() - 1);
    for (std::size_t layer = 0; layer + 1 < layer_offsets.size(); ++layer) {
      index.coarse_layers_[layer].assign(
          layer_members.begin() + layer_offsets[layer],
          layer_members.begin() + layer_offsets[layer + 1]);
    }
    const auto chain_span =
        SectionSpan<TupleId>(map[SectionKind::kWeightChain]);
    std::vector<TupleId> chain(chain_span.begin(), chain_span.end());
    return FinishLoadedIndex(
        std::move(index), (h.flags & snapshot::kFlagWeightTable) != 0,
        std::move(chain), (h.flags & snapshot::kFlagVerifiedFineEdges) != 0);
  }

  // A file without kFlagVerifiedFineEdges may hold ∃-edges the EDS LP
  // accepted up to its 1e-7 tolerance: a target past a facet can then
  // score below every fine parent by more than the traversal's rounding
  // slack (QueryLayout::stop_slack), and DL+ would stop before it. Each
  // gated node's in-set is re-verified as the build verifies a facet; a
  // node that fails loses its in-edges and becomes a start node. Runs
  // after the range checks.
  static void DropUnverifiedFineEdges(DualLayerIndex& index) {
    const std::size_t total = index.num_nodes();
    PointSet nodes(index.points_.dim());
    nodes.Reserve(total);
    std::vector<std::vector<TupleId>> parents(total);
    for (std::size_t node = 0; node < total; ++node) {
      nodes.Add(index.node_point(static_cast<CsrGraph::NodeId>(node)));
      for (const CsrGraph::NodeId succ :
           index.fine_out_[static_cast<CsrGraph::NodeId>(node)]) {
        parents[succ].push_back(static_cast<TupleId>(node));
      }
    }
    bool dropped = false;
    for (std::size_t node = 0; node < total; ++node) {
      if (parents[node].empty() ||
          FacetIsVerifiedEds(nodes, parents[node],
                             FacetMinCorner(nodes, parents[node]),
                             nodes[node], EdsMargin::kRounding, nullptr)) {
        continue;
      }
      index.has_fine_in_[node] = 0;
      dropped = true;
    }
    if (!dropped) return;
    std::vector<std::vector<CsrGraph::NodeId>> kept(total);
    for (std::size_t node = 0; node < total; ++node) {
      for (const CsrGraph::NodeId succ :
           index.fine_out_[static_cast<CsrGraph::NodeId>(node)]) {
        if (index.has_fine_in_[succ] != 0) kept[node].push_back(succ);
      }
    }
    index.fine_out_ = CsrGraph::FromAdjacency(kept);
  }

  // Shared tail of both loaders: range-checks everything that could
  // index out of bounds at query time, then recomputes derived state.
  static StatusOr<DualLayerIndex> FinishLoadedIndex(
      DualLayerIndex index, bool use_table, std::vector<TupleId> chain,
      bool fine_edges_verified) {
    const std::size_t n = index.points_.size();
    const std::size_t total = index.num_nodes();
    if (index.coarse_of_.size() != total ||
        index.fine_of_.size() != total ||
        index.coarse_out_.num_nodes() != total ||
        index.fine_out_.num_nodes() != total) {
      return Status::Corruption("node array size mismatch");
    }
    // Layer assignments are indices into per-node bookkeeping; anything
    // >= total can never be valid and would corrupt LayerGroups().
    for (std::size_t node = 0; node < total; ++node) {
      if (index.coarse_of_[node] >= total || index.fine_of_[node] >= total) {
        return Status::Corruption("layer assignment out of range");
      }
    }
    // Derived state is recomputed rather than stored; the recount
    // doubles as the edge-target range check.
    index.coarse_in_degree_.assign(total, 0);
    index.has_fine_in_.assign(total, 0);
    for (const CsrGraph::NodeId target : index.coarse_out_.targets()) {
      if (target >= total) return Status::Corruption("edge out of range");
      ++index.coarse_in_degree_[target];
    }
    for (const CsrGraph::NodeId target : index.fine_out_.targets()) {
      if (target >= total) return Status::Corruption("edge out of range");
      index.has_fine_in_[target] = 1;
    }
    // The coarse layer lists must partition the real tuples and agree
    // with coarse_of_ (CheckIndex repeats this audit on live indexes).
    std::vector<std::uint8_t> seen(n, 0);
    std::size_t members = 0;
    for (std::size_t layer = 0; layer < index.coarse_layers_.size();
         ++layer) {
      for (const TupleId id : index.coarse_layers_[layer]) {
        if (id >= n) {
          return Status::Corruption("coarse layer member out of range");
        }
        if (seen[id] != 0) {
          return Status::Corruption("tuple listed in two coarse layers");
        }
        if (index.coarse_of_[id] != layer) {
          return Status::Corruption(
              "coarse layer membership disagrees with coarse_of");
        }
        seen[id] = 1;
        ++members;
      }
    }
    if (members != n) {
      return Status::Corruption("coarse layers do not cover the relation");
    }

    index.chain_pos_.assign(total, DualLayerIndex::kNoFineLayer);
    if (use_table) {
      // ValidateChain covers dim == 2, id ranges, descent and strict
      // convexity -- exactly Build's CHECKed preconditions.
      if (!WeightRangeTable::ValidateChain(index.points_, chain)) {
        return Status::Corruption("invalid 2-d weight-table chain");
      }
      index.use_weight_table_ = true;
      for (std::size_t pos = 0; pos < chain.size(); ++pos) {
        index.chain_pos_[chain[pos]] = static_cast<std::uint32_t>(pos);
      }
      index.weight_table_ =
          WeightRangeTable::Build(index.points_, std::move(chain));
    }
    if (!fine_edges_verified) DropUnverifiedFineEdges(index);
    index.FinalizeInitialNodes();

    index.stats_.num_coarse_layers = index.coarse_layers_.size();
    index.stats_.num_virtual = index.virtual_points_.size();
    return index;
  }
};

Status SaveDualLayerIndex(const DualLayerIndex& index, const std::string& path,
                          const SnapshotSaveOptions& options) {
  switch (options.format_version) {
    case snapshot::kVersionV1:
      return DualLayerSerializer::SaveV1(index, path);
    case snapshot::kVersionV2:
      return DualLayerSerializer::SaveV2(index, path);
    default:
      return Status::InvalidArgument(
          "unknown snapshot format version " +
          std::to_string(options.format_version));
  }
}

StatusOr<DualLayerIndex> LoadDualLayerIndex(
    const std::string& path, const SnapshotLoadOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  auto size = FileSize(in, path);
  if (!size.ok()) return size.status();

  std::uint32_t magic = 0, version = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in || magic != snapshot::kMagic) {
    return Status::Corruption("bad magic in " + path);
  }
  in.seekg(0, std::ios::beg);

  if (version == snapshot::kVersionV1) {
    return DualLayerSerializer::LoadV1(in, size.value(), path);
  }
  if (version != snapshot::kVersionV2) {
    return Status::Corruption("unsupported version in " + path);
  }
  in.close();

  if (options.prefer_mmap) {
    auto mapped = MmapFile::Open(path);
    if (mapped.ok()) {
      const std::shared_ptr<MmapFile> file = mapped.value();
      return DualLayerSerializer::LoadV2(file->data(), file->size(), file);
    }
    // Fall through to the owning read (e.g. filesystems without mmap).
  }
  auto bytes = MmapFile::ReadFileContents(path);
  if (!bytes.ok()) return bytes.status();
  return DualLayerSerializer::LoadV2(bytes.value().data(),
                                     bytes.value().size(), nullptr);
}

namespace {

// v1 metadata walk: skips through the stream recording segment
// boundaries, with every length bounded before use.
StatusOr<SnapshotInfo> InspectV1(std::istream& in, std::uint64_t file_size) {
  SnapshotInfo info;
  info.version = snapshot::kVersionV1;
  info.file_size = file_size;
  BoundedReader reader(in, file_size);

  std::uint32_t magic = 0, version = 0;
  if (!reader.ReadU32(&magic) || !reader.ReadU32(&version)) {
    return Status::Corruption("truncated v1 header");
  }

  const auto begin_row = [&](const char* name) {
    SnapshotSectionInfo row;
    row.name = name;
    row.offset = reader.consumed();
    return row;
  };
  const auto end_row = [&](SnapshotSectionInfo row) {
    row.length = reader.consumed() - row.offset;
    info.sections.push_back(std::move(row));
  };
  const auto skip_array = [&](std::uint64_t elem_size,
                              std::uint64_t* count) -> bool {
    std::uint64_t n = 0;
    if (!reader.ReadU64(&n) || n > reader.remaining() / elem_size) {
      return false;
    }
    if (count != nullptr) *count = n;
    return reader.Skip(n * elem_size);
  };

  SnapshotSectionInfo row = begin_row("name");
  std::uint64_t count = 0;
  if (!skip_array(1, &count)) return Status::Corruption("corrupt v1 name");
  end_row(std::move(row));

  std::uint32_t dim = 0;
  if (!reader.ReadU32(&dim) || dim == 0 || dim > snapshot::kMaxDim) {
    return Status::Corruption("corrupt v1 dim");
  }
  info.dim = dim;

  const char* point_sections[] = {"points", "virtual_points"};
  for (const char* name : point_sections) {
    row = begin_row(name);
    if (!skip_array(sizeof(double), &count)) {
      return Status::Corruption(std::string("corrupt v1 ") + name);
    }
    end_row(std::move(row));
    if (count % dim != 0) {
      return Status::Corruption("point buffer not divisible by dim");
    }
    (name == point_sections[0] ? info.num_points : info.num_virtual) =
        count / dim;
  }
  const char* id_sections[] = {"coarse_of", "fine_of"};
  for (const char* name : id_sections) {
    row = begin_row(name);
    if (!skip_array(sizeof(std::uint32_t), nullptr)) {
      return Status::Corruption(std::string("corrupt v1 ") + name);
    }
    end_row(std::move(row));
  }
  const char* adjacency_sections[] = {"coarse_adjacency", "fine_adjacency",
                                      "coarse_layers"};
  for (const char* name : adjacency_sections) {
    row = begin_row(name);
    std::uint64_t lists = 0;
    if (!reader.ReadU64(&lists) ||
        lists > reader.remaining() / sizeof(std::uint64_t)) {
      return Status::Corruption(std::string("corrupt v1 ") + name);
    }
    for (std::uint64_t i = 0; i < lists; ++i) {
      if (!skip_array(sizeof(std::uint32_t), nullptr)) {
        return Status::Corruption(std::string("corrupt v1 ") + name);
      }
    }
    end_row(std::move(row));
  }
  row = begin_row("weight_chain");
  std::uint32_t use_table = 0;
  if (!reader.ReadU32(&use_table) ||
      !skip_array(sizeof(std::uint32_t), nullptr)) {
    return Status::Corruption("corrupt v1 weight chain");
  }
  end_row(std::move(row));
  info.use_weight_table = use_table != 0;
  if (reader.remaining() != 0) {
    return Status::Corruption("trailing bytes after v1 stream");
  }
  return info;
}

}  // namespace

StatusOr<SnapshotInfo> InspectSnapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  auto size = FileSize(in, path);
  if (!size.ok()) return size.status();

  std::uint32_t magic = 0, version = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in || magic != snapshot::kMagic) {
    return Status::Corruption("bad magic in " + path);
  }
  in.seekg(0, std::ios::beg);
  if (version == snapshot::kVersionV1) {
    return InspectV1(in, size.value());
  }
  if (version != snapshot::kVersionV2) {
    return Status::Corruption("unsupported version in " + path);
  }
  in.close();

  auto mapped = MmapFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  const std::shared_ptr<MmapFile> file = mapped.value();
  SectionMap map;
  if (Status s =
          IndexSections(file->data(), file->size(), /*strict_crc=*/false,
                        &map);
      !s.ok()) {
    return s;
  }
  SnapshotInfo info;
  info.version = snapshot::kVersionV2;
  info.dim = map.header.dim;
  info.num_points = map.header.num_points;
  info.num_virtual = map.header.num_virtual;
  info.use_weight_table =
      (map.header.flags & snapshot::kFlagWeightTable) != 0;
  info.file_size = file->size();
  std::vector<SnapshotSectionInfo> rows;
  for (SectionKind kind : kAllSections) {
    const SectionView& view = map[kind];
    SnapshotSectionInfo row;
    row.kind = static_cast<std::uint32_t>(kind);
    row.name = snapshot::SectionKindName(kind);
    row.offset = view.offset;
    row.length = view.length;
    row.crc = view.crc;
    row.crc_ok = view.crc_ok;
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const SnapshotSectionInfo& a, const SnapshotSectionInfo& b) {
              return a.offset < b.offset;
            });
  info.sections = std::move(rows);
  return info;
}

}  // namespace drli
