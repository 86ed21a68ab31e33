#include "core/serialization.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "core/eds.h"
#include "storage/file_io.h"
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
  // Magic and version come first, before any size check, so a file in
  // a retired format is named as such at any length.
  std::uint32_t lead[2] = {0, 0};
  if (size < sizeof(lead)) {
    return Status::Corruption("file smaller than snapshot header");
  }
  std::memcpy(lead, base, sizeof(lead));
  if (lead[0] != snapshot::kMagic) return Status::Corruption("bad magic");
  if (lead[1] == snapshot::kVersionV1) {
    return Status::Corruption(
        "snapshot format v1 is no longer read; rebuild the index with "
        "`drli build` to write a v2 snapshot");
  }
  if (lead[1] != snapshot::kVersionV2) {
    return Status::Corruption("unsupported snapshot version " +
                              std::to_string(lead[1]));
  }
  if (size < sizeof(HeaderV2)) {
    return Status::Corruption("file smaller than snapshot header");
  }
  HeaderV2& h = map->header;
  std::memcpy(&h, base, sizeof(h));
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

// Pre-validates CSR shape on untrusted data, so rows read through a
// CsrView stay inside their section.
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
    // The graph sections are node space, exported from the slot layout.
    const NodeSpaceGraph graph = index.NodeGraph();
    const std::vector<TupleId>& chain = index.weight_table_.chain();

    // The other sections are written straight from the index's arrays.
    const auto bytes_of = [](const auto& array) {
      return ByteSpan(reinterpret_cast<const std::uint8_t*>(array.data()),
                      array.size() * sizeof(*array.data()));
    };
    struct Payload {
      SectionKind kind;
      ByteSpan bytes;
    };
    const std::array<Payload, kNumSections> payloads = {{
        {SectionKind::kName, bytes_of(index.name_)},
        {SectionKind::kPoints, bytes_of(points_raw)},
        {SectionKind::kVirtualPoints, bytes_of(virtual_raw)},
        {SectionKind::kCoarseOf, bytes_of(index.coarse_of_)},
        {SectionKind::kFineOf, bytes_of(index.fine_of_)},
        {SectionKind::kCoarseOffsets, bytes_of(graph.coarse_out.offsets)},
        {SectionKind::kCoarseTargets, bytes_of(graph.coarse_out.targets)},
        {SectionKind::kFineOffsets, bytes_of(graph.fine_out.offsets)},
        {SectionKind::kFineTargets, bytes_of(graph.fine_out.targets)},
        {SectionKind::kLayerOffsets, bytes_of(layer_offsets)},
        {SectionKind::kLayerMembers, bytes_of(layer_members)},
        {SectionKind::kWeightChain, bytes_of(chain)},
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
      entry.length = p.bytes.size();
      entry.crc = Crc32c(p.bytes.data(), p.bytes.size());
      cursor = entry.offset + entry.length;
    }
    header.section_table_crc =
        Crc32c(entries.data(), sizeof(SectionEntry) * entries.size());
    header.header_crc = snapshot::ComputeHeaderCrc(header);

    // Header, table, then each payload behind its zero padding.
    static constexpr std::uint8_t kZeros[snapshot::kSectionAlignment] = {};
    std::array<ByteSpan, 2 + 2 * kNumSections> parts;
    parts[0] = ByteSpan(reinterpret_cast<const std::uint8_t*>(&header),
                        sizeof(header));
    parts[1] = bytes_of(entries);
    std::uint64_t written =
        sizeof(HeaderV2) + kNumSections * sizeof(SectionEntry);
    for (std::size_t i = 0; i < kNumSections; ++i) {
      parts[2 + 2 * i] = ByteSpan(kZeros, entries[i].offset - written);
      parts[3 + 2 * i] = payloads[i].bytes;
      written = entries[i].offset + entries[i].length;
    }
    return WriteFileAtomic(path, parts);
  }

  // ------------------------------------------------------------------ load

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
        SectionSpan<CsrView::NodeId>(map[SectionKind::kCoarseTargets]);
    const auto fine_offsets =
        SectionSpan<std::uint32_t>(map[SectionKind::kFineOffsets]);
    const auto fine_targets =
        SectionSpan<CsrView::NodeId>(map[SectionKind::kFineTargets]);
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
      // Zero-copy: the point payloads stay in the mapped file; views
      // keep the mapping alive.
      index.points_ =
          PointSet::FromView(h.dim, points.data(), points.size(), keepalive);
      index.virtual_points_ = PointSet::FromView(h.dim, virtuals.data(),
                                                 virtuals.size(), keepalive);
    } else {
      index.points_ = PointSet::FromVector(
          h.dim, std::vector<double>(points.begin(), points.end()));
      index.virtual_points_ = PointSet::FromVector(
          h.dim, std::vector<double>(virtuals.begin(), virtuals.end()));
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
    // The graph is read in place from `base` (the mapping or the
    // caller's buffer) while the layout is derived; nothing keeps it.
    return FinishLoadedIndex(
        std::move(index), (h.flags & snapshot::kFlagWeightTable) != 0,
        std::move(chain), (h.flags & snapshot::kFlagVerifiedFineEdges) != 0,
        CsrView(coarse_offsets, coarse_targets),
        CsrView(fine_offsets, fine_targets));
  }

  // A file without kFlagVerifiedFineEdges may hold ∃-edges the EDS LP
  // accepted up to its 1e-7 tolerance: a target past a facet can then
  // score below every fine parent by more than the traversal's rounding
  // slack (QueryLayout::stop_slack), and DL+ would stop before it. Each
  // gated node's in-set is re-verified as the build verifies a facet; a
  // node that fails loses its in-edges and becomes a start node. Runs
  // after the range checks; returns `fine_out` without the failed
  // nodes' in-edges.
  static CsrGraph DropUnverifiedFineEdges(const DualLayerIndex& index,
                                          CsrView fine_out) {
    const std::size_t total = index.num_nodes();
    PointSet nodes(index.points_.dim());
    nodes.Reserve(total);
    DualLayerIndex::EdgeList edges;
    edges.reserve(fine_out.num_edges());
    for (std::size_t node = 0; node < total; ++node) {
      const auto id = static_cast<CsrView::NodeId>(node);
      nodes.Add(index.node_point(id));
      for (const CsrView::NodeId succ : fine_out[id]) {
        edges.emplace_back(succ, id);
      }
    }
    // Each node's fine parents, ascending: the facet its ∃-edges name.
    const CsrGraph parents = CsrGraph::FromEdges(total, edges);
    std::vector<std::uint8_t> dropped(total, 0);
    for (std::size_t node = 0; node < total; ++node) {
      const std::span<const TupleId> facet = parents[node];
      if (facet.empty() ||
          FacetIsVerifiedEds(nodes, facet, FacetMinCorner(nodes, facet),
                             nodes[node], EdsMargin::kRounding, nullptr)) {
        continue;
      }
      dropped[node] = 1;
    }
    edges.clear();
    for (std::size_t node = 0; node < total; ++node) {
      const auto id = static_cast<CsrView::NodeId>(node);
      for (const CsrView::NodeId succ : fine_out[id]) {
        if (dropped[succ] == 0) edges.emplace_back(id, succ);
      }
    }
    return CsrGraph::FromEdges(total, edges);
  }

  // Tail of LoadV2: range-checks everything that could index out of
  // bounds at query time, then derives the query layout from the
  // node-space graph `coarse_out` / `fine_out`.
  static StatusOr<DualLayerIndex> FinishLoadedIndex(
      DualLayerIndex index, bool use_table, std::vector<TupleId> chain,
      bool fine_edges_verified, CsrView coarse_out, CsrView fine_out) {
    const std::size_t n = index.points_.size();
    const std::size_t total = index.num_nodes();
    if (index.coarse_of_.size() != total ||
        index.fine_of_.size() != total || coarse_out.num_nodes() != total ||
        fine_out.num_nodes() != total) {
      return Status::Corruption("node array size mismatch");
    }
    // Layer assignments are indices into per-node bookkeeping; anything
    // >= total can never be valid and would corrupt LayerGroups().
    for (std::size_t node = 0; node < total; ++node) {
      if (index.coarse_of_[node] >= total || index.fine_of_[node] >= total) {
        return Status::Corruption("layer assignment out of range");
      }
    }
    // Every edge target is a node, and every coarse in-degree fits the
    // 24-bit countdown of the layout's init words (FinalizeLayout
    // CHECKs it, so a file must not reach it).
    std::vector<std::uint32_t> in_degree(total, 0);
    for (const CsrView::NodeId target : coarse_out.targets) {
      if (target >= total) return Status::Corruption("edge out of range");
      if (++in_degree[target] > QueryLayout::kRemainingMask) {
        return Status::Corruption("coarse in-degree overflows the countdown");
      }
    }
    for (const CsrView::NodeId target : fine_out.targets) {
      if (target >= total) return Status::Corruption("edge out of range");
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
    CsrGraph verified_fine;
    if (!fine_edges_verified) {
      verified_fine = DropUnverifiedFineEdges(index, fine_out);
      fine_out = verified_fine;
    }
    index.FinalizeInitialNodes(coarse_out, fine_out);

    index.stats_.num_coarse_layers = index.coarse_layers_.size();
    index.stats_.num_virtual = index.virtual_points_.size();
    return index;
  }
};

Status SaveDualLayerIndex(const DualLayerIndex& index,
                          const std::string& path) {
  return DualLayerSerializer::SaveV2(index, path);
}

StatusOr<DualLayerIndex> LoadDualLayerIndex(
    const std::string& path, const SnapshotLoadOptions& options) {
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

StatusOr<SnapshotInfo> InspectSnapshot(const std::string& path) {
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
