// LSM-style dynamic maintenance for the dual-resolution index (see
// DESIGN.md, "Tiered dynamic maintenance").
//
// The relation is the union of
//  * a mutable memtable (unindexed rows, scanned at query time),
//  * a set of immutable runs, each a small DualLayerIndex built when
//    the memtable sealed or when a compaction merged older runs,
//  * a tombstone set naming deleted stable ids that still sit inside
//    a run (memtable deletes are applied in place). Each such id is
//    also retired inside its run (DualLayerIndex::Retire): the run's
//    traversal still scores and counts it, but never returns it.
//
// Stable ids are assigned by Insert in increasing order and never
// reused, so at any time the runs hold pairwise disjoint, ascending id
// ranges: sealing takes the newest contiguous batch, and compaction
// only ever merges *all* runs of one tier (or all runs), which keeps
// every run an interval. Merging is therefore concatenation in
// run order and the per-run id lists stay sorted -- the property the
// query path leans on for canonical (score, id) tie-breaking.
//
// Every run is a DualLayerPartition (core/partition_merge.h) plus its
// uid and tier, and queries run the partitions' one open rule, the
// same as the sharded coordinator: one partition per run, bounded by
// its exact top-1 score (the minimum over its SkylineCorners points,
// retired members included), plus the memtable as an already-open
// list. The engine makes its PartitionSet -- every run's bound points
// in one block -- again on each install (seal, compaction, bulk start)
// and at the end of LoadTieredIndex; an erase retires in place and
// changes no bound, so it keeps the set. The memtable is scanned in
// full, every row scored and counted, but opens as its k best rows
// only (OpenRows). A run is opened -- its DualLayerIndex queried for
// min(|run|, k) items, which its retire mask makes live ones -- only
// when the merge frontier reaches its bound, so cold runs stay closed
// exactly like cold shards.
// Budgets compose by remainder and partial results certify against the
// surviving heap keys.
//
// Compaction is incremental: CompactStep() advances a single job by a
// bounded amount (copy <= compact_rows_per_step live rows, then one
// build step, then an O(#runs) install), so queries interleaved
// between steps always see the pre-merge generation. Tombstones whose
// run was consumed by the merge are dropped at install; ids erased
// *after* their row was copied stay tombstoned, and are retired in the
// new run (no resurrection).

#ifndef DRLI_CORE_TIERED_INDEX_H_
#define DRLI_CORE_TIERED_INDEX_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/point.h"
#include "common/status.h"
#include "core/dual_layer.h"
#include "core/partition_merge.h"
#include "topk/query.h"

namespace drli {

struct TieredIndexOptions {
  TieredIndexOptions() { run.build_zero_layer = true; }

  // Build options for every run (sealed memtables and merge outputs).
  // Defaults to DL+ runs -- the zero layer is cheap at run sizes.
  DualLayerOptions run;
  // Seal the memtable into a tier-0 run once it reaches this many rows.
  std::size_t memtable_capacity = 128;
  // Merge a tier once it accumulates this many runs (size-tiered).
  std::size_t fanout = 4;
  // Drive one CompactStep() after every mutation. Off, runs accumulate
  // until the caller pumps CompactStep()/Compact() explicitly.
  bool auto_compact = true;
  // Live rows copied per merge step (the unit of compaction progress).
  std::size_t compact_rows_per_step = 4096;
  // Merge all runs (dropping every consumed tombstone) once tombstones
  // exceed max(tombstone_compact_min, half the indexed rows). The floor
  // keeps the trigger off delete-heavy tiny indexes; set 0 to let the
  // half-of-rows rule govern alone at any size.
  std::size_t tombstone_compact_min = 64;
  // Display name; empty = "DL+lsm".
  std::string name;
};

// What one CompactStep() call did.
enum class CompactProgress : std::uint8_t {
  kIdle = 0,    // nothing to compact
  kMerging,     // copied a bounded batch of live rows
  kBuilding,    // built the merged run's DualLayerIndex
  kInstalled,   // swapped the new run in (generation advanced)
};

// One immutable run: a partition over a contiguous batch of stable
// ids (`ids` maps run-local positions to them); its tombstoned members
// are retired in `index`.
struct TieredRun : DualLayerPartition {
  std::uint32_t uid = 0;   // unique within the index, monotone
  std::uint32_t tier = 0;  // 0 = sealed memtable, +1 per merge
  // Always 0: tombstoned members are retired inside the run, so a read
  // asks it for min(|run|, k + dead) = min(|run|, k). Kept only for the
  // frozen bench/e2e replay, which copies that rule.
  static constexpr std::size_t dead = 0;
};

class TieredDualLayerIndex final : public TopKIndex {
 public:
  explicit TieredDualLayerIndex(std::size_t dim,
                                const TieredIndexOptions& options = {});
  // Bulk start: `initial` becomes one run holding ids [0, n).
  TieredDualLayerIndex(PointSet initial,
                       const TieredIndexOptions& options = {});

  TieredDualLayerIndex(TieredDualLayerIndex&&) = default;
  TieredDualLayerIndex& operator=(TieredDualLayerIndex&&) = default;

  std::string name() const override;
  // Number of live tuples.
  std::size_t size() const override;
  TopKResult Query(const TopKQuery& query) const override;

  // Adds a tuple; returns its stable id (never reused). May seal the
  // memtable and, with auto_compact, advance compaction by one step.
  TupleId Insert(PointView tuple);
  // Removes a tuple by stable id; false if unknown or already deleted.
  bool Erase(TupleId id);
  // True iff the id refers to a live tuple.
  bool Contains(TupleId id) const;

  // Builds the current memtable into a tier-0 run (no-op when empty).
  void SealMemtable();
  // Advances the active compaction job by one bounded increment,
  // scheduling a job first if the tier policy wants one. Queries
  // issued between steps see the pre-merge runs until kInstalled.
  CompactProgress CompactStep();
  // Pumps CompactStep under `budget` until the index is fully merged
  // into at most one run with no tombstones, or the budget trips.
  // Returns kComplete on full compaction, else the tripped reason.
  Termination Compact(const ExecBudget& budget);
  // Blocking full compaction: seals, merges everything into at most
  // one run, and drops all tombstones.
  void Compact();

  // --- introspection (tests, persistence, inspect) ---
  std::size_t dim() const override { return dim_; }
  const TieredIndexOptions& options() const { return options_; }
  std::size_t memtable_size() const { return memtable_ids_.size(); }
  std::size_t num_runs() const { return runs_.size(); }
  const TieredRun& run(std::size_t i) const { return runs_[i]; }
  // Rows held by runs, tombstoned members included.
  std::size_t indexed_rows() const;
  std::size_t tombstone_count() const { return tombstones_.size(); }
  std::size_t seal_count() const { return seals_; }
  std::size_t compaction_count() const { return compactions_; }
  // Advances on every installed structural change (seal / merge).
  std::uint64_t generation() const { return generation_; }
  TupleId next_id() const { return next_id_; }
  std::uint32_t next_run_uid() const { return next_run_uid_; }
  bool compaction_active() const { return job_.has_value(); }
  // The uid of the run holding `id`; nullopt for memtable-resident,
  // dead, or unknown ids. Exposed for tests asserting id placement
  // across compactions.
  std::optional<std::uint32_t> run_uid_of(TupleId id) const;

  // Memtable contents, ids ascending (persistence).
  const PointSet& memtable() const { return memtable_; }
  const std::vector<TupleId>& memtable_ids() const { return memtable_ids_; }
  const std::unordered_set<TupleId>& tombstones() const {
    return tombstones_;
  }
  // The runs as the merges, plain and constrained, see them; made
  // again on every install.
  const PartitionSet& partitions() const { return partitions_; }

 private:
  friend StatusOr<TieredDualLayerIndex> LoadTieredIndex(  // tiered_io.cc
      const std::string& path);

  struct CompactionJob {
    std::vector<std::uint32_t> input_uids;
    std::uint32_t target_tier = 0;
    PointSet rows;  // live rows accumulated so far, id order
    std::vector<TupleId> row_ids;
    std::vector<TupleId> dropped;  // tombstoned ids consumed (skipped)
    std::size_t input_pos = 0;     // index into input_uids
    std::size_t local_pos = 0;     // next row of the current input
    bool merge_done = false;
    std::optional<DualLayerIndex> built;

    explicit CompactionJob(std::size_t dim) : rows(dim) {}
  };

  // Appends a run over `rows` (ids ascending) and bumps the
  // generation; drops empty row sets.
  void InstallRun(PointSet rows, std::vector<TupleId> ids,
                  std::uint32_t tier);
  // Makes partitions_ over runs_; every change to runs_ ends with it.
  void MakePartitions();
  // Picks the next merge job per the size-tiered policy; false = none.
  bool ScheduleCompaction();
  // Queues a merge of every run (full compaction driver).
  void ScheduleFullCompaction();
  void MaybeMaintain();
  // Index into runs_ holding `id`, or npos. Runs hold disjoint id
  // intervals, so a range check per run suffices before the binary
  // search inside it.
  std::size_t RunSlotOf(TupleId id) const;
  std::size_t MemtablePosOf(TupleId id) const;
  // Retires member `id` inside `run` (binary search on its ids).
  static void RetireMember(TieredRun* run, TupleId id);
  std::size_t SlotOfUid(std::uint32_t uid) const;

  std::size_t dim_;
  TieredIndexOptions options_;

  PointSet memtable_;
  std::vector<TupleId> memtable_ids_;  // ascending
  std::vector<TieredRun> runs_;        // ascending min-id order
  std::unordered_set<TupleId> tombstones_;  // masked run members
  PartitionSet partitions_;  // points into runs_' heap buffer

  std::optional<CompactionJob> job_;

  TupleId next_id_ = 0;
  std::uint32_t next_run_uid_ = 0;
  std::uint64_t generation_ = 0;
  std::size_t seals_ = 0;
  std::size_t compactions_ = 0;
};

}  // namespace drli

#endif  // DRLI_CORE_TIERED_INDEX_H_
