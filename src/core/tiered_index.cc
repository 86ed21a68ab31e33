#include "core/tiered_index.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"

namespace drli {

namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

// Share of indexed rows the tombstones must exceed (above
// tombstone_compact_min) before a full merge drops them.
constexpr double kTombstoneCompactFraction = 0.5;

}  // namespace

TieredDualLayerIndex::TieredDualLayerIndex(std::size_t dim,
                                           const TieredIndexOptions& options)
    : dim_(dim), options_(options), memtable_(dim) {
  DRLI_CHECK_GT(dim_, 0u) << "tiered index needs dim >= 1";
}

TieredDualLayerIndex::TieredDualLayerIndex(PointSet initial,
                                           const TieredIndexOptions& options)
    : dim_(initial.dim()), options_(options), memtable_(initial.dim()) {
  DRLI_CHECK_GT(dim_, 0u) << "tiered index needs dim >= 1";
  const std::size_t n = initial.size();
  if (n == 0) return;
  std::vector<TupleId> ids(n);
  std::iota(ids.begin(), ids.end(), TupleId{0});
  next_id_ = static_cast<TupleId>(n);
  // Place the bulk run at the tier its size would naturally reach, so
  // tier-0 seals do not immediately drag it into every small merge.
  std::uint32_t tier = 0;
  std::size_t tier_cap = std::max<std::size_t>(1, options_.memtable_capacity);
  while (tier_cap < n) {
    tier_cap *= std::max<std::size_t>(2, options_.fanout);
    ++tier;
  }
  InstallRun(std::move(initial), std::move(ids), tier);
}

std::string TieredDualLayerIndex::name() const {
  return options_.name.empty() ? "DL+lsm" : options_.name;
}

std::size_t TieredDualLayerIndex::indexed_rows() const {
  std::size_t rows = 0;
  for (const TieredRun& run : runs_) rows += run.ids.size();
  return rows;
}

std::size_t TieredDualLayerIndex::size() const {
  return indexed_rows() - tombstones_.size() + memtable_ids_.size();
}

std::size_t TieredDualLayerIndex::RunSlotOf(TupleId id) const {
  for (std::size_t s = 0; s < runs_.size(); ++s) {
    const std::vector<TupleId>& ids = runs_[s].ids;
    if (ids.empty() || id < ids.front() || id > ids.back()) continue;
    if (std::binary_search(ids.begin(), ids.end(), id)) return s;
    return kNpos;  // inside this run's interval but absent: nowhere else
  }
  return kNpos;
}

std::size_t TieredDualLayerIndex::MemtablePosOf(TupleId id) const {
  const auto it =
      std::lower_bound(memtable_ids_.begin(), memtable_ids_.end(), id);
  if (it == memtable_ids_.end() || *it != id) return kNpos;
  return static_cast<std::size_t>(it - memtable_ids_.begin());
}

std::size_t TieredDualLayerIndex::SlotOfUid(std::uint32_t uid) const {
  for (std::size_t s = 0; s < runs_.size(); ++s) {
    if (runs_[s].uid == uid) return s;
  }
  return kNpos;
}

bool TieredDualLayerIndex::Contains(TupleId id) const {
  if (id >= next_id_ || tombstones_.count(id)) return false;
  return MemtablePosOf(id) != kNpos || RunSlotOf(id) != kNpos;
}

std::optional<std::uint32_t> TieredDualLayerIndex::run_uid_of(
    TupleId id) const {
  if (id >= next_id_ || tombstones_.count(id)) return std::nullopt;
  const std::size_t slot = RunSlotOf(id);
  if (slot == kNpos) return std::nullopt;
  return runs_[slot].uid;
}

TupleId TieredDualLayerIndex::Insert(PointView tuple) {
  DRLI_CHECK_EQ(tuple.size(), dim_);
  const TupleId id = next_id_++;
  memtable_ids_.push_back(id);
  memtable_.Add(tuple);
  MaybeMaintain();
  return id;
}

bool TieredDualLayerIndex::Erase(TupleId id) {
  if (tombstones_.count(id)) return false;
  const std::size_t mem = MemtablePosOf(id);
  if (mem != kNpos) {
    // Memtable deletes apply in place; the rebuild (PointSet has no
    // erase) keeps row order, preserving the ascending-id invariant.
    memtable_ids_.erase(memtable_ids_.begin() +
                        static_cast<std::ptrdiff_t>(mem));
    PointSet rebuilt(dim_);
    rebuilt.Reserve(memtable_.size() - 1);
    for (std::size_t i = 0; i < memtable_.size(); ++i) {
      if (i != mem) rebuilt.Add(memtable_[i]);
    }
    memtable_ = std::move(rebuilt);
    return true;
  }
  const std::size_t slot = RunSlotOf(id);
  if (slot == kNpos) return false;
  tombstones_.insert(id);
  RetireMember(&runs_[slot], id);
  MaybeMaintain();
  return true;
}

void TieredDualLayerIndex::RetireMember(TieredRun* run, TupleId id) {
  const auto it = std::lower_bound(run->ids.begin(), run->ids.end(), id);
  DRLI_CHECK(it != run->ids.end() && *it == id) << "not a run member";
  run->index.Retire(static_cast<TupleId>(it - run->ids.begin()));
}

void TieredDualLayerIndex::SealMemtable() {
  if (memtable_ids_.empty()) return;
  PointSet rows = std::move(memtable_);
  std::vector<TupleId> ids = std::move(memtable_ids_);
  memtable_ = PointSet(dim_);
  memtable_ids_ = std::vector<TupleId>();
  InstallRun(std::move(rows), std::move(ids), 0);
  ++seals_;
}

void TieredDualLayerIndex::InstallRun(PointSet rows, std::vector<TupleId> ids,
                                      std::uint32_t tier) {
  if (ids.empty()) return;
  DRLI_CHECK(runs_.empty() || ids.front() > runs_.back().ids.back())
      << "new run must hold the newest id interval";
  runs_.push_back(TieredRun{
      MakeDualLayerPartition(
          DualLayerIndex::Build(std::move(rows), options_.run),
          std::move(ids)),
      next_run_uid_++, tier});
  ++generation_;
  MakePartitions();
}

void TieredDualLayerIndex::MakePartitions() {
  std::vector<const DualLayerPartition*> parts;
  std::vector<std::uint32_t> uids;
  for (const TieredRun& run : runs_) {
    parts.push_back(&run);
    uids.push_back(run.uid);
  }
  partitions_ = MakePartitionSet(dim_, std::move(parts),
                                 &QueryStats::runs_opened, "run",
                                 std::move(uids));
}

void TieredDualLayerIndex::MaybeMaintain() {
  if (memtable_ids_.size() >= std::max<std::size_t>(
                                  1, options_.memtable_capacity)) {
    SealMemtable();
  }
  if (options_.auto_compact) CompactStep();
}

bool TieredDualLayerIndex::ScheduleCompaction() {
  if (job_.has_value() || runs_.empty()) return false;
  const std::size_t fanout = std::max<std::size_t>(2, options_.fanout);

  // (a) size-tiered trigger: the lowest tier holding >= fanout runs.
  std::uint32_t max_tier = 0;
  for (const TieredRun& run : runs_) max_tier = std::max(max_tier, run.tier);
  for (std::uint32_t tier = 0; tier <= max_tier; ++tier) {
    std::vector<std::uint32_t> inputs;
    for (const TieredRun& run : runs_) {
      if (run.tier == tier) inputs.push_back(run.uid);
    }
    if (inputs.size() < fanout) continue;
    job_.emplace(dim_);
    job_->input_uids = std::move(inputs);
    job_->target_tier = tier + 1;
    return true;
  }

  // (b) tombstone pressure: merge everything, dropping every consumed
  // tombstone.
  const double cap =
      std::max(static_cast<double>(options_.tombstone_compact_min),
               kTombstoneCompactFraction * static_cast<double>(indexed_rows()));
  if (static_cast<double>(tombstones_.size()) > cap) {
    ScheduleFullCompaction();
    return true;
  }
  return false;
}

void TieredDualLayerIndex::ScheduleFullCompaction() {
  DRLI_CHECK(!job_.has_value());
  DRLI_CHECK(!runs_.empty());
  job_.emplace(dim_);
  std::uint32_t max_tier = 0;
  for (const TieredRun& run : runs_) {
    job_->input_uids.push_back(run.uid);
    max_tier = std::max(max_tier, run.tier);
  }
  job_->target_tier = runs_.size() > 1 ? max_tier + 1 : max_tier;
}

CompactProgress TieredDualLayerIndex::CompactStep() {
  if (!job_.has_value() && !ScheduleCompaction()) {
    return CompactProgress::kIdle;
  }
  CompactionJob& job = *job_;

  if (!job.merge_done) {
    // Copy a bounded batch of live rows out of the input runs. Rows
    // tombstoned at copy time are skipped and their tombstones
    // remembered for release at install.
    std::size_t copied = 0;
    const std::size_t cap =
        std::max<std::size_t>(1, options_.compact_rows_per_step);
    while (copied < cap && job.input_pos < job.input_uids.size()) {
      const std::size_t slot = SlotOfUid(job.input_uids[job.input_pos]);
      DRLI_CHECK(slot != kNpos) << "compaction input run vanished";
      const TieredRun& in = runs_[slot];
      if (job.local_pos >= in.ids.size()) {
        ++job.input_pos;
        job.local_pos = 0;
        continue;
      }
      const TupleId id = in.ids[job.local_pos];
      if (tombstones_.count(id)) {
        job.dropped.push_back(id);
      } else {
        job.rows.Add(in.index.points()[job.local_pos]);
        job.row_ids.push_back(id);
        ++copied;
      }
      ++job.local_pos;
    }
    if (job.input_pos >= job.input_uids.size()) job.merge_done = true;
    return CompactProgress::kMerging;
  }

  if (!job.built.has_value()) {
    // Inputs were walked in run order (ascending disjoint id
    // intervals), so the merged rows are already id-sorted -- the
    // order every run's canonical tie-breaking relies on.
    DRLI_CHECK(
        std::is_sorted(job.row_ids.begin(), job.row_ids.end()))
        << "merged run ids out of order";
    job.built.emplace(
        DualLayerIndex::Build(std::move(job.rows), options_.run));
    return CompactProgress::kBuilding;
  }

  // Install: this is the only step queries can observe -- everything
  // before it worked on job-private state.
  for (const TupleId id : job.dropped) tombstones_.erase(id);
  std::vector<TieredRun> kept;
  kept.reserve(runs_.size());
  std::size_t insert_at = kNpos;
  for (std::size_t s = 0; s < runs_.size(); ++s) {
    const bool consumed =
        std::find(job.input_uids.begin(), job.input_uids.end(),
                  runs_[s].uid) != job.input_uids.end();
    if (consumed) {
      if (insert_at == kNpos) insert_at = kept.size();
      continue;
    }
    kept.push_back(std::move(runs_[s]));
  }
  DRLI_CHECK(insert_at != kNpos);
  if (!job.row_ids.empty()) {
    TieredRun merged{MakeDualLayerPartition(std::move(*job.built),
                                            std::move(job.row_ids)),
                     next_run_uid_++, job.target_tier};
    // Ids erased after their row was copied stay tombstoned: they are
    // members of the new run and are retired in it (no resurrection).
    for (std::size_t local = 0; local < merged.ids.size(); ++local) {
      if (tombstones_.count(merged.ids[local]) != 0) {
        merged.index.Retire(static_cast<TupleId>(local));
      }
    }
    kept.insert(kept.begin() + static_cast<std::ptrdiff_t>(insert_at),
                std::move(merged));
  }
  runs_ = std::move(kept);
  MakePartitions();
  ++compactions_;
  ++generation_;
  job_.reset();
  return CompactProgress::kInstalled;
}

Termination TieredDualLayerIndex::Compact(const ExecBudget& budget) {
  // One gate step per CompactStep: max_evals caps the number of
  // increments, deadlines and cancellation are polled between them --
  // a serving loop can pump compaction in bounded slices.
  BudgetGate gate(budget);
  std::size_t steps = 0;
  for (;;) {
    const Termination state = gate.Step(steps);
    if (state != Termination::kComplete) return state;
    if (!job_.has_value()) {
      SealMemtable();
      if (runs_.size() <= 1 && tombstones_.empty()) {
        return Termination::kComplete;
      }
      ScheduleFullCompaction();
    }
    CompactStep();
    ++steps;
  }
}

void TieredDualLayerIndex::Compact() { Compact(ExecBudget{}); }

TopKResult TieredDualLayerIndex::Query(const TopKQuery& query) const {
  Stopwatch timer;
  if (const Status status = ValidateQuery(query, dim_); !status.ok()) {
    return InvalidQueryResult(status);
  }
  if (query.k == 0) {
    TopKResult result;
    FinalizeComplete(result);
    result.stats.elapsed_seconds = timer.ElapsedSeconds();
    return result;
  }

  // Memtable: always a full scan, even under a budget -- it is bounded
  // by the seal threshold, so this is amortized-constant overshoot,
  // and covering it completely lets a partial result certify against
  // the run frontiers alone (unsorted unscanned rows would otherwise
  // force a -inf frontier and certify nothing).
  const PointView w(query.weights);
  return MergeDualLayerPartitions(
      partitions_, w, query.k, query.budget, timer,
      OpenRows(memtable_, memtable_ids_, w, query.k));
}

}  // namespace drli
