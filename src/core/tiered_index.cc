#include "core/tiered_index.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"

namespace drli {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

// One entry of the run-merge heap, identical in shape and ordering to
// the sharded coordinator's (shard/sharded_index.cc): bound entries
// (kind 0) stand in for a whole unopened run at its corner lower
// bound; item entries (kind 1) are the cursor over one opened result
// list. Bounds order before items of equal score -- a run must be
// opened before any tuple at its bound may be emitted -- and items of
// equal score order by stable id, which is exactly ResultOrderLess.
struct MergeEntry {
  double score;
  std::uint32_t kind;  // 0 = run bound, 1 = item cursor
  std::uint32_t tie;   // bound: slot; item: stable tuple id
  std::uint32_t slot;  // run slot; memtable = num_runs
  std::uint32_t pos;   // item: position in the opened list
};

struct MergeEntryAfter {
  bool operator()(const MergeEntry& a, const MergeEntry& b) const {
    if (a.score != b.score) return a.score > b.score;
    if (a.kind != b.kind) return a.kind > b.kind;
    return a.tie > b.tie;
  }
};

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

PointView TieredDualLayerIndex::Get(TupleId id) const {
  DRLI_CHECK(!tombstones_.count(id)) << "tuple " << id << " deleted";
  const std::size_t mem = MemtablePosOf(id);
  if (mem != kNpos) return memtable_[mem];
  const std::size_t slot = RunSlotOf(id);
  DRLI_CHECK(slot != kNpos) << "unknown tuple " << id;
  const std::vector<TupleId>& ids = runs_[slot].ids;
  const std::size_t local = static_cast<std::size_t>(
      std::lower_bound(ids.begin(), ids.end(), id) - ids.begin());
  return runs_[slot].index.points()[local];
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
  ++runs_[slot].dead;
  MaybeMaintain();
  return true;
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
  TieredRun run{next_run_uid_++, tier,
                DualLayerIndex::Build(std::move(rows), options_.run),
                std::move(ids), 0, {}};
  ComputeRunBound(&run);
  runs_.push_back(std::move(run));
  ++generation_;
}

void TieredDualLayerIndex::ComputeRunBound(TieredRun* run) const {
  // Same construction as the sharded coordinator's shard bounds: the
  // run's skyline (coarse layer 1 dominates every deeper tuple),
  // chunked along the first coordinate into at most
  // kMaxBoundPointsPerRun groups, one componentwise-min corner per
  // group. Sound under tombstones too: masking members only raises the
  // run's true minimum live score.
  run->bound_values.clear();
  const PointSet& pts = run->index.points();
  if (pts.size() == 0) return;
  std::vector<TupleId> sky = run->index.coarse_layers().front();
  std::stable_sort(sky.begin(), sky.end(), [&](TupleId a, TupleId b) {
    return pts[a][0] < pts[b][0] || (pts[a][0] == pts[b][0] && a < b);
  });
  const std::size_t groups = std::min(kMaxBoundPointsPerRun, sky.size());
  const std::size_t base = sky.size() / groups;
  const std::size_t extra = sky.size() % groups;
  std::size_t cursor = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t take = base + (g < extra ? 1 : 0);
    const std::size_t begin = run->bound_values.size();
    run->bound_values.insert(run->bound_values.end(), dim_, kInf);
    for (std::size_t i = 0; i < take; ++i) {
      const PointView p = pts[sky[cursor + i]];
      for (std::size_t d = 0; d < dim_; ++d) {
        run->bound_values[begin + d] =
            std::min(run->bound_values[begin + d], p[d]);
      }
    }
    cursor += take;
  }
}

double TieredDualLayerIndex::RunLowerBound(const TieredRun& run,
                                           PointView weights) const {
  // Minimum corner score; exact-sound in floating point because Score
  // accumulates left-to-right with monotone rounding, so lowering any
  // coordinate never raises the computed score.
  double bound = kInf;
  for (std::size_t at = 0; at < run.bound_values.size(); at += dim_) {
    bound = std::min(bound,
                     Score(weights, PointView(&run.bound_values[at], dim_)));
  }
  return bound;
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
  if (options_.tombstone_compact_fraction > 0.0) {
    const double cap =
        std::max(static_cast<double>(options_.tombstone_compact_min),
                 options_.tombstone_compact_fraction *
                     static_cast<double>(indexed_rows()));
    if (static_cast<double>(tombstones_.size()) > cap) {
      ScheduleFullCompaction();
      return true;
    }
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
  // Ids erased after their row was copied stay tombstoned: they are
  // members of the new run and must remain masked (no resurrection).
  std::size_t dead = 0;
  for (const TupleId id : job.row_ids) {
    dead += tombstones_.count(id) ? 1 : 0;
  }
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
    TieredRun merged{next_run_uid_++, job.target_tier,
                     std::move(*job.built), std::move(job.row_ids), dead,
                     {}};
    ComputeRunBound(&merged);
    kept.insert(kept.begin() + static_cast<std::ptrdiff_t>(insert_at),
                std::move(merged));
  }
  runs_ = std::move(kept);
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
  TopKResult result;
  if (query.k == 0 || size() == 0) {
    FinalizeComplete(result);
    result.stats.elapsed_seconds = timer.ElapsedSeconds();
    return result;
  }

  const PointView w(query.weights);
  const std::size_t mem_slot = runs_.size();
  // Result lists: opened runs (tombstones filtered, ids stable) plus
  // the memtable's pre-sorted scan at mem_slot.
  std::vector<std::vector<ScoredTuple>> open(runs_.size() + 1);

  // Memtable: always a full scan, even under a budget -- it is bounded
  // by the seal threshold, so this is amortized-constant overshoot,
  // and covering it completely lets a partial result certify against
  // the run frontiers alone (unsorted unscanned rows would otherwise
  // force a -inf frontier and certify nothing).
  {
    std::vector<ScoredTuple>& mem = open[mem_slot];
    mem.reserve(memtable_ids_.size());
    for (std::size_t i = 0; i < memtable_ids_.size(); ++i) {
      mem.push_back(ScoredTuple{memtable_ids_[i], Score(w, memtable_[i])});
      ++result.stats.tuples_evaluated;
      result.accessed.push_back(memtable_ids_[i]);
    }
    std::sort(mem.begin(), mem.end(), ResultOrderLess);
  }

  std::vector<MergeEntry> heap;
  heap.reserve(runs_.size() + 2);
  for (std::size_t s = 0; s < runs_.size(); ++s) {
    if (runs_[s].ids.size() <= runs_[s].dead) continue;  // no live member
    heap.push_back(MergeEntry{RunLowerBound(runs_[s], w), 0,
                              static_cast<std::uint32_t>(s),
                              static_cast<std::uint32_t>(s), 0});
  }
  if (!open[mem_slot].empty()) {
    const ScoredTuple& first = open[mem_slot].front();
    heap.push_back(MergeEntry{first.score, 1, first.id,
                              static_cast<std::uint32_t>(mem_slot), 0});
  }
  std::make_heap(heap.begin(), heap.end(), MergeEntryAfter{});

  Termination reason = Termination::kComplete;
  double stop_floor = kInf;
  bool stopped = false;

  while (result.items.size() < query.k && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), MergeEntryAfter{});
    const MergeEntry entry = heap.back();
    heap.pop_back();

    if (entry.kind == 1) {
      const std::vector<ScoredTuple>& items = open[entry.slot];
      result.items.push_back(items[entry.pos]);
      if (entry.pos + 1 < items.size()) {
        const ScoredTuple& next = items[entry.pos + 1];
        heap.push_back(
            MergeEntry{next.score, 1, next.id, entry.slot, entry.pos + 1});
        std::push_heap(heap.begin(), heap.end(), MergeEntryAfter{});
      }
      continue;
    }

    // The merge frontier reached this run's corner bound: open it.
    ExecBudget sub;
    reason = RemainingBudget(query.budget, result.stats.tuples_evaluated,
                             timer, &sub);
    if (reason != Termination::kComplete) {
      stop_floor = entry.score;  // the run we could not afford to open
      stopped = true;
      break;
    }
    const TieredRun& run = runs_[entry.slot];
    // Over-fetch to survive tombstone filtering: the top (k + dead)
    // members contain at least min(live(run), k) live tuples, so a
    // complete run's cursor can only be exhausted when the whole run
    // was returned -- there is never an unreturned live member hiding
    // past the cut.
    TopKQuery run_query;
    run_query.weights = query.weights;
    run_query.k = std::min(run.ids.size(), query.k + run.dead);
    run_query.budget = sub;
    TopKResult run_result = run.index.Query(run_query);

    ++result.stats.runs_opened;
    result.stats.tuples_evaluated += run_result.stats.tuples_evaluated;
    result.stats.virtual_evaluated += run_result.stats.virtual_evaluated;
    result.stats.scratch_seeds += run_result.stats.scratch_seeds;
    for (const TupleId local : run_result.accessed) {
      result.accessed.push_back(run.ids[local]);
    }
    if (run_result.termination == Termination::kError ||
        run_result.termination == Termination::kInvalidQuery) {
      result.items.clear();
      result.termination = Termination::kError;
      result.error =
          "run " + std::to_string(run.uid) + ": " +
          (run_result.error.empty()
               ? std::string(TerminationName(run_result.termination))
               : run_result.error);
      result.certified_prefix = 0;
      result.frontier_bound = -kInf;
      result.stats.elapsed_seconds = timer.ElapsedSeconds();
      return result;
    }

    if (!run_result.complete()) {
      // The run's budget slice tripped mid-traversal. None of its
      // items are merged; the whole run is bounded by the smaller of
      // its frontier and its best returned score, and the merge stops.
      double floor = run_result.frontier_bound;
      if (!run_result.items.empty()) {
        floor = std::min(floor, run_result.items.front().score);
      }
      stop_floor = floor;
      reason = run_result.termination;
      stopped = true;
      break;
    }

    std::vector<ScoredTuple>& live = open[entry.slot];
    live.reserve(run_result.items.size());
    for (const ScoredTuple& item : run_result.items) {
      const TupleId stable = run.ids[item.id];
      if (tombstones_.count(stable)) continue;  // masked member
      live.push_back(ScoredTuple{stable, item.score});
    }
    if (!live.empty()) {
      heap.push_back(MergeEntry{live.front().score, 1, live.front().id,
                                entry.slot, 0});
      std::push_heap(heap.begin(), heap.end(), MergeEntryAfter{});
    }
  }

  if (!stopped) {
    FinalizeComplete(result);
  } else {
    // Every unreturned live tuple is (a) in the run that stopped or
    // was unaffordable -- bounded by stop_floor, (b) in a run still
    // represented by a bound entry, (c) after the cursor of an opened
    // list (memtable included), or (d) past an opened run's over-fetch
    // cut, where the raw k'-th score >= that run's live cursor entry.
    // (b)-(d) are all covered by the surviving heap keys.
    double bound = stop_floor;
    for (const MergeEntry& e : heap) bound = std::min(bound, e.score);
    FinalizePartial(result, reason, bound);
  }
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace drli
