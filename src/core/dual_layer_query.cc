#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/kernels_batch.h"
#include "common/stopwatch.h"
#include "core/dual_layer.h"

namespace drli {

bool QueryScratch::Prepare(const QueryLayout& layout) {
  const bool seed = generation_ != layout.generation;
  if (seed) {
    // First query against this layout: seed the per-slot init words so
    // a first touch reads one cache line instead of also hitting a
    // separate init array. Amortized over every query the scratch
    // serves on this index.
    generation_ = layout.generation;
    const std::size_t num_slots = layout.init_packed.size();
    nodes_.resize(num_slots);
    for (std::size_t i = 0; i < num_slots; ++i) {
      nodes_[i] = NodeState{layout.init_packed[i], 0, 0};
    }
    epoch_ = 0;
    pending_.resize(layout.first_real_slot);
  }
  for (std::vector<std::uint32_t>& pending : pending_) pending.clear();
  ++epoch_;
  if (epoch_ == 0) {
    // Epoch counter wrapped: stale stamps could collide, so invalidate
    // everything once per ~4 billion queries.
    for (NodeState& node : nodes_) node.stamp = 0;
    epoch_ = 1;
  }
  heap_.Clear();
  freed_.clear();
  push_scores_.clear();
  return seed;
}

std::unique_ptr<QueryScratch> DualLayerIndex::AcquireScratch() const {
  {
    const std::lock_guard<std::mutex> lock(scratch_pool_->mu);
    auto& idle = scratch_pool_->idle;
    if (!idle.empty()) {
      // The pool holds one scratch per peak concurrent query, so this
      // scan is short.
      const std::thread::id self = std::this_thread::get_id();
      const auto own =
          std::find_if(idle.begin(), idle.end(),
                       [&](const auto& entry) { return entry.first == self; });
      if (own != idle.end()) std::iter_swap(own, idle.end() - 1);
      std::unique_ptr<QueryScratch> scratch = std::move(idle.back().second);
      idle.pop_back();
      return scratch;
    }
  }
  return std::make_unique<QueryScratch>();
}

void DualLayerIndex::ReleaseScratch(
    std::unique_ptr<QueryScratch> scratch) const {
  const std::lock_guard<std::mutex> lock(scratch_pool_->mu);
  scratch_pool_->idle.emplace_back(std::this_thread::get_id(),
                                   std::move(scratch));
}

bool DualLayerIndex::Retire(TupleId id) {
  DRLI_CHECK_LT(id, points_.size()) << "Retire: no such tuple";
  if (retired_.empty()) retired_.assign(num_nodes(), 0);
  std::uint8_t& mark = retired_[layout_.slot_of[id]];
  if (mark != 0) return false;
  mark = 1;
  ++num_retired_;
  return true;
}

TopKResult DualLayerIndex::Query(const TopKQuery& query) const {
  // A throwing query drops its scratch instead of returning it.
  std::unique_ptr<QueryScratch> scratch = AcquireScratch();
  TopKResult result = Query(query, scratch.get());
  ReleaseScratch(std::move(scratch));
  return result;
}

TopKResult DualLayerIndex::Query(const TopKQuery& query,
                                 QueryScratch* scratch) const {
  Stopwatch timer;
  if (const Status status = ValidateQuery(query, points_.dim());
      !status.ok()) {
    return InvalidQueryResult(status);
  }
  const PointView w(query.weights);
  const std::size_t total = num_nodes();
  // k > live returns every live tuple; clamping keeps every k-sized
  // buffer below sized by the relation, not by the client. A fully
  // retired index answers empty here, at zero cost.
  const std::size_t k = std::min(query.k, points_.size() - num_retired_);

  TopKResult result;
  if (total == 0 || k == 0) {
    FinalizeComplete(result);
    return result;
  }
  BudgetGate gate(query.budget);

  const QueryLayout& layout = layout_;
  QueryScratch& s = *scratch;
  result.stats.scratch_seeds = s.Prepare(layout) ? 1 : 0;
  s.heap_.Reserve(layout.initial_slots.size() + 16);
  // One allocation each instead of a doubling chain; the typical query
  // evaluates a few dozen tuples per answer slot.
  result.items.reserve(k + 8);
  result.accessed.reserve(std::min(16 * k, points_.size()));
  const ScoreBatchFn score_batch = ResolveScoreBatch();
  const std::uint32_t epoch = s.epoch_;
  QueryScratch::NodeState* const st = s.nodes_.data();
  const std::uint32_t* const node_of = layout.node_of.data();
  const std::uint32_t* const coarse_off = layout.coarse_offsets.data();
  const std::uint32_t* const coarse_tgt = layout.coarse_targets.data();
  const std::uint32_t* const fine_off = layout.fine_offsets.data();
  const std::uint32_t* const fine_tgt = layout.fine_targets.data();
  const std::uint32_t first_real = layout.first_real_slot;
  const std::uint32_t* const free_end = layout.pseudo_free_end.data();
  const std::uint32_t* const parent_off = layout.parent_offsets.data();
  const std::uint32_t* const parent_slot = layout.parent_slots.data();
  // Null while nothing is retired: one predictable branch per pop.
  const std::uint8_t* const retired =
      num_retired_ != 0 ? retired_.data() : nullptr;
  const auto live = [&](std::uint32_t slot) {
    return retired == nullptr || retired[slot] == 0;
  };
  // Adjacency entries read, reported as QueryStats::edges_walked.
  std::size_t edges = 0;

  // Lazily initializes slot state on first touch this query; the reset
  // cost is O(slots touched), not O(n).
  const auto touch = [&](std::uint32_t slot) -> QueryScratch::NodeState& {
    QueryScratch::NodeState& ns = st[slot];
    if (ns.stamp != epoch) {
      ns.stamp = epoch;
      ns.packed = ns.init;
    }
    return ns;
  };

  // Once the k-th answer is known, only exact ties at its score can
  // still change the (score, id)-ordered result. Probes above it are
  // discarded unscored-as-far-as-the-cost-model-goes: the original
  // algorithm would never have materialized them, so charging them
  // would distort the Definition-9 metric on tie-free queries.
  double tie_cutoff = std::numeric_limits<double>::infinity();
  // An ∃-edge holds up to rounding, so a blocked tuple can score up to
  // `slack` below the ancestors that block it (QueryLayout::stop_slack;
  // 0 without fine edges). Every test against tie_cutoff or push_bound
  // that decides whether something may still be hiding at or below the
  // k-th score therefore looks `slack` past it: on coplanar rows a tie
  // can sit an ulp under every one of its fine parents.
  const double slack = StopSlack(w);
  double stop_above = tie_cutoff;

  // Provisional upper bound on the final k-th answer: the k-th smallest
  // of a subset of the live real candidate scores seen so far (+inf
  // until k have been seen), hence at least the k-th smallest of all of
  // them. Unlocking a node never reveals a score more than `slack` below
  // its unlocker's, so (a) the final answer set is the k smallest live
  // keys among everything eventually scored, which makes any prefix's
  // k-th smallest an upper bound on the final tie_cutoff, and (b) no entry
  // scoring more than `slack` above the final tie_cutoff is ever popped
  // or unlocks anything at or below it. A candidate scoring more than
  // `slack` above the bound is therefore dead weight: it is counted and
  // recorded exactly as before, but its heap push is skipped. A looser
  // bound skips fewer of them, and the extra entries sit in the heap
  // past the stop rule, so pops, evaluations and the answer never
  // depend on how tight the bound is. The bound is kept in amortized
  // O(1) per score (QueryScratch::push_scores_): scores below it are
  // appended, and at 2k entries nth_element cuts the buffer back to its
  // k smallest, whose largest becomes the bound. Only exercised when no
  // budget gate is active -- a tripped gate certifies its partial
  // result against the literal heap minimum, which pruning would move.
  double push_bound = std::numeric_limits<double>::infinity();
  double push_above = push_bound;
  const bool prune_pushes = !gate.active();

  // Slots freed during one pop's expansion accumulate in s.freed_ (in
  // the order the expansion loops reach them) and are scored in one
  // batched kernel call, then enqueued in that same order. Deferring
  // the scores past the expansion changes nothing observable:
  // tie_cutoff only moves at pops, the heap pop sequence is a total
  // order on (score, node id) independent of push order, and the
  // accessed/evaluated bookkeeping runs in the order the expansion
  // loops freed the slots.
  const auto flush_freed = [&]() {
    const std::size_t count = s.freed_.size();
    if (count == 0) return;
    if (s.freed_scores_.size() < count) s.freed_scores_.resize(count);
    score_batch(w, layout.points, s.freed_.data(), count,
                s.freed_scores_.data());
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t slot = s.freed_[i];
      const double score = s.freed_scores_[i];
      if (score > stop_above) continue;
      const std::uint32_t node = node_of[slot];
      if (slot < layout.first_real_slot) {
        ++result.stats.virtual_evaluated;
      } else {
        ++result.stats.tuples_evaluated;
        result.accessed.push_back(node);
        // A retired score would pull the bound below the live k-th
        // answer and prune live candidates.
        if (prune_pushes && score < push_bound && live(slot)) {
          std::vector<double>& buf = s.push_scores_;
          buf.push_back(score);
          if (buf.size() == k) {
            // First fill (it never shrinks below k): every score so far.
            push_bound = *std::max_element(buf.begin(), buf.end());
          } else if (buf.size() == 2 * k) {
            std::nth_element(buf.begin(), buf.begin() + (k - 1), buf.end());
            buf.resize(k);
            push_bound = buf[k - 1];
          }
          push_above = push_bound + slack;
        }
      }
      // Strictly above the bound (plus the slack): can never pop before
      // termination and can never tie the k-th answer or block a tuple
      // that does.
      if (score > push_above) continue;
      st[slot].packed |= QueryLayout::kQueuedBit;
      s.heap_.Push(QueryScratch::HeapEntry{score, node, slot});
    }
    s.freed_.clear();
  };

  if (use_weight_table_ && !weight_table_.empty()) {
    // With the 2-d weight table, L^{11} chain tuples other than the
    // looked-up top-1 candidate start locked and unlock along the chain.
    // The table is keyed by w1 on the simplex w1 + w2 = 1. Only the
    // direction of the weights matters, so a vector off the simplex is
    // scaled onto it; one on it up to rounding is looked up as given.
    const double sum = query.weights[0] + query.weights[1];
    const std::size_t top1 = weight_table_.Lookup(
        std::abs(sum - 1.0) <= 1e-12 ? query.weights[0]
                                     : query.weights[0] / sum);
    const std::vector<TupleId>& chain = weight_table_.chain();
    for (std::size_t pos = 0; pos < chain.size(); ++pos) {
      QueryScratch::NodeState& ns = touch(layout.slot_of[chain[pos]]);
      if (pos != top1) ns.packed |= QueryLayout::kChainLockedBit;
    }
  }
  for (const std::uint32_t slot : layout.initial_slots) {
    if (touch(slot).packed == QueryLayout::kFreeable) {
      s.freed_.push_back(slot);
    }
  }
  flush_freed();

  const BestFirstEnd end = s.heap_.Run([&](const auto& top) {
    // Every blocked node has an in-heap ancestor scoring at most
    // `slack` above it, so once the heap minimum is more than the slack
    // above the k-th answer no tie can be hiding behind a blocked node
    // and the query is done.
    if (result.items.size() >= k && top.key > stop_above) {
      return BestFirstStep::End();
    }
    // Budget check at the pop boundary. The same invariant that powers
    // the stop rule above makes the partial result certifiable: every
    // unreturned tuple is in the heap (key >= the popped one), behind
    // an in-heap ancestor (score >= heap minimum - slack), or behind a
    // tie-filtered probe (score > tie_cutoff + slack), so
    // min(popped key - slack, tie_cutoff) lower-bounds all of them.
    if (const Termination stop = gate.Step(result.stats.tuples_evaluated);
        stop != Termination::kComplete) {
      return BestFirstStep::Stop(stop, std::min(top.key - slack, tie_cutoff));
    }
    const std::uint32_t slot = top.slot;
    st[slot].packed =
        (st[slot].packed & ~QueryLayout::kStateMask) | QueryLayout::kPoppedBit;

    if (slot >= layout.first_real_slot && live(slot)) {
      result.items.push_back(ScoredTuple{top.tie, top.key});
      if (result.items.size() == k) {
        tie_cutoff = top.key;
        stop_above = tie_cutoff + slack;
      }
    }

    // ∀-successors: free once every coarse in-neighbour popped. A
    // pseudo-tuple walks only its fine-free prefix and then the
    // fine-blocked targets whose ∃ bit has arrived (lazy ∀-gate, see
    // QueryLayout); the rest count it down when their ∃ bit arrives.
    const bool pseudo = slot < first_real;
    const std::uint32_t coarse_end =
        pseudo ? free_end[slot] : coarse_off[slot + 1];
    edges += coarse_end - coarse_off[slot];
    for (std::uint32_t i = coarse_off[slot]; i < coarse_end; ++i) {
      const std::uint32_t succ = coarse_tgt[i];
      QueryScratch::NodeState& ns = touch(succ);
      DRLI_DCHECK((ns.packed & QueryLayout::kRemainingMask) > 0);
      if (--ns.packed == QueryLayout::kFreeable) s.freed_.push_back(succ);
    }
    if (pseudo) {
      edges += s.pending_[slot].size();
      for (const std::uint32_t succ : s.pending_[slot]) {
        QueryScratch::NodeState& ns = st[succ];
        DRLI_DCHECK(ns.stamp == epoch);
        DRLI_DCHECK((ns.packed & QueryLayout::kRemainingMask) > 0);
        if (--ns.packed == QueryLayout::kFreeable) s.freed_.push_back(succ);
      }
    }
    // ∃-successors: free once any fine in-neighbour popped. The ∃ bit
    // opens the gate: popped pseudo parents count the slot down now,
    // the others queue it on their pending list.
    edges += fine_off[slot + 1] - fine_off[slot];
    for (std::uint32_t i = fine_off[slot]; i < fine_off[slot + 1]; ++i) {
      const std::uint32_t succ = fine_tgt[i];
      QueryScratch::NodeState& ns = touch(succ);
      if (!(ns.packed & QueryLayout::kFineFreeBit)) {
        ns.packed |= QueryLayout::kFineFreeBit;
        if (first_real != 0) {
          edges += parent_off[succ + 1] - parent_off[succ];
          for (std::uint32_t j = parent_off[succ]; j < parent_off[succ + 1];
               ++j) {
            const std::uint32_t parent = parent_slot[j];
            if ((touch(parent).packed & QueryLayout::kStateMask) ==
                QueryLayout::kPoppedBit) {
              DRLI_DCHECK((ns.packed & QueryLayout::kRemainingMask) > 0);
              --ns.packed;
            } else {
              s.pending_[parent].push_back(succ);
            }
          }
        }
        if (ns.packed == QueryLayout::kFreeable) s.freed_.push_back(succ);
      }
    }
    // Chain neighbours (2-d zero layer).
    if (use_weight_table_ && chain_pos_[top.tie] != kNoFineLayer) {
      const std::vector<TupleId>& chain = weight_table_.chain();
      const std::size_t pos = chain_pos_[top.tie];
      const auto unlock = [&](std::size_t neighbour) {
        ++edges;
        const std::uint32_t nslot = layout.slot_of[chain[neighbour]];
        QueryScratch::NodeState& ns = st[nslot];
        if (ns.packed & QueryLayout::kChainLockedBit) {
          ns.packed &= ~QueryLayout::kChainLockedBit;
          if (ns.packed == QueryLayout::kFreeable) s.freed_.push_back(nslot);
        }
      };
      if (pos > 0) unlock(pos - 1);
      if (pos + 1 < chain.size()) unlock(pos + 1);
    }
    flush_freed();
    return BestFirstStep::Continue();
  }, slack);
  // Equal-score tuples freed late (they were ∃- or chain-blocked behind
  // an equal-score node) pop out of id order; restore the canonical
  // (score, id) order and drop surplus ties beyond k. Without such ties
  // the pops already are in that order and the sort is skipped.
  if (!std::is_sorted(result.items.begin(), result.items.end(),
                      ResultOrderLess)) {
    std::sort(result.items.begin(), result.items.end(), ResultOrderLess);
  }
  // Surplus ties dropped here score >= tie_cutoff >= any stopped
  // walk's frontier, so they never invalidate the certified prefix.
  if (result.items.size() > k) result.items.resize(k);
  end.Finalize(result);
  result.stats.edges_walked = edges;
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace drli
