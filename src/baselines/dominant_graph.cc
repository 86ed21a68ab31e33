#include "baselines/dominant_graph.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <vector>

#include "common/check.h"
#include "common/status.h"

namespace drli {

DualLayerOptions DominantGraphConfig(bool zero_layer) {
  DualLayerOptions options;
  options.enable_fine_layers = false;
  options.build_zero_layer = zero_layer;
  options.zero_layer_fine_split = false;
  options.name = zero_layer ? "DG+" : "DG";
  return options;
}

TopKResult MonotoneTopK(const DualLayerIndex& index,
                        const MonotoneScorer& scorer, std::size_t k,
                        const ExecBudget& budget) {
  if (index.fine_out().num_edges() > 0 || index.uses_weight_table()) {
    return InvalidQueryResult(Status::InvalidArgument(
        "monotone scoring needs a Dominant Graph: " + index.name() +
        " has exists-dominance edges or a weight-range table, which are "
        "sound for linear scoring only"));
  }
  using NodeId = DualLayerIndex::NodeId;
  const std::size_t total = index.num_nodes();

  TopKResult result;
  if (total == 0 || k == 0) {
    FinalizeComplete(result);
    return result;
  }
  BudgetGate gate(budget);
  const CsrGraph& out = index.coarse_out();

  enum : std::uint8_t { kBlocked = 0, kQueued = 1, kPopped = 2 };
  std::vector<std::uint32_t> remaining = index.coarse_in_degree();
  std::vector<std::uint8_t> state(total, kBlocked);

  struct Entry {
    double score;
    NodeId node;
  };
  struct Greater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.score != b.score) return a.score > b.score;
      return a.node > b.node;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Greater> queue;

  // Once the k-th answer is known, only exact ties at its score can
  // still enter the (score, id)-ordered result; probes above it are
  // discarded without being charged to the cost metric (the original
  // stop-at-k traversal would never have materialized them).
  double tie_cutoff = std::numeric_limits<double>::infinity();

  auto try_enqueue = [&](NodeId node) {
    if (state[node] != kBlocked || remaining[node] != 0) return;
    const double score = scorer(index.node_point(node));
    if (score > tie_cutoff) return;
    if (index.is_virtual(node)) {
      ++result.stats.virtual_evaluated;
    } else {
      ++result.stats.tuples_evaluated;
      result.accessed.push_back(node);
    }
    state[node] = kQueued;
    queue.push(Entry{score, node});
  };

  for (NodeId node : index.initial_nodes()) try_enqueue(node);

  Termination stop = Termination::kComplete;
  double frontier = -std::numeric_limits<double>::infinity();

  while (!queue.empty()) {
    // Pops are non-decreasing: every blocked node has an in-queue
    // ancestor scoring no higher than itself, so once the queue minimum
    // is strictly worse than the k-th answer no tie can be hidden
    // behind a blocked node.
    if (result.items.size() >= k && queue.top().score > tie_cutoff) break;
    // Budget check at the pop boundary: every unreturned tuple is in
    // the queue, behind an in-queue ancestor, or tie-filtered above
    // tie_cutoff, so min(queue minimum, tie_cutoff) bounds them all.
    if (stop = gate.Step(result.stats.tuples_evaluated);
        stop != Termination::kComplete) {
      frontier = std::min(queue.top().score, tie_cutoff);
      break;
    }
    const Entry top = queue.top();
    queue.pop();
    state[top.node] = kPopped;
    if (!index.is_virtual(top.node)) {
      result.items.push_back(ScoredTuple{top.node, top.score});
      if (result.items.size() == k) tie_cutoff = top.score;
    }
    for (const NodeId succ : out[top.node]) {
      DRLI_DCHECK(remaining[succ] > 0);
      if (--remaining[succ] == 0) try_enqueue(succ);
    }
  }
  // Ties freed late pop out of id order; restore the canonical order.
  std::sort(result.items.begin(), result.items.end(), ResultOrderLess);
  if (result.items.size() > k) result.items.resize(k);
  if (stop == Termination::kComplete) {
    FinalizeComplete(result);
  } else {
    FinalizePartial(result, stop, frontier);
  }
  return result;
}

}  // namespace drli
