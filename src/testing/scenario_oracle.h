// Differential oracle for the scenarios layer (src/scenarios/):
// constrained, diversified, and reverse top-k, each compared against
// its brute-force reference over seed-derived probes. The companion of
// testing/differential.h one workload up: where the differential
// harness pits 20 index families against one brute-force scan on plain
// top-k, this one pits the three accelerated scenario engines (DL+,
// sharded, tiered) against the scenario-specific references:
//
//  * constrained: every engine and the production scan against the
//    shared checker's top-k over the in-box rows
//    (testing/result_check.h), exact rule, complete and budgeted runs
//    alike -- so partials are checked for structure, certified prefix
//    and frontier soundness over the in-box universe;
//  * diversified: every engine, and one budgeted DL+ run, against the
//    brute-force greedy, pick by pick on (id, score, utility);
//  * reverse (2-d): DL+ and the full-relation count against the
//    kinetic sweep's read-out below, plus membership probes inside
//    and between its intervals.
//
// Probes are deterministic in the seed, so every failure replays. Box
// probes are built FROM data coordinates (two sampled tuples span the
// box), which makes exact FP ties on box edges the common case rather
// than a corner case; degenerate probes add the empty box, the
// all-space box, point boxes, k > matching-tuples, and boundary
// (zero-weight) weight vectors.

#ifndef DRLI_TESTING_SCENARIO_ORACLE_H_
#define DRLI_TESTING_SCENARIO_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/point.h"
#include "core/rank_sweep_2d.h"

namespace drli {

// Builds a DL+ index, a sharded index, and a tiered index over
// `points` and drives all three scenario families against their
// brute-force references. Returns one human-readable line per
// mismatch; empty means every probe agreed.
std::vector<std::string> CheckScenarioFamilies(const PointSet& points,
                                               std::uint64_t seed);

// The reverse top-k reference: the w1-intervals (merged, ascending) on
// which `target` belongs to the kinetic sweep's top-k sets. Endpoints
// are the sweep breakpoints (or 0/1). It reads the stored partition,
// not the target's crossings, so it stays independent of the rule the
// shipped ReverseIntervals2D runs.
std::vector<WeightInterval> ReverseTopKIntervals2D(
    const RankSweepResult& sweep, TupleId target);

}  // namespace drli

#endif  // DRLI_TESTING_SCENARIO_ORACLE_H_
