// Batched score/dominance kernels over a dimension-major SoaPointSet,
// processing 4 (AVX2/NEON) tuples per iteration behind the runtime
// dispatch of common/simd.h.
//
// Bit-identity contract: every kernel computes, per tuple, exactly the
// same floating-point operations in exactly the same order as the
// scalar kernels in common/point.h -- each SIMD lane holds one tuple's
// left-to-right accumulation (w0*p0, then + w1*p1, ...), there is no
// horizontal reduction and no fused multiply-add (the SIMD translation
// units are compiled with -ffp-contract=off). Dominance and comparison
// kernels are exact predicates with no rounding at all. Consequently
// scalar and SIMD paths return bit-identical scores and identical
// predicate outcomes on every input, which KernelCrossCheckTest
// (tests/property_test.cc) verifies exhaustively and the differential
// oracle + fuzzer re-verify end to end on both dispatch targets.
//
// SimilarityMaxRange extends the contract to the diversified greedy's
// similarity: per row the same steps as Similarity() in
// scenarios/diversified.h (differences summed left to right from 0.0,
// then sqrt, then 1 / (1 + .)), each rounded on its own -- IEEE sqrt
// and division are correctly rounded in every lane, so the result is
// bit-identical too.
//
// ScoreMinRange folds the same per-row scores with std::min in row
// order. The minimum's value does not depend on the fold order; only
// the sign of a zero minimum could, and the SIMD path re-folds a zero
// in order, so it too is bit-identical to the scalar fold.
//
// Inputs are assumed NaN-free (the library's data model is points in
// [0,1]^d and simplex weights); comparisons use ordered predicates.

#ifndef DRLI_COMMON_KERNELS_BATCH_H_
#define DRLI_COMMON_KERNELS_BATCH_H_

#include <cstddef>
#include <cstdint>

#include "common/point.h"
#include "common/soa_points.h"

namespace drli {

// out[i] = Score(weights, soa row ids[i]), bit-identical to the scalar
// kernel. Gathers per column; `count` may be any size (unaligned tails
// fall back to scalar lanes).
void ScoreBatch(PointView weights, const SoaPointSet& soa,
                const std::uint32_t* ids, std::size_t count, double* out);

// out[i] = Score(weights, soa row first + i): the contiguous-range
// variant used by full scans; columns are loaded, not gathered.
void ScoreRange(PointView weights, const SoaPointSet& soa,
                std::uint32_t first, std::size_t count, double* out);

// The minimum of Score(weights, soa row first + i) over i in
// [0, count), folded as std::min in row order: bit-identical to
// CornerLowerBound (core/partition_merge.h) over the same rows; +inf
// when count is 0. The bound pass of the partition merge. NEON targets
// run the scalar kernel.
double ScoreMinRange(PointView weights, const SoaPointSet& soa,
                     std::size_t first, std::size_t count);

// True iff Dominates(soa row ids[i], q) for at least one i -- the inner
// test of skyline window sweeps. Exact predicate, identical outcome to
// the scalar loop (which short-circuits; the batch probes 4 at a time).
bool DominatesAnyBatch(const SoaPointSet& soa, const std::uint32_t* ids,
                       std::size_t count, PointView q);

// out[i] = Compare(soa row ids[i], q), the full three-way dominance
// comparison per tuple.
void CompareBatch(const SoaPointSet& soa, const std::uint32_t* ids,
                  std::size_t count, PointView q, DomRel* out);

// penalty[i] = std::max(penalty[i], Sim(soa row i, s)) for rows
// [0, count), where Sim(a, b) = 1 / (1 + ||a - b||_2), bit-identical to
// std::max(penalty[i], Similarity(row i, s)). Rows are loaded, not
// gathered. There is no NEON version (no aarch64 toolchain to build
// one against): on NEON targets the dispatch runs the scalar kernel.
void SimilarityMaxRange(const SoaPointSet& soa, std::size_t count,
                        PointView s, double* penalty);

// Hot loops that issue many small batches (the DL heap expansion makes
// ~25 calls of ~6 tuples per query) resolve the dispatch once and call
// through the pointer, instead of paying the ActiveSimdTarget() load +
// switch on every batch.
using ScoreBatchFn = void (*)(PointView, const SoaPointSet&,
                              const std::uint32_t*, std::size_t, double*);
ScoreBatchFn ResolveScoreBatch();

namespace kernel_internal {

// Scalar reference implementations (delegate to common/point.h); the
// dispatchers fall back to these, and the cross-check tests pin the
// SIMD paths against them.
void ScoreBatchScalar(PointView weights, const SoaPointSet& soa,
                      const std::uint32_t* ids, std::size_t count,
                      double* out);
void ScoreRangeScalar(PointView weights, const SoaPointSet& soa,
                      std::uint32_t first, std::size_t count, double* out);
double ScoreMinRangeScalar(PointView weights, const SoaPointSet& soa,
                           std::size_t first, std::size_t count);
bool DominatesAnyBatchScalar(const SoaPointSet& soa, const std::uint32_t* ids,
                             std::size_t count, PointView q);
void CompareBatchScalar(const SoaPointSet& soa, const std::uint32_t* ids,
                        std::size_t count, PointView q, DomRel* out);
void SimilarityMaxRangeScalar(const SoaPointSet& soa, std::size_t first,
                              std::size_t count, PointView s,
                              double* penalty);

#if defined(DRLI_HAVE_AVX2)
void ScoreBatchAvx2(PointView weights, const SoaPointSet& soa,
                    const std::uint32_t* ids, std::size_t count, double* out);
void ScoreRangeAvx2(PointView weights, const SoaPointSet& soa,
                    std::uint32_t first, std::size_t count, double* out);
double ScoreMinRangeAvx2(PointView weights, const SoaPointSet& soa,
                         std::size_t first, std::size_t count);
bool DominatesAnyBatchAvx2(const SoaPointSet& soa, const std::uint32_t* ids,
                           std::size_t count, PointView q);
void CompareBatchAvx2(const SoaPointSet& soa, const std::uint32_t* ids,
                      std::size_t count, PointView q, DomRel* out);
void SimilarityMaxRangeAvx2(const SoaPointSet& soa, std::size_t count,
                            PointView s, double* penalty);
#endif

#if defined(DRLI_HAVE_NEON)
void ScoreBatchNeon(PointView weights, const SoaPointSet& soa,
                    const std::uint32_t* ids, std::size_t count, double* out);
void ScoreRangeNeon(PointView weights, const SoaPointSet& soa,
                    std::uint32_t first, std::size_t count, double* out);
bool DominatesAnyBatchNeon(const SoaPointSet& soa, const std::uint32_t* ids,
                           std::size_t count, PointView q);
void CompareBatchNeon(const SoaPointSet& soa, const std::uint32_t* ids,
                      std::size_t count, PointView q, DomRel* out);
#endif

}  // namespace kernel_internal

}  // namespace drli

#endif  // DRLI_COMMON_KERNELS_BATCH_H_
