// AVX2 implementations of the batched point kernels: 4 tuples per
// iteration, one SIMD lane per tuple (vertical vectorization).
//
// Bit-identity notes:
//   * Each lane accumulates its tuple's score strictly left-to-right
//     (w0*p0, + w1*p1, ...), exactly the scalar association. There is
//     no horizontal reduction across lanes.
//   * Multiplies and adds are separate intrinsics and this translation
//     unit is compiled with -ffp-contract=off, so the compiler cannot
//     fuse them into FMAs (which would round differently).
//   * d <= 4 seeds the accumulator with the first product while d >= 5
//     seeds with 0.0, mirroring the unrolled-vs-generic split of
//     common/point.h (the two differ on -0.0 inputs).
//   * The min fold keeps one running minimum per lane (_mm256_min_pd
//     returns its second operand unless the first is smaller, i.e.
//     std::min(lane, score)) and folds the lanes at the end. Equal
//     doubles are equal bit for bit except +0.0 and -0.0, so only a
//     zero minimum can depend on the fold order: it is re-folded in
//     row order.
//   * Dominance/comparison kernels are exact predicates (ordered,
//     non-signalling compares on NaN-free input).
//   * The similarity kernel subtracts, squares, sums from 0.0, takes
//     the square root and divides per lane, each step its own
//     correctly rounded IEEE instruction, as the scalar loop does.
//
// This file is only added to the build when the compiler supports
// -mavx2 and DRLI_DISABLE_SIMD is off; callers reach it through the
// runtime dispatch in kernels_batch.cc, never directly.

#include <immintrin.h>

#include <algorithm>
#include <limits>

#include "common/kernels_batch.h"

namespace drli {
namespace kernel_internal {

namespace {

// Gathers the 4 values of column `col` at the 4 row indexes in `rows`.
// The masked form with a zeroed source avoids _mm256_undefined_pd,
// which GCC flags as maybe-uninitialized; the all-ones mask makes it
// behave exactly like the plain gather.
inline __m256d GatherColumn(const double* col, __m128i rows) {
  const __m256d ones_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), col, rows, ones_mask,
                                  sizeof(double));
}

// Per-lane left-to-right weighted sum of 4 rows given by `rows`.
inline __m256d ScoreLanesGather(PointView w, const SoaPointSet& soa,
                                __m128i rows) {
  const std::size_t d = soa.dim();
  __m256d acc;
  std::size_t a;
  if (d <= 4) {
    acc = _mm256_mul_pd(_mm256_set1_pd(w[0]),
                        GatherColumn(soa.column(0), rows));
    a = 1;
  } else {
    acc = _mm256_setzero_pd();
    a = 0;
  }
  for (; a < d; ++a) {
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(w[a]),
                                           GatherColumn(soa.column(a), rows)));
  }
  return acc;
}

inline __m256d ScoreLanesLoad(PointView w, const SoaPointSet& soa,
                              std::size_t first) {
  const std::size_t d = soa.dim();
  __m256d acc;
  std::size_t a;
  if (d <= 4) {
    acc = _mm256_mul_pd(_mm256_set1_pd(w[0]),
                        _mm256_loadu_pd(soa.column(0) + first));
    a = 1;
  } else {
    acc = _mm256_setzero_pd();
    a = 0;
  }
  for (; a < d; ++a) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_set1_pd(w[a]),
                           _mm256_loadu_pd(soa.column(a) + first)));
  }
  return acc;
}

}  // namespace

void ScoreBatchAvx2(PointView weights, const SoaPointSet& soa,
                    const std::uint32_t* ids, std::size_t count, double* out) {
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m128i rows =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids + i));
    _mm256_storeu_pd(out + i, ScoreLanesGather(weights, soa, rows));
  }
  if (i < count) {
    ScoreBatchScalar(weights, soa, ids + i, count - i, out + i);
  }
}

void ScoreRangeAvx2(PointView weights, const SoaPointSet& soa,
                    std::uint32_t first, std::size_t count, double* out) {
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    _mm256_storeu_pd(out + i, ScoreLanesLoad(weights, soa, first + i));
  }
  if (i < count) {
    ScoreRangeScalar(weights, soa, first + i, count - i, out + i);
  }
}

double ScoreMinRangeAvx2(PointView weights, const SoaPointSet& soa,
                         std::size_t first, std::size_t count) {
  __m256d lanes = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    lanes = _mm256_min_pd(ScoreLanesLoad(weights, soa, first + i), lanes);
  }
  alignas(32) double folded[4];
  _mm256_store_pd(folded, lanes);
  const double bound = std::min(
      std::min(std::min(folded[0], folded[1]), std::min(folded[2], folded[3])),
      ScoreMinRangeScalar(weights, soa, first + i, count - i));
  if (bound == 0.0) return ScoreMinRangeScalar(weights, soa, first, count);
  return bound;
}

bool DominatesAnyBatchAvx2(const SoaPointSet& soa, const std::uint32_t* ids,
                           std::size_t count, PointView q) {
  const std::size_t d = soa.dim();
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m128i rows =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids + i));
    // le: candidate <= q in every attribute; lt: < in at least one.
    __m256d le = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    __m256d lt = _mm256_setzero_pd();
    for (std::size_t a = 0; a < d; ++a) {
      const __m256d v = GatherColumn(soa.column(a), rows);
      const __m256d qa = _mm256_set1_pd(q[a]);
      le = _mm256_and_pd(le, _mm256_cmp_pd(v, qa, _CMP_LE_OQ));
      lt = _mm256_or_pd(lt, _mm256_cmp_pd(v, qa, _CMP_LT_OQ));
    }
    if (_mm256_movemask_pd(_mm256_and_pd(le, lt)) != 0) return true;
  }
  return i < count && DominatesAnyBatchScalar(soa, ids + i, count - i, q);
}

void CompareBatchAvx2(const SoaPointSet& soa, const std::uint32_t* ids,
                      std::size_t count, PointView q, DomRel* out) {
  const std::size_t d = soa.dim();
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m128i rows =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids + i));
    __m256d a_better = _mm256_setzero_pd();
    __m256d b_better = _mm256_setzero_pd();
    for (std::size_t a = 0; a < d; ++a) {
      const __m256d v = GatherColumn(soa.column(a), rows);
      const __m256d qa = _mm256_set1_pd(q[a]);
      a_better = _mm256_or_pd(a_better, _mm256_cmp_pd(v, qa, _CMP_LT_OQ));
      b_better = _mm256_or_pd(b_better, _mm256_cmp_pd(v, qa, _CMP_GT_OQ));
    }
    const int am = _mm256_movemask_pd(a_better);
    const int bm = _mm256_movemask_pd(b_better);
    for (int lane = 0; lane < 4; ++lane) {
      const bool ab = (am >> lane) & 1;
      const bool bb = (bm >> lane) & 1;
      out[i + lane] = ab && bb ? DomRel::kIncomparable
                      : ab     ? DomRel::kDominates
                      : bb     ? DomRel::kDominatedBy
                               : DomRel::kEqual;
    }
  }
  if (i < count) {
    CompareBatchScalar(soa, ids + i, count - i, q, out + i);
  }
}

void SimilarityMaxRangeAvx2(const SoaPointSet& soa, std::size_t count,
                            PointView s, double* penalty) {
  const std::size_t d = soa.dim();
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    __m256d sum = _mm256_setzero_pd();
    for (std::size_t a = 0; a < d; ++a) {
      const __m256d delta = _mm256_sub_pd(_mm256_loadu_pd(soa.column(a) + i),
                                          _mm256_set1_pd(s[a]));
      sum = _mm256_add_pd(sum, _mm256_mul_pd(delta, delta));
    }
    const __m256d sim =
        _mm256_div_pd(one, _mm256_add_pd(one, _mm256_sqrt_pd(sum)));
    // max(sim, pen) keeps pen unless sim > pen: std::max(pen, sim).
    _mm256_storeu_pd(penalty + i,
                     _mm256_max_pd(sim, _mm256_loadu_pd(penalty + i)));
  }
  if (i < count) {
    SimilarityMaxRangeScalar(soa, i, count - i, s, penalty + i);
  }
}

}  // namespace kernel_internal
}  // namespace drli
