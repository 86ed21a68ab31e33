#include "common/kernels_batch.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/simd.h"

namespace drli {

namespace kernel_internal {

namespace {

// One SoA row through the exact operation chain of Score() in
// common/point.h: the unrolled d <= 4 kernels start the accumulator at
// w0*p0, the generic d >= 5 loop starts at 0.0 -- mirror both so the
// result is bit-identical for every d (the two differ on -0.0 inputs).
inline double ScoreRow(PointView weights, const SoaPointSet& soa,
                       std::size_t row) {
  const std::size_t d = soa.dim();
  double acc;
  std::size_t a;
  if (d <= 4) {
    acc = weights[0] * soa.column(0)[row];
    a = 1;
  } else {
    acc = 0.0;
    a = 0;
  }
  for (; a < d; ++a) {
    acc += weights[a] * soa.column(a)[row];
  }
  return acc;
}

}  // namespace

void ScoreBatchScalar(PointView weights, const SoaPointSet& soa,
                      const std::uint32_t* ids, std::size_t count,
                      double* out) {
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = ScoreRow(weights, soa, ids[i]);
  }
}

void ScoreRangeScalar(PointView weights, const SoaPointSet& soa,
                      std::uint32_t first, std::size_t count, double* out) {
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = ScoreRow(weights, soa, first + i);
  }
}

double ScoreMinRangeScalar(PointView weights, const SoaPointSet& soa,
                           std::size_t first, std::size_t count) {
  double bound = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < count; ++i) {
    bound = std::min(bound, ScoreRow(weights, soa, first + i));
  }
  return bound;
}

bool DominatesAnyBatchScalar(const SoaPointSet& soa, const std::uint32_t* ids,
                             std::size_t count, PointView q) {
  const std::size_t d = soa.dim();
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t row = ids[i];
    bool le = true;
    bool lt = false;
    for (std::size_t a = 0; a < d; ++a) {
      const double v = soa.column(a)[row];
      le = le && v <= q[a];
      lt = lt || v < q[a];
    }
    if (le && lt) return true;
  }
  return false;
}

void CompareBatchScalar(const SoaPointSet& soa, const std::uint32_t* ids,
                        std::size_t count, PointView q, DomRel* out) {
  const std::size_t d = soa.dim();
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t row = ids[i];
    bool a_better = false;
    bool b_better = false;
    for (std::size_t a = 0; a < d; ++a) {
      const double v = soa.column(a)[row];
      a_better |= v < q[a];
      b_better |= v > q[a];
    }
    out[i] = a_better && b_better ? DomRel::kIncomparable
             : a_better           ? DomRel::kDominates
             : b_better           ? DomRel::kDominatedBy
                                  : DomRel::kEqual;
  }
}

void SimilarityMaxRangeScalar(const SoaPointSet& soa, std::size_t first,
                              std::size_t count, PointView s,
                              double* penalty) {
  const std::size_t d = soa.dim();
  for (std::size_t i = 0; i < count; ++i) {
    double sum = 0.0;
    for (std::size_t a = 0; a < d; ++a) {
      const double delta = soa.column(a)[first + i] - s[a];
      sum += delta * delta;
    }
    penalty[i] = std::max(penalty[i], 1.0 / (1.0 + std::sqrt(sum)));
  }
}

}  // namespace kernel_internal

ScoreBatchFn ResolveScoreBatch() {
  switch (ActiveSimdTarget()) {
#if defined(DRLI_HAVE_AVX2)
    case SimdTarget::kAvx2:
      return &kernel_internal::ScoreBatchAvx2;
#endif
#if defined(DRLI_HAVE_NEON)
    case SimdTarget::kNeon:
      return &kernel_internal::ScoreBatchNeon;
#endif
    default:
      return &kernel_internal::ScoreBatchScalar;
  }
}

void ScoreBatch(PointView weights, const SoaPointSet& soa,
                const std::uint32_t* ids, std::size_t count, double* out) {
  DRLI_DCHECK(weights.size() == soa.dim());
  ResolveScoreBatch()(weights, soa, ids, count, out);
}

void ScoreRange(PointView weights, const SoaPointSet& soa,
                std::uint32_t first, std::size_t count, double* out) {
  DRLI_DCHECK(weights.size() == soa.dim());
  DRLI_DCHECK(first + count <= soa.size());
  switch (ActiveSimdTarget()) {
#if defined(DRLI_HAVE_AVX2)
    case SimdTarget::kAvx2:
      kernel_internal::ScoreRangeAvx2(weights, soa, first, count, out);
      return;
#endif
#if defined(DRLI_HAVE_NEON)
    case SimdTarget::kNeon:
      kernel_internal::ScoreRangeNeon(weights, soa, first, count, out);
      return;
#endif
    default:
      kernel_internal::ScoreRangeScalar(weights, soa, first, count, out);
      return;
  }
}

double ScoreMinRange(PointView weights, const SoaPointSet& soa,
                     std::size_t first, std::size_t count) {
  DRLI_DCHECK(weights.size() == soa.dim());
  DRLI_DCHECK(first + count <= soa.size());
  switch (ActiveSimdTarget()) {
#if defined(DRLI_HAVE_AVX2)
    case SimdTarget::kAvx2:
      return kernel_internal::ScoreMinRangeAvx2(weights, soa, first, count);
#endif
    default:
      return kernel_internal::ScoreMinRangeScalar(weights, soa, first, count);
  }
}

bool DominatesAnyBatch(const SoaPointSet& soa, const std::uint32_t* ids,
                       std::size_t count, PointView q) {
  DRLI_DCHECK(q.size() == soa.dim());
  switch (ActiveSimdTarget()) {
#if defined(DRLI_HAVE_AVX2)
    case SimdTarget::kAvx2:
      return kernel_internal::DominatesAnyBatchAvx2(soa, ids, count, q);
#endif
#if defined(DRLI_HAVE_NEON)
    case SimdTarget::kNeon:
      return kernel_internal::DominatesAnyBatchNeon(soa, ids, count, q);
#endif
    default:
      return kernel_internal::DominatesAnyBatchScalar(soa, ids, count, q);
  }
}

void CompareBatch(const SoaPointSet& soa, const std::uint32_t* ids,
                  std::size_t count, PointView q, DomRel* out) {
  DRLI_DCHECK(q.size() == soa.dim());
  switch (ActiveSimdTarget()) {
#if defined(DRLI_HAVE_AVX2)
    case SimdTarget::kAvx2:
      kernel_internal::CompareBatchAvx2(soa, ids, count, q, out);
      return;
#endif
#if defined(DRLI_HAVE_NEON)
    case SimdTarget::kNeon:
      kernel_internal::CompareBatchNeon(soa, ids, count, q, out);
      return;
#endif
    default:
      kernel_internal::CompareBatchScalar(soa, ids, count, q, out);
      return;
  }
}

void SimilarityMaxRange(const SoaPointSet& soa, std::size_t count,
                        PointView s, double* penalty) {
  DRLI_DCHECK(s.size() == soa.dim());
  DRLI_DCHECK(count <= soa.size());
  switch (ActiveSimdTarget()) {
#if defined(DRLI_HAVE_AVX2)
    case SimdTarget::kAvx2:
      kernel_internal::SimilarityMaxRangeAvx2(soa, count, s, penalty);
      return;
#endif
    default:
      kernel_internal::SimilarityMaxRangeScalar(soa, 0, count, s, penalty);
      return;
  }
}

}  // namespace drli
