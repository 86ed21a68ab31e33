#include "common/point.h"

#include <cstdio>

#include "common/check.h"

namespace drli {

namespace point_internal {

bool DominatesGeneric(PointView a, PointView b) {
  bool strict = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i]) strict = true;
  }
  return strict;
}

bool WeaklyDominatesGeneric(PointView a, PointView b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
  }
  return true;
}

DomRel CompareGeneric(PointView a, PointView b) {
  bool a_better = false;
  bool b_better = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] < b[i]) {
      a_better = true;
    } else if (a[i] > b[i]) {
      b_better = true;
    }
    if (a_better && b_better) return DomRel::kIncomparable;
  }
  if (a_better) return DomRel::kDominates;
  if (b_better) return DomRel::kDominatedBy;
  return DomRel::kEqual;
}

double ScoreGeneric(PointView weights, PointView point) {
  double s = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    s += weights[i] * point[i];
  }
  return s;
}

}  // namespace point_internal

double AttributeSum(PointView p) {
  double s = 0.0;
  for (const double v : p) s += v;
  return s;
}

PointSet::PointSet(std::size_t dim) : dim_(dim) {
  DRLI_CHECK(dim >= 1) << "PointSet requires dim >= 1";
}

PointSet PointSet::FromVector(std::size_t dim, std::vector<double> values) {
  PointSet out(dim);
  DRLI_CHECK_EQ(values.size() % dim, 0u);
  out.data_ = std::move(values);
  return out;
}

PointSet PointSet::FromView(std::size_t dim, const double* values,
                            std::size_t num_values,
                            std::shared_ptr<const void> keepalive) {
  PointSet out(dim);
  DRLI_CHECK_EQ(num_values % dim, 0u);
  DRLI_CHECK(values != nullptr || num_values == 0);
  out.view_ = values;
  out.view_values_ = num_values;
  out.keepalive_ = std::move(keepalive);
  return out;
}

TupleId PointSet::Add(PointView p) {
  DRLI_CHECK_EQ(p.size(), dim_);
  DRLI_CHECK(owns_data()) << "Add on a view-backed PointSet";
  const TupleId id = static_cast<TupleId>(size());
  data_.insert(data_.end(), p.begin(), p.end());
  return id;
}

void PointSet::Reserve(std::size_t n) {
  DRLI_CHECK(owns_data()) << "Reserve on a view-backed PointSet";
  data_.reserve(n * dim_);
}

void PointSet::Clear() {
  data_.clear();
  view_ = nullptr;
  view_values_ = 0;
  keepalive_.reset();
}

TupleId PointSet::Add(std::initializer_list<double> p) {
  return Add(PointView(p.begin(), p.size()));
}

Point PointSet::Materialize(std::size_t i) const {
  PointView v = (*this)[i];
  return Point(v.begin(), v.end());
}

PointSet PointSet::Subset(const std::vector<TupleId>& ids) const {
  PointSet out(dim_);
  out.Reserve(ids.size());
  for (TupleId id : ids) {
    DRLI_DCHECK(id < size());
    out.Add((*this)[id]);
  }
  return out;
}

std::string ToString(PointView p) {
  std::string out = "(";
  char buf[32];
  for (std::size_t i = 0; i < p.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%g", p[i]);
    if (i > 0) out += ", ";
    out += buf;
  }
  out += ")";
  return out;
}

}  // namespace drli
