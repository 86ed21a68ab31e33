#include "data/dataset.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace drli {

namespace {

std::vector<std::string> GenericNames(std::size_t d) {
  std::vector<std::string> names;
  names.reserve(d);
  for (std::size_t i = 0; i < d; ++i) {
    // Appended, not "a" + to_string: GCC 12 reports a false -Wrestrict
    // on operator+(const char*, string&&) at -O3.
    names.push_back(std::string("a").append(std::to_string(i)));
  }
  return names;
}

}  // namespace

Dataset::Dataset(std::vector<std::string> attribute_names)
    : points_(attribute_names.empty() ? 1 : attribute_names.size()),
      names_(std::move(attribute_names)) {
  DRLI_CHECK(!names_.empty()) << "Dataset needs at least one attribute";
}

Dataset::Dataset(PointSet points)
    : points_(std::move(points)), names_(GenericNames(points_.dim())) {}

Dataset::Dataset(PointSet points, std::vector<std::string> attribute_names)
    : points_(std::move(points)), names_(std::move(attribute_names)) {
  DRLI_CHECK_EQ(names_.size(), points_.dim());
}

std::size_t Dataset::AttributeIndex(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  return npos;
}

void Dataset::NormalizeMinMax() {
  const std::size_t d = dim();
  const std::size_t n = size();
  if (n == 0) return;
  std::vector<double> lo(d, std::numeric_limits<double>::infinity());
  std::vector<double> hi(d, -std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      lo[j] = std::min(lo[j], points_.At(i, j));
      hi[j] = std::max(hi[j], points_.At(i, j));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      const double range = hi[j] - lo[j];
      const double v = range > 0 ? (points_.At(i, j) - lo[j]) / range : 0.0;
      points_.Set(i, j, v);
    }
  }
}

void Dataset::InvertAttribute(std::size_t attr) {
  DRLI_CHECK_LT(attr, dim());
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < size(); ++i) {
    hi = std::max(hi, points_.At(i, attr));
  }
  for (std::size_t i = 0; i < size(); ++i) {
    points_.Set(i, attr, hi - points_.At(i, attr));
  }
}

}  // namespace drli
