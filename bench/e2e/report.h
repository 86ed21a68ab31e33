// Measurement plumbing shared by every workload of drli_bench: the one
// percentile helper, named metrics with units, the in-memory span
// trace of the --trace run, and the run header stamped into every
// output record.

#ifndef DRLI_BENCH_E2E_REPORT_H_
#define DRLI_BENCH_E2E_REPORT_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace drli {
namespace bench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double Micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

// A percentile is reported only when at least this many samples lie
// beyond it; otherwise it is missing and only its counts are given.
inline constexpr std::size_t kMinSamplesBeyond = 10;

struct PercentileValue {
  bool present = false;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  // samples strictly after the percentile's rank
};

// Nearest-rank percentile: the value at 1-based rank ceil(q * n) of the
// sorted samples, q in (0, 1]. Present iff n - rank >= kMinSamplesBeyond.
PercentileValue Percentile(std::vector<double> samples, double q);

double Mean(const std::vector<double>& samples);
// Middle value (mean of the two middle values for an even count).
double Median(std::vector<double> samples);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// JSON text of one value with all its significant digits.
std::string JsonNumber(double value);
std::string JsonString(const std::string& text);
// {"name": {"value": v, "unit": "u"}, ...}
std::string MetricsJson(const std::vector<Metric>& metrics);

// What every output record carries besides its measurements.
struct RunHeader {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string params_json;  // the workload's parameters, a JSON object
};
// Header fields as JSON members (no braces): commit, kernel,
// hardware_threads, workload, seed, seconds, trace, params.
std::string HeaderJsonMembers(const RunHeader& header);

// One span of the traced run. Spans of one request share `request`;
// `parent` is the index of the span that caused it (-1 for a root).
// Layers below the wire are replayed in-process one layer deeper at a
// time after the round trip, so a parent's self time is its duration
// minus its children's durations, not minus an overlap of intervals.
// `alt` marks an alternative measurement of a sibling (the same
// partition calls under a private scratch); it is not a child's share.
struct Span {
  std::uint64_t request = 0;
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  std::int64_t parent = -1;
  bool alt = false;
  // Counts taken at the same boundary: tuples and pseudo-tuples
  // evaluated, items returned, and whether the call contributed an
  // item to the request's answer.
  std::uint64_t evals = 0;
  std::uint64_t virtual_evals = 0;
  std::uint64_t items = 0;
  bool useful = false;

  double duration_us() const { return end_us - start_us; }
};

// Totals over every span of one name.
struct SpanTotals {
  std::size_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;  // total minus the durations of non-alt children
  std::uint64_t evals = 0;
  std::uint64_t virtual_evals = 0;
  std::uint64_t items = 0;
  std::size_t useful = 0;
  std::vector<double> self_samples_us;  // one per span
};

class Trace {
 public:
  Trace() : epoch_(Clock::now()) {}

  std::int64_t Add(std::uint64_t request, const char* name,
                   Clock::time_point start, Clock::time_point end,
                   std::int64_t parent, bool alt = false);
  Span& at(std::int64_t index) {
    return spans_[static_cast<std::size_t>(index)];
  }

  // Totals for spans named `name` (all zero when there are none).
  SpanTotals Totals(const std::string& name) const;

  // Writes {"header", "layers", "spans_total", "spans"} to `path`,
  // keeping the first `max_spans` spans.
  bool Write(const std::string& path, const RunHeader& header,
             const std::vector<Metric>& layers, std::size_t max_spans) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

}  // namespace bench
}  // namespace drli

#endif  // DRLI_BENCH_E2E_REPORT_H_
