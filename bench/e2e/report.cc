#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "common/simd.h"

#ifndef DRLI_BENCH_COMMIT
#define DRLI_BENCH_COMMIT "unknown"
#endif

namespace drli {
namespace bench {

PercentileValue Percentile(std::vector<double> samples, double q) {
  PercentileValue out;
  out.samples = samples.size();
  if (samples.empty() || !(q > 0.0) || q > 1.0) return out;
  const double n = static_cast<double>(samples.size());
  const std::size_t rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * n)), 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  out.value = samples[rank - 1];
  out.beyond = samples.size() - rank;
  out.present = out.beyond >= kMinSamplesBeyond;
  return out;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : samples) sum += x;
  return sum / static_cast<double>(samples.size());
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                  : 0.5 * (samples[mid - 1] + samples[mid]);
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string HeaderJsonMembers(const RunHeader& header) {
  return "\"commit\": " + JsonString(DRLI_BENCH_COMMIT) +
         ", \"kernel\": " + JsonString(SimdTargetName(ActiveSimdTarget())) +
         ", \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"workload\": " + JsonString(header.workload) +
         ", \"seed\": " + std::to_string(header.seed) +
         ", \"seconds\": " + JsonNumber(header.seconds) +
         ", \"trace\": " + (header.trace ? "1" : "0") +
         ", \"params\": " + header.params_json;
}

std::int64_t Trace::Add(std::uint64_t request, const char* name,
                        Clock::time_point start, Clock::time_point end,
                        std::int64_t parent, bool alt) {
  Span span;
  span.request = request;
  span.name = name;
  span.start_us = Micros(epoch_, start);
  span.end_us = Micros(epoch_, end);
  span.parent = parent;
  span.alt = alt;
  spans_.push_back(span);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

SpanTotals Trace::Totals(const std::string& name) const {
  std::vector<double> children_us(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0 && !span.alt) {
      children_us[static_cast<std::size_t>(span.parent)] +=
          span.duration_us();
    }
  }
  SpanTotals totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (name != span.name) continue;
    const double self = span.duration_us() - children_us[i];
    ++totals.count;
    totals.total_us += span.duration_us();
    totals.self_us += self;
    totals.evals += span.evals;
    totals.virtual_evals += span.virtual_evals;
    totals.items += span.items;
    totals.useful += span.useful ? 1 : 0;
    totals.self_samples_us.push_back(self);
  }
  return totals;
}

bool Trace::Write(const std::string& path, const RunHeader& header,
                  const std::vector<Metric>& layers,
                  std::size_t max_spans) const {
  std::ofstream out(path);
  out << "{\"header\": {" << HeaderJsonMembers(header) << "},\n"
      << " \"layers\": " << MetricsJson(layers) << ",\n"
      << " \"spans_total\": " << spans_.size() << ",\n"
      << " \"spans\": [";
  const std::size_t kept = std::min(max_spans, spans_.size());
  for (std::size_t i = 0; i < kept; ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n  " : ",\n  ") << "{\"id\": " << i
        << ", \"request\": " << s.request << ", \"name\": \"" << s.name
        << "\", \"start_us\": " << JsonNumber(s.start_us)
        << ", \"end_us\": " << JsonNumber(s.end_us)
        << ", \"parent\": " << s.parent
        << ", \"alt\": " << (s.alt ? "true" : "false")
        << ", \"evals\": " << s.evals
        << ", \"virtual_evals\": " << s.virtual_evals
        << ", \"items\": " << s.items
        << ", \"useful\": " << (s.useful ? "true" : "false") << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace bench
}  // namespace drli
