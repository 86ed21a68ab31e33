// drli_bench: the repository benchmark. One command runs a workload
// through the public API and prints every metric by name with its unit;
// wrong answers make it exit non-zero. See bench/e2e/README.md.
//
//   drli_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//              [--work-dir DIR] [--trace-out FILE]
//   drli_bench --smoke --benchmark-json FILE [--work-dir DIR]
//
// Without --workload every workload runs in turn. Each run prints a
// header record (commit, kernel, hardware threads, seed, workload
// parameters, and every measurement beyond the declared metrics), then
// as its last line {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "report.h"
#include "workloads.h"

namespace {

using namespace drli::bench;

struct Args {
  std::string workload;  // empty = all
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = ".drli_bench_work";
  std::string trace_out = "bench-trace.json";
  std::string benchmark_json;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const std::size_t eq = flag.find('=');
    const bool has_value = eq != std::string::npos;
    if (has_value) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    }
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        *error = "missing value for " + flag;
        return false;
      }
      value = argv[++i];
    }
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (!(args->seconds > 0.0) || !std::isfinite(args->seconds)) {
        *error = "--seconds must be a positive number";
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--benchmark-json") {
      args->benchmark_json = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *error = "bad number for " + flag + ": " + value;
      return false;
    }
  }
  if (!args->workload.empty() && FindWorkload(args->workload) == nullptr) {
    *error = "unknown workload " + args->workload;
    return false;
  }
  return true;
}

void PrintHuman(const RunOutcome& out) {
  std::fprintf(stderr, "== %s seed=%llu trace=%d: correct=%d attempted=%llu "
                       "failed=%llu\n",
               out.header.workload.c_str(),
               static_cast<unsigned long long>(out.header.seed),
               out.header.trace ? 1 : 0, out.correct ? 1 : 0,
               static_cast<unsigned long long>(out.attempted),
               static_cast<unsigned long long>(out.failed));
  for (const auto* list : {&out.metrics, &out.details}) {
    for (const Metric& m : *list) {
      std::fprintf(stderr, "  %-40s %14.4f %s%s\n", m.name.c_str(), m.value,
                   m.unit.c_str(), list == &out.metrics ? "  *" : "");
    }
  }
}

// The record line before the result, then the result as the last line.
void PrintResult(const RunOutcome& out) {
  std::printf("{\"record\": \"run\", %s, \"details\": %s}\n",
              HeaderJsonMembers(out.header).c_str(),
              MetricsJson(out.details).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              MetricsJson(out.metrics).c_str());
  std::fflush(stdout);
}

// Trace file of one workload: --trace-out as given for a single
// workload, with the workload's name inserted before the extension when
// several run.
std::string TracePath(const Args& args, const std::string& workload) {
  if (!args.workload.empty()) return args.trace_out;
  const std::filesystem::path path(args.trace_out);
  return (path.parent_path() /
          (path.stem().string() + "-" + workload + path.extension().string()))
      .string();
}

// (name, unit) pairs of one metric list in BENCHMARK.json.
MetricNames DeclaredMetrics(const std::string& json, const std::string& key) {
  MetricNames names;
  const std::size_t at = json.find("\"" + key + "\"");
  if (at == std::string::npos) return names;
  const std::size_t open = json.find('[', at);
  const std::size_t close = json.find(']', open);
  if (open == std::string::npos || close == std::string::npos) return names;
  const std::string list = json.substr(open, close - open);
  static const std::regex object("\\{[^}]*\\}");
  static const std::regex name("\"name\"\\s*:\\s*\"([^\"]*)\"");
  static const std::regex unit("\"unit\"\\s*:\\s*\"([^\"]*)\"");
  for (auto it = std::sregex_iterator(list.begin(), list.end(), object);
       it != std::sregex_iterator(); ++it) {
    const std::string text = it->str();
    std::smatch n, u;
    if (std::regex_search(text, n, name) && std::regex_search(text, u, unit)) {
      names.emplace_back(n[1].str(), u[1].str());
    }
  }
  return names;
}

bool SameSet(MetricNames a, MetricNames b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

int RunSmoke(const Args& args) {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "smoke: FAILED: %s\n", what.c_str());
      ++failures;
    }
  };

  // The percentile helper and its sample-count rule.
  std::vector<double> s(1000);
  std::iota(s.begin(), s.end(), 1.0);
  PercentileValue p = Percentile(s, 0.99);
  expect(p.present && p.value == 990.0 && p.beyond == 10,
         "p99 of 1..1000 is 990 with 10 beyond");
  s.pop_back();
  p = Percentile(s, 0.99);
  expect(!p.present && p.value == 990.0 && p.beyond == 9,
         "p99 of 1..999 is missing (9 beyond)");
  p = Percentile({5.0, 1.0, 3.0}, 1.0);
  expect(!p.present && p.value == 5.0 && p.beyond == 0,
         "p100 is the maximum and never present");
  std::vector<double> twenty(20);
  std::iota(twenty.begin(), twenty.end(), 1.0);
  p = Percentile(twenty, 0.5);
  expect(p.present && p.value == 10.0 && p.beyond == 10,
         "p50 of 1..20 is 10 with 10 beyond");
  twenty.pop_back();
  expect(!Percentile(twenty, 0.5).present, "p50 of 1..19 is missing");
  expect(!Percentile({}, 0.5).present && Percentile({}, 0.5).samples == 0,
         "an empty sample has no percentile");
  expect(Median({3.0, 1.0, 2.0, 10.0}) == 2.5, "median of an even count");

  // The metrics this binary emits are the ones BENCHMARK.json declares.
  std::ifstream file(args.benchmark_json);
  std::stringstream text;
  text << file.rdbuf();
  expect(static_cast<bool>(file), "cannot read " + args.benchmark_json);
  expect(SameSet(DeclaredMetrics(text.str(), "end_to_end"),
                 EndToEndMetricNames()),
         "end_to_end metrics match BENCHMARK.json");
  expect(SameSet(DeclaredMetrics(text.str(), "per_layer"),
                 PerLayerMetricNames()),
         "per_layer metrics match BENCHMARK.json");

  // Every workload, small, end to end and traced.
  for (const WorkloadSpec& spec : Workloads()) {
    for (const bool trace : {false, true}) {
      RunConfig config;
      config.seed = 1;
      config.seconds = trace ? 1.0 : 2.0;
      config.trace = trace;
      config.n_override = 2000;
      config.setups = 1;
      config.work_dir = args.work_dir;
      config.trace_out = args.work_dir + "/bench-trace-" + spec.name + ".json";
      std::error_code ignored;
      std::filesystem::remove(config.trace_out, ignored);
      const RunOutcome out = RunWorkload(spec, config);
      PrintHuman(out);
      const std::string what =
          spec.name + (trace ? " traced" : " end to end");
      expect(out.completed, what + " completes: " + out.error);
      expect(out.correct && out.failed == 0 && out.attempted > 0,
             what + " answers every request correctly");
      if (trace) {
        std::error_code ec;
        expect(std::filesystem::file_size(config.trace_out, ec) > 0 && !ec,
               what + " writes its trace file");
      }
    }
  }
  std::fprintf(stderr, "smoke: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "drli_bench: %s\n", error.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "drli_bench: cannot create %s: %s\n",
                 args.work_dir.c_str(), ec.message().c_str());
    return 2;
  }
  if (args.smoke) return RunSmoke(args);

  int status = 0;
  for (const WorkloadSpec& spec : Workloads()) {
    if (!args.workload.empty() && spec.name != args.workload) continue;
    RunConfig config;
    config.seed = args.seed;
    config.seconds = args.seconds;
    config.trace = args.trace;
    config.work_dir = args.work_dir;
    config.trace_out = TracePath(args, spec.name);
    const RunOutcome out = RunWorkload(spec, config);
    PrintHuman(out);
    if (!out.completed) {
      std::fprintf(stderr, "drli_bench: %s: %s\n", spec.name.c_str(),
                   out.error.c_str());
      status = 1;
      continue;
    }
    PrintResult(out);
    if (!out.correct) status = 1;
  }
  return status;
}
