// The host's speed, measured beside the workload. On a shared VM the
// speed of every CPU-bound number drifts by 20-40% over seconds to
// minutes, as other tenants load the cores, the shared cache and the
// memory bus, and a whole run can land in a slow period. A run times a
// fixed reference kernel between its measured phases and scales its
// gated times to the speed that kernel had when the benchmark was
// defined. The kernel is the benchmark's own code and data, so no
// change to the library moves it.

#ifndef DRLI_BENCH_E2E_SPEED_H_
#define DRLI_BENCH_E2E_SPEED_H_

#include <vector>

namespace drli {
namespace bench {

class SpeedReference {
 public:
  // Milliseconds one Measure() took on the 4-core VM of README.md in a
  // quiet period: the nominal host speed.
  static constexpr double kNominalMs = 6.0;

  // Generates the kernel's fixed input: the same in every run.
  SpeedReference();

  // Runs the kernel once on each CPU this process may use, in turn, and
  // returns the mean milliseconds per CPU. The kernel scores a 100k x 4
  // relation with eight weight vectors and selects each top 10: the
  // work of a top-k scan, on the cores the workload's threads share.
  double Measure();

 private:
  double Kernel();

  std::vector<double> tuples_;
  std::vector<double> scores_;
};

// `measured` (a time) scaled to the nominal host speed, given reference
// times taken beside it: measured * kNominalMs / median(reference_ms).
double AtNominalSpeed(double measured, const std::vector<double>& reference_ms);

}  // namespace bench
}  // namespace drli

#endif  // DRLI_BENCH_E2E_SPEED_H_
