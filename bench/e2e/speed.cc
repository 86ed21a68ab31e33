#include "speed.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include <pthread.h>
#include <sched.h>

#include "report.h"

namespace drli {
namespace bench {

namespace {

constexpr std::size_t kTuples = 100000;
constexpr std::size_t kDim = 4;
constexpr int kQueries = 8;
constexpr std::size_t kTop = 10;

}  // namespace

SpeedReference::SpeedReference()
    : tuples_(kTuples * kDim), scores_(kTuples) {
  std::uint64_t state = 0x243F6A8885A308D3ull;
  for (double& x : tuples_) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    x = static_cast<double>(state >> 11) * 0x1.0p-53;
  }
}

double SpeedReference::Kernel() {
  const Clock::time_point start = Clock::now();
  double sum = 0.0;
  for (int q = 0; q < kQueries; ++q) {
    const double w[kDim] = {0.1 + 0.01 * q, 0.3, 0.2, 0.4 - 0.01 * q};
    for (std::size_t i = 0; i < kTuples; ++i) {
      const double* t = &tuples_[i * kDim];
      scores_[i] = t[0] * w[0] + t[1] * w[1] + t[2] * w[2] + t[3] * w[3];
    }
    std::nth_element(scores_.begin(), scores_.begin() + kTop, scores_.end());
    sum += scores_[kTop];
  }
  const double ms = Micros(start, Clock::now()) / 1000.0;
  // Keeps the result live so the work is not optimised away.
  if (sum < 0.0) std::fputs("", stderr);
  return ms;
}

double SpeedReference::Measure() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (pthread_getaffinity_np(pthread_self(), sizeof(allowed), &allowed) != 0) {
    return Kernel();
  }
  double total = 0.0;
  int cpus = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    ++cpus;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    total += Kernel();
  }
  pthread_setaffinity_np(pthread_self(), sizeof(allowed), &allowed);
  return cpus > 0 ? total / cpus : Kernel();
}

double AtNominalSpeed(double measured,
                      const std::vector<double>& reference_ms) {
  const double reference = Median(reference_ms);
  return reference > 0.0 ? measured * SpeedReference::kNominalMs / reference
                         : measured;
}

}  // namespace bench
}  // namespace drli
