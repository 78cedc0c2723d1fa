// Host-speed normalization for the end-to-end times.
//
// The benchmark runs on shared virtual machines whose speed drifts by up to
// 2x over tens of seconds as neighbours load the host; a raw 30 s run then
// lands in a fast or a slow spell and the run-to-run spread swamps any
// change in the code. To take the host out of the figures, the measuring
// thread runs a fixed calibration kernel (compiled from this directory, so
// no change to src/ can move it) about ten times a second between requests.
// The kernel interns short sorted vectors into an open-addressed table and
// sorts and counts a small array through std::unordered_map, the same kind
// of work the engine does. Every time the benchmark reports is scaled by
// kReferenceMs / (kernel time in the same 1 s window), i.e. to a host on
// which the kernel takes kReferenceMs; rates are scaled by the inverse.
// The raw figures are printed beside them, and the traced run reports the
// median kernel time as host.calibration_ms.
#pragma once

#include <cstdint>
#include <vector>

namespace rsbbench {

class HostSpeed {
 public:
  /// Kernel time on the reference host.
  static constexpr double kReferenceMs = 1.0;

  /// `threads` kernels run at once per sample and the slowest one counts,
  /// for workloads whose work is spread over that many threads.
  explicit HostSpeed(std::int64_t start_ns, int threads = 1)
      : start_(start_ns), threads_(threads) {}

  /// Runs the kernel once if the last sample is older than the sampling
  /// interval; returns the time spent, so callers can keep it out of their
  /// own measurements.
  std::int64_t maybe_sample(std::int64_t now_ns);

  /// Runs the kernel `count` times now and returns the median time in ms.
  static double measure_ms(int count);

  /// Scale factor for a time measured at `at_ns`: kReferenceMs over the
  /// median kernel time of its window (the nearest sampled window when its
  /// own has no sample). 1 when nothing was sampled.
  double time_factor(std::int64_t at_ns) const;

  /// Median kernel time over every sample, in ms.
  double median_ms() const;

 private:
  static constexpr std::int64_t kIntervalNs = 100'000'000;
  static constexpr std::int64_t kWindowNs = 1'000'000'000;

  std::int64_t start_;
  int threads_;
  std::int64_t next_ = 0;
  std::vector<std::vector<double>> windows_;  // kernel ms per 1 s window
  mutable std::vector<double> factors_;       // cached per-window factors
};

/// One run of the calibration kernel, in ms.
double calibration_kernel_ms();

}  // namespace rsbbench
