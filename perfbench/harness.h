// Measurement helpers of the end-to-end benchmark: percentiles, the Zipf
// request sampler, the open-loop arrival schedule, peak-RSS probing, the
// run-shape stamp and the one-line JSON result. Everything here is plain
// arithmetic over recorded samples, so perfbench/selftest.cc can check it
// without sockets or a corpus.

#ifndef XKS_PERFBENCH_HARNESS_H_
#define XKS_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/random.h"

namespace xks::perfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds between two steady-clock points (fractional).
inline double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Nearest-rank percentile of `samples` (p in [0, 100]); 0 when empty.
/// Sorts a copy, so callers keep their recording order.
double Percentile(std::vector<double> samples, double p);

/// How many samples lie strictly above the nearest-rank `p` percentile of
/// `n` samples. A percentile is only reported when this is at least
/// kMinTailSamples (choosing the highest percentile with ten samples beyond
/// it).
size_t SamplesBeyond(size_t n, double p);
inline constexpr size_t kMinTailSamples = 10;

double Mean(const std::vector<double>& samples);
double Median(std::vector<double> samples);

/// Samples ranks 0..n-1 with P(k) proportional to 1 / (k + 1)^exponent.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double exponent);
  size_t Sample(Rng& rng) const;
  /// Probability of rank k (for the self-checks).
  double Probability(size_t k) const;
  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Poisson arrival offsets (seconds from the phase start) at `rate` per
/// second, covering [0, duration_s). Seeded, so one seed gives one schedule.
std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                    double duration_s);

/// One open-loop slice: arrival offsets from the slice start, and the pool
/// op each arrival sends.
struct ScheduleSlice {
  std::vector<double> due_s;
  std::vector<size_t> ops;
};

/// Cuts a schedule covering `slices` × `slice_s` seconds into consecutive
/// slices of `slice_s` seconds, each re-based to start at 0. Every arrival
/// lands in exactly one slice, in order.
std::vector<ScheduleSlice> SplitSchedule(const std::vector<double>& due_s,
                                         const std::vector<size_t>& ops,
                                         size_t slices, double slice_s);

/// Peak resident set size of this process so far, MiB.
double PeakRssMb();

/// The shape of a run: two results compare only when these agree.
struct RunStamp {
  unsigned nproc = 0;
  std::string build_type;
  std::string compiler;
  std::string sanitizers;
  std::string commit;
  uint64_t seed = 0;
  std::string stream_digest;
};

/// The stamp of this binary (nproc, build type, compiler, sanitizers).
RunStamp BinaryStamp();

/// Empty when the binary may report: an optimized, NDEBUG, unsanitized
/// build. Otherwise the reason it refuses.
std::string RefusalReason(const RunStamp& stamp);

std::string StampJson(const RunStamp& stamp);

/// One reported metric.
struct Metric {
  double value = 0;
  std::string unit;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::map<std::string, Metric>& metrics);

/// Hex rendering of a 64-bit digest.
std::string Hex64(uint64_t value);

}  // namespace xks::perfbench

#endif  // XKS_PERFBENCH_HARNESS_H_
