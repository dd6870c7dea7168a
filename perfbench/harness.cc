#include "perfbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <thread>

namespace xks::perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  if (rank < 1) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return n - rank;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double Median(std::vector<double> samples) { return Percentile(std::move(samples), 50); }

ZipfSampler::ZipfSampler(size_t n, double exponent) : cdf_(n) {
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1
                          : static_cast<size_t>(it - cdf_.begin());
}

double ZipfSampler::Probability(size_t k) const {
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                    double duration_s) {
  Rng rng(seed);
  std::vector<double> due;
  double t = 0;
  for (;;) {
    // Inverse-CDF exponential gap; 1 - u keeps the log argument in (0, 1].
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= duration_s) break;
    due.push_back(t);
  }
  return due;
}

std::vector<ScheduleSlice> SplitSchedule(const std::vector<double>& due_s,
                                         const std::vector<size_t>& ops,
                                         size_t slices, double slice_s) {
  std::vector<ScheduleSlice> out(slices);
  for (size_t i = 0; i < due_s.size() && i < ops.size(); ++i) {
    const size_t k = std::min(slices - 1, static_cast<size_t>(due_s[i] / slice_s));
    out[k].due_s.push_back(due_s[i] - static_cast<double>(k) * slice_s);
    out[k].ops.push_back(ops[i]);
  }
  return out;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

RunStamp BinaryStamp() {
  RunStamp stamp;
  stamp.nproc = std::thread::hardware_concurrency();
  stamp.build_type = XKS_PERFBENCH_BUILD_TYPE;
  stamp.compiler = XKS_PERFBENCH_COMPILER;
  std::string sanitizers;
#if defined(__SANITIZE_ADDRESS__)
  sanitizers += "address,";
#endif
#if defined(__SANITIZE_THREAD__)
  sanitizers += "thread,";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
  sanitizers += "address,";
#endif
#if __has_feature(thread_sanitizer)
  sanitizers += "thread,";
#endif
#endif
  // CMake-level flags catch the sanitizers that define no macro (UBSan).
  const std::string flags = XKS_PERFBENCH_CXX_FLAGS;
  if (flags.find("-fsanitize") != std::string::npos) sanitizers += "flags,";
  if (!sanitizers.empty()) sanitizers.pop_back();
  stamp.sanitizers = sanitizers.empty() ? "none" : sanitizers;
  return stamp;
}

std::string RefusalReason(const RunStamp& stamp) {
  if (stamp.build_type != "Release") {
    return "build type is '" + stamp.build_type + "', not Release";
  }
#if !defined(NDEBUG)
  return "NDEBUG is not defined (assertions are live)";
#endif
  if (stamp.sanitizers != "none") {
    return "sanitized build (" + stamp.sanitizers + ")";
  }
  return "";
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::string StampJson(const RunStamp& stamp) {
  return "{\"nproc\": " + std::to_string(stamp.nproc) +
         ", \"build_type\": " + JsonString(stamp.build_type) +
         ", \"compiler\": " + JsonString(stamp.compiler) +
         ", \"sanitizers\": " + JsonString(stamp.sanitizers) +
         ", \"commit\": " + JsonString(stamp.commit) +
         ", \"seed\": " + std::to_string(stamp.seed) +
         ", \"stream_digest\": " + JsonString(stamp.stream_digest) + "}";
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::map<std::string, Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
           ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  return out + "}}";
}

std::string Hex64(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace xks::perfbench
