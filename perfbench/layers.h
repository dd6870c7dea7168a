// Per-layer breakdown of a traced run: turns the span trees and
// StageTimings returned through include_trace / include_stats, plus the
// benchmark's own timed calls into each layer, into the per-layer metrics
// of perfbench/METRICS.md. Metrics of a layer that is not on a workload's
// path read 0.

#ifndef XKS_PERFBENCH_LAYERS_H_
#define XKS_PERFBENCH_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "perfbench/driver.h"
#include "perfbench/harness.h"
#include "src/server/backend.h"

namespace xks::perfbench {

/// Inputs the traced run gathers besides the traced samples.
struct LayerInputs {
  /// Closed-loop phase with tracing on, and its untraced twin.
  const PhaseResult* traced = nullptr;
  const PhaseResult* untraced = nullptr;
  /// Open-loop phase (for the generator lag).
  const PhaseResult* open = nullptr;
  /// Sequential passes over the deterministic count set: the traced one
  /// (stats and span shapes), and the reply sizes of the untraced one.
  const PhaseResult* count_traced = nullptr;
  std::vector<double> count_response_bytes;
  /// ServiceStats deltas over the traced closed phase, summed over the
  /// xksd services (the shards, behind a coordinator).
  ServiceStats service;
  /// Cache counter deltas over the traced closed phase; `cache_on` false
  /// when the served corpus has no cache.
  bool cache_on = false;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  /// The write path, timed call by call (ms per document).
  std::vector<double> parse_ms;
  std::vector<double> shred_ms;
  std::vector<double> replace_ms;
  /// Database::EncodeTo / DecodeFrom of the served corpus image.
  std::vector<double> encode_ms;
  std::vector<double> decode_ms;
  double image_bytes = 0;
  double xml_bytes = 0;
};

/// Every per-layer metric, keyed by name.
std::map<std::string, Metric> LayerMetrics(const LayerInputs& in);

/// One line stating how the client-observed time splits: mean RTT against
/// wait + root stages + unattributed (an identity of means), and the same
/// for p50.
std::string AccountingLine(const PhaseResult& traced);

}  // namespace xks::perfbench

#endif  // XKS_PERFBENCH_LAYERS_H_
