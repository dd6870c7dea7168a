// Load drivers of the end-to-end benchmark: closed-loop connections, the
// open-loop generator, and the ReplaceDocumentXml writer. Every reply is
// checked against an Expectation before the next request of its connection
// goes out; the check itself is outside the timed interval.

#ifndef XKS_PERFBENCH_DRIVER_H_
#define XKS_PERFBENCH_DRIVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/corpus.h"
#include "perfbench/harness.h"
#include "src/api/database.h"
#include "src/server/client.h"

namespace xks::perfbench {

/// What a correct reply looks like.
struct Expectation {
  enum class Mode {
    /// Byte-identical to the library's own answer (single node).
    kExact,
    /// Identical on every field but the cursor token, whose emptiness must
    /// still agree (coordinator vs. the single-node union corpus). With
    /// include_stats on, the keyword-node and pruning counts are left out
    /// too: the coordinator sums them over each shard's scanned prefix,
    /// which on an early-terminated unranked page covers more documents
    /// than the single-node scan.
    kExceptCursorToken,
    /// The corpus mutates underneath: epochs never decrease per connection
    /// and every hit names a live document.
    kLiveness,
  };
  Mode mode = Mode::kExact;
  /// kExact / kExceptCursorToken: per op, per page, the expected comparison
  /// string (see ComparisonForm).
  std::vector<std::vector<std::string>> pages;
  /// kLiveness: live document names by id.
  std::vector<std::string> names;
};

/// The string a reply is compared by. Untraced kExact compares the raw wire
/// bytes; otherwise the decoded response is re-encoded without its trace
/// and stage timings (both vary run to run), and kExceptCursorToken also
/// reduces the cursor token to its emptiness.
std::string ComparisonForm(SearchResponse response, Expectation::Mode mode);

/// One traced page request, as the client saw it.
struct TracedSample {
  double rtt_us = 0;
  /// The benchmark's own EncodeSearchRequest / DecodeSearchResponse calls on
  /// the same request and reply bytes.
  double encode_us = 0;
  double decode_us = 0;
  std::shared_ptr<const TraceSpan> root;
  size_t documents_searched = 0;
  size_t documents_from_cache = 0;
  size_t total_hits = 0;
  size_t hits = 0;
  StageTimings timings;
  size_t keyword_nodes = 0;
  PruningStats pruning;
};

struct PhaseResult {
  double seconds = 0;
  /// Client-observed latency per page request (closed loop: Send until the
  /// reply is decoded; open loop: due time until the reply is decoded).
  std::vector<double> latency_us;
  /// Open loop only: send time minus due time, per request.
  std::vector<double> lag_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  std::string first_error;
  std::vector<TracedSample> traced;
  /// RunSequence only: raw reply size per page request, less the cursor
  /// token.
  std::vector<double> reply_bytes;

  /// Adds the samples and counts of `other`, which ran at the same time
  /// (`seconds` is the longer of the two).
  void Merge(PhaseResult&& other);
};

/// Closed loop: one connection and thread per stream, one request in flight
/// per connection, each walking its stream cyclically from position
/// `offset` for `seconds`.
PhaseResult RunClosedLoop(uint16_t port, const std::vector<Op>& pool,
                          const std::vector<std::vector<size_t>>& streams,
                          size_t offset, const Expectation& expect,
                          bool traced, double seconds);

/// One connection running each op of `ops` once, in order, all pages.
/// `expect` null skips the check (cache warm-up passes).
PhaseResult RunSequence(uint16_t port, const std::vector<Op>& pool,
                        const std::vector<size_t>& ops,
                        const Expectation* expect, bool traced);

/// Open loop: the first page of `schedule.ops[i]` sent at start +
/// `schedule.due_s[i]` seconds over `connections` pipelined connections,
/// whatever the replies are doing. One sender thread plus one receiver
/// thread per connection.
PhaseResult RunOpenLoop(uint16_t port, const std::vector<Op>& pool,
                        const ScheduleSlice& schedule,
                        const Expectation& expect, bool traced,
                        size_t connections);

struct WriteResult {
  /// Time the writer ran.
  double seconds = 0;
  std::vector<double> latency_us;
  /// The write index to continue from (see RunWriter).
  size_t next = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
  /// Cache counters summed over every snapshot the writer retired (read via
  /// Database::cache_stats() just before each publish, and once at the end).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;

  /// Adds a later run of the writer: times and counts add up.
  void Append(WriteResult&& later);
};

/// Closed-loop ReplaceDocumentXml: write i replaces document i mod n with
/// its variant text (i / n) mod v, for i = `first`, `first` + 1, ..., until
/// `stop` is set or `seconds` pass.
WriteResult RunWriter(Database* db, const Corpus& corpus, size_t first,
                      const std::atomic<bool>& stop, double seconds);

}  // namespace xks::perfbench

#endif  // XKS_PERFBENCH_DRIVER_H_
