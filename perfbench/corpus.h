// Seeded inputs of the end-to-end benchmark: the mixed-depth corpus (flat
// DBLP-like and deep XMark-like documents as XML text), the per-document
// variant texts writers cycle through, the request pools of each workload
// and the per-connection request streams drawn from them. Everything is a
// pure function of the seed; StreamDigest folds it into one number, so two
// runs can prove they drove the same traffic.

#ifndef XKS_PERFBENCH_CORPUS_H_
#define XKS_PERFBENCH_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/api/search_types.h"

namespace xks::perfbench {

struct SourceDocument {
  std::string name;
  std::string xml;
  /// Alternative texts of the same kind and size, for ReplaceDocumentXml.
  std::vector<std::string> variants;
};

struct Corpus {
  std::vector<SourceDocument> documents;
  /// Sum of the documents' XML sizes (not the variants').
  uint64_t xml_bytes = 0;
};

/// Interleaved DBLP-like and XMark-like documents ("dblp-0", "xmark-0",
/// "dblp-1", ...) so any contiguous split mixes both shapes.
Corpus MakeCorpus(uint64_t seed);

/// One client operation: a first-page request plus how many pages the
/// client walks through next_cursor (1 = first page only).
struct Op {
  SearchRequest request;
  size_t pages = 1;
};

enum class PoolKind {
  /// Distinct requests (every one has its own ranking weights).
  kDistinct,
  /// A small pool over shared keyword sets, varying weights and pages; its
  /// order is the popularity order kZipf streams draw by.
  kHot,
  /// Distinct requests, a fifth of which walk pages 2-5.
  kWalks,
};

std::vector<Op> MakePool(PoolKind kind, uint64_t seed);

/// How a connection picks the next op from a pool.
enum class PickKind { kRoundRobin, kZipf, kUniform };

/// Exponent of the Zipf skew used for kZipf streams (rank k drawn with
/// probability proportional to 1 / (k + 1)^s).
inline constexpr double kZipfExponent = 0.9;

/// The deterministic op-index sequence of connection `connection` (of
/// `connections`), long enough for any run; callers read it cyclically.
std::vector<size_t> MakeStream(PickKind pick, size_t pool_size,
                               size_t connections, size_t connection,
                               uint64_t seed, size_t length);

/// FNV-1a over the encoded pool, the streams and the open-loop schedule.
uint64_t StreamDigest(const std::vector<Op>& pool,
                      const std::vector<std::vector<size_t>>& streams,
                      const std::vector<double>& schedule,
                      const std::vector<size_t>& schedule_ops);

}  // namespace xks::perfbench

#endif  // XKS_PERFBENCH_CORPUS_H_
