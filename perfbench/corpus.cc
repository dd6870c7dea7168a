#include "perfbench/corpus.h"

#include <algorithm>
#include <numeric>

#include "perfbench/harness.h"
#include "src/common/fingerprint.h"
#include "src/common/random.h"
#include "src/datagen/dblp_gen.h"
#include "src/datagen/workloads.h"
#include "src/datagen/xmark_gen.h"
#include "src/server/wire.h"
#include "src/xml/writer.h"

namespace xks::perfbench {
namespace {

// Corpus shape. Sized so a cold ranked query over the whole corpus costs a
// few milliseconds on a 4-core machine, and set-up (XML ingest + Build) stays
// well under a second so it can be repeated within one run.
constexpr int kDocumentsPerKind = 4;
constexpr double kDblpScale = 0.0012;  // ~550 records per document
constexpr double kXmarkScale = 0.08;   // deep description/parlist trees
constexpr int kVariantsPerDocument = 2;

constexpr size_t kDistinctPoolSize = 240;  // six rounds of the 40 sets
constexpr size_t kHotPoolSize = 160;       // four rounds of the 40 sets
constexpr size_t kWalksPoolSize = 160;
constexpr double kRankedShare = 0.85;

std::string CompactXml(const Document& doc) {
  WriteOptions options;
  options.indent = "";
  return WriteXml(doc, options);
}

std::string DblpXml(uint64_t seed) {
  DblpOptions options;
  options.seed = seed;
  options.scale = kDblpScale;
  return CompactXml(GenerateDblp(options));
}

std::string XmarkXml(uint64_t seed) {
  XmarkOptions options;
  options.seed = seed;
  options.scale = kXmarkScale;
  return CompactXml(GenerateXmark(options));
}

/// The 40 keyword sets of the paper's two workloads, DBLP first.
std::vector<std::vector<std::string>> KeywordSets() {
  std::vector<std::vector<std::string>> sets;
  for (const WorkloadQuery& q : DblpWorkload()) sets.push_back(q.keywords);
  for (const WorkloadQuery& q : XmarkWorkload()) sets.push_back(q.keywords);
  return sets;
}

std::string JoinWords(const std::vector<std::string>& words) {
  std::string text;
  for (const std::string& word : words) {
    if (!text.empty()) text.push_back(' ');
    text += word;
  }
  return text;
}

/// Default weights, each scaled by a seeded factor in [0.5, 1.5).
RankingWeights PerturbedWeights(Rng& rng) {
  RankingWeights weights;
  weights.specificity *= 0.5 + rng.NextDouble();
  weights.proximity *= 0.5 + rng.NextDouble();
  weights.compactness *= 0.5 + rng.NextDouble();
  weights.slca_bonus *= 0.5 + rng.NextDouble();
  weights.match_concentration *= 0.5 + rng.NextDouble();
  return weights;
}

Op MakeOp(const std::vector<std::string>& keywords, Rng& rng) {
  Op op;
  op.request.query = JoinWords(keywords);
  op.request.top_k = 10;
  op.request.include_snippets = true;
  op.request.rank = rng.Bernoulli(kRankedShare);
  op.request.weights = PerturbedWeights(rng);
  return op;
}

}  // namespace

Corpus MakeCorpus(uint64_t seed) {
  Corpus corpus;
  for (int i = 0; i < kDocumentsPerKind; ++i) {
    for (int kind = 0; kind < 2; ++kind) {
      SourceDocument doc;
      const uint64_t base = seed * 1000 + static_cast<uint64_t>(i) * 10;
      doc.name = (kind == 0 ? "dblp-" : "xmark-") + std::to_string(i);
      doc.xml = kind == 0 ? DblpXml(base) : XmarkXml(base);
      for (int v = 1; v <= kVariantsPerDocument; ++v) {
        doc.variants.push_back(kind == 0 ? DblpXml(base + v)
                                         : XmarkXml(base + v));
      }
      corpus.xml_bytes += doc.xml.size();
      corpus.documents.push_back(std::move(doc));
    }
  }
  return corpus;
}

std::vector<Op> MakePool(PoolKind kind, uint64_t seed) {
  Rng rng(seed * 7919 + static_cast<uint64_t>(kind));
  const std::vector<std::vector<std::string>> sets = KeywordSets();
  std::vector<Op> pool;
  // Keyword sets in rounds: every round visits all 40 in a fresh seeded
  // order, so a pool's cost does not hinge on which sets the seed drew.
  std::vector<size_t> round;
  const auto next_set = [&]() -> const std::vector<std::string>& {
    if (round.empty()) {
      round.resize(sets.size());
      std::iota(round.begin(), round.end(), 0);
      for (size_t i = 0; i + 1 < round.size(); ++i) {
        std::swap(round[i], round[i + rng.Uniform(round.size() - i)]);
      }
    }
    const size_t set = round.back();
    round.pop_back();
    return sets[set];
  };
  switch (kind) {
    case PoolKind::kDistinct:
      for (size_t i = 0; i < kDistinctPoolSize; ++i) {
        pool.push_back(MakeOp(next_set(), rng));
      }
      break;
    case PoolKind::kHot:
      // Pool order is popularity order (see MakeStream), so consecutive
      // ranks cycle through every keyword set before any repeats.
      for (size_t i = 0; i < kHotPoolSize; ++i) {
        Op op = MakeOp(next_set(), rng);
        op.pages = 1 + rng.Uniform(3);
        pool.push_back(std::move(op));
      }
      break;
    case PoolKind::kWalks:
      for (size_t i = 0; i < kWalksPoolSize; ++i) {
        Op op = MakeOp(next_set(), rng);
        if (rng.Bernoulli(0.2)) op.pages = 2 + rng.Uniform(4);
        pool.push_back(std::move(op));
      }
      break;
  }
  return pool;
}

std::vector<size_t> MakeStream(PickKind pick, size_t pool_size,
                               size_t connections, size_t connection,
                               uint64_t seed, size_t length) {
  std::vector<size_t> stream;
  stream.reserve(length);
  Rng rng(seed * 104729 + connection);
  switch (pick) {
    case PickKind::kRoundRobin:
      for (size_t i = 0; i < length; ++i) {
        stream.push_back((connection + i * connections) % pool_size);
      }
      break;
    case PickKind::kZipf: {
      // Pool index = popularity rank, the same on every connection.
      const ZipfSampler zipf(pool_size, kZipfExponent);
      for (size_t i = 0; i < length; ++i) stream.push_back(zipf.Sample(rng));
      break;
    }
    case PickKind::kUniform:
      for (size_t i = 0; i < length; ++i) stream.push_back(rng.Uniform(pool_size));
      break;
  }
  return stream;
}

uint64_t StreamDigest(const std::vector<Op>& pool,
                      const std::vector<std::vector<size_t>>& streams,
                      const std::vector<double>& schedule,
                      const std::vector<size_t>& schedule_ops) {
  Fingerprint fp;
  for (const Op& op : pool) {
    fp.PutString(EncodeSearchRequest(op.request));
    fp.PutVarint64(op.pages);
  }
  for (const std::vector<size_t>& stream : streams) {
    for (size_t index : stream) fp.PutVarint64(index);
  }
  for (size_t i = 0; i < schedule.size(); ++i) {
    fp.PutVarint64(static_cast<uint64_t>(schedule[i] * 1e6));
    fp.PutVarint64(schedule_ops[i]);
  }
  return fp.Digest64();
}

}  // namespace xks::perfbench
