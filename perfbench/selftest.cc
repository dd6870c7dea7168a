// Unit checks of the benchmark's own logic: percentiles and their tail
// counts, the Zipf sampler, the open-loop schedule and its slices, and the
// seeded request streams. Exits non-zero on the first failed check; perfbench/run.py runs
// it before every measurement.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "perfbench/corpus.h"
#include "perfbench/harness.h"

namespace xks::perfbench {
namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

void CheckPercentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  Check(Percentile(v, 50) == 50, "p50 of 1..100 is 50 (nearest rank)");
  Check(Percentile(v, 99) == 99, "p99 of 1..100 is 99");
  Check(Percentile(v, 100) == 100, "p100 is the maximum");
  Check(Percentile(v, 0) == 1, "p0 is the minimum");
  Check(Percentile({}, 50) == 0, "empty percentile is 0");
  Check(Percentile({7}, 99) == 7, "single sample");
  Check(Median({3, 1, 2}) == 2, "median of three");
  Check(SamplesBeyond(100, 99) == 1, "one sample beyond p99 of 100");
  Check(SamplesBeyond(1000, 99) == 10, "ten samples beyond p99 of 1000");
  Check(SamplesBeyond(999, 99) < kMinTailSamples, "999 samples are too few");
  Check(Mean({1, 2, 3, 6}) == 3, "mean");
}

void CheckZipf() {
  const ZipfSampler zipf(64, kZipfExponent);
  double total = 0;
  for (size_t k = 0; k < zipf.size(); ++k) total += zipf.Probability(k);
  Check(std::fabs(total - 1) < 1e-9, "zipf probabilities sum to 1");
  Check(std::fabs(zipf.Probability(0) / zipf.Probability(1) -
                  std::pow(2.0, kZipfExponent)) < 1e-9,
        "zipf rank 0 vs 1 ratio is 2^s");
  std::vector<size_t> counts(64, 0);
  Rng rng(42);
  const size_t draws = 200000;
  for (size_t i = 0; i < draws; ++i) ++counts[zipf.Sample(rng)];
  for (size_t k : {0, 1, 5, 63}) {
    const double expected = zipf.Probability(k) * draws;
    Check(std::fabs(counts[k] - expected) < 5 * std::sqrt(expected) + 5,
          "zipf empirical frequency within 5 sigma");
  }
  Check(counts[0] > counts[1] && counts[1] > counts[10],
        "zipf frequencies fall with rank");
}

void CheckSchedule() {
  const std::vector<double> a = PoissonSchedule(7, 200, 30);
  const std::vector<double> b = PoissonSchedule(7, 200, 30);
  const std::vector<double> c = PoissonSchedule(8, 200, 30);
  Check(a == b, "same seed, same schedule");
  Check(a != c, "different seed, different schedule");
  bool ascending = true;
  for (size_t i = 1; i < a.size(); ++i) ascending &= a[i] > a[i - 1];
  Check(ascending, "arrivals strictly ascending");
  Check(!a.empty() && a.back() < 30, "arrivals inside the phase");
  // 6000 expected arrivals; Poisson sd ~77.
  Check(std::fabs(static_cast<double>(a.size()) - 6000) < 400,
        "arrival count matches the rate");

  std::vector<size_t> ops(a.size());
  for (size_t i = 0; i < ops.size(); ++i) ops[i] = i;
  const std::vector<ScheduleSlice> slices = SplitSchedule(a, ops, 5, 6);
  Check(slices.size() == 5, "five slices");
  size_t next = 0;
  bool in_order = true, rebased = true;
  for (size_t k = 0; k < slices.size(); ++k) {
    const ScheduleSlice& slice = slices[k];
    in_order &= slice.due_s.size() == slice.ops.size();
    for (size_t i = 0; i < slice.ops.size(); ++i) {
      in_order &= slice.ops[i] == next++;
      rebased &= slice.due_s[i] >= 0 && slice.due_s[i] < 6 &&
                 std::fabs(slice.due_s[i] + 6.0 * k - a[slice.ops[i]]) < 1e-9;
    }
  }
  Check(in_order && next == a.size(), "every arrival in one slice, in order");
  Check(rebased, "slice arrivals re-based to the slice start");
}

void CheckStreams() {
  const std::vector<Op> pool = MakePool(PoolKind::kHot, 3);
  const std::vector<Op> same = MakePool(PoolKind::kHot, 3);
  const std::vector<Op> other = MakePool(PoolKind::kHot, 4);
  const auto digest = [](const std::vector<Op>& p, uint64_t seed) {
    std::vector<std::vector<size_t>> streams;
    for (size_t c = 0; c < 4; ++c) {
      streams.push_back(MakeStream(PickKind::kZipf, p.size(), 4, c, seed, 512));
    }
    const std::vector<double> schedule = PoissonSchedule(seed, 100, 2);
    const std::vector<size_t> ops =
        MakeStream(PickKind::kZipf, p.size(), 1, 0, seed, schedule.size());
    return StreamDigest(p, streams, schedule, ops);
  };
  Check(digest(pool, 3) == digest(same, 3), "same seed, same stream digest");
  Check(digest(pool, 3) != digest(other, 4), "other seed, other stream digest");
  const std::vector<size_t> rr = MakeStream(PickKind::kRoundRobin, 10, 4, 1, 0, 6);
  Check(rr == std::vector<size_t>({1, 5, 9, 3, 7, 1}),
        "round robin interleaves connections");
  const std::vector<Op> distinct = MakePool(PoolKind::kDistinct, 9);
  bool all_distinct = true;
  for (size_t i = 0; i < distinct.size() && all_distinct; ++i) {
    for (size_t j = i + 1; j < distinct.size(); ++j) {
      if (distinct[i].request.weights.specificity ==
              distinct[j].request.weights.specificity &&
          distinct[i].request.weights.proximity ==
              distinct[j].request.weights.proximity) {
        all_distinct = false;
        break;
      }
    }
  }
  Check(all_distinct, "distinct pool requests differ in weights");
  size_t walks = 0;
  for (const Op& op : MakePool(PoolKind::kWalks, 5)) walks += op.pages > 1;
  Check(walks > 16 && walks < 48, "about a fifth of the walk pool pages on");
}

}  // namespace
}  // namespace xks::perfbench

int main() {
  xks::perfbench::CheckPercentiles();
  xks::perfbench::CheckZipf();
  xks::perfbench::CheckSchedule();
  xks::perfbench::CheckStreams();
  if (xks::perfbench::failures != 0) return 1;
  std::fprintf(stderr, "selftest ok\n");
  return 0;
}
