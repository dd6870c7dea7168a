// perfbench_e2e — the end-to-end loopback benchmark of xksd and xks_coord.
//
//   perfbench_e2e --workload scan_cold|cache_hot|coord_fanout|ingest_churn
//                 --seed N --seconds S --trace 0|1 [--commit ID]
//
// One process generates a seeded corpus and request streams, starts
// in-process XksServers on loopback with the daemons' default configs, and
// drives them through XksClient. Every reply is checked against the
// library's own answer. With --trace 0 the end-to-end metrics are measured
// (tracing off); with --trace 1 a separate traced run reports the per-layer
// breakdown. The last stdout line is the one-line JSON result. Exit codes:
// 0 ok, 1 a reply mismatched, 2 bad arguments or set-up failure, 3 the run
// is invalid (the open-loop generator fell behind, or no write
// completed), 4 the build is not an optimized, unsanitized Release
// build.
//
// Metric names, units and sources: perfbench/METRICS.md.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/corpus.h"
#include "perfbench/driver.h"
#include "perfbench/harness.h"
#include "perfbench/layers.h"
#include "src/api/database.h"
#include "src/coord/coord_service.h"
#include "src/coord/coordinator.h"
#include "src/coord/shard_map.h"
#include "src/server/server.h"
#include "src/storage/store.h"
#include "src/xml/parser.h"

namespace xks::perfbench {
namespace {

constexpr size_t kStreamLength = 1 << 14;
constexpr size_t kCountOpsPerStream = 32;
constexpr size_t kOpenConnections = 3;
constexpr size_t kStorageRepeats = 3;
// The open-loop generator fell behind when its median lateness exceeds
// this, about one mean inter-arrival gap at the highest rate. (Single late
// sends are no error: latency is timed from the due time, so a stall of the
// generator is charged to the requests it delays.)
constexpr double kMaxLagP50Ms = 8.0;

// Untraced run. The run is cut into kSlices equal slices, and each slice
// runs every phase in turn: kSetupsPerSlice timed set-ups, the write phase
// (kWriteShare of the slice), the closed loop (the rest) and the open loop
// (kOpenShare). Interference from outside the process (other tenants of
// the machine taking CPU time for seconds at a time) then spreads over all
// phases instead of falling on one of them.
constexpr size_t kSlices = 5;
constexpr size_t kSetupsPerSlice = 3;
constexpr double kOpenShare = 0.2;
constexpr double kWriteShare = 0.1;

// Traced run, shares of --seconds: untraced closed twin, traced closed,
// traced open.
constexpr double kTwinShare = 0.3;
constexpr double kTracedShare = 0.4;
constexpr double kTracedOpenShare = 0.3;

struct Spec {
  const char* name;
  PoolKind pool;
  PickKind pick;
  size_t connections;
  /// Open-loop arrival rate, requests per second: about a quarter of the
  /// closed-loop capacity or less (see METRICS.md).
  double open_rate;
  bool coordinator;
  bool cache;
  /// Restore the corpus from an XKS3 image instead of ingesting XML.
  bool from_image;
  /// One writer replaces documents back to back while the readers run
  /// (the write phase then runs no writer of its own, and the closed loop
  /// takes its time).
  bool writer_during_reads;
};

const Spec kSpecs[] = {
    {"scan_cold", PoolKind::kDistinct, PickKind::kRoundRobin, 4, 120, false,
     false, false, false},
    {"cache_hot", PoolKind::kHot, PickKind::kZipf, 4, 120, false, true, false,
     false},
    {"coord_fanout", PoolKind::kWalks, PickKind::kUniform, 4, 120, true, true,
     false, false},
    {"ingest_churn", PoolKind::kHot, PickKind::kZipf, 3, 40, false, true, true,
     true},
};

struct Args {
  const Spec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (const Spec& spec : kSpecs) {
        if (value == spec.name) args->spec = &spec;
      }
      if (args->spec == nullptr) return false;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return args->spec != nullptr && args->seconds > 0 && argc % 2 == 1;
}

/// Everything generated from the seed before any timing starts.
struct Inputs {
  Corpus corpus;
  /// The documents the writer replaces: all of them on one node, shard 0's
  /// behind the coordinator.
  Corpus writer_corpus;
  std::vector<Op> pool;
  std::vector<std::vector<size_t>> streams;
  /// The deterministic count set: each stream's first ops, interleaved.
  std::vector<size_t> count_ops;
  /// The open-loop arrivals, one slice per open-loop phase.
  std::vector<ScheduleSlice> open_slices;
  /// XKS3 image of the corpus (ingest_churn loads from it).
  std::string image;
  uint64_t digest = 0;
};

Result<std::unique_ptr<Database>> IngestXml(
    const std::vector<SourceDocument>& documents, bool cache) {
  auto db = std::make_unique<Database>();
  if (!cache) {
    CacheConfig config;
    config.enabled = false;
    db->set_cache_config(config);
  }
  for (const SourceDocument& doc : documents) {
    XKS_RETURN_IF_ERROR(db->AddDocumentXml(doc.name, doc.xml).status());
  }
  XKS_RETURN_IF_ERROR(db->Build());
  return db;
}

Result<Inputs> MakeInputs(const Spec& spec, const Args& args) {
  Inputs in;
  in.corpus = MakeCorpus(args.seed);
  if (spec.coordinator) {
    const size_t half = in.corpus.documents.size() / 2;
    in.writer_corpus.documents.assign(in.corpus.documents.begin(),
                                      in.corpus.documents.begin() + half);
    for (const SourceDocument& doc : in.writer_corpus.documents) {
      in.writer_corpus.xml_bytes += doc.xml.size();
    }
  } else {
    in.writer_corpus = in.corpus;
  }
  in.pool = MakePool(spec.pool, args.seed);
  if (spec.writer_during_reads) {
    // A cursor dies with the epoch it was minted at, so under a writer the
    // readers restart pagination: first pages only.
    for (Op& op : in.pool) op.pages = 1;
  }
  for (size_t c = 0; c < spec.connections; ++c) {
    in.streams.push_back(MakeStream(spec.pick, in.pool.size(), spec.connections,
                                    c, args.seed, kStreamLength));
  }
  for (size_t i = 0; i < kCountOpsPerStream; ++i) {
    for (const std::vector<size_t>& stream : in.streams) {
      in.count_ops.push_back(stream[i]);
    }
  }
  const size_t slices = args.trace ? 1 : kSlices;
  const double open_s =
      args.seconds * (args.trace ? kTracedOpenShare : kOpenShare);
  const std::vector<double> schedule = PoissonSchedule(
      args.seed * 2654435761u + 1, spec.open_rate, open_s);
  const std::vector<size_t> schedule_ops = MakeStream(
      spec.pick, in.pool.size(), 1, 0, args.seed + 0x5eed, schedule.size());
  in.digest = StreamDigest(in.pool, in.streams, schedule, schedule_ops);
  in.open_slices =
      SplitSchedule(schedule, schedule_ops, slices, open_s / slices);
  if (spec.from_image) {
    XKS_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                         IngestXml(in.corpus.documents, spec.cache));
    db->EncodeTo(&in.image);
  }
  return in;
}

/// The served system. Members are destroyed bottom-up: the front server
/// drains first, the corpora last.
struct Fleet {
  std::unique_ptr<Database> db;
  std::vector<std::unique_ptr<Database>> shard_dbs;
  std::vector<std::unique_ptr<XksServer>> shard_servers;
  std::unique_ptr<Coordinator> coordinator;
  std::unique_ptr<CoordBackend> backend;
  std::unique_ptr<XksServer> server;

  /// The corpora holding documents (one, or one per shard).
  std::vector<Database*> databases() const {
    if (db != nullptr) return {db.get()};
    std::vector<Database*> out;
    for (const auto& shard : shard_dbs) out.push_back(shard.get());
    return out;
  }
  /// The xksd servers (the front server, or the shards behind it).
  std::vector<XksServer*> node_servers() const {
    if (db != nullptr) return {server.get()};
    std::vector<XksServer*> out;
    for (const auto& shard : shard_servers) out.push_back(shard.get());
    return out;
  }
  Database* writer_target() const { return databases().front(); }
};

Result<std::unique_ptr<XksServer>> StartServer(const Database* db) {
  auto server = std::make_unique<XksServer>(db, ServerConfig{});
  XKS_RETURN_IF_ERROR(server->Start());
  return server;
}

/// From prepared inputs to the first servable query.
Result<std::unique_ptr<Fleet>> SetUp(const Spec& spec, const Inputs& in) {
  auto fleet = std::make_unique<Fleet>();
  if (!spec.coordinator) {
    if (spec.from_image) {
      XKS_ASSIGN_OR_RETURN(Database restored, Database::DecodeFrom(in.image));
      fleet->db = std::make_unique<Database>(std::move(restored));
    } else {
      XKS_ASSIGN_OR_RETURN(fleet->db, IngestXml(in.corpus.documents, spec.cache));
    }
    XKS_ASSIGN_OR_RETURN(fleet->server, StartServer(fleet->db.get()));
    return fleet;
  }
  const std::vector<SourceDocument>& docs = in.corpus.documents;
  const size_t half = docs.size() / 2;
  std::vector<ShardInfo> shards;
  for (size_t s = 0; s < 2; ++s) {
    const size_t first = s == 0 ? 0 : half;
    const size_t last = s == 0 ? half : docs.size();
    XKS_ASSIGN_OR_RETURN(
        std::unique_ptr<Database> db,
        IngestXml({docs.begin() + first, docs.begin() + last}, spec.cache));
    XKS_ASSIGN_OR_RETURN(std::unique_ptr<XksServer> server,
                         StartServer(db.get()));
    ShardInfo info;
    info.host = "127.0.0.1";
    info.port = server->port();
    info.first_id = static_cast<DocumentId>(first);
    info.last_id = static_cast<DocumentId>(last - 1);
    shards.push_back(info);
    fleet->shard_dbs.push_back(std::move(db));
    fleet->shard_servers.push_back(std::move(server));
  }
  Result<ShardMap> map = ShardMap::Of(std::move(shards));
  if (!map.ok()) return map.status();
  fleet->coordinator = std::make_unique<Coordinator>(std::move(map).value(),
                                                     CoordinatorConfig{});
  XKS_RETURN_IF_ERROR(fleet->coordinator->RefreshRoster(CancelToken()));
  fleet->backend = std::make_unique<CoordBackend>(fleet->coordinator.get(),
                                                  CoordBackendConfig{});
  fleet->server = std::make_unique<XksServer>(fleet->backend.get(),
                                              ServerConfig{});
  XKS_RETURN_IF_ERROR(fleet->server->Start());
  return fleet;
}

/// The library's own answers, page by page, for every op of the pool.
/// Cached corpora answer each op twice first, so the reference reflects the
/// warm cache the measured phases see.
Result<Expectation> BuildExpectation(const Spec& spec, const Inputs& in,
                                     const Database& reference, bool traced) {
  Expectation expect;
  if (spec.writer_during_reads) {
    expect.mode = Expectation::Mode::kLiveness;
    for (const SourceDocument& doc : in.corpus.documents) {
      expect.names.push_back(doc.name);
    }
    return expect;
  }
  expect.mode = spec.coordinator ? Expectation::Mode::kExceptCursorToken
                                 : Expectation::Mode::kExact;
  const std::shared_ptr<const Snapshot> snapshot = reference.snapshot();
  const int passes = spec.cache ? 2 : 1;
  for (int pass = 0; pass < passes; ++pass) {
    expect.pages.assign(in.pool.size(), {});
    for (size_t i = 0; i < in.pool.size(); ++i) {
      SearchRequest request = in.pool[i].request;
      request.include_stats = traced;
      for (size_t page = 0; page < in.pool[i].pages; ++page) {
        XKS_ASSIGN_OR_RETURN(SearchResponse response, snapshot->Search(request));
        request.cursor = response.next_cursor;
        expect.pages[i].push_back(
            (expect.mode == Expectation::Mode::kExact && !traced)
                ? EncodeSearchResponse(response)
                : ComparisonForm(std::move(response), expect.mode));
        if (request.cursor.empty()) break;
      }
    }
  }
  return expect;
}

/// Behind a coordinator: the single-node union corpus replies are checked
/// against, once one untimed pass of every op through the coordinator has
/// warmed the shards' caches (as BuildExpectation's passes warm the
/// reference's). Null for the other workloads.
Result<std::unique_ptr<Database>> UnionReference(const Spec& spec,
                                                 const Inputs& in,
                                                 uint16_t port) {
  if (!spec.coordinator) return std::unique_ptr<Database>();
  std::vector<size_t> all(in.pool.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  RunSequence(port, in.pool, all, nullptr, false);
  return IngestXml(in.corpus.documents, spec.cache);
}

/// Runs `body` with a ReplaceDocumentXml writer alongside, starting at
/// write `first` (see RunWriter), when `enabled`.
WriteResult WithWriter(bool enabled, Database* db, const Corpus& corpus,
                       size_t first, const std::function<void()>& body) {
  WriteResult writes;
  writes.next = first;
  std::atomic<bool> stop{false};
  std::thread writer;
  if (enabled) {
    writer = std::thread(
        [&] { writes = RunWriter(db, corpus, first, stop, 1e9); });
  }
  body();
  stop.store(true);
  if (writer.joinable()) writer.join();
  return writes;
}

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Prints a phase's p99 with its sample count, or "n/a" when fewer than ten
/// samples lie beyond it. Printed, not reported: see "p99_ms" in
/// perfbench/METRICS.md.
void PrintP99(const char* name, const PhaseResult& phase) {
  const size_t n = phase.latency_us.size();
  if (SamplesBeyond(n, 99) < kMinTailSamples) {
    std::printf("%s n/a: %zu samples, fewer than 10 beyond the p99\n", name, n);
    return;
  }
  std::printf("%s %.3f ms over %zu samples (%zu beyond it)\n", name,
              Percentile(phase.latency_us, 99) / 1000, n, SamplesBeyond(n, 99));
}

void Tally(const PhaseResult& phase, uint64_t* attempted, uint64_t* failed,
           uint64_t* mismatches, std::string* error) {
  *attempted += phase.attempted;
  *failed += phase.failed;
  *mismatches += phase.mismatches;
  if (error->empty()) *error = phase.first_error;
}

int Report(const std::string& invalid, bool correct, uint64_t attempted,
           uint64_t failed, const std::string& error,
           const std::map<std::string, Metric>& metrics) {
  if (!error.empty()) std::fprintf(stderr, "first failure: %s\n", error.c_str());
  if (!invalid.empty() && correct) {
    std::fprintf(stderr, "run invalid, not reported: %s\n", invalid.c_str());
    return 3;
  }
  for (const auto& [name, metric] : metrics) {
    std::printf("metric %-28s %.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("failed_frac %.6g (%llu of %llu)\n",
              attempted == 0 ? 0.0 : static_cast<double>(failed) / attempted,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// SetUp, timed into `setup_s`.
Result<std::unique_ptr<Fleet>> TimedSetUp(const Spec& spec, const Inputs& in,
                                          std::vector<double>* setup_s) {
  const Clock::time_point t0 = Clock::now();
  Result<std::unique_ptr<Fleet>> made = SetUp(spec, in);
  if (made.ok()) setup_s->push_back(MsSince(t0) / 1000);
  return made;
}

int RunMeasured(const Spec& spec, const Args& args, const Inputs& in) {
  std::vector<double> setup_s;
  Result<std::unique_ptr<Fleet>> made = TimedSetUp(spec, in, &setup_s);
  if (!made.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", made.status().ToString().c_str());
    return 2;
  }
  const std::unique_ptr<Fleet> fleet = std::move(made).value();
  const uint16_t port = fleet->server->port();
  Result<std::unique_ptr<Database>> union_db = UnionReference(spec, in, port);
  if (!union_db.ok()) return 2;
  const Database& reference =
      union_db.value() != nullptr ? *union_db.value() : *fleet->db;
  Result<Expectation> expect = BuildExpectation(spec, in, reference, false);
  if (!expect.ok()) {
    std::fprintf(stderr, "reference failed: %s\n",
                 expect.status().ToString().c_str());
    return 2;
  }

  const double slice_s = args.seconds / kSlices;
  const double write_s = spec.writer_during_reads ? 0 : slice_s * kWriteShare;
  const double closed_s = slice_s * (1 - kOpenShare) - write_s;
  PhaseResult closed, open;
  WriteResult writes;
  double closed_total_s = 0;
  std::vector<double> slice_qps;
  for (size_t k = 0; k < kSlices; ++k) {
    // Set-ups of fleets that serve no reads; the last one takes the writes
    // (the served corpus must stay as the reference saw it).
    std::unique_ptr<Fleet> spare;
    for (size_t i = 0; i < kSetupsPerSlice; ++i) {
      spare.reset();
      made = TimedSetUp(spec, in, &setup_s);
      if (!made.ok()) {
        std::fprintf(stderr, "set-up failed: %s\n",
                     made.status().ToString().c_str());
        return 2;
      }
      spare = std::move(made).value();
    }
    if (!spec.writer_during_reads) {
      const std::atomic<bool> never{false};
      writes.Append(RunWriter(spare->writer_target(), in.writer_corpus,
                              writes.next, never, write_s));
    }
    spare.reset();

    WriteResult churn = WithWriter(
        spec.writer_during_reads, fleet->writer_target(), in.writer_corpus,
        writes.next, [&] {
          PhaseResult c =
              RunClosedLoop(port, in.pool, in.streams,
                            k * kStreamLength / kSlices, expect.value(),
                            false, closed_s);
          closed_total_s += c.seconds;
          slice_qps.push_back(static_cast<double>(c.latency_us.size()) /
                              c.seconds);
          closed.Merge(std::move(c));
          open.Merge(RunOpenLoop(port, in.pool, in.open_slices[k],
                                 expect.value(), false, kOpenConnections));
        });
    if (spec.writer_during_reads) writes.Append(std::move(churn));
  }

  std::map<std::string, Metric> metrics;
  std::string invalid;
  metrics["setup_s"] = Metric{Median(setup_s), "s"};
  metrics["rss_mb"] = Metric{PeakRssMb(), "MiB"};
  metrics["qps"] = Metric{
      static_cast<double>(closed.latency_us.size()) / closed_total_s, "1/s"};
  metrics["p50_ms"] = Metric{Median(closed.latency_us) / 1000, "ms"};
  metrics["open_p50_ms"] = Metric{Median(open.latency_us) / 1000, "ms"};
  std::printf("set-up: %zu times, min %.4f max %.4f s\n", setup_s.size(),
              Percentile(setup_s, 0), Percentile(setup_s, 100));
  std::printf("closed loop qps by slice:");
  for (double qps : slice_qps) std::printf(" %.0f", qps);
  std::printf("\n");
  PrintP99("p99_ms", closed);
  PrintP99("open_p99_ms", open);
  const double lag_p50_ms = Percentile(open.lag_us, 50) / 1000;
  std::printf("open loop: rate %.0f/s, %zu arrivals, generator lag p50 %.3f "
              "p99 %.3f ms\n",
              spec.open_rate, open.lag_us.size(), lag_p50_ms,
              Percentile(open.lag_us, 99) / 1000);
  if (lag_p50_ms > kMaxLagP50Ms) {
    invalid = "open-loop generator fell behind (lag p50 " +
              std::to_string(lag_p50_ms) + " ms)";
  }
  if (writes.latency_us.empty() || writes.seconds <= 0) {
    invalid = "no write completed";
  } else {
    metrics["writes_per_s"] = Metric{
        static_cast<double>(writes.latency_us.size()) / writes.seconds, "1/s"};
  }
  std::printf("writes: %zu over %.2f s, latency p50 %.1f max %.1f ms\n",
              writes.latency_us.size(), writes.seconds,
              Percentile(writes.latency_us, 50) / 1000,
              Percentile(writes.latency_us, 100) / 1000);

  uint64_t attempted = writes.attempted, failed = writes.failed, mismatches = 0;
  std::string error = writes.first_error;
  Tally(closed, &attempted, &failed, &mismatches, &error);
  Tally(open, &attempted, &failed, &mismatches, &error);
  return Report(invalid, mismatches == 0, attempted, failed, error, metrics);
}

int RunTraced(const Spec& spec, const Args& args, const Inputs& in) {
  Result<std::unique_ptr<Fleet>> made = SetUp(spec, in);
  if (!made.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", made.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<Fleet> fleet = std::move(made).value();
  const uint16_t port = fleet->server->port();
  Result<std::unique_ptr<Database>> union_db = UnionReference(spec, in, port);
  if (!union_db.ok()) return 2;
  const Database& reference =
      union_db.value() != nullptr ? *union_db.value() : *fleet->db;
  Result<Expectation> plain = BuildExpectation(spec, in, reference, false);
  Result<Expectation> traced = BuildExpectation(spec, in, reference, true);
  if (!plain.ok() || !traced.ok()) {
    std::fprintf(stderr, "reference failed\n");
    return 2;
  }

  LayerInputs layers;
  // Deterministic count passes, before any write changes the corpus.
  const PhaseResult count_untraced =
      RunSequence(port, in.pool, in.count_ops, &plain.value(), false);
  const PhaseResult count_traced =
      RunSequence(port, in.pool, in.count_ops, &traced.value(), true);
  layers.count_traced = &count_traced;
  layers.count_response_bytes = count_untraced.reply_bytes;

  // storage: the writer's corpus image, encoded and decoded.
  Database* target = fleet->writer_target();
  std::string image;
  for (size_t i = 0; i < kStorageRepeats; ++i) {
    image.clear();
    Clock::time_point t0 = Clock::now();
    target->EncodeTo(&image);
    layers.encode_ms.push_back(MsSince(t0));
    t0 = Clock::now();
    Result<Database> decoded = Database::DecodeFrom(image);
    layers.decode_ms.push_back(MsSince(t0));
    if (!decoded.ok()) return 2;
  }
  layers.image_bytes = static_cast<double>(image.size());
  layers.xml_bytes = static_cast<double>(in.writer_corpus.xml_bytes);

  // Untraced twin, then the traced closed and open phases.
  PhaseResult twin, closed, open;
  WithWriter(spec.writer_during_reads, target, in.writer_corpus, 0, [&] {
    twin = RunClosedLoop(port, in.pool, in.streams, 0, plain.value(), false,
                         args.seconds * kTwinShare);
  });
  std::vector<ServiceStats> before;
  for (XksServer* server : fleet->node_servers()) {
    before.push_back(server->service_stats());
  }
  CacheStats cache_before{};
  for (Database* db : fleet->databases()) {
    const CacheStats s = db->cache_stats();
    cache_before.hits += s.hits;
    cache_before.misses += s.misses;
    cache_before.evictions += s.evictions;
  }
  const WriteResult writes = WithWriter(
      spec.writer_during_reads, target, in.writer_corpus, 0, [&] {
        closed = RunClosedLoop(port, in.pool, in.streams, 0, traced.value(),
                               true, args.seconds * kTracedShare);
      });
  const std::vector<XksServer*> servers = fleet->node_servers();
  for (size_t i = 0; i < servers.size(); ++i) {
    const ServiceStats after = servers[i]->service_stats();
    layers.service.submitted += after.submitted - before[i].submitted;
    layers.service.admitted += after.admitted - before[i].admitted;
    layers.service.batches += after.batches - before[i].batches;
    layers.service.shed_overload += after.shed_overload - before[i].shed_overload;
    layers.service.shed_quota += after.shed_quota - before[i].shed_quota;
  }
  layers.cache_on = spec.cache;
  if (spec.writer_during_reads) {
    layers.cache_hits = writes.cache_hits;
    layers.cache_misses = writes.cache_misses;
    layers.cache_evictions = writes.cache_evictions;
  } else {
    for (Database* db : fleet->databases()) {
      const CacheStats s = db->cache_stats();
      layers.cache_hits += s.hits;
      layers.cache_misses += s.misses;
      layers.cache_evictions += s.evictions;
    }
    layers.cache_hits -= cache_before.hits;
    layers.cache_misses -= cache_before.misses;
    layers.cache_evictions -= cache_before.evictions;
  }
  open = RunOpenLoop(port, in.pool, in.open_slices.front(), traced.value(),
                     true, kOpenConnections);

  // The write path, call by call, on each document's variant texts.
  for (const SourceDocument& doc : in.writer_corpus.documents) {
    for (const std::string& xml : doc.variants) {
      Clock::time_point t0 = Clock::now();
      Result<Document> parsed = ParseXml(xml);
      layers.parse_ms.push_back(MsSince(t0));
      if (!parsed.ok()) return 2;
      t0 = Clock::now();
      const ShreddedStore store = ShreddedStore::Build(parsed.value());
      layers.shred_ms.push_back(MsSince(t0));
      t0 = Clock::now();
      if (!target->ReplaceDocumentXml(doc.name, xml).ok()) return 2;
      layers.replace_ms.push_back(MsSince(t0));
      (void)store.index();
    }
  }

  layers.traced = &closed;
  layers.untraced = &twin;
  layers.open = &open;
  const std::map<std::string, Metric> metrics = LayerMetrics(layers);
  std::printf("%s\n", AccountingLine(closed).c_str());
  std::printf("count set: %zu ops, %zu page requests\n", in.count_ops.size(),
              count_traced.traced.size());

  uint64_t attempted = writes.attempted, failed = writes.failed, mismatches = 0;
  std::string error = writes.first_error;
  for (const PhaseResult* phase : std::initializer_list<const PhaseResult*>{
           &count_untraced, &count_traced, &twin, &closed, &open}) {
    Tally(*phase, &attempted, &failed, &mismatches, &error);
  }
  std::string invalid;
  if (Percentile(open.lag_us, 50) / 1000 > kMaxLagP50Ms) {
    invalid = "open-loop generator fell behind";
  }
  return Report(invalid, mismatches == 0, attempted, failed, error, metrics);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_e2e --workload "
                 "scan_cold|cache_hot|coord_fanout|ingest_churn --seed N "
                 "--seconds S --trace 0|1 [--commit ID]\n");
    return 2;
  }
  RunStamp stamp = BinaryStamp();
  const std::string refusal = RefusalReason(stamp);
  if (!refusal.empty()) {
    std::fprintf(stderr, "refusing to report: %s\n", refusal.c_str());
    return 4;
  }
  const Spec& spec = *args.spec;
  Result<Inputs> inputs = MakeInputs(spec, args);
  if (!inputs.ok()) {
    std::fprintf(stderr, "input generation failed: %s\n",
                 inputs.status().ToString().c_str());
    return 2;
  }
  stamp.commit = args.commit;
  stamp.seed = args.seed;
  stamp.stream_digest = Hex64(inputs.value().digest);
  std::printf("workload %s seed %llu seconds %g trace %d\n", spec.name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("stamp %s\n", StampJson(stamp).c_str());
  std::printf("corpus: %zu documents, %llu XML bytes; pool %zu ops\n",
              inputs.value().corpus.documents.size(),
              static_cast<unsigned long long>(inputs.value().corpus.xml_bytes),
              inputs.value().pool.size());
  std::fflush(stdout);
  return args.trace ? RunTraced(spec, args, inputs.value())
                    : RunMeasured(spec, args, inputs.value());
}

}  // namespace
}  // namespace xks::perfbench

int main(int argc, char** argv) { return xks::perfbench::Main(argc, argv); }
