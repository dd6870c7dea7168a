#include "perfbench/layers.h"

#include <algorithm>
#include <cstdio>

namespace xks::perfbench {
namespace {

/// The node-side "search" spans of one reply: the root on xksd, one per
/// shard hop behind a coordinator.
std::vector<const TraceSpan*> NodeSearchSpans(const TraceSpan& root) {
  if (root.name == "search") return {&root};
  std::vector<const TraceSpan*> spans;
  if (const TraceSpan* scatter = root.Child("scatter")) {
    for (const TraceSpan& hop : scatter->children) {
      if (const TraceSpan* search = hop.Child("search")) spans.push_back(search);
    }
  }
  return spans;
}

std::vector<const TraceSpan*> Hops(const TraceSpan& root) {
  std::vector<const TraceSpan*> hops;
  if (const TraceSpan* scatter = root.Child("scatter")) {
    for (const TraceSpan& hop : scatter->children) {
      if (hop.name == "hop") hops.push_back(&hop);
    }
  }
  return hops;
}

double ChildUs(const TraceSpan& span, const char* name) {
  const TraceSpan* child = span.Child(name);
  return child == nullptr ? 0.0 : static_cast<double>(child->duration_us);
}

/// Root duration minus the time its direct children cover.
double UnattributedUs(const TraceSpan& span) {
  double children = 0;
  for (const TraceSpan& child : span.children) children += child.duration_us;
  return static_cast<double>(span.duration_us) - children;
}

double SumMs(const StageTimings& t) {
  return t.get_keyword_nodes_ms + t.get_lca_ms + t.get_rtf_ms + t.prune_ms;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace

std::map<std::string, Metric> LayerMetrics(const LayerInputs& in) {
  std::map<std::string, Metric> m;
  const auto set = [&m](const std::string& name, double value,
                        const char* unit) { m[name] = Metric{value, unit}; };
  const std::vector<TracedSample>& traced = in.traced->traced;
  const std::vector<TracedSample>& counted = in.count_traced->traced;

  // server wire: the benchmark's own codec calls on the traced requests.
  std::vector<double> encode, decode, rtt, wait, unattributed;
  for (const TracedSample& s : traced) {
    encode.push_back(s.encode_us);
    decode.push_back(s.decode_us);
    rtt.push_back(s.rtt_us);
    if (s.root == nullptr) continue;
    wait.push_back(s.rtt_us - static_cast<double>(s.root->duration_us));
    unattributed.push_back(UnattributedUs(*s.root));
  }
  set("wire.request_encode_us", Mean(encode), "us");
  set("wire.response_decode_us", Mean(decode), "us");
  set("wire.response_bytes", Mean(in.count_response_bytes), "bytes");

  // server service: everything between the client's socket and the root
  // span the serving process recorded.
  set("service.wait_us", Mean(wait), "us");
  set("service.batch_size",
      Ratio(static_cast<double>(in.service.admitted),
            static_cast<double>(in.service.batches)),
      "count");
  set("service.shed_frac",
      Ratio(static_cast<double>(in.service.shed_overload + in.service.shed_quota),
            static_cast<double>(in.service.submitted)),
      "ratio");

  // api snapshot stages, over every node-side search span.
  std::vector<double> search, parse, selection, scan, rank, snippet;
  double docs_searched = 0, docs_cached = 0;
  double stage_ms = 0, scan_us_uncached = 0;
  std::vector<double> kw_us, lca_us, rtf_us, prune_us;
  for (const TracedSample& s : traced) {
    docs_searched += static_cast<double>(s.documents_searched);
    docs_cached += static_cast<double>(s.documents_from_cache);
    if (s.root == nullptr) continue;
    double sample_scan_us = 0;
    for (const TraceSpan* span : NodeSearchSpans(*s.root)) {
      search.push_back(static_cast<double>(span->duration_us));
      parse.push_back(ChildUs(*span, "parse"));
      selection.push_back(ChildUs(*span, "selection"));
      scan.push_back(ChildUs(*span, "scan"));
      rank.push_back(ChildUs(*span, "rank"));
      snippet.push_back(ChildUs(*span, "snippet"));
      sample_scan_us += ChildUs(*span, "scan");
    }
    // Per-document stage times describe the execution that filled a cache
    // entry, not the hit, so only wholly uncached replies feed core/lca.
    if (s.documents_from_cache == 0 && s.documents_searched > 0) {
      stage_ms += SumMs(s.timings);
      scan_us_uncached += sample_scan_us;
      kw_us.push_back(s.timings.get_keyword_nodes_ms * 1000);
      lca_us.push_back(s.timings.get_lca_ms * 1000);
      rtf_us.push_back(s.timings.get_rtf_ms * 1000);
      prune_us.push_back(s.timings.prune_ms * 1000);
    }
  }
  set("api.search_us", Mean(search), "us");
  set("api.parse_us", Mean(parse), "us");
  set("api.selection_us", Mean(selection), "us");
  set("api.scan_us", Mean(scan), "us");
  set("api.rank_us", Mean(rank), "us");
  set("api.snippet_us", Mean(snippet), "us");
  set("api.unattributed_us", Mean(unattributed), "us");

  // Exact counts come from the deterministic count pass.
  double counted_docs = 0, counted_hits = 0, counted_total = 0;
  double counted_kw = 0, raw_nodes = 0, kept_nodes = 0, hops = 0;
  for (const TracedSample& s : counted) {
    counted_docs += static_cast<double>(s.documents_searched);
    counted_hits += static_cast<double>(s.hits);
    counted_total += static_cast<double>(s.total_hits);
    counted_kw += static_cast<double>(s.keyword_nodes);
    raw_nodes += static_cast<double>(s.pruning.raw_nodes);
    kept_nodes += static_cast<double>(s.pruning.kept_nodes);
    if (s.root != nullptr) hops += static_cast<double>(Hops(*s.root).size());
  }
  const double n_counted = static_cast<double>(counted.size());
  set("api.docs_scanned", Ratio(counted_docs, n_counted), "count");
  set("api.page_yield", Ratio(counted_hits, counted_total), "ratio");

  // common pool: how many documents' pipeline time one scan span covers.
  set("pool.scan_parallelism", Ratio(stage_ms * 1000, scan_us_uncached),
      "ratio");

  // core + lca per-document pipeline (uncached replies only).
  set("core.keyword_nodes_us", Mean(kw_us), "us");
  set("lca.lca_us", Mean(lca_us), "us");
  set("core.rtf_us", Mean(rtf_us), "us");
  set("core.prune_us", Mean(prune_us), "us");
  set("core.keyword_nodes", Ratio(counted_kw, n_counted), "count");
  set("core.prune_kept_frac", Ratio(kept_nodes, raw_nodes), "ratio");

  // cache
  set("cache.hit_rate",
      in.cache_on ? Ratio(static_cast<double>(in.cache_hits),
                          static_cast<double>(in.cache_hits + in.cache_misses))
                  : 0.0,
      "ratio");
  set("cache.evictions", static_cast<double>(in.cache_evictions), "count");
  set("api.docs_from_cache_frac", Ratio(docs_cached, docs_searched), "ratio");

  // coord: only replies whose root is the coordinator's.
  std::vector<double> c_search, c_route, c_roster, c_scatter, c_merge, c_hop_max,
      c_hop_wire;
  for (const TracedSample& s : traced) {
    if (s.root == nullptr || s.root->name != "coord_search") continue;
    c_search.push_back(static_cast<double>(s.root->duration_us));
    c_route.push_back(ChildUs(*s.root, "route"));
    c_roster.push_back(ChildUs(*s.root, "roster"));
    c_scatter.push_back(ChildUs(*s.root, "scatter"));
    c_merge.push_back(ChildUs(*s.root, "merge"));
    double hop_max = 0;
    for (const TraceSpan* hop : Hops(*s.root)) {
      hop_max = std::max(hop_max, static_cast<double>(hop->duration_us));
      const TraceSpan* shard = hop->Child("search");
      c_hop_wire.push_back(static_cast<double>(hop->duration_us) -
                           (shard == nullptr ? 0.0 : shard->duration_us));
    }
    c_hop_max.push_back(hop_max);
  }
  set("coord.search_us", Mean(c_search), "us");
  set("coord.route_us", Mean(c_route), "us");
  set("coord.roster_us", Mean(c_roster), "us");
  set("coord.scatter_us", Mean(c_scatter), "us");
  set("coord.merge_us", Mean(c_merge), "us");
  set("coord.hop_max_us", Mean(c_hop_max), "us");
  set("coord.hop_wire_us", Mean(c_hop_wire), "us");
  set("coord.hops_per_query", Ratio(hops, n_counted), "count");

  // xml + storage + publish: the write path, call by call.
  std::vector<double> publish;
  for (size_t i = 0; i < in.replace_ms.size(); ++i) {
    publish.push_back(in.replace_ms[i] - in.parse_ms[i] - in.shred_ms[i]);
  }
  set("xml.parse_ms", Mean(in.parse_ms), "ms");
  set("storage.shred_ms", Mean(in.shred_ms), "ms");
  set("api.publish_ms", Mean(publish), "ms");
  set("storage.corpus_decode_ms", Median(in.decode_ms), "ms");
  set("storage.corpus_encode_ms", Median(in.encode_ms), "ms");
  set("storage.bytes_per_xml_byte", Ratio(in.image_bytes, in.xml_bytes),
      "ratio");

  // harness validity.
  set("bench.lag_p99_ms", Percentile(in.open->lag_us, 99) / 1000, "ms");
  set("bench.trace_overhead_frac",
      Ratio(Median(rtt), Median(in.untraced->latency_us)) - 1, "ratio");
  return m;
}

std::string AccountingLine(const PhaseResult& traced) {
  std::vector<double> rtt, wait, stages, unattributed;
  for (const TracedSample& s : traced.traced) {
    if (s.root == nullptr) continue;
    rtt.push_back(s.rtt_us);
    wait.push_back(s.rtt_us - static_cast<double>(s.root->duration_us));
    double children = 0;
    for (const TraceSpan& child : s.root->children) children += child.duration_us;
    stages.push_back(children);
    unattributed.push_back(UnattributedUs(*s.root));
  }
  char line[400];
  std::snprintf(line, sizeof(line),
                "accounting (us, n=%zu): mean rtt %.1f = wait %.1f + root "
                "stages %.1f + unattributed %.1f; p50 rtt %.1f - stage sums "
                "%.1f = %.1f vs wait + unattributed %.1f",
                rtt.size(), Mean(rtt), Mean(wait), Mean(stages),
                Mean(unattributed), Median(rtt), Mean(stages),
                Median(rtt) - Mean(stages), Mean(wait) + Mean(unattributed));
  return line;
}

}  // namespace xks::perfbench
