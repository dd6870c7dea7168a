#include "perfbench/driver.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "perfbench/harness.h"
#include "src/common/mutex.h"
#include "src/server/wire.h"

namespace xks::perfbench {
namespace {

constexpr uint64_t kConnectTimeoutMs = 2000;

void Fail(PhaseResult* out, const std::string& why) {
  ++out->failed;
  if (out->first_error.empty()) out->first_error = why;
}

SearchRequest PageRequest(const Op& op, const std::string& cursor,
                          bool traced) {
  SearchRequest request = op.request;
  request.cursor = cursor;
  if (traced) {
    request.include_trace = true;
    request.include_stats = true;
  }
  return request;
}

/// Checks one OK reply; on a mismatch counts it (as failed too) and returns
/// false.
bool CheckReply(const Expectation& expect, size_t op, size_t page,
                const XksClient::Reply& reply, bool traced,
                uint64_t* last_epoch, PhaseResult* out) {
  const SearchResponse& response = reply.outcome.value();
  std::string why;
  if (expect.mode == Expectation::Mode::kLiveness) {
    if (response.epoch < *last_epoch) {
      why = "epoch went back from " + std::to_string(*last_epoch) + " to " +
            std::to_string(response.epoch);
    }
    *last_epoch = response.epoch;
    for (const Hit& hit : response.hits) {
      if (hit.document >= expect.names.size() ||
          expect.names[hit.document] != hit.document_name) {
        why = "hit names a document that is not live: " + hit.document_name;
      }
    }
  } else if (page >= expect.pages[op].size()) {
    why = "reply to a page past the reference walk";
  } else {
    const std::string& want = expect.pages[op][page];
    const bool same = (!traced && expect.mode == Expectation::Mode::kExact)
                          ? reply.raw_response == want
                          : ComparisonForm(response, expect.mode) == want;
    if (!same) {
      why = "reply differs from the reference (op " + std::to_string(op) +
            " page " + std::to_string(page + 1) + ")";
    }
  }
  if (why.empty()) return true;
  ++out->mismatches;
  Fail(out, why);
  return false;
}

TracedSample MakeTracedSample(double rtt_us, double encode_us,
                              const XksClient::Reply& reply) {
  TracedSample sample;
  sample.rtt_us = rtt_us;
  sample.encode_us = encode_us;
  const Clock::time_point t0 = Clock::now();
  Result<SearchResponse> decoded = DecodeSearchResponse(reply.raw_response);
  sample.decode_us = MicrosBetween(t0, Clock::now());
  (void)decoded.ok();
  const SearchResponse& response = reply.outcome.value();
  sample.root = response.trace;
  sample.documents_searched = response.documents_searched;
  sample.documents_from_cache = response.documents_from_cache;
  sample.total_hits = response.total_hits;
  sample.hits = response.hits.size();
  sample.timings = response.timings;
  sample.keyword_nodes = response.keyword_node_count;
  sample.pruning = response.pruning;
  return sample;
}

double TimedEncode(const SearchRequest& request) {
  const Clock::time_point t0 = Clock::now();
  const std::string body = EncodeSearchRequest(request);
  const double us = MicrosBetween(t0, Clock::now());
  return body.empty() ? -1 : us;
}

/// Drives `stream` on one connection, one request in flight: the ops from
/// position `offset` on, cyclically until `end`, or (with `once`) each op
/// of the stream once.
void ClosedWorker(uint16_t port, const std::vector<Op>& pool,
                  const std::vector<size_t>& stream, size_t offset,
                  const Expectation* expect, bool traced, Clock::time_point end,
                  bool once, PhaseResult* out) {
  Result<XksClient> connected =
      XksClient::Connect("127.0.0.1", port, kConnectTimeoutMs);
  if (!connected.ok()) {
    ++out->attempted;
    Fail(out, connected.status().ToString());
    return;
  }
  XksClient client = std::move(connected).value();
  uint64_t next_id = 1;
  uint64_t last_epoch = 0;
  for (size_t pos = offset;
       once ? pos < stream.size() : Clock::now() < end; ++pos) {
    const size_t op_index = stream[pos % stream.size()];
    const Op& op = pool[op_index];
    std::string cursor;
    for (size_t page = 0; page < op.pages; ++page) {
      const SearchRequest request = PageRequest(op, cursor, traced);
      const double encode_us = traced ? TimedEncode(request) : 0;
      const uint64_t id = next_id++;
      ++out->attempted;
      const Clock::time_point t0 = Clock::now();
      const Status sent = client.Send(id, request);
      if (!sent.ok()) {
        Fail(out, sent.ToString());
        return;
      }
      Result<XksClient::Reply> reply = client.Receive();
      const Clock::time_point t1 = Clock::now();
      if (!reply.ok()) {
        Fail(out, reply.status().ToString());
        return;
      }
      if (reply.value().request_id != id || !reply.value().outcome.ok()) {
        Fail(out, reply.value().outcome.ok()
                      ? "reply to the wrong request id"
                      : reply.value().outcome.status().ToString());
        break;
      }
      const double rtt_us = MicrosBetween(t0, t1);
      out->latency_us.push_back(rtt_us);
      if (once) {
        // The cursor token is left out: behind a coordinator it embeds a
        // digest of the shard map, ephemeral ports included.
        out->reply_bytes.push_back(static_cast<double>(
            reply.value().raw_response.size() -
            reply.value().outcome.value().next_cursor.size()));
      }
      if (expect != nullptr &&
          !CheckReply(*expect, op_index, page, reply.value(), traced,
                      &last_epoch, out)) {
        break;
      }
      if (traced) {
        out->traced.push_back(MakeTracedSample(rtt_us, encode_us, reply.value()));
      }
      cursor = reply.value().outcome.value().next_cursor;
      if (cursor.empty()) break;
    }
  }
}

}  // namespace

std::string ComparisonForm(SearchResponse response, Expectation::Mode mode) {
  response.trace = nullptr;
  response.timings = StageTimings{};
  if (mode == Expectation::Mode::kExceptCursorToken) {
    response.next_cursor = response.next_cursor.empty() ? "" : "+";
    response.keyword_node_count = 0;
    response.pruning = PruningStats{};
  }
  return EncodeSearchResponse(response);
}

void PhaseResult::Merge(PhaseResult&& other) {
  seconds = std::max(seconds, other.seconds);
  latency_us.insert(latency_us.end(), other.latency_us.begin(),
                    other.latency_us.end());
  lag_us.insert(lag_us.end(), other.lag_us.begin(), other.lag_us.end());
  reply_bytes.insert(reply_bytes.end(), other.reply_bytes.begin(),
                     other.reply_bytes.end());
  attempted += other.attempted;
  failed += other.failed;
  mismatches += other.mismatches;
  if (first_error.empty()) first_error = std::move(other.first_error);
  for (TracedSample& sample : other.traced) traced.push_back(std::move(sample));
}

PhaseResult RunClosedLoop(uint16_t port, const std::vector<Op>& pool,
                          const std::vector<std::vector<size_t>>& streams,
                          size_t offset, const Expectation& expect,
                          bool traced, double seconds) {
  std::vector<PhaseResult> parts(streams.size());
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < streams.size(); ++c) {
      threads.emplace_back(ClosedWorker, port, std::cref(pool),
                           std::cref(streams[c]), offset, &expect, traced,
                           end, /*once=*/false, &parts[c]);
    }
    for (std::thread& t : threads) t.join();
  }
  PhaseResult result;
  result.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  for (PhaseResult& part : parts) result.Merge(std::move(part));
  return result;
}

PhaseResult RunSequence(uint16_t port, const std::vector<Op>& pool,
                        const std::vector<size_t>& ops,
                        const Expectation* expect, bool traced) {
  PhaseResult result;
  const Clock::time_point start = Clock::now();
  ClosedWorker(port, pool, ops, 0, expect, traced, start, /*once=*/true,
               &result);
  result.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

namespace {

/// One pipelined open-loop connection: the sender appends, the receiver
/// drains until the sender is done and every request is answered.
struct OpenConnection {
  explicit OpenConnection(XksClient c) : client(std::move(c)) {}
  XksClient client;
  Mutex mutex;
  CondVar cv;
  uint64_t sent XKS_GUARDED_BY(mutex) = 0;
  bool done XKS_GUARDED_BY(mutex) = false;
  PhaseResult result;  ///< Receiver-owned until joined.
};

}  // namespace

PhaseResult RunOpenLoop(uint16_t port, const std::vector<Op>& pool,
                        const ScheduleSlice& schedule,
                        const Expectation& expect, bool traced,
                        size_t connections) {
  PhaseResult result;
  std::vector<std::unique_ptr<OpenConnection>> conns;
  for (size_t c = 0; c < connections; ++c) {
    Result<XksClient> connected =
        XksClient::Connect("127.0.0.1", port, kConnectTimeoutMs);
    if (!connected.ok()) {
      ++result.attempted;
      Fail(&result, connected.status().ToString());
      return result;
    }
    conns.push_back(
        std::make_unique<OpenConnection>(std::move(connected).value()));
  }
  std::vector<SearchRequest> requests;
  std::vector<double> encode_us;
  const size_t arrivals = schedule.due_s.size();
  requests.reserve(arrivals);
  for (size_t i = 0; i < arrivals; ++i) {
    requests.push_back(PageRequest(pool[schedule.ops[i]], "", traced));
    encode_us.push_back(traced ? TimedEncode(requests.back()) : 0);
  }
  std::vector<Clock::time_point> due(arrivals);
  std::vector<double> lag_us(arrivals, 0);

  const auto receive = [&](OpenConnection* conn) {
    uint64_t received = 0;
    uint64_t last_epoch = 0;
    for (;;) {
      {
        MutexLock lock(conn->mutex);
        while (received == conn->sent && !conn->done) conn->cv.Wait(lock);
        if (received == conn->sent) return;
      }
      Result<XksClient::Reply> reply = conn->client.Receive();
      const Clock::time_point now = Clock::now();
      ++received;
      if (!reply.ok()) {
        Fail(&conn->result, reply.status().ToString());
        // The transport is gone: every outstanding request is lost.
        MutexLock lock(conn->mutex);
        while (!conn->done) conn->cv.Wait(lock);
        conn->result.failed += conn->sent - received;
        return;
      }
      const uint64_t i = reply.value().request_id;
      if (i >= arrivals || !reply.value().outcome.ok()) {
        Fail(&conn->result, reply.value().outcome.ok()
                                ? "reply to an unknown request id"
                                : reply.value().outcome.status().ToString());
        continue;
      }
      const double latency = MicrosBetween(due[i], now);
      conn->result.latency_us.push_back(latency);
      if (!CheckReply(expect, schedule.ops[i], 0, reply.value(), traced,
                      &last_epoch, &conn->result)) {
        continue;
      }
      if (traced) {
        conn->result.traced.push_back(
            MakeTracedSample(latency, encode_us[i], reply.value()));
      }
    }
  };

  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < arrivals; ++i) {
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(schedule.due_s[i]));
  }
  {
    std::vector<std::thread> receivers;
    for (auto& conn : conns) receivers.emplace_back(receive, conn.get());
    for (size_t i = 0; i < arrivals; ++i) {
      std::this_thread::sleep_until(due[i]);
      OpenConnection* conn = conns[i % conns.size()].get();
      lag_us[i] = MicrosBetween(due[i], Clock::now());
      ++result.attempted;
      const Status sent = conn->client.Send(i, requests[i]);
      if (!sent.ok()) {
        Fail(&result, sent.ToString());
        continue;
      }
      MutexLock lock(conn->mutex);
      ++conn->sent;
      conn->cv.NotifyAll();
    }
    for (auto& conn : conns) {
      MutexLock lock(conn->mutex);
      conn->done = true;
      conn->cv.NotifyAll();
    }
    for (std::thread& t : receivers) t.join();
  }
  result.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  result.lag_us = std::move(lag_us);
  for (auto& conn : conns) result.Merge(std::move(conn->result));
  return result;
}

void WriteResult::Append(WriteResult&& later) {
  seconds += later.seconds;
  latency_us.insert(latency_us.end(), later.latency_us.begin(),
                    later.latency_us.end());
  next = later.next;
  attempted += later.attempted;
  failed += later.failed;
  if (first_error.empty()) first_error = std::move(later.first_error);
  cache_hits += later.cache_hits;
  cache_misses += later.cache_misses;
  cache_evictions += later.cache_evictions;
}

WriteResult RunWriter(Database* db, const Corpus& corpus, size_t first,
                      const std::atomic<bool>& stop, double seconds) {
  WriteResult result;
  const size_t documents = corpus.documents.size();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  // Counters reset with every publish, so each retired snapshot's final
  // reading is added; `base` discounts what the first snapshot held before
  // the writer started.
  CacheStats base = db->cache_stats();
  const auto add_cache = [&result, &base](const CacheStats& stats) {
    result.cache_hits += stats.hits - base.hits;
    result.cache_misses += stats.misses - base.misses;
    result.cache_evictions += stats.evictions - base.evictions;
  };
  size_t i = first;
  for (; !stop.load(std::memory_order_relaxed) && Clock::now() < end; ++i) {
    const SourceDocument& doc = corpus.documents[i % documents];
    const std::string& xml =
        doc.variants[(i / documents) % doc.variants.size()];
    const CacheStats retiring = db->cache_stats();
    ++result.attempted;
    const Clock::time_point t0 = Clock::now();
    Result<DocumentId> replaced = db->ReplaceDocumentXml(doc.name, xml);
    const Clock::time_point t1 = Clock::now();
    if (replaced.ok()) {
      add_cache(retiring);
      base = CacheStats{};
    } else {
      ++result.failed;
      if (result.first_error.empty()) {
        result.first_error = replaced.status().ToString();
      }
      continue;
    }
    result.latency_us.push_back(MicrosBetween(t0, t1));
  }
  result.next = i;
  add_cache(db->cache_stats());
  result.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

}  // namespace xks::perfbench
