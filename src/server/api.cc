#include "server/api.h"

#include <cstdlib>

#include "common/string_util.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_buffer.h"
#include "server/json_writer.h"

namespace nous {

namespace {

HttpResponse JsonError(int status, const std::string& message) {
  JsonWriter w;
  w.BeginObject();
  w.Key("error");
  w.String(message);
  w.EndObject();
  HttpResponse response;
  response.status = status;
  response.body = w.Result();
  return response;
}

/// The streaming miner's and the entity linker's cost instruments,
/// read lock-free from the process-wide registry: both publish them
/// under the pipeline's lock, so /api/stats needs no lock of its own
/// to report them.
struct CostReadout {
  Gauge* live_embeddings;
  Gauge* tracked_patterns;
  Gauge* quick_patterns;
  Counter* subsets_enumerated;
  Counter* linker_candidates;
  Counter* linker_adjacency_scanned;
};

const CostReadout& Cost() {
  static const CostReadout readout = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    return CostReadout{
        r.GetGauge("nous_mining_live_embeddings"),
        r.GetGauge("nous_mining_tracked_patterns"),
        r.GetGauge("nous_mining_quick_patterns"),
        r.GetCounter("nous_mining_subsets_enumerated_total"),
        r.GetCounter("nous_linker_candidates_total"),
        r.GetCounter("nous_linker_adjacency_scanned_total")};
  }();
  return readout;
}

}  // namespace

NousApi::NousApi(Nous* nous) : nous_(nous) {}

void NousApi::ConfigureReplication(const ReplicationTelemetry* telemetry,
                                   uint64_t max_staleness_versions,
                                   bool read_only) {
  replication_ = telemetry;
  max_staleness_versions_ = max_staleness_versions;
  read_only_ = read_only;
}

std::string NousApi::AnswerJson(const Answer& answer,
                                const PropertyGraph& graph) {
  JsonWriter w;
  w.BeginObject();
  w.Key("kind");
  w.String(QueryKindName(answer.kind));
  w.Key("facts");
  w.BeginArray();
  for (const FactLine& f : answer.facts) {
    w.BeginObject();
    w.Key("subject");
    w.String(f.subject);
    w.Key("predicate");
    w.String(f.predicate);
    w.Key("object");
    w.String(f.object);
    w.Key("confidence");
    w.Number(f.confidence);
    w.Key("curated");
    w.Bool(f.curated);
    w.Key("source");
    w.String(f.source);
    w.Key("timestamp");
    w.Int(f.timestamp);
    w.EndObject();
  }
  w.EndArray();
  w.Key("hot_entities");
  w.BeginArray();
  for (const auto& [name, count] : answer.hot_entities) {
    w.BeginObject();
    w.Key("entity");
    w.String(name);
    w.Key("activity");
    w.Int(static_cast<long long>(count));
    w.EndObject();
  }
  w.EndArray();
  w.Key("patterns");
  w.BeginArray();
  for (const RenderedPattern& p : answer.patterns()) {
    w.BeginObject();
    w.Key("pattern");
    w.String(p.description);
    w.Key("support");
    w.Int(static_cast<long long>(p.support));
    w.EndObject();
  }
  w.EndArray();
  w.Key("paths");
  w.BeginArray();
  for (const PathResult& path : answer.paths) {
    w.BeginObject();
    w.Key("coherence");
    w.Number(path.coherence);
    w.Key("hops");
    w.BeginArray();
    for (size_t i = 0; i < path.vertices.size(); ++i) {
      w.String(graph.VertexLabel(path.vertices[i]));
      if (i < path.edges.size()) {
        w.String(graph.predicates().GetString(
            graph.Edge(path.edges[i]).predicate));
      }
    }
    w.EndArray();
    w.Key("sources");
    w.BeginArray();
    for (SourceId s : path.sources) {
      w.String(s == kInvalidSource ? ""
                                   : graph.sources().GetString(s));
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.Key("distinct_sources");
  w.Int(static_cast<long long>(answer.distinct_sources));
  w.EndObject();
  return w.Result();
}

HttpResponse NousApi::HandleQuery(const HttpRequest& request) {
  NOUS_SPAN("api_query");
  auto it = request.params.find("q");
  if (it == request.params.end() || it->second.empty()) {
    return JsonError(400, "missing query parameter q");
  }
  // Snapshot serving: execution and serialization read the same
  // immutable snapshot, so neither takes kg_mutex and the graph (and
  // its string dictionaries) cannot grow underneath AnswerJson.
  std::shared_ptr<const KgSnapshot> snap;
  auto answer = nous_->Ask(it->second, &snap);
  if (!answer.ok()) {
    return JsonError(
        answer.status().code() == StatusCode::kNotFound ? 404 : 400,
        answer.status().ToString());
  }
  HttpResponse response;
  {
    NOUS_SPAN("render");
    response.body = AnswerJson(*answer, snap->graph());
  }
  return response;
}

HttpResponse NousApi::HandleStats() {
  NOUS_SPAN("api_stats");
  // Walk the latest published snapshot, no lock.
  std::shared_ptr<const KgSnapshot> snap = nous_->snapshot();
  const GraphStats stats = ComputeGraphStats(snap->graph());
  const PipelineStats& ps = snap->stats();
  const uint64_t kg_version = snap->version();
  JsonWriter w;
  w.BeginObject();
  w.Key("vertices");
  w.Int(static_cast<long long>(stats.vertices));
  w.Key("edges");
  w.Int(static_cast<long long>(stats.live_edges));
  w.Key("curated_edges");
  w.Int(static_cast<long long>(stats.curated_edges));
  w.Key("extracted_edges");
  w.Int(static_cast<long long>(stats.extracted_edges));
  w.Key("predicates");
  w.Int(static_cast<long long>(stats.distinct_predicates));
  w.Key("documents");
  w.Int(static_cast<long long>(ps.documents));
  w.Key("accepted_triples");
  w.Int(static_cast<long long>(ps.accepted_triples));
  w.Key("new_entities");
  w.Int(static_cast<long long>(ps.new_entities));
  w.Key("mean_extracted_confidence");
  w.Number(stats.extracted_confidence.Mean());
  // Miner and linker state that explains per-document ingest cost.
  const CostReadout& cost = Cost();
  w.Key("mining_live_embeddings");
  w.Int(static_cast<long long>(cost.live_embeddings->Value()));
  w.Key("mining_tracked_patterns");
  w.Int(static_cast<long long>(cost.tracked_patterns->Value()));
  w.Key("mining_quick_patterns");
  w.Int(static_cast<long long>(cost.quick_patterns->Value()));
  w.Key("mining_subsets_enumerated");
  w.Int(static_cast<long long>(cost.subsets_enumerated->Value()));
  // Committed batches the mining stage has yet to finish (its gauge is
  // nous_mining_stage_lag_batches).
  w.Key("mining_stage_lag");
  w.Int(static_cast<long long>(nous_->pipeline().mining_stage_lag()));
  w.Key("linker_candidates");
  w.Int(static_cast<long long>(cost.linker_candidates->Value()));
  w.Key("linker_adjacency_scanned");
  w.Int(static_cast<long long>(cost.linker_adjacency_scanned->Value()));
  // Whether the extraction pool kept ahead of the commit loop: documents
  // the committer extracted itself, and its time waiting for helpers.
  w.Key("ingest_inline_extractions");
  w.Int(static_cast<long long>(ps.inline_extractions));
  w.Key("ingest_extract_wait_seconds");
  w.Number(ps.extract_wait_seconds);
  // Serving-tier basics, so operators need not scrape /api/metrics.
  w.Key("kg_version");
  w.Int(static_cast<long long>(kg_version));
  w.Key("snapshot_publishes");
  w.Int(static_cast<long long>(
      nous_->pipeline().snapshot_store().publish_count()));
  w.Key("snapshot_graph_bytes");
  w.Int(static_cast<long long>(snap->approx_graph_bytes()));
  // Live COW split: how much of the snapshot is shared with the live
  // graph vs retained privately (amplification = private / total).
  const CowFootprint snap_fp = snap->graph().Footprint();
  w.Key("snapshot_graph_shared_bytes");
  w.Int(static_cast<long long>(snap_fp.shared_bytes));
  w.Key("snapshot_graph_private_bytes");
  w.Int(static_cast<long long>(snap_fp.private_bytes));
  if (replication_ != nullptr) {
    ReplicationView view = replication_->View();
    w.Key("replication");
    w.BeginObject();
    w.Key("role");
    w.String(view.role);
    w.Key("connected");
    w.Bool(view.connected);
    w.Key("last_seq");
    w.Int(static_cast<long long>(view.last_seq));
    w.Key("kg_version");
    w.Int(static_cast<long long>(view.kg_version));
    w.Key("leader_seq");
    w.Int(static_cast<long long>(view.leader_seq));
    w.Key("leader_kg_version");
    w.Int(static_cast<long long>(view.leader_kg_version));
    w.Key("lag_versions");
    w.Int(static_cast<long long>(view.lag_versions));
    w.Key("max_staleness_versions");
    w.Int(static_cast<long long>(max_staleness_versions_));
    w.Key("followers");
    w.Int(static_cast<long long>(view.followers));
    w.Key("frames_sent");
    w.Int(static_cast<long long>(view.frames_sent));
    w.Key("bytes_sent");
    w.Int(static_cast<long long>(view.bytes_sent));
    w.Key("checkpoints_sent");
    w.Int(static_cast<long long>(view.checkpoints_sent));
    w.Key("overflow_disconnects");
    w.Int(static_cast<long long>(view.overflow_disconnects));
    w.Key("frames_applied");
    w.Int(static_cast<long long>(view.frames_applied));
    w.Key("checkpoints_applied");
    w.Int(static_cast<long long>(view.checkpoints_applied));
    w.Key("reconnects");
    w.Int(static_cast<long long>(view.reconnects));
    w.Key("resyncs");
    w.Int(static_cast<long long>(view.resyncs));
    w.Key("gaps");
    w.Int(static_cast<long long>(view.gaps));
    w.Key("corrupt_frames");
    w.Int(static_cast<long long>(view.corrupt_frames));
    w.EndObject();
  }
  w.Key("query_cache");
  w.BeginObject();
  const QueryCache* cache = nous_->query_cache();
  w.Key("enabled");
  w.Bool(cache != nullptr);
  QueryCache::Stats cache_stats;
  if (cache != nullptr) cache_stats = cache->stats();
  w.Key("hits");
  w.Int(static_cast<long long>(cache_stats.hits));
  w.Key("misses");
  w.Int(static_cast<long long>(cache_stats.misses));
  w.Key("evictions");
  w.Int(static_cast<long long>(cache_stats.evictions));
  w.EndObject();
  // Per-stage latency quantiles from the process-wide registry (every
  // nous_*_latency_seconds histogram, seconds).
  w.Key("latency");
  w.BeginObject();
  for (const auto& row : MetricsRegistry::Global().HistogramRows()) {
    w.Key(row.name);
    w.BeginObject();
    w.Key("count");
    w.Int(static_cast<long long>(row.count));
    w.Key("p50");
    w.Number(row.p50);
    w.Key("p90");
    w.Number(row.p90);
    w.Key("p99");
    w.Number(row.p99);
    w.Key("max");
    w.Number(row.max);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  HttpResponse response;
  response.body = w.Result();
  return response;
}

HttpResponse NousApi::HandleMetrics() {
  NOUS_SPAN("api_metrics");
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = MetricsRegistry::Global().RenderPrometheus();
  return response;
}

HttpResponse NousApi::HandleIngest(const HttpRequest& request) {
  NOUS_SPAN_VAR(span, "api_ingest");
  span.Attr("body_bytes", request.body.size());
  if (read_only_) {
    // A replica's KG is derived from the leader's WAL; accepting a
    // local write would fork it from the replication stream.
    return JsonError(403, "read-only replica: send writes to the leader");
  }
  if (request.body.empty()) {
    return JsonError(400, "empty body; POST the document text");
  }
  // Checked date params: ?year=abc or ?month=0 used to flow atoi
  // garbage straight into edge timestamps, poisoning trending and
  // max-timestamp queries with dates that never existed.
  Date date{2016, 1, 1};
  struct DateField {
    const char* key;
    int* slot;
    int64_t min;
    int64_t max;
  };
  const DateField fields[] = {{"year", &date.year, 1, 9999},
                              {"month", &date.month, 1, 12},
                              {"day", &date.day, 1, 31}};
  for (const DateField& field : fields) {
    auto it = request.params.find(field.key);
    if (it == request.params.end()) continue;
    int64_t value = 0;
    if (!ParseInt64(it->second, &value) || value < field.min ||
        value > field.max) {
      return JsonError(
          400, StrFormat("invalid %s '%s': expected an integer in [%lld, "
                         "%lld]",
                         field.key, it->second.c_str(),
                         static_cast<long long>(field.min),
                         static_cast<long long>(field.max)));
    }
    *field.slot = static_cast<int>(value);
  }
  std::string source = "web";
  if (auto it = request.params.find("source");
      it != request.params.end() && !it->second.empty()) {
    source = it->second;
  }
  auto read_counts = [this](size_t* accepted, size_t* edges) {
    std::shared_ptr<const KgSnapshot> snap = nous_->snapshot();
    *accepted = snap->stats().accepted_triples;
    *edges = snap->graph().NumEdges();
  };
  size_t accepted_before = 0, edges_before = 0;
  read_counts(&accepted_before, &edges_before);
  Status status = nous_->IngestText(request.body, date, source);
  if (!status.ok()) {
    // Durable logging (or, under kAlways, its group fsync) failed:
    // the document is not acknowledged, so the honest answer is
    // "retry later", not a fabricated accept count.
    return JsonError(503, "ingest not durable: " + status.ToString());
  }
  // The ingest call published its snapshot before returning
  // (read-your-writes), so the counts below include this document.
  size_t accepted_after = 0, edges_after = 0;
  read_counts(&accepted_after, &edges_after);
  JsonWriter w;
  w.BeginObject();
  w.Key("accepted");
  w.Int(static_cast<long long>(accepted_after - accepted_before));
  w.Key("total_edges");
  w.Int(static_cast<long long>(edges_after));
  w.EndObject();
  HttpResponse response;
  response.body = w.Result();
  return response;
}

HttpResponse NousApi::HandleTrace(const HttpRequest& request) {
  NOUS_SPAN("api_trace");
  size_t limit = 512;
  if (auto it = request.params.find("limit"); it != request.params.end()) {
    if (!ParseSize(it->second, &limit, /*min=*/1)) {
      return JsonError(400, "limit must be a positive integer");
    }
  }
  std::vector<SpanRecord> spans = TraceBuffer::Global().Snapshot(limit);
  // Chrome trace-event format: complete events (ph "X") with
  // microsecond timestamps, one track per recording thread. Span ids
  // ride in args as decimal strings (64-bit ids do not survive JSON's
  // double precision) so tools — and the CI smoke test — can rebuild
  // the parent/child tree.
  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  for (const SpanRecord& span : spans) {
    w.BeginObject();
    w.Key("name");
    w.String(span.name);
    w.Key("cat");
    w.String("nous");
    w.Key("ph");
    w.String("X");
    w.Key("ts");
    w.Int(static_cast<long long>(span.start_us));
    w.Key("dur");
    w.Int(static_cast<long long>(span.duration_us));
    w.Key("pid");
    w.Int(1);
    w.Key("tid");
    w.Int(static_cast<long long>(span.thread_index));
    w.Key("args");
    w.BeginObject();
    w.Key("trace_id");
    w.String(StrFormat("%llu",
                       static_cast<unsigned long long>(span.trace_id)));
    w.Key("span_id");
    w.String(StrFormat("%llu",
                       static_cast<unsigned long long>(span.span_id)));
    w.Key("parent_span_id");
    w.String(StrFormat(
        "%llu", static_cast<unsigned long long>(span.parent_span_id)));
    for (const SpanAttr& attr : span.attrs) {
      w.Key(attr.key);
      switch (attr.kind) {
        case SpanAttr::Kind::kInt:
          w.Int(static_cast<long long>(attr.int_value));
          break;
        case SpanAttr::Kind::kDouble:
          w.Number(attr.double_value);
          break;
        case SpanAttr::Kind::kString:
          w.String(attr.string_value);
          break;
      }
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Key("displayTimeUnit");
  w.String("ms");
  w.EndObject();
  HttpResponse response;
  response.body = w.Result();
  return response;
}

HttpResponse NousApi::Route(const HttpRequest& request) {
  if (request.path == "/" && request.method == "GET") {
    HttpResponse response;
    response.content_type = "text/html; charset=utf-8";
    response.body = DemoPageHtml();
    return response;
  }
  if (request.path == "/api/query" && request.method == "GET") {
    return HandleQuery(request);
  }
  if (request.path == "/api/stats" && request.method == "GET") {
    return HandleStats();
  }
  if (request.path == "/api/metrics" && request.method == "GET") {
    return HandleMetrics();
  }
  if (request.path == "/api/trace" && request.method == "GET") {
    return HandleTrace(request);
  }
  if (request.path == "/api/healthz" && request.method == "GET") {
    HttpResponse response;
    response.body = "{\"status\":\"ok\"}";
    return response;
  }
  if (request.path == "/api/readyz" && request.method == "GET") {
    if (!ready()) return JsonError(503, "draining");
    if (replication_ != nullptr && max_staleness_versions_ > 0) {
      ReplicationView view = replication_->View();
      if (view.role == "follower" && view.leader_kg_version == 0) {
        // No leader heartbeat yet: staleness is unknowable, and
        // "unknown" must not read as "fresh".
        return JsonError(503, "replica staleness unknown (no leader "
                              "heartbeat yet)");
      }
      if (view.lag_versions > max_staleness_versions_) {
        return JsonError(
            503, StrFormat("replica lags leader by %llu KG versions "
                           "(max allowed %llu)",
                           static_cast<unsigned long long>(
                               view.lag_versions),
                           static_cast<unsigned long long>(
                               max_staleness_versions_)));
      }
    }
    HttpResponse response;
    response.body = "{\"status\":\"ready\"}";
    return response;
  }
  if (request.path == "/api/ingest" && request.method == "POST") {
    return HandleIngest(request);
  }
  return JsonError(404, "no such endpoint: " + request.path);
}

HttpResponse NousApi::Handle(const HttpRequest& request) {
  // Root span of the request's trace: everything the handlers run —
  // including work fanned out to pool threads — parents under it.
  NOUS_SPAN_VAR(span, "http_request");
  span.Attr("method", request.method);
  span.Attr("path", request.path);
  HttpResponse response = Route(request);
  span.Attr("status", response.status);
  response.headers.emplace_back(
      "X-Nous-Trace-Id",
      StrFormat("%llu", static_cast<unsigned long long>(span.trace_id())));
  // The KG version this process would serve right now. Combined with
  // X-Nous-Kg-Version from the leader, clients can bound the staleness
  // of any replica read without a second round trip.
  const uint64_t kg_version = nous_->snapshot()->version();
  response.headers.emplace_back(
      "X-Nous-Kg-Version",
      StrFormat("%llu", static_cast<unsigned long long>(kg_version)));
  // Label by status code only: paths are client-controlled and would
  // make the label set unbounded.
  MetricsRegistry::Global()
      .GetCounter("nous_http_requests_total", "HTTP requests by status code",
                  {{"code", StrFormat("%d", response.status)}})
      ->Increment();
  return response;
}

const char* DemoPageHtml() {
  return R"html(<!doctype html>
<html><head><meta charset="utf-8"><title>NOUS demo</title>
<style>
 body{font-family:sans-serif;max-width:60rem;margin:2rem auto;padding:0 1rem}
 input{width:70%;padding:.5rem;font-size:1rem}
 button{padding:.5rem 1rem;font-size:1rem}
 pre{background:#f4f4f4;padding:1rem;overflow-x:auto;white-space:pre-wrap}
 .hint{color:#666;font-size:.9rem}
</style></head><body>
<h1>NOUS &mdash; dynamic knowledge graph</h1>
<p class="hint">Try: <code>tell me about DJI</code> &middot;
<code>what is trending</code> &middot; <code>show patterns</code> &middot;
<code>explain DJI and FAA</code> &middot;
<code>paths from A to B</code></p>
<input id="q" placeholder="ask a question" autofocus>
<button onclick="ask()">Ask</button>
<pre id="out">ready</pre>
<script>
async function ask(){
  const q=document.getElementById('q').value;
  const r=await fetch('/api/query?q='+encodeURIComponent(q));
  document.getElementById('out').textContent=
      JSON.stringify(await r.json(),null,2);
}
document.getElementById('q').addEventListener('keydown',
    e=>{if(e.key==='Enter')ask();});
</script></body></html>)html";
}

}  // namespace nous
