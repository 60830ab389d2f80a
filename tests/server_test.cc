#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/world_model.h"
#include "kb/kb_generator.h"
#include "obs/metrics.h"
#include "obs/trace_buffer.h"
#include "replication/telemetry.h"
#include "server/api.h"
#include "server/http_server.h"
#include "server/json_writer.h"
#include "common/status.h"

namespace nous {
namespace {

// ---------- JsonWriter ----------

TEST(JsonWriterTest, ObjectsArraysAndValues) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s");
  w.String("x");
  w.Key("n");
  w.Number(1.5);
  w.Key("i");
  w.Int(-3);
  w.Key("b");
  w.Bool(true);
  w.Key("z");
  w.Null();
  w.Key("arr");
  w.BeginArray();
  w.Int(1);
  w.Int(2);
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.Result(),
            "{\"s\":\"x\",\"n\":1.5,\"i\":-3,\"b\":true,\"z\":null,"
            "\"arr\":[1,2]}");
}

TEST(JsonWriterTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonWriter::Escape("a\"b\\c\nd\te"),
            "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(JsonWriter::Escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonWriterTest, NestedStructures) {
  JsonWriter w;
  w.BeginArray();
  w.BeginObject();
  w.Key("a");
  w.BeginArray();
  w.EndArray();
  w.EndObject();
  w.BeginObject();
  w.EndObject();
  w.EndArray();
  EXPECT_EQ(w.Result(), "[{\"a\":[]},{}]");
}

// ---------- UrlDecode ----------

TEST(UrlDecodeTest, DecodesPercentAndPlus) {
  EXPECT_EQ(UrlDecode("tell+me+about+DJI"), "tell me about DJI");
  EXPECT_EQ(UrlDecode("a%20b%2Fc"), "a b/c");
  EXPECT_EQ(UrlDecode("100%"), "100%");    // dangling percent kept
  EXPECT_EQ(UrlDecode("%zz"), "%zz");      // bad hex kept
}

// ---------- HTTP round trip ----------

/// Minimal test client: one request, full response text.
std::string HttpGet(uint16_t port, const std::string& request_text) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ::send(fd, request_text.data(), request_text.size(), 0);
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Get(uint16_t port, const std::string& target) {
  return HttpGet(port, "GET " + target +
                           " HTTP/1.1\r\nHost: x\r\n\r\n");
}

/// Opens a connection and sends `text` without reading the response
/// (for tests that need several requests in flight at once).
int ConnectAndSend(uint16_t port, const std::string& text) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  if (!text.empty()) ::send(fd, text.data(), text.size(), 0);
  return fd;
}

std::string RecvAll(int fd) {
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

class ServerFixture : public ::testing::Test {
 protected:
  ServerFixture()
      : world_(WorldModel::BuildDroneWorld(SmallWorld())),
        kb_(BuildCuratedKb(world_, Ontology::DroneDefault(), {})),
        nous_(&kb_, FastOptions()),
        api_(&nous_),
        server_([this](const HttpRequest& r) { return api_.Handle(r); }) {
    NOUS_CHECK_OK(nous_.IngestText("DJI acquired Talon Works.", Date{2014, 3, 5},
                     "wsj"));
    nous_.Finalize();
    Status status = server_.Start(0);  // ephemeral port
    EXPECT_TRUE(status.ok()) << status;
  }
  ~ServerFixture() override { server_.Stop(); }

  static DroneWorldConfig SmallWorld() {
    DroneWorldConfig config;
    config.num_companies = 5;
    config.num_people = 3;
    config.num_products = 3;
    config.num_events = 10;
    return config;
  }
  static Nous::Options FastOptions() {
    Nous::Options options;
    options.pipeline.lda.iterations = 3;
    options.pipeline.bpr.epochs = 1;
    return options;
  }

  WorldModel world_;
  CuratedKb kb_;
  Nous nous_;
  NousApi api_;
  HttpServer server_;
};

TEST_F(ServerFixture, ServesDemoPage) {
  std::string response = Get(server_.port(), "/");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/html"), std::string::npos);
  EXPECT_NE(response.find("NOUS"), std::string::npos);
}

TEST_F(ServerFixture, EntityQueryReturnsJsonFacts) {
  std::string response =
      Get(server_.port(), "/api/query?q=tell+me+about+DJI");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"kind\":\"entity\""), std::string::npos);
  EXPECT_NE(response.find("\"subject\":\"DJI\""), std::string::npos);
  EXPECT_NE(response.find("\"source\":\"wsj\""), std::string::npos);
}

TEST_F(ServerFixture, UnknownEntityIs404) {
  std::string response =
      Get(server_.port(), "/api/query?q=tell+me+about+Nobody+Corp");
  EXPECT_NE(response.find("404"), std::string::npos);
  EXPECT_NE(response.find("\"error\""), std::string::npos);
}

TEST_F(ServerFixture, MissingQueryParamIs400) {
  std::string response = Get(server_.port(), "/api/query");
  EXPECT_NE(response.find("400"), std::string::npos);
}

TEST_F(ServerFixture, UnknownRouteIs404) {
  std::string response = Get(server_.port(), "/api/nope");
  EXPECT_NE(response.find("404"), std::string::npos);
}

TEST_F(ServerFixture, StatsEndpoint) {
  std::string response = Get(server_.port(), "/api/stats");
  EXPECT_NE(response.find("\"vertices\":"), std::string::npos);
  EXPECT_NE(response.find("\"documents\":1"), std::string::npos);
}

TEST_F(ServerFixture, StatsReportMinerCostGauges) {
  std::string response = Get(server_.port(), "/api/stats");
  for (const char* key :
       {"\"mining_live_embeddings\":", "\"mining_tracked_patterns\":",
        "\"mining_quick_patterns\":", "\"mining_subsets_enumerated\":"}) {
    EXPECT_NE(response.find(key), std::string::npos) << key;
  }
  // The fixture's ingest added edges, so the miner enumerated at least
  // one subset (the registry is process-wide, so only a floor holds).
  EXPECT_EQ(response.find("\"mining_subsets_enumerated\":0,"),
            std::string::npos);
}

TEST_F(ServerFixture, StatsReportLinkerCostCounters) {
  std::string response = Get(server_.port(), "/api/stats");
  for (const char* key :
       {"\"linker_candidates\":", "\"linker_adjacency_scanned\":"}) {
    EXPECT_NE(response.find(key), std::string::npos) << key;
  }
  // The fixture's document mentions curated entities, so the linker
  // scored candidates and read their KG adjacency.
  EXPECT_EQ(response.find("\"linker_candidates\":0,"), std::string::npos);
  EXPECT_EQ(response.find("\"linker_adjacency_scanned\":0,"),
            std::string::npos);
}

TEST_F(ServerFixture, StatsReportIngestOverlap) {
  std::string response = Get(server_.port(), "/api/stats");
  EXPECT_NE(response.find("\"ingest_extract_wait_seconds\":"),
            std::string::npos);
  // The fixture's one-document batch has no helpers: the committer
  // extracted it itself.
  EXPECT_NE(response.find("\"ingest_inline_extractions\":"),
            std::string::npos);
  EXPECT_EQ(response.find("\"ingest_inline_extractions\":0,"),
            std::string::npos);
}

TEST_F(ServerFixture, StatsReportLatencyQuantilesPerStage) {
  std::string response = Get(server_.port(), "/api/stats");
  EXPECT_NE(response.find("\"latency\":{"), std::string::npos);
  // The fixture ingested a document, so the pipeline stages recorded
  // latency samples with p50/p90/p99 quantiles.
  for (const char* stage :
       {"\"nous_extraction_latency_seconds\":{",
        "\"nous_mapping_latency_seconds\":{",
        "\"nous_confidence_latency_seconds\":{",
        "\"nous_mining_latency_seconds\":{"}) {
    EXPECT_NE(response.find(stage), std::string::npos) << stage;
  }
  EXPECT_NE(response.find("\"p50\":"), std::string::npos);
  EXPECT_NE(response.find("\"p90\":"), std::string::npos);
  EXPECT_NE(response.find("\"p99\":"), std::string::npos);
}

TEST_F(ServerFixture, MetricsEndpointServesPrometheusExposition) {
  // Hit the query endpoint first so the query-stage instruments exist.
  Get(server_.port(), "/api/query?q=tell+me+about+DJI");
  std::string response = Get(server_.port(), "/api/metrics");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);

  // Pipeline counters from the fixture's ingest.
  EXPECT_NE(response.find("# TYPE nous_pipeline_documents_total counter"),
            std::string::npos);
  // At least this fixture's single ingest (the process-wide registry
  // may have accumulated more across tests in the same binary).
  EXPECT_NE(response.find("\nnous_pipeline_documents_total "),
            std::string::npos);
  EXPECT_NE(response.find("nous_extraction_triples_total"),
            std::string::npos);
  EXPECT_NE(response.find("nous_mapping_mapped_total"), std::string::npos);
  EXPECT_NE(response.find("# TYPE nous_mining_quick_patterns gauge"),
            std::string::npos);

  // Latency histograms for the Figure-1 stages, in exposition shape.
  for (const char* stage :
       {"nous_extraction_latency_seconds", "nous_mapping_latency_seconds",
        "nous_confidence_latency_seconds", "nous_mining_latency_seconds",
        "nous_query_latency_seconds"}) {
    std::string type_line = std::string("# TYPE ") + stage + " histogram";
    EXPECT_NE(response.find(type_line), std::string::npos) << stage;
    EXPECT_NE(response.find(std::string(stage) + "_bucket{le=\"+Inf\"}"),
              std::string::npos)
        << stage;
    EXPECT_NE(response.find(std::string(stage) + "_sum"), std::string::npos)
        << stage;
    EXPECT_NE(response.find(std::string(stage) + "_count"),
              std::string::npos)
        << stage;
  }

  // Query counter carries the class label; HTTP counter the status code.
  EXPECT_NE(response.find("nous_query_total{class=\"entity\"}"),
            std::string::npos);
  EXPECT_NE(response.find("nous_http_requests_total{code=\"200\"}"),
            std::string::npos);
}

TEST_F(ServerFixture, MetricsEndpointRejectsPost) {
  std::string request =
      "POST /api/metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n";
  std::string response = HttpGet(server_.port(), request);
  EXPECT_NE(response.find("404"), std::string::npos);
}

TEST_F(ServerFixture, IngestEndpointGrowsGraph) {
  std::string body = "Parrot acquired Windermere.";
  std::string request =
      "POST /api/ingest?source=test&year=2015 HTTP/1.1\r\nHost: x\r\n"
      "Content-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  std::string response = HttpGet(server_.port(), request);
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"accepted\":1"), std::string::npos);
  // The fact is immediately queryable (dynamic KG).
  std::string query =
      Get(server_.port(), "/api/query?q=tell+me+about+Parrot");
  EXPECT_NE(query.find("Windermere"), std::string::npos);
}

// Regression: the year/month/day query parameters used to go through
// atoi, so "?year=abc" silently ingested with year 0 and "?month=13"
// produced an impossible timestamp. Every malformed or out-of-range
// date field is now a 400 and nothing is ingested.
TEST_F(ServerFixture, MalformedIngestDateIs400) {
  std::string body = "Parrot acquired Windermere.";
  for (const char* params :
       {"year=abc", "year=0", "year=10000", "month=13", "month=0",
        "day=32", "day=0", "day=2x"}) {
    std::string request =
        "POST /api/ingest?source=test&" + std::string(params) +
        " HTTP/1.1\r\nHost: x\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
    std::string response = HttpGet(server_.port(), request);
    EXPECT_NE(response.find("400"), std::string::npos) << params;
    EXPECT_NE(response.find("invalid"), std::string::npos) << params;
  }
}

TEST_F(ServerFixture, EmptyIngestBodyIs400) {
  std::string request =
      "POST /api/ingest HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n";
  std::string response = HttpGet(server_.port(), request);
  EXPECT_NE(response.find("400"), std::string::npos);
}

TEST_F(ServerFixture, MalformedRequestIs400) {
  std::string response = HttpGet(server_.port(), "GARBAGE\r\n\r\n");
  EXPECT_NE(response.find("400"), std::string::npos);
}

TEST_F(ServerFixture, SequentialRequestsSurvive) {
  for (int i = 0; i < 20; ++i) {
    std::string response = Get(server_.port(), "/api/stats");
    ASSERT_NE(response.find("200 OK"), std::string::npos);
  }
}

TEST_F(ServerFixture, HealthzIsAlwaysOk) {
  std::string response = Get(server_.port(), "/api/healthz");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos);
}

TEST_F(ServerFixture, ReadyzFollowsSetReady) {
  std::string response = Get(server_.port(), "/api/readyz");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"status\":\"ready\""), std::string::npos);

  api_.SetReady(false);  // what graceful shutdown does before Stop()
  response = Get(server_.port(), "/api/readyz");
  EXPECT_NE(response.find("503"), std::string::npos);
  EXPECT_NE(response.find("draining"), std::string::npos);
  // Liveness is unaffected by drain — only readiness flips.
  EXPECT_NE(Get(server_.port(), "/api/healthz").find("200 OK"),
            std::string::npos);

  api_.SetReady(true);
  response = Get(server_.port(), "/api/readyz");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
}

// ---------- Request tracing (/api/trace, DESIGN.md §5.12) ----------

/// Value of header `name` in a raw HTTP response ("" when absent).
std::string HeaderValue(const std::string& response,
                        const std::string& name) {
  std::string needle = "\r\n" + name + ": ";
  size_t pos = response.find(needle);
  if (pos == std::string::npos) return "";
  pos += needle.size();
  size_t end = response.find("\r\n", pos);
  return response.substr(pos, end - pos);
}

TEST_F(ServerFixture, ResponsesCarryTraceIdHeader) {
  std::string response = Get(server_.port(), "/api/stats");
  std::string trace_id = HeaderValue(response, "X-Nous-Trace-Id");
  ASSERT_FALSE(trace_id.empty());
  EXPECT_NE(std::strtoull(trace_id.c_str(), nullptr, 10), 0u);
}

TEST_F(ServerFixture, TraceEndpointServesChromeTraceJson) {
  // Generate at least one traced request first.
  Get(server_.port(), "/api/query?q=tell+me+about+DJI");
  std::string response = Get(server_.port(), "/api/trace?limit=50");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  // Chrome trace-event envelope, loadable in Perfetto.
  EXPECT_NE(response.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(response.find("\"displayTimeUnit\":\"ms\""),
            std::string::npos);
  EXPECT_NE(response.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(response.find("\"cat\":\"nous\""), std::string::npos);
  // Ids are exported as decimal strings (64-bit safe in JSON).
  EXPECT_NE(response.find("\"trace_id\":\""), std::string::npos);
  EXPECT_NE(response.find("\"span_id\":\""), std::string::npos);
  // The body is a complete JSON object.
  size_t body_start = response.find("\r\n\r\n");
  ASSERT_NE(body_start, std::string::npos);
  std::string body = response.substr(body_start + 4);
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body.front(), '{');
  EXPECT_EQ(body.back() == '}' ||
                (body.back() == '\n' && body[body.size() - 2] == '}'),
            true);
}

TEST_F(ServerFixture, QueryRequestFormsSingleTraceTree) {
  std::string response =
      Get(server_.port(), "/api/query?q=tell+me+about+DJI");
  std::string header = HeaderValue(response, "X-Nous-Trace-Id");
  ASSERT_FALSE(header.empty());
  uint64_t trace_id = std::strtoull(header.c_str(), nullptr, 10);
  ASSERT_NE(trace_id, 0u);

  // The buffered spans for this request form one tree: a single
  // http_request root, with every other span reachable from it.
  std::vector<SpanRecord> trace =
      TraceBuffer::Global().CollectTrace(trace_id);
  ASSERT_GE(trace.size(), 2u);  // http_request + api_query at least
  size_t roots = 0;
  uint64_t root_span_id = 0;
  std::set<uint64_t> span_ids;
  for (const SpanRecord& s : trace) span_ids.insert(s.span_id);
  for (const SpanRecord& s : trace) {
    if (s.parent_span_id == 0) {
      ++roots;
      root_span_id = s.span_id;
      EXPECT_STREQ(s.name, "http_request");
    } else {
      EXPECT_TRUE(span_ids.count(s.parent_span_id))
          << s.name << " has dangling parent";
    }
  }
  EXPECT_EQ(roots, 1u);
  ASSERT_NE(root_span_id, 0u);

  // And the trace is visible through the export endpoint.
  std::string exported = Get(server_.port(), "/api/trace?limit=2000");
  EXPECT_NE(exported.find("\"trace_id\":\"" + header + "\""),
            std::string::npos);
}

TEST_F(ServerFixture, AnswerJsonIsTimedAsARenderSpanUnderApiQuery) {
  auto renders = [] {
    for (const auto& row : MetricsRegistry::Global().HistogramRows()) {
      if (row.name == "nous_render_latency_seconds") return row.count;
    }
    return uint64_t{0};
  };
  const uint64_t before = renders();
  std::string response =
      Get(server_.port(), "/api/query?q=tell+me+about+DJI");
  ASSERT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_EQ(renders(), before + 1);
  const uint64_t trace_id = std::strtoull(
      HeaderValue(response, "X-Nous-Trace-Id").c_str(), nullptr, 10);
  ASSERT_NE(trace_id, 0u);
  const SpanRecord* api_query = nullptr;
  const SpanRecord* render = nullptr;
  std::vector<SpanRecord> trace =
      TraceBuffer::Global().CollectTrace(trace_id);
  for (const SpanRecord& s : trace) {
    if (std::strcmp(s.name, "api_query") == 0) api_query = &s;
    if (std::strcmp(s.name, "render") == 0) {
      EXPECT_EQ(render, nullptr) << "one render span per answer";
      render = &s;
    }
  }
  ASSERT_NE(api_query, nullptr);
  ASSERT_NE(render, nullptr);
  EXPECT_EQ(render->parent_span_id, api_query->span_id);

  // Another answer (a cache hit) renders again; a failed query does not.
  Get(server_.port(), "/api/query?q=tell+me+about+DJI");
  EXPECT_EQ(renders(), before + 2);
  response = Get(server_.port(), "/api/query?q=tell+me+about+Nobody+Known");
  EXPECT_NE(response.find("404"), std::string::npos);
  EXPECT_EQ(renders(), before + 2);
}

TEST_F(ServerFixture, TraceEndpointRejectsBadLimit) {
  EXPECT_NE(Get(server_.port(), "/api/trace?limit=0").find("400"),
            std::string::npos);
  EXPECT_NE(Get(server_.port(), "/api/trace?limit=-3").find("400"),
            std::string::npos);
}

TEST_F(ServerFixture, StatsReportVersionAndCacheCounters) {
  // A query warms the cache counters (fixture cache is on by default).
  Get(server_.port(), "/api/query?q=tell+me+about+DJI");
  Get(server_.port(), "/api/query?q=tell+me+about+DJI");
  std::string response = Get(server_.port(), "/api/stats");
  EXPECT_NE(response.find("\"kg_version\":"), std::string::npos);
  EXPECT_NE(response.find("\"snapshot_publishes\":"), std::string::npos);
  EXPECT_NE(response.find("\"snapshot_graph_bytes\":"),
            std::string::npos);
  EXPECT_NE(response.find("\"query_cache\":{"), std::string::npos);
  EXPECT_NE(response.find("\"hits\":"), std::string::npos);
  EXPECT_NE(response.find("\"misses\":"), std::string::npos);
  EXPECT_NE(response.find("\"evictions\":"), std::string::npos);
}

// ---------- Overload & abuse hardening (DESIGN.md §5.10) ----------

TEST(HttpServerHardeningTest, OversizedHeadersAre431) {
  HttpServerOptions options;
  options.max_header_bytes = 256;
  HttpServer server([](const HttpRequest&) { return HttpResponse{}; },
                    options);
  ASSERT_TRUE(server.Start(0).ok());
  std::string request = "GET / HTTP/1.1\r\nX-Filler: " +
                        std::string(1000, 'a') + "\r\n\r\n";
  std::string response = HttpGet(server.port(), request);
  EXPECT_NE(response.find("431"), std::string::npos);
  server.Stop();
}

TEST(HttpServerHardeningTest, OversizedBodyIs413) {
  HttpServerOptions options;
  options.max_body_bytes = 64;
  HttpServer server([](const HttpRequest&) { return HttpResponse{}; },
                    options);
  ASSERT_TRUE(server.Start(0).ok());
  // Declared oversized: rejected from the Content-Length header alone,
  // before the server reads (or the client even sends) the body.
  std::string declared =
      "POST /api/ingest HTTP/1.1\r\nHost: x\r\nContent-Length: 5000\r\n\r\n";
  EXPECT_NE(HttpGet(server.port(), declared).find("413"),
            std::string::npos);
  // In-bounds body on the same server still works.
  std::string small_body = "ok";
  std::string small =
      "POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: " +
      std::to_string(small_body.size()) + "\r\n\r\n" + small_body;
  EXPECT_NE(HttpGet(server.port(), small).find("200 OK"),
            std::string::npos);
  server.Stop();
}

TEST(HttpServerHardeningTest, StalledClientGets408NotAWedgedWorker) {
  HttpServerOptions options;
  options.io_timeout_ms = 200;
  HttpServer server([](const HttpRequest&) { return HttpResponse{}; },
                    options);
  ASSERT_TRUE(server.Start(0).ok());
  // Send half a request and stall: the per-socket deadline fires and
  // the server answers 408 instead of waiting forever.
  int fd = ConnectAndSend(server.port(), "GET / HTTP/1.1\r\nHost:");
  std::string response = RecvAll(fd);
  EXPECT_NE(response.find("408"), std::string::npos);
  // The worker is free again.
  EXPECT_NE(Get(server.port(), "/").find("200 OK"), std::string::npos);
  server.Stop();
}

TEST(HttpServerHardeningTest, PrematureDisconnectDoesNotCrashTheServer) {
  HttpServer server([](const HttpRequest&) { return HttpResponse{}; },
                    HttpServerOptions{});
  ASSERT_TRUE(server.Start(0).ok());
  for (int i = 0; i < 5; ++i) {
    int fd = ConnectAndSend(server.port(), "GET /par");
    ::close(fd);  // hang up mid-request
  }
  int bare = ConnectAndSend(server.port(), "");
  ::close(bare);  // hang up before sending anything
  EXPECT_NE(Get(server.port(), "/").find("200 OK"), std::string::npos);
  server.Stop();
}

TEST(HttpServerHardeningTest, FloodBeyondMaxInflightIsShedWith503) {
  HttpServerOptions options;
  options.num_threads = 2;
  options.max_inflight = 1;
  HttpServer server(
      [](const HttpRequest&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
        return HttpResponse{};
      },
      options);
  ASSERT_TRUE(server.Start(0).ok());

  // Occupy the single in-flight slot with a slow request...
  int slow = ConnectAndSend(server.port(),
                            "GET /slow HTTP/1.1\r\nHost: x\r\n\r\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // ...then flood: with the slot taken, new connections are shed
  // immediately with 503 instead of queueing without bound.
  size_t shed = 0;
  for (int i = 0; i < 4; ++i) {
    std::string response = Get(server.port(), "/flood");
    if (response.find("503") != std::string::npos) ++shed;
  }
  EXPECT_GE(shed, 1u);
  // The slow request was accepted before the flood and still completes
  // normally (shedding rejects new work, never started work).
  EXPECT_NE(RecvAll(slow).find("200 OK"), std::string::npos);
  server.Stop();
}

// ---------- Replication serving tier ----------

/// Canned ReplicationTelemetry so the serving-tier contract (version
/// header, staleness gate, read-only mode, stats) is testable without
/// standing up a real leader/follower pair.
class FakeReplication : public ReplicationTelemetry {
 public:
  ReplicationView View() const override { return view; }
  ReplicationView view;
};

TEST_F(ServerFixture, EveryResponseCarriesTheKgVersionHeader) {
  for (const char* path : {"/", "/api/stats", "/api/query?q=DJI"}) {
    std::string response = Get(server_.port(), path);
    EXPECT_NE(response.find("X-Nous-Kg-Version: "), std::string::npos)
        << path;
  }
  // The advertised version is the fixture's actual KG version, so
  // clients can track bounded staleness end to end.
  std::string response = Get(server_.port(), "/api/stats");
  size_t at = response.find("X-Nous-Kg-Version: ");
  ASSERT_NE(at, std::string::npos);
  EXPECT_GT(std::atoll(response.c_str() + at + 19), 0);
}

TEST_F(ServerFixture, ReadyzIs503WhenReplicaLagExceedsTheBound) {
  FakeReplication repl;
  repl.view.role = "follower";
  repl.view.kg_version = 3;
  repl.view.leader_kg_version = 9;
  repl.view.lag_versions = 6;
  api_.ConfigureReplication(&repl, /*max_staleness_versions=*/2,
                            /*read_only=*/true);
  std::string response = Get(server_.port(), "/api/readyz");
  EXPECT_NE(response.find("503"), std::string::npos);
  EXPECT_NE(response.find("lags leader"), std::string::npos);
}

TEST_F(ServerFixture, ReadyzIs503UntilTheFirstLeaderHeartbeat) {
  FakeReplication repl;
  repl.view.role = "follower";
  repl.view.leader_kg_version = 0;  // never heard from the leader
  api_.ConfigureReplication(&repl, /*max_staleness_versions=*/2,
                            /*read_only=*/true);
  std::string response = Get(server_.port(), "/api/readyz");
  EXPECT_NE(response.find("503"), std::string::npos);
  EXPECT_NE(response.find("staleness unknown"), std::string::npos);
}

TEST_F(ServerFixture, ReadyzIs200WhenLagIsWithinTheBound) {
  FakeReplication repl;
  repl.view.role = "follower";
  repl.view.kg_version = 8;
  repl.view.leader_kg_version = 9;
  repl.view.lag_versions = 1;
  api_.ConfigureReplication(&repl, /*max_staleness_versions=*/2,
                            /*read_only=*/true);
  std::string response = Get(server_.port(), "/api/readyz");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
}

TEST_F(ServerFixture, ReadOnlyFollowerRejectsIngestWith403) {
  FakeReplication repl;
  repl.view.role = "follower";
  repl.view.leader_kg_version = 1;
  repl.view.kg_version = 1;
  api_.ConfigureReplication(&repl, 0, /*read_only=*/true);
  std::string body = "Parrot acquired Windermere.";
  std::string request =
      "POST /api/ingest?source=test&year=2015 HTTP/1.1\r\nHost: x\r\n"
      "Content-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  std::string response = HttpGet(server_.port(), request);
  EXPECT_NE(response.find("403"), std::string::npos);
  EXPECT_NE(response.find("read-only"), std::string::npos);
  // Reads still serve.
  EXPECT_NE(Get(server_.port(), "/api/stats").find("200 OK"),
            std::string::npos);
}

TEST_F(ServerFixture, StatsReportReplicationState) {
  FakeReplication repl;
  repl.view.role = "follower";
  repl.view.connected = true;
  repl.view.last_seq = 7;
  repl.view.kg_version = 4;
  repl.view.leader_seq = 7;
  repl.view.leader_kg_version = 5;
  repl.view.lag_versions = 1;
  repl.view.frames_applied = 12;
  api_.ConfigureReplication(&repl, /*max_staleness_versions=*/3,
                            /*read_only=*/true);
  std::string response = Get(server_.port(), "/api/stats");
  EXPECT_NE(response.find("\"replication\":{"), std::string::npos);
  EXPECT_NE(response.find("\"role\":\"follower\""), std::string::npos);
  EXPECT_NE(response.find("\"lag_versions\":1"), std::string::npos);
  EXPECT_NE(response.find("\"max_staleness_versions\":3"),
            std::string::npos);
  EXPECT_NE(response.find("\"frames_applied\":12"), std::string::npos);
}

TEST_F(ServerFixture, StatsOmitReplicationWhenNotConfigured) {
  std::string response = Get(server_.port(), "/api/stats");
  EXPECT_EQ(response.find("\"replication\":{"), std::string::npos);
}

TEST(HttpServerTest, StopIsIdempotentAndRestartable) {
  HttpServer server([](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start(0).ok());
  uint16_t port = server.port();
  EXPECT_GT(port, 0);
  server.Stop();
  server.Stop();  // no double-free / hang
  SUCCEED();
}

}  // namespace
}  // namespace nous
