#ifndef NOUS_SERVER_API_H_
#define NOUS_SERVER_API_H_

#include <atomic>
#include <string>

#include "common/thread_annotations.h"
#include "core/nous.h"
#include "replication/telemetry.h"
#include "server/http_server.h"

namespace nous {

/// JSON + HTML front-end over a Nous instance — the web interface of
/// the paper's Figure 6 ("Web based interface for Trending, Entity and
/// Relationship-based queries"), reduced to its essentials:
///
///   GET  /                      single-page query UI
///   GET  /api/query?q=<text>    parse + execute any Figure-5 query
///   GET  /api/stats             graph + pipeline statistics, including
///                               per-stage latency quantiles and the
///                               streaming miner's cost gauges
///   GET  /api/metrics           Prometheus text-exposition dump of the
///                               process-wide MetricsRegistry (obs/)
///   GET  /api/trace?limit=N     the N most recent completed spans as
///                               Chrome trace-event JSON (open in
///                               Perfetto / chrome://tracing)
///   GET  /api/healthz           liveness: 200 while the process runs
///   GET  /api/readyz            readiness: 200 while serving, 503
///                               after SetReady(false) (drain)
///   POST /api/ingest?source=s&year=Y&month=M&day=D   body = text
///        (503 when durable logging fails: unlogged = unacknowledged)
///
/// The API serializes Answer structures to JSON (facts with
/// provenance, trending entities, patterns, paths). Every request is
/// counted in nous_http_requests_total{code=...} and timed into
/// nous_http_request_latency_seconds. Handle() mints a root span per
/// request (child spans from the query/ingest machinery parent under
/// it, across pool threads) and stamps its trace id into the
/// X-Nous-Trace-Id response header for correlation with /api/trace
/// and the slow-query log.
///
/// Handle() is thread-safe: read endpoints (query, stats) execute and
/// serialize against one immutable KgSnapshot (DESIGN.md §5.11) and
/// never touch kg_mutex — queries cannot stall ingest commits. With
/// snapshot publishing disabled they fall back to holding the
/// pipeline's shared lock for the read-and-serialize span. Ingest
/// takes the exclusive side internally.
class NousApi {
 public:
  /// `nous` must outlive the API.
  explicit NousApi(Nous* nous);

  /// The HttpServer handler.
  HttpResponse Handle(const HttpRequest& request);

  /// Flips /api/readyz between 200 and 503. Load balancers watch it:
  /// SetReady(false) before HttpServer::Stop() lets traffic move away
  /// while in-flight requests finish (graceful drain).
  void SetReady(bool ready) {
    ready_.store(ready, std::memory_order_release);
  }
  bool ready() const { return ready_.load(std::memory_order_acquire); }

  /// Wires the serving tier to a replication endpoint (leader or
  /// follower). Effects:
  ///  - /api/stats grows a "replication" object (role, lag, counters);
  ///  - every response carries an X-Nous-Kg-Version header (the KG
  ///    version the process would serve), so clients can reason about
  ///    read staleness across the fleet;
  ///  - with max_staleness_versions > 0, /api/readyz also returns 503
  ///    while this replica lags its leader by more than that many KG
  ///    versions (or has not yet heard a leader heartbeat) — the
  ///    bounded-staleness gate load balancers use to drop a stale
  ///    replica from rotation;
  ///  - with read_only, POST /api/ingest is rejected with 403: a
  ///    replica's KG is derived state, writes belong on the leader.
  /// Call once before serving starts; `telemetry` must outlive the API.
  void ConfigureReplication(const ReplicationTelemetry* telemetry,
                            uint64_t max_staleness_versions,
                            bool read_only);

  /// JSON for one executed answer (exposed for tests). `graph` must
  /// be the view the answer was computed against — a snapshot's graph
  /// (no locking needed; it is immutable), or the live graph under a
  /// ReaderMutexLock.
  static std::string AnswerJson(const Answer& answer,
                                const PropertyGraph& graph);

 private:
  HttpResponse HandleQuery(const HttpRequest& request);
  HttpResponse HandleStats();
  HttpResponse HandleMetrics();
  HttpResponse HandleIngest(const HttpRequest& request);
  HttpResponse HandleTrace(const HttpRequest& request);
  HttpResponse Route(const HttpRequest& request);

  Nous* nous_;
  /// Readiness toggle; atomic so drain can flip it while workers serve.
  std::atomic<bool> ready_{true};  // lint: unguarded(atomic flag)
  /// Replication wiring (ConfigureReplication): set once before the
  /// server starts, read-only afterwards.
  const ReplicationTelemetry* replication_ = nullptr;
  uint64_t max_staleness_versions_ = 0;
  bool read_only_ = false;
};

/// The embedded single-page UI served at "/".
const char* DemoPageHtml();

}  // namespace nous

#endif  // NOUS_SERVER_API_H_
