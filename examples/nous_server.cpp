// Web demo (the paper's Figure 6): builds a drone-domain KG from a
// synthetic stream and serves the query interface over HTTP.
//
//   nous_server [port] [num_events] [--threads N] [--wal-dir DIR]
//               [--checkpoint-interval N] [--fsync MODE]
//               [--query-cache-entries N] [--no-query-cache]
//               [--slow-query-ms MS] [--replicate-to PORT]
//               [--follow HOST:PORT] [--max-staleness-versions N]
//
// --threads N sets both the pipeline's extraction/BPR worker pool and
// the number of concurrent HTTP connection handlers (default: the
// machine's hardware concurrency). The built KG is identical for
// every value.
//
// --query-cache-entries N bounds the versioned answer cache (LRU, N
// entries, default 1024); --no-query-cache disables it. Either way,
// queries serve from immutable KG snapshots and never block ingest
// (DESIGN.md §5.11).
//
// --wal-dir DIR makes ingest crash-safe (DESIGN.md §5.10): the server
// recovers whatever a previous run left in DIR (checkpoint + WAL
// replay, skipping the demo build), then logs every new ingest before
// applying it. --checkpoint-interval N checkpoints every N logged
// batches (default 8; 0 = only on shutdown); --fsync always|interval|
// never picks the WAL flush policy.
//
// --slow-query-ms MS logs a Warning with trace id + per-stage
// breakdown for every request slower than MS milliseconds (also
// settable via the NOUS_SLOW_QUERY_MS environment variable; the flag
// wins). A background ResourceSampler exports RSS, snapshot clone
// bytes, cache hit ratio, and queue depth through /api/metrics.
//
// Replication (DESIGN.md §5.15; both modes require --wal-dir):
//   --replicate-to PORT   serve the durability WAL to followers on
//                         127.0.0.1:PORT (this process is the leader)
//   --follow HOST:PORT    become a read-only follower of the leader at
//                         HOST:PORT: skip the demo build, replay the
//                         leader's stream, reject POST /api/ingest
//                         with 403
//   --max-staleness-versions N   follower readiness gate: /api/readyz
//                         turns 503 while this replica lags the leader
//                         by more than N KG versions
// Every HTTP response carries X-Nous-Kg-Version, the KG version the
// process served, so clients can bound replica read staleness.
//
// SIGTERM/SIGINT drain gracefully at any phase: during the demo build
// the ingest loop stops at the next batch boundary; while serving,
// readiness flips to 503 first so load balancers move traffic away,
// in-flight requests finish, then replication stops and a final
// checkpoint is written.
//
// then open http://127.0.0.1:<port>/ — or hit the JSON API:
//   curl 'http://127.0.0.1:8080/api/query?q=tell+me+about+DJI'
//   curl 'http://127.0.0.1:8080/api/stats'
//   curl 'http://127.0.0.1:8080/api/trace?limit=200'   # Perfetto JSON
//   curl 'http://127.0.0.1:8080/api/healthz'
//   curl -X POST --data 'DJI acquired SkyWard Labs.'
//        'http://127.0.0.1:8080/api/ingest?source=curl&year=2016'
//   (join the two curl lines into one command)

#include <csignal>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "core/nous.h"
#include "corpus/article_generator.h"
#include "corpus/document_stream.h"
#include "corpus/world_model.h"
#include "kb/kb_generator.h"
#include "obs/metrics.h"
#include "obs/resource_sampler.h"
#include "obs/trace.h"
#include "replication/follower.h"
#include "replication/leader.h"
#include "server/api.h"

namespace {
volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

bool ParseFsyncPolicy(const std::string& mode, nous::FsyncPolicy* policy) {
  if (mode == "always") *policy = nous::FsyncPolicy::kAlways;
  else if (mode == "interval") *policy = nous::FsyncPolicy::kInterval;
  else if (mode == "never") *policy = nous::FsyncPolicy::kNever;
  else return false;
  return true;
}

/// Checked flag values: `--threads=abc` is a usage error, not a
/// silent fallback (std::atoi returned 0, which meant "hardware
/// concurrency" here and "replication disabled" for --replicate-to).
size_t RequireSize(const char* flag, std::string_view value, size_t min,
                   size_t max) {
  size_t parsed = 0;
  if (!nous::ParseSize(value, &parsed, min, max)) {
    std::cerr << flag << " expects an integer in [" << min << ", " << max
              << "], got '" << value << "'\n";
    std::exit(1);
  }
  return parsed;
}

uint16_t RequirePort(const char* flag, std::string_view value) {
  uint16_t port = 0;
  if (!nous::ParsePort(value, &port)) {
    std::cerr << flag << " expects a port in [1, 65535], got '" << value
              << "'\n";
    std::exit(1);
  }
  return port;
}

double RequireDouble(const char* flag, std::string_view value) {
  double parsed = 0;
  if (!nous::ParseDouble(value, &parsed)) {
    std::cerr << flag << " expects a number, got '" << value << "'\n";
    std::exit(1);
  }
  return parsed;
}
}  // namespace

int main(int argc, char** argv) {
  using namespace nous;
  size_t num_threads = 0;  // 0 = hardware_concurrency
  std::string wal_dir;
  size_t checkpoint_interval = 8;
  FsyncPolicy fsync_policy = FsyncPolicy::kInterval;
  QueryCacheOptions query_cache;
  bool no_query_cache = false;
  int replicate_to_port = 0;
  std::string follow_target;  // "host:port"
  uint64_t max_staleness_versions = 0;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      num_threads = RequireSize("--threads", argv[++i], 1, 1024);
    } else if (arg.rfind("--threads=", 0) == 0) {
      num_threads = RequireSize("--threads", arg.substr(10), 1, 1024);
    } else if (arg == "--wal-dir" && i + 1 < argc) {
      wal_dir = argv[++i];
    } else if (arg.rfind("--wal-dir=", 0) == 0) {
      wal_dir = arg.substr(10);
    } else if (arg == "--checkpoint-interval" && i + 1 < argc) {
      checkpoint_interval =
          RequireSize("--checkpoint-interval", argv[++i], 0, SIZE_MAX);
    } else if (arg.rfind("--checkpoint-interval=", 0) == 0) {
      checkpoint_interval =
          RequireSize("--checkpoint-interval", arg.substr(22), 0, SIZE_MAX);
    } else if (arg == "--fsync" && i + 1 < argc) {
      if (!ParseFsyncPolicy(argv[++i], &fsync_policy)) {
        std::cerr << "--fsync expects always|interval|never\n";
        return 1;
      }
    } else if (arg.rfind("--fsync=", 0) == 0) {
      if (!ParseFsyncPolicy(arg.substr(8), &fsync_policy)) {
        std::cerr << "--fsync expects always|interval|never\n";
        return 1;
      }
    } else if (arg == "--query-cache-entries" && i + 1 < argc) {
      query_cache.entries =
          RequireSize("--query-cache-entries", argv[++i], 1, SIZE_MAX);
    } else if (arg.rfind("--query-cache-entries=", 0) == 0) {
      query_cache.entries =
          RequireSize("--query-cache-entries", arg.substr(22), 1, SIZE_MAX);
    } else if (arg == "--no-query-cache") {
      no_query_cache = true;
    } else if (arg == "--slow-query-ms" && i + 1 < argc) {
      SetSlowTraceThresholdMs(RequireDouble("--slow-query-ms", argv[++i]));
    } else if (arg.rfind("--slow-query-ms=", 0) == 0) {
      SetSlowTraceThresholdMs(
          RequireDouble("--slow-query-ms", arg.substr(16)));
    } else if (arg == "--replicate-to" && i + 1 < argc) {
      replicate_to_port = RequirePort("--replicate-to", argv[++i]);
    } else if (arg.rfind("--replicate-to=", 0) == 0) {
      replicate_to_port = RequirePort("--replicate-to", arg.substr(15));
    } else if (arg == "--follow" && i + 1 < argc) {
      follow_target = argv[++i];
    } else if (arg.rfind("--follow=", 0) == 0) {
      follow_target = arg.substr(9);
    } else if (arg == "--max-staleness-versions" && i + 1 < argc) {
      uint64_t parsed = 0;
      if (!ParseUint64(argv[++i], &parsed)) {
        std::cerr << "--max-staleness-versions expects a non-negative "
                     "integer, got '"
                  << argv[i] << "'\n";
        return 1;
      }
      max_staleness_versions = parsed;
    } else if (arg.rfind("--max-staleness-versions=", 0) == 0) {
      uint64_t parsed = 0;
      if (!ParseUint64(arg.substr(25), &parsed)) {
        std::cerr << "--max-staleness-versions expects a non-negative "
                     "integer, got '"
                  << arg.substr(25) << "'\n";
        return 1;
      }
      max_staleness_versions = parsed;
    } else {
      positional.push_back(arg);
    }
  }
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  // Port 70000 is now an error instead of wrapping to 4464 through
  // static_cast<uint16_t>(std::atoi(...)).
  uint16_t port = 8080;
  if (!positional.empty()) port = RequirePort("port", positional[0]);
  size_t num_events = 400;
  if (positional.size() > 1) {
    num_events = RequireSize("num_events", positional[1], 1, 10000000);
  }

  const bool is_follower = !follow_target.empty();
  const bool is_leader = replicate_to_port > 0;
  if (is_leader && is_follower) {
    std::cerr << "--replicate-to and --follow are mutually exclusive\n";
    return 1;
  }
  if ((is_leader || is_follower) && wal_dir.empty()) {
    std::cerr << "replication streams the durability WAL: --replicate-to"
                 " and --follow both require --wal-dir\n";
    return 1;
  }
  std::string follow_host;
  uint16_t follow_port = 0;
  if (is_follower) {
    const size_t colon = follow_target.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == follow_target.size() ||
        !ParsePort(follow_target.substr(colon + 1), &follow_port)) {
      std::cerr << "--follow expects HOST:PORT\n";
      return 1;
    }
    follow_host = follow_target.substr(0, colon);
  }

  DroneWorldConfig world_config;
  world_config.num_events = num_events;
  WorldModel world = WorldModel::BuildDroneWorld(world_config);
  KbCoverage coverage;
  coverage.entity_coverage = 0.6;
  CuratedKb kb = BuildCuratedKb(world, Ontology::DroneDefault(), coverage);
  DocumentStream stream(
      ArticleGenerator(&world, CorpusConfig{}).GenerateArticles());

  Nous::Options options;
  options.pipeline.miner.use_vertex_types = true;
  options.pipeline.miner.min_support = 4;
  options.pipeline.num_threads = num_threads;
  options.durability.dir = wal_dir;
  options.durability.checkpoint_interval_batches = checkpoint_interval;
  options.durability.fsync_policy = fsync_policy;
  options.query_cache = query_cache;
  // --no-query-cache wins over --query-cache-entries, in either order.
  if (no_query_cache) options.query_cache.entries = 0;
  Nous nous(&kb, options);

  // Handlers go in before the (potentially long) KG build so an early
  // SIGTERM drains instead of killing a half-built durable state.
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  bool build_demo_kg = true;
  if (!wal_dir.empty()) {
    auto recovered = nous.Recover();
    if (!recovered.ok()) {
      std::cerr << "recovery failed: " << recovered.status() << "\n";
      return 1;
    }
    if (recovered->restored_checkpoint ||
        recovered->replayed_batches > 0) {
      std::cout << "Recovered KG from " << wal_dir << " (checkpoint: "
                << (recovered->restored_checkpoint ? "yes" : "no")
                << ", replayed batches: " << recovered->replayed_batches
                << ", dropped torn records: "
                << recovered->dropped_wal_records << ")\n";
      nous.Finalize();
      build_demo_kg = false;
    }
  }
  if (is_follower) {
    // A follower's KG is derived from the leader's stream; building
    // the demo corpus locally would fork it before the first frame.
    build_demo_kg = false;
  }
  if (build_demo_kg) {
    std::cout << "Building demo KG from " << stream.TotalCount()
              << " articles (" << num_threads << " threads"
              << (wal_dir.empty() ? "" : ", durable") << ")...\n";
    // Batch-at-a-time (the WAL commit unit) so SIGTERM mid-build stops
    // at a clean batch boundary instead of discarding the run.
    constexpr size_t kBatch = 64;
    std::vector<Article> batch;
    batch.reserve(kBatch);
    while (!stream.Done() && !g_stop) {
      batch.push_back(stream.Next());
      if (batch.size() == kBatch) {
        Status ingest_status = nous.IngestBatch(batch);
        if (!ingest_status.ok()) {
          std::cerr << "ingest failed: " << ingest_status << "\n";
          return 1;
        }
        batch.clear();
      }
    }
    if (!g_stop && !batch.empty()) {
      Status ingest_status = nous.IngestBatch(batch);
      if (!ingest_status.ok()) {
        std::cerr << "ingest failed: " << ingest_status << "\n";
        return 1;
      }
    }
    nous.Finalize();
  }
  std::cout << nous.ComputeStats().ToString();

  ResourceSampler sampler;
  nous.RegisterResourceProbes(&sampler);
  sampler.Start();

  std::unique_ptr<ReplicationLeader> leader;
  std::unique_ptr<ReplicationFollower> follower;
  if (is_leader) {
    ReplicationLeader::Options leader_options;
    leader_options.port = static_cast<uint16_t>(replicate_to_port);
    leader = std::make_unique<ReplicationLeader>(&nous, leader_options);
    Status started = leader->Start();
    if (!started.ok()) {
      std::cerr << "replication leader failed to start: " << started
                << "\n";
      return 1;
    }
    std::cout << "Replicating to followers on 127.0.0.1:"
              << leader->port() << "\n";
  } else if (is_follower) {
    ReplicationFollower::Options follower_options;
    follower_options.host = follow_host;
    follower_options.port = static_cast<uint16_t>(follow_port);
    follower =
        std::make_unique<ReplicationFollower>(&nous, follower_options);
    Status started = follower->Start();
    if (!started.ok()) {
      std::cerr << "replication follower failed to start: " << started
                << "\n";
      return 1;
    }
    std::cout << "Following leader at " << follow_host << ":"
              << follow_port << " (read-only replica)\n";
  }

  NousApi api(&nous);
  if (leader != nullptr) {
    api.ConfigureReplication(leader.get(), /*max_staleness_versions=*/0,
                             /*read_only=*/false);
  } else if (follower != nullptr) {
    api.ConfigureReplication(follower.get(), max_staleness_versions,
                             /*read_only=*/true);
  }
  HttpServerOptions server_options;
  server_options.num_threads = num_threads;
  HttpServer server(
      [&api](const HttpRequest& request) { return api.Handle(request); },
      server_options);
  Status status = server.Start(port);
  if (!status.ok()) {
    std::cerr << "failed to start: " << status << "\n";
    return 1;
  }
  std::cout << "Serving http://127.0.0.1:" << server.port()
            << "/  (Ctrl-C to stop)\n";
  while (!g_stop) {
    ::usleep(200000);
  }
  // Graceful drain: fail readiness first so a load balancer stops
  // sending traffic, then stop (which finishes in-flight requests),
  // then detach from the replication fleet.
  api.SetReady(false);
  server.Stop();
  if (follower != nullptr) follower->Stop();
  if (leader != nullptr) leader->Stop();
  sampler.Stop();
  if (nous.durable()) {
    Status ckpt = nous.Checkpoint();
    if (!ckpt.ok()) std::cerr << "final checkpoint: " << ckpt << "\n";
  }
  std::cout << "stopped\n\n";
  MetricsRegistry::Global().PrintSummary(std::cout);
  return 0;
}
