// E12 — replication fan-out (DESIGN.md §5.15): one WAL-shipping
// leader ingesting batches while 1/2/4 followers replay the stream
// and serve queries lock-free from their local snapshots. Measures
// what the serving tier promises:
//
//   lag        commit-to-applied latency: how long after IngestBatch
//              returns on the leader until *every* follower's durable
//              KG version has caught up (p50/p99 across batches)
//   qps        aggregate query throughput across all followers while
//              the stream is live (reads scale with follower count;
//              the leader's ingest path never blocks on them)
//
// Each run ends with a Finalize + convergence wait and asserts the
// followers' graphs are bit-identical to the leader's — a bench run
// that diverges is a bug, not a data point.
//
// Results land in BENCH_replication.json.
//
//   bench_replication [--small]
//
// --small shrinks the corpus and batch count for CI smoke runs.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/binary_io.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "core/nous.h"
#include "durability/fs_util.h"
#include "durability/wal.h"
#include "replication/follower.h"
#include "replication/leader.h"
#include "server/json_writer.h"

namespace nous {
namespace {

struct RunResult {
  size_t followers = 0;
  size_t batches = 0;
  double lag_p50_ms = 0;
  double lag_p99_ms = 0;
  size_t queries = 0;
  double seconds = 0;
  double qps = 0;
  uint64_t frames_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t checkpoints_sent = 0;
  bool bit_identical = false;
};

double Percentile(std::vector<double>* sorted_in_place, double q) {
  std::vector<double>& v = *sorted_in_place;
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
  return v[idx];
}

std::string FreshDir(const std::string& name) {
  std::string dir = "/tmp/nous_bench_replication_" + name;
  NOUS_CHECK_OK(EnsureDirectory(dir));
  for (const char* file :
       {"/wal.log", "/checkpoint.nous", "/checkpoint.nous.tmp"}) {
    NOUS_CHECK_OK(RemoveFile(dir + file));
  }
  return dir;
}

Nous::Options DurableOptions(const std::string& dir) {
  Nous::Options options;
  options.pipeline.lda.iterations = 5;
  options.pipeline.bpr.epochs = 1;
  options.pipeline.miner.min_support = 3;
  options.pipeline.num_threads = 2;
  options.durability.dir = dir;
  options.durability.fsync_policy = FsyncPolicy::kNever;
  options.durability.checkpoint_interval_batches = 0;
  return options;
}

std::unique_ptr<Nous> MakeDurableNous(const CuratedKb* kb,
                                      const std::string& dir) {
  auto nous = std::make_unique<Nous>(kb, DurableOptions(dir));
  auto recovered = nous->Recover();
  NOUS_CHECK_OK(recovered.status());
  return nous;
}

std::string GraphBytes(Nous& nous) {
  ReaderMutexLock lock(nous.kg_mutex());
  BinaryWriter w;
  nous.graph().SaveBinary(&w);
  return w.Take();
}

/// Entity-lookup query mix drawn from the leader's live snapshot so
/// followers answer real questions about the replicated graph.
std::vector<std::string> BuildQueryMix(Nous& leader, size_t count) {
  std::vector<std::string> queries;
  if (auto snap = leader.snapshot(); snap != nullptr) {
    for (VertexId v = 0;
         v < snap->graph().NumVertices() && queries.size() < count; ++v) {
      if (snap->graph().OutDegree(v) + snap->graph().InDegree(v) > 0) {
        queries.push_back("tell me about " +
                          snap->graph().VertexLabel(v));
      }
    }
  }
  if (queries.empty()) queries.push_back("what is trending");
  return queries;
}

RunResult RunOne(const bench::DroneFixture& fixture,
                 const std::vector<std::vector<Article>>& batches,
                 size_t num_followers) {
  RunResult result;
  result.followers = num_followers;

  const std::string tag = std::to_string(num_followers);
  auto leader_nous = MakeDurableNous(&fixture.kb, FreshDir("leader_" + tag));
  ReplicationLeader leader(leader_nous.get(), {});
  NOUS_CHECK_OK(leader.Start());

  std::vector<std::unique_ptr<Nous>> follower_nous;
  std::vector<std::unique_ptr<ReplicationFollower>> followers;
  for (size_t f = 0; f < num_followers; ++f) {
    follower_nous.push_back(MakeDurableNous(
        &fixture.kb,
        FreshDir("follower_" + tag + "_" + std::to_string(f))));
    ReplicationFollower::Options options;
    options.port = leader.port();
    options.reconnect_initial_ms = 20;
    options.reconnect_max_ms = 200;
    followers.push_back(std::make_unique<ReplicationFollower>(
        follower_nous.back().get(), options));
    NOUS_CHECK_OK(followers.back()->Start());
  }

  auto all_caught_up = [&](uint64_t seq, uint64_t kgv) {
    for (auto& nous : follower_nous) {
      if (nous->last_durable_seq() < seq ||
          nous->durable_kg_version() < kgv) {
        return false;
      }
    }
    return true;
  };
  auto wait_caught_up = [&](uint64_t seq, uint64_t kgv) {
    while (!all_caught_up(seq, kgv)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  // Warm batch: bring every follower online before measuring.
  NOUS_CHECK_OK(leader_nous->IngestBatch(batches[0]));
  wait_caught_up(leader_nous->last_durable_seq(),
                 leader_nous->durable_kg_version());
  std::vector<std::string> queries = BuildQueryMix(*leader_nous, 256);

  // Readers: one thread per follower firing the query mix for the
  // whole measured window. Aggregate completions / wall time = QPS.
  std::atomic<bool> stop{false};
  std::atomic<size_t> completed{0};
  std::vector<std::thread> readers;
  readers.reserve(num_followers);
  for (size_t f = 0; f < num_followers; ++f) {
    readers.emplace_back([&, f] {
      size_t i = f;  // stride offset so followers diverge in the mix
      while (!stop.load(std::memory_order_relaxed)) {
        auto answer = follower_nous[f]->Ask(queries[i % queries.size()]);
        benchmark::DoNotOptimize(answer);
        completed.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  }

  // Measured window: stream the remaining batches, timing how long
  // each commit takes to reach every follower.
  std::vector<double> lags_ms;
  const auto window_start = std::chrono::steady_clock::now();
  for (size_t b = 1; b < batches.size(); ++b) {
    NOUS_CHECK_OK(leader_nous->IngestBatch(batches[b]));
    const uint64_t seq = leader_nous->last_durable_seq();
    const uint64_t kgv = leader_nous->durable_kg_version();
    const auto committed = std::chrono::steady_clock::now();
    wait_caught_up(seq, kgv);
    lags_ms.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - committed)
                          .count());
  }
  const double window_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    window_start)
          .count();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();

  // Finalize propagates as a WAL record; convergence must end
  // in bit-identical graphs on every follower.
  NOUS_CHECK_OK(leader_nous->Finalize());
  wait_caught_up(leader_nous->last_durable_seq(),
                 leader_nous->durable_kg_version());
  const std::string leader_bytes = GraphBytes(*leader_nous);
  result.bit_identical = true;
  for (auto& nous : follower_nous) {
    if (GraphBytes(*nous) != leader_bytes) result.bit_identical = false;
  }

  ReplicationView view = leader.View();
  result.batches = batches.size() - 1;
  result.lag_p50_ms = Percentile(&lags_ms, 0.50);
  result.lag_p99_ms = Percentile(&lags_ms, 0.99);
  result.queries = completed.load();
  result.seconds = window_seconds;
  result.qps = window_seconds > 0
                   ? static_cast<double>(result.queries) / window_seconds
                   : 0;
  result.frames_sent = view.frames_sent;
  result.bytes_sent = view.bytes_sent;
  result.checkpoints_sent = view.checkpoints_sent;

  for (auto& f : followers) f->Stop();
  leader.Stop();
  return result;
}

void RunSweep(bool small) {
  bench::PrintHeader(
      "E12: replication fan-out",
      "DESIGN.md §5.15 'fault-tolerant WAL-shipping replication'",
      "Commit-to-applied lag and aggregate follower QPS vs replica "
      "count; every run must end bit-identical.");
  const size_t events = small ? 80 : 240;
  const size_t batch_size = 4;
  const size_t max_batches = small ? 8 : 24;
  auto fixture = bench::MakeDroneFixture(events, 17, 0.6);
  std::vector<std::vector<Article>> batches;
  for (size_t start = 0; start + batch_size <= fixture.articles.size() &&
                         batches.size() < max_batches;
       start += batch_size) {
    batches.emplace_back(fixture.articles.begin() + start,
                         fixture.articles.begin() + start + batch_size);
  }

  TablePrinter table({"followers", "batches", "lag p50 ms", "lag p99 ms",
                      "queries", "qps", "frames", "MB sent",
                      "bit-identical"});
  std::vector<RunResult> results;
  for (size_t followers : {1ul, 2ul, 4ul}) {
    RunResult r = RunOne(fixture, batches, followers);
    table.AddRow(
        {TablePrinter::Int(static_cast<long long>(r.followers)),
         TablePrinter::Int(static_cast<long long>(r.batches)),
         TablePrinter::Num(r.lag_p50_ms, 2),
         TablePrinter::Num(r.lag_p99_ms, 2),
         TablePrinter::Int(static_cast<long long>(r.queries)),
         TablePrinter::Num(r.qps, 0),
         TablePrinter::Int(static_cast<long long>(r.frames_sent)),
         TablePrinter::Num(static_cast<double>(r.bytes_sent) / 1e6, 2),
         r.bit_identical ? "yes" : "NO"});
    results.push_back(std::move(r));
  }
  table.Print(std::cout);

  bool all_identical = true;
  for (const RunResult& r : results) {
    all_identical = all_identical && r.bit_identical;
  }
  std::cout << "\nbit-identical after Finalize on every run: "
            << (all_identical ? "yes" : "NO") << "\n";

  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("replication");
  json.Key("events");
  json.Int(static_cast<long long>(events));
  json.Key("articles");
  json.Int(static_cast<long long>(fixture.articles.size()));
  json.Key("batch_size");
  json.Int(static_cast<long long>(batch_size));
  json.Key("small_preset");
  json.Bool(small);
  json.Key("hardware_concurrency");
  json.Int(static_cast<long long>(std::thread::hardware_concurrency()));
  json.Key("all_runs_bit_identical");
  json.Bool(all_identical);
  json.Key("runs");
  json.BeginArray();
  for (const RunResult& r : results) {
    json.BeginObject();
    json.Key("followers");
    json.Int(static_cast<long long>(r.followers));
    json.Key("batches");
    json.Int(static_cast<long long>(r.batches));
    json.Key("lag_p50_ms");
    json.Number(r.lag_p50_ms);
    json.Key("lag_p99_ms");
    json.Number(r.lag_p99_ms);
    json.Key("queries");
    json.Int(static_cast<long long>(r.queries));
    json.Key("window_seconds");
    json.Number(r.seconds);
    json.Key("qps");
    json.Number(r.qps);
    json.Key("frames_sent");
    json.Int(static_cast<long long>(r.frames_sent));
    json.Key("bytes_sent");
    json.Int(static_cast<long long>(r.bytes_sent));
    json.Key("checkpoints_sent");
    json.Int(static_cast<long long>(r.checkpoints_sent));
    json.Key("bit_identical");
    json.Bool(r.bit_identical);
    json.EndObject();
  }
  json.EndArray();
  json.Key("peak_rss_bytes");
  json.Int(static_cast<long long>(PeakRssBytes()));
  json.EndObject();
  std::ofstream out("BENCH_replication.json");
  out << json.Result() << "\n";
  std::cout << "wrote BENCH_replication.json\n";
}

}  // namespace
}  // namespace nous

int main(int argc, char** argv) {
  bool small = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--small") {
      small = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  benchmark::Initialize(&argc, argv);
  nous::RunSweep(small);
  return 0;
}
