// E9 — query serving under concurrent ingest (DESIGN.md §5.11): the
// workload the snapshot refactor exists for. One writer thread ingests
// at a fixed offered rate while 1..N reader threads fire the Figure-5
// query mix; we measure per-query latency, query throughput, and the
// achieved ingest rate in two serving modes:
//
//   snapshot        lock-free serving from immutable KgSnapshots
//   snapshot+cache  snapshot serving plus the versioned LRU answer
//                   cache (hits only while the KG version is stable)
//
// Results land in BENCH_query_serving.json. Both modes must sustain
// the offered ingest rate; the cache's p50 gain over plain snapshot
// serving at the widest thread count is the headline. (The former
// reader-locked baseline is recorded in EXPERIMENTS.md, E9.)
//
//   bench_query_serving [--threads N] [--small]
//
// --small shrinks the corpus and per-run duration for CI smoke runs.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "core/nous.h"
#include "server/json_writer.h"
#include "common/status.h"

namespace nous {
namespace {

struct ServingMode {
  const char* name;
  bool cache;
};

constexpr ServingMode kModes[] = {
    {"snapshot", false},
    {"snapshot+cache", true},
};

struct RunResult {
  std::string mode;
  size_t query_threads = 0;
  size_t queries = 0;
  double seconds = 0;
  double qps = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  size_t ingested_docs = 0;
  size_t offered_docs = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Snapshot publish latency over this run (registry is reset per
  /// run).
  uint64_t publish_count = 0;
  double publish_p50_us = 0;
  double publish_p99_us = 0;
  /// Process peak RSS at the end of the run (monotonic across runs).
  uint64_t peak_rss_bytes = 0;
};

double Percentile(std::vector<double>* sorted_in_place, double q) {
  std::vector<double>& v = *sorted_in_place;
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
  return v[idx];
}

/// The query mix, derived once from a reference build of the same
/// fixture so every mode serves identical questions: entity lookups
/// dominate, with relationship explanations, trending, and patterns
/// mixed in (Figure 5's four classes).
std::vector<std::string> BuildQueryMix(const bench::DroneFixture& fixture,
                                       size_t count) {
  Nous reference(&fixture.kb);
  for (const Article& a : fixture.articles) NOUS_CHECK_OK(reference.Ingest(a));
  std::vector<std::string> labels;
  {
    auto snap = reference.snapshot();
    for (VertexId v = 0; v < snap->graph().NumVertices(); ++v) {
      if (snap->graph().OutDegree(v) + snap->graph().InDegree(v) > 0) {
        labels.push_back(snap->graph().VertexLabel(v));
      }
    }
  }
  std::vector<std::string> queries;
  Rng rng(97);
  while (queries.size() < count && !labels.empty()) {
    double roll = rng.UniformDouble();
    if (roll < 0.6) {
      queries.push_back(
          "tell me about " + labels[rng.UniformInt(labels.size())]);
    } else if (roll < 0.8) {
      const std::string& a = labels[rng.UniformInt(labels.size())];
      const std::string& b = labels[rng.UniformInt(labels.size())];
      if (a == b) continue;
      queries.push_back("explain " + a + " and " + b);
    } else if (roll < 0.9) {
      queries.push_back("what is trending");
    } else {
      queries.push_back("show patterns");
    }
  }
  return queries;
}

RunResult RunOne(const bench::DroneFixture& fixture,
                 const std::vector<std::string>& queries,
                 const ServingMode& mode, size_t query_threads,
                 size_t warm_docs, double duration_seconds,
                 double ingest_period_seconds) {
  // Per-run latency accounting: the publish histogram (and everything
  // else in the process-wide registry) restarts from zero, so the
  // quantiles reported below describe only this run.
  MetricsRegistry::Global().ResetAll();
  Nous::Options options;
  if (!mode.cache) options.query_cache.entries = 0;
  Nous nous(&fixture.kb, options);
  for (size_t i = 0; i < warm_docs && i < fixture.articles.size(); ++i) {
    NOUS_CHECK_OK(nous.Ingest(fixture.articles[i]));
  }

  std::atomic<bool> stop{false};
  std::atomic<size_t> ingested{0};
  // The writer: cycles the remaining articles at a fixed offered rate
  // (one document per `ingest_period_seconds`), so every mode faces
  // the same write load. A mode that cannot keep up shows the
  // shortfall in ingested vs offered docs.
  std::thread writer([&] {
    auto deadline = std::chrono::steady_clock::now();
    size_t i = warm_docs;
    while (!stop.load(std::memory_order_relaxed)) {
      NOUS_CHECK_OK(nous.Ingest(fixture.articles[i % fixture.articles.size()]));
      ingested.fetch_add(1, std::memory_order_relaxed);
      ++i;
      deadline += std::chrono::duration_cast<
          std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(ingest_period_seconds));
      std::this_thread::sleep_until(deadline);
    }
  });

  std::vector<std::vector<double>> latencies(query_threads);
  std::vector<std::thread> readers;
  readers.reserve(query_threads);
  for (size_t t = 0; t < query_threads; ++t) {
    readers.emplace_back([&, t] {
      std::vector<double>& local = latencies[t];
      local.reserve(1 << 14);
      size_t i = t;  // stride offset so threads diverge in the mix
      while (!stop.load(std::memory_order_relaxed)) {
        auto start = std::chrono::steady_clock::now();
        auto answer = nous.Ask(queries[i % queries.size()]);
        auto end = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(answer);
        local.push_back(
            std::chrono::duration<double, std::micro>(end - start)
                .count());
        ++i;
      }
    });
  }

  std::this_thread::sleep_for(
      std::chrono::duration<double>(duration_seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();
  writer.join();

  std::vector<double> all;
  for (const auto& local : latencies) {
    all.insert(all.end(), local.begin(), local.end());
  }
  RunResult result;
  result.mode = mode.name;
  result.query_threads = query_threads;
  result.queries = all.size();
  result.seconds = duration_seconds;
  result.qps = static_cast<double>(all.size()) / duration_seconds;
  result.p50_us = Percentile(&all, 0.50);
  result.p90_us = Percentile(&all, 0.90);
  result.p99_us = Percentile(&all, 0.99);
  result.ingested_docs = ingested.load();
  result.offered_docs = static_cast<size_t>(duration_seconds /
                                            ingest_period_seconds);
  if (const QueryCache* cache = nous.query_cache()) {
    QueryCache::Stats stats = cache->stats();
    result.cache_hits = stats.hits;
    result.cache_misses = stats.misses;
  }
  bench::LatencyQuantilesUs publish = bench::GlobalHistogramQuantilesUs(
      "nous_snapshot_publish_latency_seconds");
  result.publish_count = publish.count;
  result.publish_p50_us = publish.p50_us;
  result.publish_p99_us = publish.p99_us;
  result.peak_rss_bytes = PeakRssBytes();
  return result;
}

void RunSweep(size_t max_threads, bool small) {
  bench::PrintHeader(
      "E9: query serving under ingest",
      "§3.6 'querying the dynamic knowledge graph' + DESIGN.md §5.11",
      "Mixed read/write load: p50/p90/p99 query latency per serving "
      "mode.");
  const size_t events = small ? 120 : 400;
  const double duration = small ? 0.4 : 1.5;
  // Offered ingest load: 250 docs/s; both modes sustain it.
  const double ingest_period = 0.004;
  auto fixture = bench::MakeDroneFixture(events, 17, 0.6);
  const size_t warm_docs = fixture.articles.size() / 2;
  std::vector<std::string> queries = BuildQueryMix(fixture, 256);

  std::vector<size_t> sweep;
  for (size_t t : {1ul, 2ul, 4ul, 8ul}) {
    if (t <= max_threads) sweep.push_back(t);
  }
  if (sweep.empty()) sweep.push_back(1);

  TablePrinter table({"mode", "threads", "queries", "qps", "p50 us",
                      "p90 us", "p99 us", "ingest doc %",
                      "cache hit %"});
  std::vector<RunResult> results;
  for (const ServingMode& mode : kModes) {
    for (size_t threads : sweep) {
      RunResult r = RunOne(fixture, queries, mode, threads, warm_docs,
                           duration, ingest_period);
      uint64_t lookups = r.cache_hits + r.cache_misses;
      table.AddRow(
          {r.mode, TablePrinter::Int(static_cast<long long>(threads)),
           TablePrinter::Int(static_cast<long long>(r.queries)),
           TablePrinter::Num(r.qps, 0), TablePrinter::Num(r.p50_us, 1),
           TablePrinter::Num(r.p90_us, 1),
           TablePrinter::Num(r.p99_us, 1),
           TablePrinter::Num(
               r.offered_docs == 0
                   ? 0.0
                   : 100.0 * static_cast<double>(r.ingested_docs) /
                         static_cast<double>(r.offered_docs),
               1),
           TablePrinter::Num(
               lookups == 0 ? 0.0
                            : 100.0 * static_cast<double>(r.cache_hits) /
                                  static_cast<double>(lookups),
               1)});
      results.push_back(std::move(r));
    }
  }
  table.Print(std::cout);

  // Headline at the widest thread count: plain snapshot p50 over the
  // default serving stack (snapshot + versioned cache).
  double snapshot_p50 = 0, default_p50 = 0;
  for (const RunResult& r : results) {
    if (r.query_threads != sweep.back()) continue;
    if (r.mode == "snapshot") snapshot_p50 = r.p50_us;
    if (r.mode == "snapshot+cache") default_p50 = r.p50_us;
  }
  double cache_speedup =
      default_p50 > 0 ? snapshot_p50 / default_p50 : 0.0;
  std::cout << "\np50 speedup at " << sweep.back()
            << " query threads: snapshot+cache (default) "
            << cache_speedup << "x over plain snapshot serving\n";

  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("query_serving");
  json.Key("events");
  json.Int(static_cast<long long>(events));
  json.Key("articles");
  json.Int(static_cast<long long>(fixture.articles.size()));
  json.Key("warm_docs");
  json.Int(static_cast<long long>(warm_docs));
  json.Key("duration_seconds");
  json.Number(duration);
  json.Key("hardware_concurrency");
  json.Int(static_cast<long long>(std::thread::hardware_concurrency()));
  json.Key("small_preset");
  json.Bool(small);
  json.Key("offered_ingest_docs_per_sec");
  json.Number(1.0 / ingest_period);
  json.Key("p50_speedup_default_vs_snapshot_at_max_threads");
  json.Number(cache_speedup);
  json.Key("runs");
  json.BeginArray();
  for (const RunResult& r : results) {
    json.BeginObject();
    json.Key("mode");
    json.String(r.mode);
    json.Key("query_threads");
    json.Int(static_cast<long long>(r.query_threads));
    json.Key("queries");
    json.Int(static_cast<long long>(r.queries));
    json.Key("qps");
    json.Number(r.qps);
    json.Key("p50_us");
    json.Number(r.p50_us);
    json.Key("p90_us");
    json.Number(r.p90_us);
    json.Key("p99_us");
    json.Number(r.p99_us);
    json.Key("ingested_docs");
    json.Int(static_cast<long long>(r.ingested_docs));
    json.Key("offered_docs");
    json.Int(static_cast<long long>(r.offered_docs));
    json.Key("cache_hits");
    json.Int(static_cast<long long>(r.cache_hits));
    json.Key("cache_misses");
    json.Int(static_cast<long long>(r.cache_misses));
    json.Key("publish_count");
    json.Int(static_cast<long long>(r.publish_count));
    json.Key("publish_p50_us");
    json.Number(r.publish_p50_us);
    json.Key("publish_p99_us");
    json.Number(r.publish_p99_us);
    json.Key("peak_rss_bytes");
    json.Int(static_cast<long long>(r.peak_rss_bytes));
    json.EndObject();
  }
  json.EndArray();
  json.Key("peak_rss_bytes");
  json.Int(static_cast<long long>(PeakRssBytes()));
  json.EndObject();
  std::ofstream out("BENCH_query_serving.json");
  out << json.Result() << "\n";
  std::cout << "wrote BENCH_query_serving.json\n";
}

/// Steady-state single-thread query latency with a warm cache — the
/// best case the versioned cache enables (no ingest, stable version).
void BM_CachedQuery(benchmark::State& state) {
  static auto* fixture = new bench::DroneFixture(
      bench::MakeDroneFixture(120, 17, 0.6));
  static Nous* nous = [] {
    Nous* n = new Nous(&fixture->kb);
    for (const Article& a : fixture->articles) NOUS_CHECK_OK(n->Ingest(a));
    return n;
  }();
  for (auto _ : state) {
    auto answer = nous->Ask("tell me about DJI");
    benchmark::DoNotOptimize(answer);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CachedQuery);

}  // namespace
}  // namespace nous

int main(int argc, char** argv) {
  size_t max_threads = 0;
  bool small = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      max_threads = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (arg.rfind("--threads=", 0) == 0) {
      max_threads = static_cast<size_t>(std::atoi(arg.c_str() + 10));
    } else if (arg == "--small") {
      small = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  // Default the sweep to 8 reader threads even on narrow machines:
  // the interesting signal is contention with the writer's publishes,
  // and oversubscription is exactly what exposes it. Past 8 the fixture
  // saturates and the numbers only restate scheduler noise.
  if (max_threads == 0) max_threads = 8;
  if (max_threads > 8) max_threads = 8;
  nous::RunSweep(max_threads, small);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
