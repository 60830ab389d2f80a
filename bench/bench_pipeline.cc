// E8 — reproduces Figure 1 / §1 contribution 3: the end-to-end
// construction pipeline on a streaming corpus. Per-stage cost
// breakdown, document/triple throughput, the parallel-ingest speedup
// sweep (writes BENCH_pipeline.json), and the multi-source property:
// the fraction of relationship answers whose evidence spans two or
// more distinct data sources ("connect the dots across multiple data
// sources").
//
//   bench_pipeline [--threads N]   # sweep caps at N (default:
//                                  # hardware concurrency)

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/binary_io.h"
#include "common/fault_injection.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "core/nous.h"
#include "corpus/document_stream.h"
#include "durability/fs_util.h"
#include "server/json_writer.h"
#include "common/status.h"

namespace nous {
namespace {

/// Waits until the mining stage has mined every committed batch, so a
/// timer stopped after it and the stats read after it include mining.
void DrainMining(const Nous& nous) {
  ReaderMutexLock lock(nous.kg_mutex());
  (void)nous.miner();
}

/// Wall time of fixed work on two threads at once over the same work on
/// one: ~1 when the host gives the process two CPUs in parallel, ~2
/// when it runs the threads one after the other. E8b prints it beside
/// each speedup, which follows the parallel CPU the host happens to
/// give as much as the code.
double SpinRatio() {
  auto spin = [] {
    volatile uint64_t x = 0;
    for (uint64_t i = 0; i < 50'000'000; ++i) x = x + i;
  };
  WallTimer one;
  spin();
  const double one_thread = one.ElapsedSeconds();
  WallTimer two;
  std::thread a(spin), b(spin);
  a.join();
  b.join();
  return two.ElapsedSeconds() / std::max(one_thread, 1e-9);
}

void RunThroughput() {
  bench::PrintHeader(
      "E8: end-to-end pipeline",
      "Figure 1 (system) + §1 contribution 3 (multi-source answers)",
      "Stage breakdown (us/doc and share), throughput, and evidence "
      "source spread, as the corpus grows 200 -> 25600 events.");
  std::cout << "hardware_concurrency: " << std::thread::hardware_concurrency()
            << "\n";
  TablePrinter table({"events", "articles", "docs/s", "triples/s",
                      "extract us/doc", "extract %", "link us/doc",
                      "link %", "map us/doc", "map %", "score us/doc",
                      "score %", "refresh us/doc", "refresh %",
                      "mine us/doc", "mine %", "link adj/doc",
                      "subsets/edge", "q4 mine us/doc", "q4 subsets/edge",
                      "live emb"});
  // Adjacency entries the linker reads per document: what still grows
  // with hub degree (coherence reads each candidate's full adjacency).
  MetricsRegistry& registry = MetricsRegistry::Global();
  const Counter* adjacency_scanned =
      registry.GetCounter("nous_linker_adjacency_scanned_total");
  // What mining cost follows: subsets the miner enumerates per edge
  // arriving in its window (one per accepted triple; the curated
  // bootstrap is excluded), that ratio and mine us/doc over the last
  // quarter of the articles (the marginal cost once the window has
  // filled), and the live embeddings at the end of the run.
  const Counter* subsets_enumerated =
      registry.GetCounter("nous_mining_subsets_enumerated_total");
  const Gauge* live_embeddings =
      registry.GetGauge("nous_mining_live_embeddings");
  for (size_t events :
       {200ul, 400ul, 800ul, 1600ul, 3200ul, 6400ul, 12800ul, 25600ul}) {
    CorpusConfig corpus_config;
    corpus_config.sources = {"wsj", "webcrawl", "technews"};
    auto fixture = bench::MakeDroneFixture(events, 17, 0.6,
                                           corpus_config);
    Nous nous(&fixture.kb);
    const uint64_t scanned_before = adjacency_scanned->Value();
    const uint64_t subsets_before = subsets_enumerated->Value();
    const size_t q4_start = fixture.articles.size() * 3 / 4;
    PipelineStats at_q4;
    uint64_t subsets_at_q4 = 0;
    WallTimer timer;
    for (size_t i = 0; i < fixture.articles.size(); ++i) {
      if (i == q4_start) {
        DrainMining(nous);
        at_q4 = nous.stats();
        subsets_at_q4 = subsets_enumerated->Value();
      }
      NOUS_CHECK_OK(nous.Ingest(fixture.articles[i]));
    }
    DrainMining(nous);
    double ingest_seconds = timer.ElapsedSeconds();
    const PipelineStats& ps = nous.stats();
    double stage_total = ps.extract_seconds + ps.link_seconds +
                         ps.map_seconds + ps.score_seconds +
                         ps.refresh_seconds + ps.mine_seconds;
    if (stage_total <= 0) stage_total = 1e-9;
    const double docs =
        static_cast<double>(std::max<size_t>(ps.documents, 1));
    std::vector<std::string> row = {
        TablePrinter::Int(static_cast<long long>(events)),
        TablePrinter::Int(static_cast<long long>(ps.documents)),
        TablePrinter::Num(static_cast<double>(ps.documents) /
                              ingest_seconds, 1),
        TablePrinter::Num(static_cast<double>(ps.accepted_triples) /
                              ingest_seconds, 1)};
    for (double s : {ps.extract_seconds, ps.link_seconds, ps.map_seconds,
                     ps.score_seconds, ps.refresh_seconds,
                     ps.mine_seconds}) {
      row.push_back(TablePrinter::Num(1e6 * s / docs, 1));
      row.push_back(TablePrinter::Num(100.0 * s / stage_total, 1));
    }
    row.push_back(TablePrinter::Num(
        static_cast<double>(adjacency_scanned->Value() - scanned_before) /
            docs,
        0));
    auto per = [](double amount, size_t count) {
      return amount / static_cast<double>(std::max<size_t>(count, 1));
    };
    const uint64_t subsets = subsets_enumerated->Value();
    row.push_back(TablePrinter::Num(
        per(static_cast<double>(subsets - subsets_before),
            ps.accepted_triples),
        1));
    row.push_back(TablePrinter::Num(
        1e6 * per(ps.mine_seconds - at_q4.mine_seconds,
                  ps.documents - at_q4.documents),
        1));
    row.push_back(TablePrinter::Num(
        per(static_cast<double>(subsets - subsets_at_q4),
            ps.accepted_triples - at_q4.accepted_triples),
        1));
    row.push_back(TablePrinter::Int(
        static_cast<long long>(live_embeddings->Value())));
    table.AddRow(row);
  }
  table.Print(std::cout);
}

/// Events of the world E8b renders (see RunParallelIngest).
constexpr size_t kParallelIngestEvents = 20000;

/// Parallel-ingest sweep: one corpus at 1..N pipeline threads.
/// Ingestion goes through Nous::IngestStream (batched IngestBatch), so
/// pool helpers extract ahead of the in-order commit loop, and
/// Finalize() fits BPR and LDA side by side. The corpus renders a
/// world three times the standard one's size (90 companies, 60 people,
/// 45 products), whose many distinct events make a stream that takes
/// over a second at 1 thread, so the sweep measures scaling rather than
/// fixed costs. Each run's time ends when the mining stage has mined
/// the last batch. "inline" counts the documents the committing thread
/// extracted itself and "wait s" its time waiting for a helper: a
/// pool that starts late shows up there. "spin 2t" is SpinRatio(),
/// taken right after the run. The finalized KG image must
/// be byte-identical at every thread count; returns false (after
/// printing the table) when one differs from the 1-thread run. Results
/// land in BENCH_pipeline.json (written by main, which appends the
/// group-commit sweep to the same object).
bool RunParallelIngest(size_t max_threads, JsonWriter* out) {
  bench::PrintHeader(
      "E8b: parallel ingest speedup",
      "§4 scalability ('scales gracefully with stream rate')",
      "docs/sec and per-stage seconds, 1 vs N extraction threads.");
  std::cout << "nproc: " << std::thread::hardware_concurrency() << "\n";
  std::vector<size_t> sweep;
  for (size_t t : {1ul, 2ul, 4ul, 8ul}) {
    if (t <= max_threads) sweep.push_back(t);
  }
  if (sweep.empty() || sweep.back() != max_threads) {
    sweep.push_back(max_threads);
  }

  DroneWorldConfig world;
  world.num_companies = 90;
  world.num_people = 60;
  world.num_products = 45;
  world.num_events = kParallelIngestEvents;
  CorpusConfig corpus_config;
  corpus_config.sources = {"wsj", "webcrawl", "technews"};
  auto fixture = bench::MakeDroneFixture(world, 0.6, corpus_config);

  TablePrinter table({"threads", "seconds", "docs/s", "speedup",
                      "spin 2t", "inline", "wait s", "extract s", "link s",
                      "map s",
                      "score s", "refresh s", "mine s", "finalize s"});
  JsonWriter& json = *out;
  json.Key("bench");
  json.String("pipeline_parallel_ingest");
  json.Key("events");
  json.Int(static_cast<long long>(kParallelIngestEvents));
  json.Key("articles");
  json.Int(static_cast<long long>(fixture.articles.size()));
  json.Key("hardware_concurrency");
  json.Int(static_cast<long long>(std::thread::hardware_concurrency()));
  json.Key("runs");
  json.BeginArray();

  double serial_seconds = 0;
  std::string serial_image;
  std::vector<size_t> diverged;
  for (size_t threads : sweep) {
    // Reset per run so the publish quantiles below describe this
    // thread count only.
    MetricsRegistry::Global().ResetAll();
    Nous::Options options;
    options.pipeline.num_threads = threads;
    Nous nous(&fixture.kb, options);
    DocumentStream stream(fixture.articles);
    WallTimer timer;
    NOUS_CHECK_OK(nous.IngestStream(&stream, /*finalize=*/false));
    DrainMining(nous);
    double seconds = timer.ElapsedSeconds();
    const double spin_ratio = SpinRatio();
    if (threads == sweep.front()) serial_seconds = seconds;
    const PipelineStats ps = nous.stats();  // ingest only
    WallTimer finalize_timer;
    NOUS_CHECK_OK(nous.Finalize());
    const double finalize_seconds = finalize_timer.ElapsedSeconds();
    size_t vertices = 0, edges = 0;
    BinaryWriter image;
    {
      ReaderMutexLock lock(nous.kg_mutex());
      vertices = nous.graph().NumVertices();
      edges = nous.graph().NumEdges();
      nous.graph().SaveBinary(&image);
    }
    if (threads == sweep.front()) {
      serial_image = image.data();
    } else if (image.data() != serial_image) {
      diverged.push_back(threads);
    }
    double docs_per_sec =
        static_cast<double>(ps.documents) / std::max(seconds, 1e-9);
    double speedup = serial_seconds / std::max(seconds, 1e-9);
    table.AddRow(
        {TablePrinter::Int(static_cast<long long>(threads)),
         TablePrinter::Num(seconds, 2),
         TablePrinter::Num(docs_per_sec, 1),
         TablePrinter::Num(speedup, 2),
         TablePrinter::Num(spin_ratio, 2),
         TablePrinter::Int(static_cast<long long>(ps.inline_extractions)),
         TablePrinter::Num(ps.extract_wait_seconds, 3),
         TablePrinter::Num(ps.extract_seconds, 2),
         TablePrinter::Num(ps.link_seconds, 2),
         TablePrinter::Num(ps.map_seconds, 2),
         TablePrinter::Num(ps.score_seconds, 2),
         TablePrinter::Num(ps.refresh_seconds, 2),
         TablePrinter::Num(ps.mine_seconds, 2),
         TablePrinter::Num(finalize_seconds, 2)});
    json.BeginObject();
    json.Key("threads");
    json.Int(static_cast<long long>(threads));
    json.Key("seconds");
    json.Number(seconds);
    json.Key("docs_per_sec");
    json.Number(docs_per_sec);
    json.Key("speedup_vs_1_thread");
    json.Number(speedup);
    json.Key("spin_ratio_2_threads");
    json.Number(spin_ratio);
    json.Key("inline_extractions");
    json.Int(static_cast<long long>(ps.inline_extractions));
    json.Key("extract_wait_seconds");
    json.Number(ps.extract_wait_seconds);
    json.Key("extract_seconds");
    json.Number(ps.extract_seconds);
    json.Key("link_seconds");
    json.Number(ps.link_seconds);
    json.Key("map_seconds");
    json.Number(ps.map_seconds);
    json.Key("score_seconds");
    json.Number(ps.score_seconds);
    json.Key("refresh_seconds");
    json.Number(ps.refresh_seconds);
    json.Key("mine_seconds");
    json.Number(ps.mine_seconds);
    json.Key("finalize_seconds");
    json.Number(finalize_seconds);
    json.Key("vertices");
    json.Int(static_cast<long long>(vertices));
    json.Key("edges");
    json.Int(static_cast<long long>(edges));
    bench::LatencyQuantilesUs publish = bench::GlobalHistogramQuantilesUs(
        "nous_snapshot_publish_latency_seconds");
    json.Key("publish_count");
    json.Int(static_cast<long long>(publish.count));
    json.Key("publish_p50_us");
    json.Number(publish.p50_us);
    json.Key("publish_p99_us");
    json.Number(publish.p99_us);
    json.Key("peak_rss_bytes");
    json.Int(static_cast<long long>(PeakRssBytes()));
    json.EndObject();
  }
  json.EndArray();
  json.Key("peak_rss_bytes");
  json.Int(static_cast<long long>(PeakRssBytes()));
  table.Print(std::cout);
  for (size_t threads : diverged) {
    std::cout << "ERROR: finalized KG image at " << threads
              << " threads differs from the 1-thread image\n";
  }
  if (!diverged.empty()) return false;
  std::cout << "\nFinalized KG image identical across thread counts ("
            << serial_image.size() << " bytes): extraction ahead of "
            << "an ordered commit loop, Finalize's fits side by side\n";
  return true;
}

/// A scratch durability directory with no stale WAL/checkpoint files
/// from an earlier run.
std::string FreshCommitDir(size_t writers) {
  std::string dir = "/tmp/nous_bench_commit_" + std::to_string(writers);
  NOUS_CHECK_OK(EnsureDirectory(dir));
  for (const char* file :
       {"/wal.log", "/checkpoint.nous", "/checkpoint.nous.tmp"}) {
    NOUS_CHECK_OK(RemoveFile(dir + file));
  }
  return dir;
}

/// Group-commit sweep (DESIGN.md §5.16): 1/2/4/8 writer threads
/// committing single-article batches to one WAL with an fsync before
/// every acknowledgement (FsyncPolicy::kAlways). Each writer logs,
/// applies and publishes under the ingest mutex, then waits for the
/// fsync with the mutex released; one fsync covers every record
/// appended while the previous one ran, so fsyncs/commit falls and
/// commits/s rises with the writer count.
void RunGroupCommit(JsonWriter* out) {
  bench::PrintHeader(
      "E8c: durable commit throughput (group commit)",
      "DESIGN.md §5.16 (single-WAL group commit)",
      "1..8 writers, one WAL, every commit fsynced before its ack.");
  // This container's page cache acks fsync in ~0.15 ms; production
  // block storage takes 1-5 ms. Pad every WAL fsync to a realistic
  // floor so the sweep measures how the commit path handles real
  // storage, not the host's write cache.
  constexpr int64_t kFsyncDelayMs = 1;
  CorpusConfig corpus_config;
  corpus_config.sources = {"wsj", "webcrawl", "technews"};
  // Single-fact articles with the noise knobs off: per-commit pipeline
  // CPU stays minimal, so the durable flush dominates (extraction cost
  // has its own sweeps above).
  corpus_config.min_facts_per_article = 1;
  corpus_config.max_facts_per_article = 1;
  corpus_config.pronoun_rate = 0;
  corpus_config.alias_rate = 0;
  corpus_config.passive_rate = 0;
  corpus_config.distractor_rate = 0;
  corpus_config.flavor_rate = 0;
  corpus_config.date_mention_rate = 0;
  auto fixture = bench::MakeDroneFixture(400, 29, 0.6, corpus_config);
  std::cout << "fsync latency padded to " << kFsyncDelayMs
            << " ms (production-storage floor; this host's cache syncs "
               "in ~0.15 ms)\n";
  FaultInjector::Global().Arm("wal_fsync", FaultKind::kDelay, 1,
                              /*sticky=*/true, kFsyncDelayMs);

  TablePrinter table({"writers", "seconds", "commits/s",
                      "speedup vs 1 writer", "fsyncs/commit", "edges"});
  JsonWriter& json = *out;
  json.Key("group_commit");
  json.BeginObject();
  json.Key("commits");
  json.Int(static_cast<long long>(fixture.articles.size()));
  json.Key("fsync_policy");
  json.String("always");
  json.Key("fsync_delay_ms");
  json.Int(kFsyncDelayMs);
  json.Key("runs");
  json.BeginArray();

  double base_rate = 0;
  for (size_t writers : {1ul, 2ul, 4ul, 8ul}) {
    Nous::Options options;
    // Commit-bound configuration: batch analytics (mining, link
    // prediction) off and topic inference short, so each commit is
    // dominated by the WAL flush rather than model refreshes.
    options.pipeline.enable_mining = false;
    options.pipeline.enable_link_prediction = false;
    options.pipeline.lda.iterations = 5;
    options.durability.dir = FreshCommitDir(writers);
    options.durability.fsync_policy = FsyncPolicy::kAlways;
    Nous nous(&fixture.kb, options);
    NOUS_CHECK_OK(nous.EnableDurability());
    const uint64_t fsyncs_before =
        bench::GlobalHistogramQuantilesUs("nous_wal_fsync_latency_seconds")
            .count;

    std::atomic<size_t> next{0};
    WallTimer timer;
    std::vector<std::thread> threads;
    threads.reserve(writers);
    for (size_t w = 0; w < writers; ++w) {
      threads.emplace_back([&] {
        for (;;) {
          size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= fixture.articles.size()) return;
          NOUS_CHECK_OK(nous.Ingest(fixture.articles[i]));
        }
      });
    }
    for (auto& t : threads) t.join();
    double seconds = timer.ElapsedSeconds();

    const double commits = static_cast<double>(fixture.articles.size());
    const double fsyncs = static_cast<double>(
        bench::GlobalHistogramQuantilesUs("nous_wal_fsync_latency_seconds")
            .count -
        fsyncs_before);
    double rate = commits / std::max(seconds, 1e-9);
    if (writers == 1) base_rate = rate;
    double speedup = rate / std::max(base_rate, 1e-9);
    size_t edges = nous.snapshot()->graph().NumEdges();
    table.AddRow({TablePrinter::Int(static_cast<long long>(writers)),
                  TablePrinter::Num(seconds, 2),
                  TablePrinter::Num(rate, 1),
                  TablePrinter::Num(speedup, 2),
                  TablePrinter::Num(fsyncs / commits, 3),
                  TablePrinter::Int(static_cast<long long>(edges))});
    json.BeginObject();
    json.Key("writers");
    json.Int(static_cast<long long>(writers));
    json.Key("seconds");
    json.Number(seconds);
    json.Key("commits_per_sec");
    json.Number(rate);
    json.Key("speedup_vs_1_writer");
    json.Number(speedup);
    json.Key("fsyncs_per_commit");
    json.Number(fsyncs / commits);
    json.Key("edges");
    json.Int(static_cast<long long>(edges));
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  FaultInjector::Global().Disarm("wal_fsync");
  table.Print(std::cout);
  std::cout << "\nShape to check: fsyncs/commit falls below 1 as writers "
               "are added — one fsync acknowledges every commit appended "
               "while the previous one ran — and commits/s rises with "
               "it; edges are equal in every row.\n";
}

void RunMultiSource() {
  std::cout << "\n-- multi-source relationship answers (800 events, 3 "
               "feeds) --\n";
  CorpusConfig corpus_config;
  corpus_config.sources = {"wsj", "webcrawl", "technews"};
  auto fixture = bench::MakeDroneFixture(800, 23, 0.6, corpus_config);
  Nous nous(&fixture.kb);
  for (const Article& a : fixture.articles) NOUS_CHECK_OK(nous.Ingest(a));
  NOUS_CHECK_OK(nous.Finalize());

  // Sample connected (s, t) pairs two hops apart and ask for
  // explanations.
  const PropertyGraph& g = nous.graph();
  Rng rng(41);
  size_t asked = 0, answered = 0, multi_source = 0;
  Histogram sources_per_answer;
  size_t attempts = 0;
  while (asked < 60 && attempts++ < 2000) {
    VertexId s = static_cast<VertexId>(rng.UniformInt(g.NumVertices()));
    if (g.OutDegree(s) == 0) continue;
    const AdjEntry& hop1 =
        g.OutEdges(s)[rng.UniformInt(g.OutDegree(s))];
    if (g.OutDegree(hop1.neighbor) == 0) continue;
    const AdjEntry& hop2 = g.OutEdges(
        hop1.neighbor)[rng.UniformInt(g.OutDegree(hop1.neighbor))];
    if (hop2.neighbor == s) continue;
    ++asked;
    auto answer = nous.Ask("explain " + g.VertexLabel(s) + " and " +
                           g.VertexLabel(hop2.neighbor));
    if (!answer.ok() || answer->paths.empty()) continue;
    ++answered;
    sources_per_answer.Add(
        static_cast<double>(answer->distinct_sources));
    if (answer->distinct_sources >= 2) ++multi_source;
  }
  TablePrinter table({"asked", "answered", ">=2 sources",
                      "multi-source frac", "mean sources/answer"});
  table.AddRow(
      {TablePrinter::Int(static_cast<long long>(asked)),
       TablePrinter::Int(static_cast<long long>(answered)),
       TablePrinter::Int(static_cast<long long>(multi_source)),
       TablePrinter::Num(answered == 0
                             ? 0.0
                             : static_cast<double>(multi_source) /
                                   static_cast<double>(answered), 3),
       TablePrinter::Num(sources_per_answer.Mean(), 2)});
  table.Print(std::cout);
  std::cout << "\nShape to check: a majority of explanation answers "
               "compose evidence from 2+ sources (curated KB counts as "
               "a source) — the capability text-passage systems lack.\n";
}

void BM_PipelineIngest(benchmark::State& state) {
  auto fixture = bench::MakeDroneFixture(300);
  Nous nous(&fixture.kb);
  size_t i = 0;
  for (auto _ : state) {
    NOUS_CHECK_OK(nous.Ingest(fixture.articles[i % fixture.articles.size()]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_PipelineIngest);

}  // namespace
}  // namespace nous

int main(int argc, char** argv) {
  size_t max_threads = 0;
  // Consume --threads ourselves (compacting argv) so the
  // remaining flags go to the benchmark library untouched. Checked
  // parsing: "--threads 4x" is an error, not 4 (atoi's old behavior).
  auto parse = [](const char* flag, const std::string& text, size_t* value,
                  size_t min, size_t max) {
    if (!nous::ParseSize(text, value, min, max)) {
      std::cerr << "invalid " << flag << " '" << text
                << "': expected an integer in [" << min << ", " << max
                << "]\n";
      std::exit(2);
    }
  };
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      parse("--threads", argv[++i], &max_threads, 1, 1024);
    } else if (arg.rfind("--threads=", 0) == 0) {
      parse("--threads", arg.substr(10), &max_threads, 1, 1024);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  if (max_threads == 0) {
    max_threads = std::thread::hardware_concurrency();
    if (max_threads == 0) max_threads = 1;
  }
  nous::JsonWriter json;
  json.BeginObject();
  if (!nous::RunParallelIngest(max_threads, &json)) return 1;
  nous::RunGroupCommit(&json);
  json.EndObject();
  {
    std::ofstream file("BENCH_pipeline.json");
    file << json.Result() << "\n";
  }
  std::cout << "\nwrote BENCH_pipeline.json (parallel-ingest + "
               "group-commit sweeps)\n";
  nous::RunThroughput();
  nous::RunMultiSource();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
