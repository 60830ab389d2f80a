// E4 — the §3.5 claim: NOUS's incremental streaming miner vs.
// re-enumeration systems ("initial benchmarking ... against distributed
// graph mining systems such as Arabesque suggests 3x speedup").
//
// Method: a labeled triple stream (Zipf-skewed noise + planted star
// patterns) flows through a sliding window. The streaming miner pays
// incremental cost per edge; at every window slide (10% of the window)
// the baselines remine the current window graph from scratch. We
// report per-slide latency and the cumulative speedup, sweeping window
// size. Result sets are cross-checked for equality at each checkpoint.
//
//   bench_stream_mining [--small]
//
// --small runs smaller windows and skips the micro-benchmarks, for CI.
// The exit status is 1 when any slide's streaming result differed from
// a baseline's ("results match" = NO), so the run doubles as a miner
// equivalence gate.

#include <benchmark/benchmark.h>

#include <cstring>
#include <iostream>
#include <map>
#include <vector>

#include "bench_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "graph/graph_generator.h"
#include "graph/temporal_window.h"
#include "mining/arabesque_sim.h"
#include "mining/gspan.h"
#include "mining/streaming_miner.h"

namespace nous {
namespace {

std::vector<TimedTriple> MakeStream(size_t num_events, uint64_t seed) {
  PlantedStreamConfig config;
  config.num_events = num_events;
  config.noise_entities = num_events / 8;
  config.noise_predicates = 12;
  config.patterns = {{"alpha", {"pa", "pb"}, 0.05},
                     {"beta", {"pc", "pd"}, 0.03}};
  config.seed = seed;
  return GeneratePlantedStream(config);
}

/// Cleared by any slide whose streaming result differs from a
/// baseline's; main() turns it into the exit status.
bool g_all_results_match = true;

std::map<std::string, size_t> ResultKey(
    const std::vector<PatternStats>& stats, const Dictionary& preds) {
  std::map<std::string, size_t> key;
  for (const PatternStats& s : stats) {
    key[s.pattern.ToString(preds)] = s.support;
  }
  return key;
}

/// True when the streaming miner's frequent set equals both baselines'.
bool ResultsMatch(const StreamingMiner& miner,
                  const std::vector<PatternStats>& arabesque,
                  const std::vector<PatternStats>& gspan,
                  const Dictionary& preds) {
  auto streaming = ResultKey(miner.FrequentPatterns(), preds);
  bool match = streaming == ResultKey(arabesque, preds) &&
               streaming == ResultKey(gspan, preds);
  if (!match) g_all_results_match = false;
  return match;
}

void RunWindowSweep(bool small) {
  bench::PrintHeader(
      "E4: streaming frequent graph mining",
      "§3.5 (speedup vs Arabesque-style re-enumeration)",
      "Per-slide mining latency; slide = 10% of window; minsup = 8.");
  TablePrinter table({"window", "slides", "stream ms/slide",
                      "arabesque ms/slide", "gspan ms/slide",
                      "speedup vs arabesque", "speedup vs gspan",
                      "frequent", "results match"});
  const std::vector<size_t> windows =
      small ? std::vector<size_t>{500, 1000}
            : std::vector<size_t>{1000, 2000, 4000, 8000};
  for (size_t window_size : windows) {
    MinerConfig config;
    config.max_edges = 2;
    config.min_support = 8;
    PropertyGraph graph;
    TemporalWindow window(&graph, window_size);
    StreamingMiner miner(config);
    window.AddListener(&miner);

    const size_t slide = window_size / 10;
    auto stream = MakeStream(window_size * 3, 7 + window_size);
    double stream_seconds = 0, arabesque_seconds = 0, gspan_seconds = 0;
    size_t slides = 0;
    bool all_match = true;
    size_t frequent_count = 0;
    for (size_t i = 0; i < stream.size(); ++i) {
      WallTimer add_timer;
      window.Add(stream[i]);
      stream_seconds += add_timer.ElapsedSeconds();
      // A slide boundary after warmup: baselines remine from scratch.
      if (i >= window_size && (i % slide) == 0) {
        ++slides;
        WallTimer t1;
        auto arabesque = MineArabesqueSim(window, config);
        arabesque_seconds += t1.ElapsedSeconds();
        WallTimer t2;
        auto gspan = MineGspan(window, config);
        gspan_seconds += t2.ElapsedSeconds();
        frequent_count = miner.FrequentPatterns().size();
        if (!ResultsMatch(miner, arabesque, gspan, graph.predicates())) {
          all_match = false;
        }
      }
    }
    if (slides == 0) continue;
    // Streaming cost attributable to one slide's worth of edges.
    double stream_per_slide =
        stream_seconds / (static_cast<double>(stream.size()) /
                          static_cast<double>(slide));
    double arabesque_per_slide =
        arabesque_seconds / static_cast<double>(slides);
    double gspan_per_slide = gspan_seconds / static_cast<double>(slides);
    table.AddRow({TablePrinter::Int(static_cast<long long>(window_size)),
                  TablePrinter::Int(static_cast<long long>(slides)),
                  TablePrinter::Num(stream_per_slide * 1e3, 2),
                  TablePrinter::Num(arabesque_per_slide * 1e3, 2),
                  TablePrinter::Num(gspan_per_slide * 1e3, 2),
                  TablePrinter::Num(arabesque_per_slide /
                                    stream_per_slide, 2),
                  TablePrinter::Num(gspan_per_slide / stream_per_slide, 2),
                  TablePrinter::Int(static_cast<long long>(frequent_count)),
                  all_match ? "yes" : "NO"});
  }
  table.Print(std::cout);
  std::cout << "\nPaper claim: ~3x over Arabesque-style re-enumeration; "
               "the shape to check is speedup > 1 and growing with "
               "window size.\n";
}

void RunMinsupSweep() {
  std::cout << "\n-- minsup sensitivity (window 4000) --\n";
  TablePrinter table({"minsup", "stream ms/slide", "arabesque ms/slide",
                      "speedup", "frequent"});
  for (size_t minsup : {4ul, 8ul, 16ul, 32ul}) {
    MinerConfig config;
    config.max_edges = 2;
    config.min_support = minsup;
    PropertyGraph graph;
    TemporalWindow window(&graph, 4000);
    StreamingMiner miner(config);
    window.AddListener(&miner);
    auto stream = MakeStream(8000, 99);
    const size_t slide = 400;
    double stream_seconds = 0, arabesque_seconds = 0;
    size_t slides = 0, frequent = 0;
    for (size_t i = 0; i < stream.size(); ++i) {
      WallTimer t;
      window.Add(stream[i]);
      stream_seconds += t.ElapsedSeconds();
      if (i >= 4000 && (i % slide) == 0) {
        ++slides;
        WallTimer t1;
        auto result = MineArabesqueSim(window, config);
        arabesque_seconds += t1.ElapsedSeconds();
        frequent = result.size();
      }
    }
    double stream_per_slide =
        stream_seconds /
        (static_cast<double>(stream.size()) / static_cast<double>(slide));
    double arabesque_per_slide =
        arabesque_seconds / static_cast<double>(slides);
    table.AddRow({TablePrinter::Int(static_cast<long long>(minsup)),
                  TablePrinter::Num(stream_per_slide * 1e3, 2),
                  TablePrinter::Num(arabesque_per_slide * 1e3, 2),
                  TablePrinter::Num(arabesque_per_slide /
                                    stream_per_slide, 2),
                  TablePrinter::Int(static_cast<long long>(frequent))});
  }
  table.Print(std::cout);
}

void RunPatternSizeSweep(bool small) {
  const size_t window_size = small ? 500 : 2000;
  std::cout << "\n-- pattern size sensitivity (window " << window_size
            << ") --\n";
  TablePrinter table({"max edges", "stream ms/slide",
                      "arabesque ms/slide", "gspan ms/slide",
                      "speedup vs arabesque", "live embeddings",
                      "results match"});
  for (size_t max_edges : {1ul, 2ul, 3ul}) {
    MinerConfig config;
    config.max_edges = max_edges;
    config.min_support = 8;
    PropertyGraph graph;
    TemporalWindow window(&graph, window_size);
    StreamingMiner miner(config);
    window.AddListener(&miner);
    auto stream = MakeStream(2 * window_size, 13);
    const size_t slide = window_size / 10;
    double stream_seconds = 0, arabesque_seconds = 0, gspan_seconds = 0;
    size_t slides = 0;
    bool all_match = true;
    for (size_t i = 0; i < stream.size(); ++i) {
      WallTimer t;
      window.Add(stream[i]);
      stream_seconds += t.ElapsedSeconds();
      if (i >= window_size && (i % slide) == 0) {
        ++slides;
        WallTimer t1;
        auto arabesque = MineArabesqueSim(window, config);
        arabesque_seconds += t1.ElapsedSeconds();
        WallTimer t2;
        auto gspan = MineGspan(window, config);
        gspan_seconds += t2.ElapsedSeconds();
        if (!ResultsMatch(miner, arabesque, gspan, graph.predicates())) {
          all_match = false;
        }
      }
    }
    double stream_per_slide =
        stream_seconds /
        (static_cast<double>(stream.size()) / static_cast<double>(slide));
    double arabesque_per_slide =
        arabesque_seconds / static_cast<double>(slides);
    double gspan_per_slide = gspan_seconds / static_cast<double>(slides);
    table.AddRow(
        {TablePrinter::Int(static_cast<long long>(max_edges)),
         TablePrinter::Num(stream_per_slide * 1e3, 2),
         TablePrinter::Num(arabesque_per_slide * 1e3, 2),
         TablePrinter::Num(gspan_per_slide * 1e3, 2),
         TablePrinter::Num(arabesque_per_slide / stream_per_slide, 2),
         TablePrinter::Int(static_cast<long long>(
             miner.num_live_embeddings())),
         all_match ? "yes" : "NO"});
  }
  table.Print(std::cout);
}

// Micro-benchmark: incremental cost of one streamed edge.
void BM_StreamingMinerAddEdge(benchmark::State& state) {
  MinerConfig config;
  config.max_edges = 2;
  config.min_support = 8;
  PropertyGraph graph;
  TemporalWindow window(&graph, static_cast<size_t>(state.range(0)));
  StreamingMiner miner(config);
  window.AddListener(&miner);
  auto stream = MakeStream(static_cast<size_t>(state.range(0)) * 2, 3);
  size_t i = 0;
  for (const TimedTriple& t : stream) {
    window.Add(t);
    if (++i >= static_cast<size_t>(state.range(0))) break;
  }
  for (auto _ : state) {
    window.Add(stream[i % stream.size()]);
    ++i;
  }
}
BENCHMARK(BM_StreamingMinerAddEdge)->Arg(1000)->Arg(4000);

}  // namespace
}  // namespace nous

int main(int argc, char** argv) {
  // Consume --small ourselves so the remaining flags go to the
  // benchmark library untouched.
  bool small = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  nous::RunWindowSweep(small);
  if (!small) nous::RunMinsupSweep();
  nous::RunPatternSizeSweep(small);
  if (!small) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  if (!nous::g_all_results_match) {
    std::cerr << "bench_stream_mining: a slide's streaming result "
                 "differed from a baseline (results match = NO)\n";
    return 1;
  }
  return 0;
}
