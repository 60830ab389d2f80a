// E5 — reproduces Figure 7: "patterns discovered from updates to the
// knowledge graph" on a drifting stream. Shows the streaming miner's
// churn reporting (newly frequent / demoted patterns per checkpoint)
// and the §3.5 demotion/reconstruction property: when a larger pattern
// decays below the support threshold, its smaller frequent structure
// is still reported without re-enumeration.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "graph/graph_generator.h"
#include "graph/temporal_window.h"
#include "mining/continuous_query.h"
#include "mining/pattern_matcher.h"
#include "mining/streaming_miner.h"

namespace nous {
namespace {

void RunDriftExperiment() {
  bench::PrintHeader(
      "E5: pattern discovery under drift",
      "Figure 7 (patterns from KG updates)",
      "Two-phase stream: pattern set swaps halfway; churn per "
      "checkpoint.");

  PlantedStreamConfig phase1;
  phase1.num_events = 3000;
  phase1.noise_entities = 1500;  // sparse noise: few incidental stars
  phase1.patterns = {{"acq", {"acquired", "investsIn"}, 0.08},
                     {"mfg", {"manufactures", "launched"}, 0.06}};
  PlantedStreamConfig phase2 = phase1;
  phase2.patterns = {{"reg", {"regulates", "investigated"}, 0.08},
                     {"mfg", {"manufactures", "launched"}, 0.02}};
  auto stream = GenerateDriftStream(phase1, phase2);

  MinerConfig config;
  config.max_edges = 2;
  config.min_support = 10;
  PropertyGraph graph;
  TemporalWindow window(&graph, 1500);
  StreamingMiner miner(config);
  window.AddListener(&miner);

  TablePrinter table({"checkpoint (edges)", "phase", "frequent", "closed",
                      "newly frequent", "demoted"});
  size_t checkpoint_every = stream.size() / 8;
  for (size_t i = 0; i < stream.size(); ++i) {
    window.Add(stream[i]);
    if ((i + 1) % checkpoint_every == 0) {
      auto churn = miner.TakeChurn();
      table.AddRow(
          {TablePrinter::Int(static_cast<long long>(i + 1)),
           i < stream.size() / 2 ? "A (acq+mfg)" : "B (reg+mfg-)",
           TablePrinter::Int(static_cast<long long>(
               miner.FrequentPatterns().size())),
           TablePrinter::Int(static_cast<long long>(
               miner.ClosedFrequentPatterns().size())),
           TablePrinter::Int(static_cast<long long>(
               churn.became_frequent.size())),
           TablePrinter::Int(static_cast<long long>(
               churn.became_infrequent.size()))});
    }
  }
  table.Print(std::cout);

  std::cout << "\nClosed frequent structural (2-edge) patterns at "
               "stream end (Figure 7's discovered patterns):\n";
  for (const PatternStats& stats : miner.ClosedFrequentPatterns()) {
    if (stats.pattern.num_edges() < 2) continue;
    std::cout << StrFormat("  support=%-4zu %s\n", stats.support,
                           stats.pattern.ToString(graph.predicates())
                               .c_str());
  }
  std::cout << "\nShape to check: phase A patterns (acquired/investsIn "
               "star) demote after the drift point while phase B "
               "patterns (regulates/investigated) become frequent; the "
               "shrunk mfg pattern's single-edge sub-patterns survive "
               "as the 2-edge star demotes — the §3.5 reconstruction "
               "property.\n";

  // Explicit reconstruction check: the mfg 2-edge star vs. its 1-edge
  // sub-patterns at the end of the stream.
  auto mfg_pred = graph.predicates().Lookup("manufactures");
  auto launched_pred = graph.predicates().Lookup("launched");
  if (mfg_pred && launched_pred) {
    Pattern star = Pattern::Canonicalize(
        {{0, *mfg_pred, 1}, {0, *launched_pred, 2}},
        [](uint64_t) { return kInvalidType; });
    Pattern single = Pattern::Canonicalize(
        {{0, *mfg_pred, 1}}, [](uint64_t) { return kInvalidType; });
    std::cout << StrFormat(
        "\n2-edge mfg star support: %zu (minsup %zu) | 1-edge "
        "manufactures support: %zu\n",
        miner.SupportOf(star), config.min_support,
        miner.SupportOf(single));
  }
}

/// Standing-query detection (the EDBT'15 capability folded into NOUS's
/// querying story): incremental match latency vs. re-running the batch
/// matcher per edge.
void RunContinuousQueries() {
  std::cout << "\n-- continuous (standing) pattern queries --\n";
  PlantedStreamConfig config;
  config.num_events = 4000;
  config.noise_entities = 1000;
  config.patterns = {{"acq", {"acquired", "investsIn"}, 0.05}};
  auto stream = GeneratePlantedStream(config);

  TablePrinter table({"mode", "total ms", "matches fired",
                      "us/edge"});
  // Incremental detection.
  {
    PropertyGraph graph;
    TemporalWindow window(&graph, 1500);
    ContinuousPatternDetector detector;
    window.AddListener(&detector);
    PredicateId acq = graph.predicates().Intern("acquired");
    PredicateId inv = graph.predicates().Intern("investsIn");
    int id = detector.RegisterPattern(Pattern::Canonicalize(
        {{0, acq, 1}, {0, inv, 2}},
        [](uint64_t) { return kInvalidType; }));
    WallTimer timer;
    for (const TimedTriple& t : stream) window.Add(t);
    double ms = timer.ElapsedMillis();
    table.AddRow({"incremental (NOUS)", TablePrinter::Num(ms, 1),
                  TablePrinter::Int(static_cast<long long>(
                      detector.TotalMatches(id))),
                  TablePrinter::Num(ms * 1000 / stream.size(), 2)});
  }
  // Batch re-match at every slide (1/10 window) for comparison.
  {
    PropertyGraph graph;
    TemporalWindow window(&graph, 1500);
    PredicateId acq = graph.predicates().Intern("acquired");
    PredicateId inv = graph.predicates().Intern("investsIn");
    Pattern star = Pattern::Canonicalize(
        {{0, acq, 1}, {0, inv, 2}},
        [](uint64_t) { return kInvalidType; });
    WallTimer timer;
    size_t matches = 0;
    for (size_t i = 0; i < stream.size(); ++i) {
      window.Add(stream[i]);
      if (i % 150 == 0) {
        matches = MatchPattern(window, star).size();
      }
    }
    double ms = timer.ElapsedMillis();
    table.AddRow({"batch re-match per slide", TablePrinter::Num(ms, 1),
                  TablePrinter::Int(static_cast<long long>(matches)),
                  TablePrinter::Num(ms * 1000 / stream.size(), 2)});
  }
  table.Print(std::cout);
  std::cout << "\nShape to check: incremental detection fires EVERY "
               "match exactly once at arrival time (zero detection "
               "delay); periodic batch re-matching is cheaper per edge "
               "at this slide interval but only sees window snapshots — "
               "the 'matches fired' column shows how many transient "
               "matches it misses. Tightening the slide interval closes "
               "the completeness gap at a cost that quickly exceeds the "
               "incremental path.\n";
}

void BM_TakeChurn(benchmark::State& state) {
  PlantedStreamConfig config;
  config.num_events = 2000;
  config.patterns = {{"a", {"p", "q"}, 0.1}};
  auto stream = GeneratePlantedStream(config);
  MinerConfig mc;
  mc.min_support = 5;
  PropertyGraph graph;
  TemporalWindow window(&graph, 1000);
  StreamingMiner miner(mc);
  window.AddListener(&miner);
  for (const TimedTriple& t : stream) window.Add(t);
  for (auto _ : state) {
    benchmark::DoNotOptimize(miner.TakeChurn());
  }
}
BENCHMARK(BM_TakeChurn);

}  // namespace
}  // namespace nous

int main(int argc, char** argv) {
  nous::RunDriftExperiment();
  nous::RunContinuousQueries();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
