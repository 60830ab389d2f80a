// E7 — reproduces Figures 5 and 6: the five natural-language-like
// query classes executed against a dynamically constructed KG
// ("Tell me about DJI" is Figure 6's headline example). Reports
// end-to-end latency and answer sizes per class, issued both
// mid-stream (dynamic KG) and post-stream.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/histogram.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "core/nous.h"
#include "obs/trace.h"
#include "common/status.h"

namespace nous {
namespace {

struct QueryCase {
  std::string cls;
  std::string text;
};

std::vector<QueryCase> MakeQueries(const Nous& nous) {
  std::vector<QueryCase> queries = {
      {"trending", "what is trending"},
      {"entity", "tell me about DJI"},
      {"pattern", "show patterns"},
  };
  // Relationship + search need a connected pair; walk two hops from
  // DJI on the constructed KG.
  const PropertyGraph& g = nous.graph();
  auto dji = g.FindVertex("DJI");
  if (dji.has_value()) {
    for (const AdjEntry& a : g.OutEdges(*dji)) {
      for (const AdjEntry& b : g.OutEdges(a.neighbor)) {
        if (b.neighbor != *dji) {
          std::string other = g.VertexLabel(b.neighbor);
          queries.push_back(
              {"relationship", "explain DJI and " + other});
          queries.push_back({"search", "paths from DJI to " + other});
          return queries;
        }
      }
    }
  }
  return queries;
}

size_t AnswerSize(const Answer& answer) {
  return answer.facts.size() + answer.patterns().size() +
         answer.paths.size() + answer.hot_entities.size();
}

void RunQueryClasses() {
  bench::PrintHeader(
      "E7: the five query classes",
      "Figure 5 + Figure 6 ('Tell me about DJI')",
      "End-to-end latency per class on the constructed KG.");
  auto fixture = bench::MakeDroneFixture(600);
  Nous::Options options;
  options.pipeline.miner.min_support = 4;
  options.pipeline.miner.use_vertex_types = true;
  Nous nous(&fixture.kb, options);

  // Mid-stream snapshot: queries on the half-built dynamic KG.
  size_t half = fixture.articles.size() / 2;
  for (size_t i = 0; i < half; ++i) NOUS_CHECK_OK(nous.Ingest(fixture.articles[i]));
  NOUS_CHECK_OK(nous.Finalize());  // topics for path search

  std::cout << "\n-- mid-stream (dynamic KG, " << half
            << " articles ingested) --\n";
  TablePrinter mid({"class", "query", "ok", "answer items", "mean ms"});
  for (const QueryCase& qc : MakeQueries(nous)) {
    Histogram latency;
    size_t items = 0;
    bool ok = true;
    for (int rep = 0; rep < 20; ++rep) {
      WallTimer timer;
      auto answer = nous.Ask(qc.text);
      latency.Add(timer.ElapsedMillis());
      if (answer.ok()) {
        items = AnswerSize(*answer);
      } else {
        ok = false;
      }
    }
    mid.AddRow({qc.cls, qc.text, ok ? "yes" : "no",
                TablePrinter::Int(static_cast<long long>(items)),
                TablePrinter::Num(latency.Mean(), 3)});
  }
  mid.Print(std::cout);

  // Full stream.
  for (size_t i = half; i < fixture.articles.size(); ++i) {
    NOUS_CHECK_OK(nous.Ingest(fixture.articles[i]));
  }
  NOUS_CHECK_OK(nous.Finalize());
  std::cout << "\n-- post-stream (" << fixture.articles.size()
            << " articles) --\n";
  TablePrinter post({"class", "query", "ok", "answer items", "mean ms",
                     "p95 ms"});
  for (const QueryCase& qc : MakeQueries(nous)) {
    Histogram latency;
    size_t items = 0;
    bool ok = true;
    for (int rep = 0; rep < 20; ++rep) {
      WallTimer timer;
      auto answer = nous.Ask(qc.text);
      latency.Add(timer.ElapsedMillis());
      if (answer.ok()) {
        items = AnswerSize(*answer);
      } else {
        ok = false;
      }
    }
    post.AddRow({qc.cls, qc.text, ok ? "yes" : "no",
                 TablePrinter::Int(static_cast<long long>(items)),
                 TablePrinter::Num(latency.Mean(), 3),
                 TablePrinter::Num(latency.Quantile(0.95), 3)});
  }
  post.Print(std::cout);
  std::cout << "\nFigure 6 sample answer:\n";
  if (auto a = nous.Ask("tell me about DJI"); a.ok()) {
    std::cout << a->Render(nous.graph());
  }
}

/// Trending quality: mid-stream, the rising-trend ranking should
/// surface entities with bursty recent ground-truth activity. An
/// entity counts as "truly hot" when it participates in >= 2 world
/// events inside the trailing horizon.
void RunTrendingQuality() {
  std::cout << "\n-- trending quality (precision@k vs ground truth) --\n";
  auto fixture = bench::MakeDroneFixture(800, 47);
  Nous::Options options;
  options.query.trending_horizon = 90;
  TablePrinter table({"checkpoint (articles)", "ranking", "p@5",
                      "p@10"});
  for (double frac : {0.5, 1.0}) {
    size_t upto = static_cast<size_t>(frac * fixture.articles.size());
    for (bool rising : {true, false}) {
      Nous::Options opt = options;
      opt.query.trending_rising = rising;
      Nous nous(&fixture.kb, opt);
      Timestamp newest = 0;
      for (size_t i = 0; i < upto; ++i) {
        NOUS_CHECK_OK(nous.Ingest(fixture.articles[i]));
        newest = std::max(newest,
                          fixture.articles[i].date.ToDayNumber());
      }
      // Ground truth: world events touching the trailing horizon.
      std::map<std::string, size_t> hot;
      for (const WorldFact& f : fixture.world.facts()) {
        if (!f.is_event) continue;
        Timestamp ts = f.date.ToDayNumber();
        if (ts > newest || ts < newest - opt.query.trending_horizon) {
          continue;
        }
        ++hot[fixture.world.entity(f.subject).name];
        ++hot[fixture.world.entity(f.object).name];
      }
      auto truly_hot = [&hot](const std::string& name) {
        auto it = hot.find(name);
        return it != hot.end() && it->second >= 2;
      };
      auto answer = nous.Ask("what is trending");
      if (!answer.ok()) continue;
      size_t hit5 = 0, hit10 = 0;
      for (size_t i = 0;
           i < answer->hot_entities.size() && i < 10; ++i) {
        if (!truly_hot(answer->hot_entities[i].first)) continue;
        if (i < 5) ++hit5;
        ++hit10;
      }
      table.AddRow(
          {TablePrinter::Int(static_cast<long long>(upto)),
           rising ? "rising" : "raw recent count",
           TablePrinter::Num(hit5 / 5.0, 2),
           TablePrinter::Num(
               hit10 / std::min<double>(10.0,
                                        static_cast<double>(
                                            answer->hot_entities.size())),
               2)});
    }
  }
  table.Print(std::cout);
}

/// Trending cost against KG size: the engine's trending answer on the
/// snapshot after 25, 50, 75 and 100% of one stream, with the cost
/// attributes of its search span. Trending reads only the edge chunks
/// whose zone meets its two windows, so the edges it scans and its time
/// track the windows, not the KG.
void RunTrendingSizeSweep() {
  std::cout << "\n-- trending vs KG size (engine on the snapshot; "
               "200 answers per row) --\n";
  auto fixture = bench::MakeDroneFixture(2400);
  Nous::Options options;
  Nous nous(&fixture.kb, options);
  const Query query = *ParseQuery("what is trending");
  TablePrinter table({"stream %", "edges", "chunks", "chunks visited",
                      "edges scanned", "active vertices", "best us",
                      "p50 us"});
  size_t next = 0;
  for (size_t quarter = 1; quarter <= 4; ++quarter) {
    const size_t upto = fixture.articles.size() * quarter / 4;
    while (next < upto) {
      const size_t end = std::min(upto, next + 64);
      NOUS_CHECK_OK(nous.IngestBatch(std::vector<Article>(
          fixture.articles.begin() + static_cast<std::ptrdiff_t>(next),
          fixture.articles.begin() + static_cast<std::ptrdiff_t>(end))));
      next = end;
    }
    const std::shared_ptr<const KgSnapshot> snap = nous.snapshot();
    const QueryEngine engine(&snap->graph(), snap->pattern_set(),
                             options.query);
    Histogram latency_us;
    for (int rep = 0; rep < 200; ++rep) {
      WallTimer timer;
      NOUS_CHECK_OK(engine.Execute(query).status());
      latency_us.Add(timer.ElapsedMicros());
    }
    // One more answer under a root span, for its search span's
    // attributes.
    TraceSpan root("e7_trending", nullptr);
    NOUS_CHECK_OK(engine.Execute(query).status());
    root.End();
    std::map<std::string, int64_t> cost;
    for (const SpanRecord& span :
         TraceBuffer::Global().CollectTrace(root.trace_id())) {
      if (std::strcmp(span.name, "search") != 0) continue;
      for (const SpanAttr& attr : span.attrs) cost[attr.key] = attr.int_value;
    }
    table.AddRow({TablePrinter::Int(static_cast<long long>(quarter * 25)),
                  TablePrinter::Int(static_cast<long long>(
                      snap->graph().NumEdges())),
                  TablePrinter::Int(static_cast<long long>(
                      snap->graph().NumEdgeZones())),
                  TablePrinter::Int(cost["chunks_visited"]),
                  TablePrinter::Int(cost["edges_scanned"]),
                  TablePrinter::Int(cost["active_vertices"]),
                  TablePrinter::Num(latency_us.min(), 1),
                  TablePrinter::Num(latency_us.Quantile(0.5), 1)});
  }
  table.Print(std::cout);
}

void BM_EntityQuery(benchmark::State& state) {
  auto fixture = bench::MakeDroneFixture(300);
  Nous nous(&fixture.kb);
  for (const Article& a : fixture.articles) NOUS_CHECK_OK(nous.Ingest(a));
  NOUS_CHECK_OK(nous.Finalize());
  for (auto _ : state) {
    benchmark::DoNotOptimize(nous.Ask("tell me about DJI"));
  }
}
BENCHMARK(BM_EntityQuery);

}  // namespace
}  // namespace nous

int main(int argc, char** argv) {
  nous::RunQueryClasses();
  nous::RunTrendingQuality();
  nous::RunTrendingSizeSweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
