// Snapshot publish cost vs graph size (ISSUE 7 / ROADMAP item 1): the
// claim under test is that copy-on-write structural sharing makes
// publish O(delta) — latency and copied bytes grow with the delta
// applied since the last publish, not with |V|+|E| — while the retired
// clone-per-publish model pays O(V+E) every time.
//
// For each graph size (1k/10k/100k vertices; --small stops at 10k) the
// harness builds a synthetic KG, then runs a steady-state publish loop:
// apply a fixed-size delta (64 edge adds + 16 confidence updates + 8
// new vertices — an IngestBatch-shaped commit), then publish a
// snapshot, in two modes:
//
//   cow     PropertyGraph::Clone() — O(1) chunk sharing, the
//           production PublishSnapshot path
//   clone   Clone() + Detach() — materializes every chunk, the
//           pre-COW deep-copy cost model
//
// Reported per (size, mode): publish p50/p99, per-publish copied
// chunks/bytes (CowCounters), snapshot private bytes + structural
// amplification ((live + snapshot_private) / live), and process peak
// RSS growth across the phase. Results land in
// BENCH_snapshot_publish.json; the committed baseline lives in
// bench/BENCH_snapshot_publish.json.
//
//   bench_snapshot_publish [--small]

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table_printer.h"
#include "graph/cow.h"
#include "graph/property_graph.h"
#include "graph/types.h"
#include "obs/resource_sampler.h"
#include "server/json_writer.h"

namespace nous {
namespace {

// Deterministic splitmix-style generator so runs are reproducible
// without seeding policy debates.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed) {}
  uint64_t Next() {
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
};

constexpr size_t kDeltaEdges = 64;
constexpr size_t kDeltaRescores = 16;
constexpr size_t kDeltaVertices = 8;

std::string VertexLabel(size_t i) { return "Entity" + std::to_string(i); }

/// Synthetic KG: `num_vertices` vertices, ~2 edges per vertex over a
/// small predicate vocabulary, types on every vertex. Degree and
/// dictionary shapes roughly match the pipeline's fused KG.
PropertyGraph BuildGraph(size_t num_vertices, Rng* rng) {
  PropertyGraph g;
  for (size_t i = 0; i < num_vertices; ++i) {
    VertexId v = g.GetOrAddVertex(VertexLabel(i));
    g.SetVertexType(v, g.types().Intern("T" + std::to_string(i % 6)));
  }
  size_t num_edges = num_vertices * 2;
  for (size_t i = 0; i < num_edges; ++i) {
    TimedTriple t;
    t.triple.subject = VertexLabel(rng->Below(num_vertices));
    t.triple.predicate = "pred" + std::to_string(rng->Below(12));
    t.triple.object = VertexLabel(rng->Below(num_vertices));
    t.confidence = 0.5 + (rng->Below(50)) / 100.0;
    t.timestamp = static_cast<Timestamp>(1000 + i);
    t.source = "src" + std::to_string(rng->Below(4));
    g.AddTriple(t);
  }
  return g;
}

/// One IngestBatch-shaped commit: fixed size regardless of graph size.
void ApplyDelta(PropertyGraph* g, size_t num_vertices, size_t round,
                Rng* rng) {
  for (size_t i = 0; i < kDeltaEdges; ++i) {
    TimedTriple t;
    t.triple.subject = VertexLabel(rng->Below(num_vertices));
    t.triple.predicate = "pred" + std::to_string(rng->Below(12));
    t.triple.object = VertexLabel(rng->Below(num_vertices));
    t.confidence = 0.8;
    t.timestamp = static_cast<Timestamp>(100000 + round);
    t.source = "src0";
    g->AddTriple(t);
  }
  for (size_t i = 0; i < kDeltaRescores; ++i) {
    g->SetEdgeConfidence(
        static_cast<EdgeId>(rng->Below(g->NumEdges())),
        (rng->Below(100)) / 100.0);
  }
  for (size_t i = 0; i < kDeltaVertices; ++i) {
    g->GetOrAddVertex("Fresh" + std::to_string(round) + "_" +
                      std::to_string(i));
  }
}

struct PublishResult {
  std::string mode;
  size_t vertices = 0;
  size_t publishes = 0;
  double p50_us = 0;
  double p99_us = 0;
  double copied_chunks_per_publish = 0;
  double copied_bytes_per_publish = 0;
  size_t live_graph_bytes = 0;
  size_t snapshot_private_bytes = 0;
  double structural_amplification = 0;
  uint64_t peak_rss_growth_bytes = 0;
};

double Quantile(std::vector<double>* sorted_inout, double q) {
  if (sorted_inout->empty()) return 0;
  std::sort(sorted_inout->begin(), sorted_inout->end());
  size_t idx = static_cast<size_t>(q * (sorted_inout->size() - 1));
  return (*sorted_inout)[idx];
}

PublishResult RunPhase(const std::string& mode, size_t num_vertices,
                       size_t publishes) {
  Rng rng(17 + num_vertices);
  PropertyGraph g = BuildGraph(num_vertices, &rng);

  ProcMemoryStats mem_before;
  ReadProcMemoryStats(&mem_before);

  std::vector<double> latencies_us;
  latencies_us.reserve(publishes);
  uint64_t copied_chunks = 0;
  uint64_t copied_bytes = 0;
  // The "store": the latest published snapshot stays alive across the
  // next delta, exactly like SnapshotStore holding Current() — this is
  // what forces the writer to unshare the chunks the delta touches.
  std::unique_ptr<PropertyGraph> latest;

  for (size_t round = 0; round < publishes; ++round) {
    // Counters span delta + publish: COW copy work happens when the
    // delta unshares chunks still referenced by the held snapshot,
    // not at Clone() time.
    CowCounters::Reset();
    ApplyDelta(&g, num_vertices, round, &rng);
    auto start = std::chrono::steady_clock::now();
    auto snap = std::make_unique<PropertyGraph>(g.Clone());
    if (mode == "clone") snap->Detach();
    // PublishSnapshot also prices the snapshot for telemetry.
    size_t bytes = snap->ApproxMemoryBytes();
    auto end = std::chrono::steady_clock::now();
    (void)bytes;
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(end - start).count());
    copied_chunks += CowCounters::ChunkCopies().load();
    copied_bytes += CowCounters::ChunkCopyBytes().load();
    latest = std::move(snap);
  }

  // Steady-state retention: the held snapshot's private bytes while
  // the *next* delta accrues (right after a publish the snapshot
  // shares everything, which would overstate the win).
  ApplyDelta(&g, num_vertices, publishes, &rng);

  PublishResult r;
  r.mode = mode;
  r.vertices = num_vertices;
  r.publishes = publishes;
  r.p50_us = Quantile(&latencies_us, 0.50);
  r.p99_us = Quantile(&latencies_us, 0.99);
  r.copied_chunks_per_publish =
      static_cast<double>(copied_chunks) / publishes;
  r.copied_bytes_per_publish =
      static_cast<double>(copied_bytes) / publishes;
  CowFootprint live = g.Footprint();
  r.live_graph_bytes = live.total_bytes();
  r.snapshot_private_bytes =
      latest != nullptr ? latest->Footprint().private_bytes : 0;
  r.structural_amplification =
      live.total_bytes() > 0
          ? static_cast<double>(live.total_bytes() +
                                r.snapshot_private_bytes) /
                live.total_bytes()
          : 0;
  ProcMemoryStats mem_after;
  ReadProcMemoryStats(&mem_after);
  r.peak_rss_growth_bytes =
      mem_after.peak_rss_bytes > mem_before.peak_rss_bytes
          ? mem_after.peak_rss_bytes - mem_before.peak_rss_bytes
          : 0;
  return r;
}

void Run(bool small) {
  bench::PrintHeader(
      "bench_snapshot_publish",
      "ROADMAP item 1 / ISSUE 7 (O(delta) snapshot publish)",
      "publish latency + copied bytes vs graph size at fixed delta "
      "(64 edges, 16 rescores, 8 vertices per publish)");

  std::vector<size_t> sizes = {1000, 10000};
  if (!small) sizes.push_back(100000);
  size_t publishes = small ? 100 : 200;

  std::vector<PublishResult> results;
  TablePrinter table({"vertices", "mode", "publish p50 us", "publish p99 us",
                      "copied chunks/pub", "copied KiB/pub",
                      "snap private KiB", "amplification"});
  for (size_t size : sizes) {
    // COW before clone inside each size, sizes ascending, so each
    // phase's peak-RSS growth is attributable to that phase.
    for (const char* mode : {"cow", "clone"}) {
      PublishResult r = RunPhase(mode, size, publishes);
      table.AddRow({TablePrinter::Int(static_cast<long long>(r.vertices)),
                    r.mode, TablePrinter::Num(r.p50_us, 1),
                    TablePrinter::Num(r.p99_us, 1),
                    TablePrinter::Num(r.copied_chunks_per_publish, 1),
                    TablePrinter::Num(r.copied_bytes_per_publish / 1024, 1),
                    TablePrinter::Num(
                        static_cast<double>(r.snapshot_private_bytes) / 1024,
                        1),
                    TablePrinter::Num(r.structural_amplification, 3)});
      results.push_back(std::move(r));
    }
  }
  table.Print(std::cout);

  // The acceptance shape: COW p99 at the largest size vs the smallest.
  double cow_p99_small = 0, cow_p99_large = 0, clone_p99_large = 0;
  for (const PublishResult& r : results) {
    if (r.mode == "cow" && r.vertices == sizes.front()) {
      cow_p99_small = r.p99_us;
    }
    if (r.mode == "cow" && r.vertices == sizes.back()) {
      cow_p99_large = r.p99_us;
    }
    if (r.mode == "clone" && r.vertices == sizes.back()) {
      clone_p99_large = r.p99_us;
    }
  }
  std::cout << "\ncow p99 growth " << sizes.front() << " -> " << sizes.back()
            << " vertices: "
            << (cow_p99_small > 0 ? cow_p99_large / cow_p99_small : 0)
            << "x (acceptance: <= 10x); clone/cow p99 at " << sizes.back()
            << ": "
            << (cow_p99_large > 0 ? clone_p99_large / cow_p99_large : 0)
            << "x\n";

  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("snapshot_publish");
  json.Key("small_preset");
  json.Bool(small);
  json.Key("delta_edges");
  json.Int(static_cast<long long>(kDeltaEdges));
  json.Key("delta_rescores");
  json.Int(static_cast<long long>(kDeltaRescores));
  json.Key("delta_vertices");
  json.Int(static_cast<long long>(kDeltaVertices));
  json.Key("publishes_per_phase");
  json.Int(static_cast<long long>(publishes));
  json.Key("cow_p99_growth_small_to_large");
  json.Number(cow_p99_small > 0 ? cow_p99_large / cow_p99_small : 0);
  json.Key("runs");
  json.BeginArray();
  for (const PublishResult& r : results) {
    json.BeginObject();
    json.Key("mode");
    json.String(r.mode);
    json.Key("vertices");
    json.Int(static_cast<long long>(r.vertices));
    json.Key("publishes");
    json.Int(static_cast<long long>(r.publishes));
    json.Key("publish_p50_us");
    json.Number(r.p50_us);
    json.Key("publish_p99_us");
    json.Number(r.p99_us);
    json.Key("copied_chunks_per_publish");
    json.Number(r.copied_chunks_per_publish);
    json.Key("copied_bytes_per_publish");
    json.Number(r.copied_bytes_per_publish);
    json.Key("live_graph_bytes");
    json.Int(static_cast<long long>(r.live_graph_bytes));
    json.Key("snapshot_private_bytes");
    json.Int(static_cast<long long>(r.snapshot_private_bytes));
    json.Key("structural_amplification");
    json.Number(r.structural_amplification);
    json.Key("peak_rss_growth_bytes");
    json.Int(static_cast<long long>(r.peak_rss_growth_bytes));
    json.EndObject();
  }
  json.EndArray();
  json.Key("peak_rss_bytes");
  json.Int(static_cast<long long>(PeakRssBytes()));
  json.EndObject();
  std::ofstream out("BENCH_snapshot_publish.json");
  out << json.Result() << "\n";
  std::cout << "wrote BENCH_snapshot_publish.json\n";
}

}  // namespace
}  // namespace nous

int main(int argc, char** argv) {
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--small") small = true;
  }
  nous::Run(small);
  return 0;
}
