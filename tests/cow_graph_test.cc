// Copy-on-write graph core: CowVec/CowIdIndex unit behavior, the
// randomized COW-vs-deep-copy equivalence property (DESIGN.md §5.13),
// shared/private footprint accounting, and checkpoint bit-identity on
// the chunked representation. ISSUE 7's correctness pins: a Clone()
// must be indistinguishable from the full deep copy it replaced —
// identical ids, slot layout, adjacency order, and derived indexes —
// no matter how either copy is mutated afterwards.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/hash.h"
#include "graph/cow.h"
#include "graph/property_graph.h"
#include "graph/types.h"

namespace nous {
namespace {

std::string Serialize(const PropertyGraph& g) {
  BinaryWriter w;
  g.SaveBinary(&w);
  return w.Take();
}

// ---- CowVec ----

TEST(CowVecTest, PushBackIndexResize) {
  CowVec<int> v;
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 1000; ++i) v.PushBack(i);
  ASSERT_EQ(v.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(v[i], i);
  v.Resize(1500);
  ASSERT_EQ(v.size(), 1500u);
  EXPECT_EQ(v[999], 999);
  EXPECT_EQ(v[1499], 0);  // default-constructed tail
  v.Mutable(1499) = 7;
  EXPECT_EQ(v[1499], 7);
}

TEST(CowVecTest, CopiesShareUntilWritten) {
  CowVec<int> a;
  for (int i = 0; i < 600; ++i) a.PushBack(i);
  CowVec<int> b = a;
  // Writing through one copy must not be visible through the other.
  b.Mutable(5) = -1;
  EXPECT_EQ(a[5], 5);
  EXPECT_EQ(b[5], -1);
  a.Mutable(300) = -2;
  EXPECT_EQ(a[300], -2);
  EXPECT_EQ(b[300], 300);
  // Untouched slots still agree.
  EXPECT_EQ(a[599], b[599]);
}

TEST(CowVecTest, MutationCopiesOnlyTouchedChunks) {
  CowVec<int> a;
  // 16 full chunks.
  for (size_t i = 0; i < 16 * CowVec<int>::kChunkSize; ++i) {
    a.PushBack(static_cast<int>(i));
  }
  CowVec<int> b = a;
  CowCounters::Reset();
  b.Mutable(0) = -1;  // chunk 0
  b.Mutable(1) = -1;  // chunk 0 again: already private
  b.Mutable(5 * CowVec<int>::kChunkSize) = -1;  // chunk 5
  EXPECT_EQ(CowCounters::ChunkCopies().load(), 2u);
  EXPECT_EQ(CowCounters::SpineCopies().load(), 1u);
}

TEST(CowVecTest, DetachMakesFullyPrivate) {
  CowVec<std::vector<int>> a;
  for (int i = 0; i < 300; ++i) a.PushBack({i, i + 1});
  CowVec<std::vector<int>> b = a;
  b.Detach();
  auto deep = [](const std::vector<int>& x) {
    return x.capacity() * sizeof(int);
  };
  CowFootprint fa;
  a.AddFootprint(&fa, deep);
  EXPECT_EQ(fa.shared_bytes, 0u) << "detach must drop all sharing";
  b.Mutable(0).push_back(-1);
  EXPECT_EQ(a[0].size(), 2u);
  EXPECT_EQ(b[0].size(), 3u);
}

TEST(CowVecTest, FootprintSplitsSharedAndPrivate) {
  CowVec<int> a;
  for (size_t i = 0; i < 8 * CowVec<int>::kChunkSize; ++i) {
    a.PushBack(static_cast<int>(i));
  }
  auto deep = [](int) { return size_t{0}; };
  CowFootprint alone;
  a.AddFootprint(&alone, deep);
  EXPECT_EQ(alone.shared_bytes, 0u);
  EXPECT_GT(alone.private_bytes, 0u);

  CowVec<int> b = a;
  CowFootprint shared;
  a.AddFootprint(&shared, deep);
  EXPECT_EQ(shared.private_bytes, 0u) << "all chunks shared with b";
  EXPECT_EQ(shared.shared_bytes, alone.private_bytes + alone.shared_bytes);

  // One write: exactly one chunk (plus b's now-private spine) diverges.
  b.Mutable(0) = -1;
  CowFootprint after;
  b.AddFootprint(&after, deep);
  EXPECT_GT(after.private_bytes, 0u);
  EXPECT_GT(after.shared_bytes, after.private_bytes);
}

// ---- Randomized COW-vs-deep-copy equivalence (the tentpole pin) ----

struct OpMixer {
  std::mt19937 rng;
  std::vector<std::string> labels;
  std::vector<std::string> predicates;

  explicit OpMixer(uint32_t seed, int label_pool = 40) : rng(seed) {
    // Mixed-case labels exercise the folded index's collision path.
    for (int i = 0; i < label_pool; ++i) {
      labels.push_back("Entity" + std::to_string(i));
    }
    for (int i = 0; i < label_pool / 4; ++i) {
      labels.push_back("entity" + std::to_string(i));
    }
    for (int i = 0; i < 8; ++i) predicates.push_back("pred" + std::to_string(i));
  }

  void Step(PropertyGraph* g) {
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2:
      case 3: {  // add an edge (dominant op)
        TimedTriple t;
        t.triple.subject = labels[rng() % labels.size()];
        t.triple.predicate = predicates[rng() % predicates.size()];
        t.triple.object = labels[rng() % labels.size()];
        t.confidence = 0.5 + (rng() % 50) / 100.0;
        t.timestamp = static_cast<Timestamp>(rng() % 10000);
        t.source = "src" + std::to_string(rng() % 3);
        g->AddTriple(t);
        break;
      }
      case 4: {  // rescore (finalize path)
        if (g->NumEdges() > 0) {
          g->SetEdgeConfidence(static_cast<EdgeId>(rng() % g->NumEdges()),
                               (rng() % 100) / 100.0);
        }
        break;
      }
      case 5: {  // vertex properties
        if (g->NumVertices() > 0) {
          VertexId v = static_cast<VertexId>(rng() % g->NumVertices());
          g->SetVertexType(v, g->types().Intern("T" + std::to_string(rng() % 4)));
          g->AddVertexTerm(v, g->terms().Intern("w" + std::to_string(rng() % 30)),
                           1.0);
        }
        break;
      }
      case 6: {  // topics
        if (g->NumVertices() > 0) {
          VertexId v = static_cast<VertexId>(rng() % g->NumVertices());
          g->SetVertexTopics(v, {0.25, 0.25, 0.5});
        }
        break;
      }
      case 7: {  // new vertex without edges
        g->GetOrAddVertex("Solo" + std::to_string(rng() % 20));
        break;
      }
    }
  }
};

// Derived state is not serialized, so SaveBinary equality alone does
// not pin it; probe it explicitly. Adjacency lists compare
// positionally: the graph is append-only, so every copy — clone, deep
// copy or LoadBinary rebuild — lists them in ascending edge-id order.
void ExpectAdjacencyEqual(const std::vector<AdjEntry>& a,
                          const std::vector<AdjEntry>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].edge, b[i].edge);
    EXPECT_EQ(a[i].neighbor, b[i].neighbor);
    EXPECT_EQ(a[i].predicate, b[i].predicate);
  }
}

void ExpectDerivedIndexesEqual(const PropertyGraph& a,
                               const PropertyGraph& b) {
  ASSERT_EQ(a.NumVertices(), b.NumVertices());
  EXPECT_EQ(a.MaxEdgeTimestamp(), b.MaxEdgeTimestamp());
  for (VertexId v = 0; v < a.NumVertices(); ++v) {
    std::string folded = a.VertexLabel(v);
    for (char& c : folded) c = static_cast<char>(tolower(c));
    EXPECT_EQ(a.FindVertexFolded(folded), b.FindVertexFolded(folded))
        << "folded lookup diverged for " << folded;
    ExpectAdjacencyEqual(a.OutEdges(v), b.OutEdges(v));
    ExpectAdjacencyEqual(a.InEdges(v), b.InEdges(v));
  }
}

TEST(CowEquivalenceTest, CloneMatchesDeepCopyUnderRandomOps) {
  for (uint32_t seed : {11u, 29u, 47u}) {
    PropertyGraph g;
    OpMixer mix(seed);
    // Retained snapshots with the bytes they serialized to at clone
    // time; later mutation of the live graph must never change them.
    std::vector<std::pair<PropertyGraph, std::string>> retained;
    for (int step = 0; step < 1200; ++step) {
      mix.Step(&g);
      if (step % 150 == 149) {
        PropertyGraph cow = g.Clone();
        PropertyGraph deep = g.Clone();
        deep.Detach();
        std::string live_bytes = Serialize(g);
        EXPECT_EQ(Serialize(cow), live_bytes)
            << "COW clone differs from source (seed " << seed << " step "
            << step << ")";
        EXPECT_EQ(Serialize(deep), live_bytes)
            << "deep copy differs from source (seed " << seed << " step "
            << step << ")";
        ExpectDerivedIndexesEqual(cow, deep);
        retained.emplace_back(std::move(cow), std::move(live_bytes));
      }
    }
    // Snapshot isolation: every retained clone still serializes to the
    // bytes captured when it was taken.
    for (auto& [snap, bytes] : retained) {
      EXPECT_EQ(Serialize(snap), bytes)
          << "retained snapshot mutated by later ops (seed " << seed << ")";
    }
    // And mutating an old snapshot must not leak into the live graph.
    std::string live_bytes = Serialize(g);
    if (!retained.empty()) {
      PropertyGraph& old = retained.front().first;
      OpMixer mutator(seed + 1);
      for (int i = 0; i < 100; ++i) mutator.Step(&old);
      EXPECT_EQ(Serialize(g), live_bytes);
    }
  }
}

TEST(CowEquivalenceTest, SaveLoadRoundTripOnChunkedRepresentation) {
  PropertyGraph g;
  OpMixer mix(13);
  for (int step = 0; step < 800; ++step) mix.Step(&g);
  // Round-trip the live graph and a COW clone of it: both must load
  // back to byte-identical state (KgVersionSurvivesCrashRecovery's
  // graph-layer guarantee on the chunked representation).
  for (const PropertyGraph* src : {&g}) {
    std::string bytes = Serialize(*src);
    PropertyGraph loaded;
    BinaryReader reader(bytes);
    ASSERT_TRUE(loaded.LoadBinary(&reader).ok());
    EXPECT_EQ(Serialize(loaded), bytes);
    ExpectDerivedIndexesEqual(*src, loaded);
  }
  PropertyGraph clone = g.Clone();
  std::string clone_bytes = Serialize(clone);
  PropertyGraph loaded;
  BinaryReader reader(clone_bytes);
  ASSERT_TRUE(loaded.LoadBinary(&reader).ok());
  EXPECT_EQ(Serialize(loaded), Serialize(g));
}

TEST(CowEquivalenceTest, FoldedLookupKeepsLowestIdAcrossCollisions) {
  PropertyGraph g;
  VertexId first = g.GetOrAddVertex("DJI");
  g.GetOrAddVertex("dji");
  g.GetOrAddVertex("Dji");
  EXPECT_EQ(g.FindVertexFolded("dJI"), std::optional<VertexId>(first));
  PropertyGraph clone = g.Clone();
  EXPECT_EQ(clone.FindVertexFolded("dJI"), std::optional<VertexId>(first));
  // Exact match still beats the folded index.
  EXPECT_EQ(g.FindVertexFolded("dji"), g.FindVertex("dji"));
}

// ---- Footprint accounting on a whole graph ----

// A graph large enough to span many chunks in every container
// (thousands of vertices and edges), so a clustered delta's chunk
// count is visibly smaller than the graph's.
PropertyGraph BuildLargeGraph() {
  PropertyGraph g;
  OpMixer mix(7, /*label_pool=*/6000);
  for (int step = 0; step < 8000; ++step) mix.Step(&g);
  return g;
}

// A realistic ingest delta: a handful of new facts about one entity,
// touching a bounded set of chunks no matter how big the graph is.
void ApplyClusteredDelta(PropertyGraph* g, int salt) {
  for (int i = 0; i < 10; ++i) {
    TimedTriple t;
    t.triple.subject = "Entity0";
    t.triple.predicate = "pred" + std::to_string(i % 3);
    t.triple.object = "Entity" + std::to_string(1 + (salt + i) % 5);
    t.confidence = 0.9;
    t.timestamp = 5000 + salt;
    t.source = "src0";
    g->AddTriple(t);
  }
}

TEST(CowFootprintTest, CloneSharesAlmostEverything) {
  PropertyGraph g = BuildLargeGraph();
  CowFootprint alone = g.Footprint();
  EXPECT_EQ(alone.shared_bytes, 0u);

  PropertyGraph snap = g.Clone();
  CowFootprint fp = g.Footprint();
  EXPECT_EQ(fp.private_bytes, 0u) << "fresh clone shares every chunk";
  EXPECT_EQ(fp.total_bytes(), alone.total_bytes());

  // A clustered delta unshares a small fraction.
  ApplyClusteredDelta(&g, 1);
  CowFootprint after = g.Footprint();
  EXPECT_GT(after.private_bytes, 0u);
  EXPECT_GT(after.shared_bytes, 4 * after.private_bytes)
      << "a 10-fact delta must not unshare a significant fraction of a "
         "multi-thousand-edge graph";

  // ApproxMemoryBytes is the total of the split.
  EXPECT_EQ(g.ApproxMemoryBytes(), after.total_bytes());
}

TEST(CowFootprintTest, PublishCostIsDeltaNotGraphSize) {
  PropertyGraph g = BuildLargeGraph();

  // Publish epoch 1: clone, then a fixed-size delta.
  PropertyGraph snap1 = g.Clone();
  CowCounters::Reset();
  ApplyClusteredDelta(&g, 1);
  uint64_t delta_copies = CowCounters::ChunkCopies().load();
  EXPECT_GT(delta_copies, 0u);
  EXPECT_LE(delta_copies, 32u)
      << "a 10-fact clustered delta should unshare a bounded chunk count";

  // Publish epoch 2 behaves the same — cost does not accumulate.
  PropertyGraph snap2 = g.Clone();
  CowCounters::Reset();
  ApplyClusteredDelta(&g, 2);
  uint64_t delta_copies2 = CowCounters::ChunkCopies().load();
  EXPECT_GT(delta_copies2, 0u);
  EXPECT_LE(delta_copies2, 32u);

  // The retired model: a deep copy rewrites every shared chunk — an
  // order of magnitude (plus) more chunk copies than the delta.
  CowCounters::Reset();
  PropertyGraph deep = g.Clone();
  deep.Detach();
  uint64_t deep_copies = CowCounters::ChunkCopies().load();
  EXPECT_GT(deep_copies, 10 * delta_copies)
      << "deep copy must cost O(graph), COW delta O(delta)";
}

// ---- Zone map (derived; never serialized) ----

enum class StreamOrder { kDateOrdered, kShuffled, kCuratedOnly };

// Appends `edges` edges from `start` on. Date-ordered timestamps
// advance one step per 8 edges, with 1 in 20 a straggler from up to
// 1000 steps back (negative near the start); shuffled ones are uniform
// over 5000 steps. Both mark 1 in 6 edges curated; curated-only
// streams mark all.
void AppendStream(PropertyGraph* g, std::mt19937* rng, size_t edges,
                  StreamOrder order, Timestamp start) {
  const PredicateId p = g->predicates().Intern("pred");
  for (size_t i = 0; i < edges; ++i) {
    const VertexId s = g->GetOrAddVertex("V" + std::to_string((*rng)() % 50));
    const VertexId o = g->GetOrAddVertex("V" + std::to_string((*rng)() % 50));
    EdgeMeta meta;
    if (order == StreamOrder::kDateOrdered) {
      meta.timestamp = start + static_cast<Timestamp>(i / 8);
      if ((*rng)() % 20 == 0) {
        meta.timestamp -= static_cast<Timestamp>((*rng)() % 1000);
      }
    } else {
      meta.timestamp = start + static_cast<Timestamp>((*rng)() % 5000);
    }
    meta.curated =
        order == StreamOrder::kCuratedOnly || (*rng)() % 6 == 0;
    g->AddEdge(s, p, o, meta);
  }
}

using ZoneRows = std::vector<std::pair<Timestamp, Timestamp>>;

ZoneRows Zones(const PropertyGraph& g) {
  ZoneRows rows;
  for (size_t z = 0; z < g.NumEdgeZones(); ++z) {
    rows.emplace_back(g.EdgeZoneAt(z).min_timestamp,
                      g.EdgeZoneAt(z).max_timestamp);
  }
  return rows;
}

// The zone map recomputed from scratch off the edge records.
ZoneRows RecomputedZones(const PropertyGraph& g) {
  const size_t size = PropertyGraph::kEdgeZoneSize;
  std::vector<EdgeZone> zones((g.NumEdges() + size - 1) / size);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const EdgeMeta& meta = g.Edge(e).meta;
    if (meta.curated) continue;
    EdgeZone& zone = zones[e / size];
    zone.min_timestamp = std::min(zone.min_timestamp, meta.timestamp);
    zone.max_timestamp = std::max(zone.max_timestamp, meta.timestamp);
  }
  ZoneRows rows;
  for (const EdgeZone& zone : zones) {
    rows.emplace_back(zone.min_timestamp, zone.max_timestamp);
  }
  return rows;
}

TEST(EdgeZoneMapTest, MatchesRecomputationOnDateOrderedStreams) {
  for (uint32_t seed : {3u, 17u, 40u}) {
    PropertyGraph g;
    std::mt19937 rng(seed);
    EXPECT_EQ(g.NumEdgeZones(), 0u);
    // Batches of 100 straddle zone boundaries at varying offsets.
    for (int batch = 0; batch < 14; ++batch) {
      AppendStream(&g, &rng, 100, StreamOrder::kDateOrdered, batch * 13);
      ASSERT_EQ(Zones(g), RecomputedZones(g))
          << "seed " << seed << " batch " << batch;
    }
    EXPECT_EQ(g.NumEdgeZones(), 6u);  // 1400 edges
  }
}

TEST(EdgeZoneMapTest, MatchesRecomputationOnShuffledStreams) {
  for (uint32_t seed : {5u, 23u}) {
    PropertyGraph g;
    std::mt19937 rng(seed);
    for (size_t edges : {1u, 254u, 1u, 256u, 600u}) {
      AppendStream(&g, &rng, edges, StreamOrder::kShuffled, -2000);
      ASSERT_EQ(Zones(g), RecomputedZones(g))
          << "seed " << seed << " edges " << g.NumEdges();
    }
  }
}

TEST(EdgeZoneMapTest, CuratedOnlyStreamsLeaveTheirZonesEmpty) {
  PropertyGraph g;
  std::mt19937 rng(9);
  AppendStream(&g, &rng, 600, StreamOrder::kCuratedOnly, 0);
  ASSERT_EQ(Zones(g), RecomputedZones(g));
  ASSERT_EQ(g.NumEdgeZones(), 3u);
  for (size_t z = 0; z < g.NumEdgeZones(); ++z) {
    EXPECT_TRUE(g.EdgeZoneAt(z).empty()) << z;
    EXPECT_FALSE(g.EdgeZoneAt(z).Meets(std::numeric_limits<Timestamp>::min(),
                                       std::numeric_limits<Timestamp>::max()));
  }
  // A stream after the curated prefix fills only the zones it reaches.
  AppendStream(&g, &rng, 300, StreamOrder::kDateOrdered, 100);
  ASSERT_EQ(Zones(g), RecomputedZones(g));
  EXPECT_TRUE(g.EdgeZoneAt(0).empty());
  EXPECT_FALSE(g.EdgeZoneAt(2).empty());
}

TEST(EdgeZoneMapTest, CloneAndAppendsOnEitherCopyKeepBothExact) {
  PropertyGraph g;
  std::mt19937 rng(31);
  AppendStream(&g, &rng, 700, StreamOrder::kDateOrdered, 0);
  PropertyGraph clone = g.Clone();
  const ZoneRows at_clone = Zones(clone);
  ASSERT_EQ(at_clone, RecomputedZones(g));

  // Appends on the source leave the clone's zones as they were.
  AppendStream(&g, &rng, 500, StreamOrder::kDateOrdered, 50);
  EXPECT_EQ(Zones(g), RecomputedZones(g));
  EXPECT_EQ(Zones(clone), at_clone);

  // And appends on the clone leave the source's alone.
  const ZoneRows source = Zones(g);
  AppendStream(&clone, &rng, 300, StreamOrder::kShuffled, -500);
  EXPECT_EQ(Zones(clone), RecomputedZones(clone));
  EXPECT_EQ(Zones(g), source);

  PropertyGraph deep = g.Clone();
  deep.Detach();
  EXPECT_EQ(Zones(deep), source);
}

// A fixed graph whose SaveBinary image was pinned before the zone map
// existed: the map adds no byte to the image.
PropertyGraph PinnedImageGraph() {
  PropertyGraph g;
  std::mt19937 rng(2024);
  AppendStream(&g, &rng, 300, StreamOrder::kCuratedOnly, 0);
  AppendStream(&g, &rng, 900, StreamOrder::kDateOrdered, 10);
  AppendStream(&g, &rng, 200, StreamOrder::kShuffled, 0);
  return g;
}

TEST(EdgeZoneMapTest, LoadBinaryRebuildsTheZoneMapAndImagesOmitIt) {
  PropertyGraph g = PinnedImageGraph();
  const std::string bytes = Serialize(g);
  EXPECT_EQ(bytes.size(), 47808u);
  EXPECT_EQ(Fnv1a(bytes), 0x5e9fc586321358d1ULL);

  // Load into a graph that already holds other edges: the map is
  // rebuilt from the loaded records alone.
  PropertyGraph loaded;
  std::mt19937 rng(77);
  AppendStream(&loaded, &rng, 2000, StreamOrder::kShuffled, 90000);
  BinaryReader reader(bytes);
  ASSERT_TRUE(loaded.LoadBinary(&reader).ok());
  EXPECT_EQ(Zones(loaded), Zones(g));
  EXPECT_EQ(Zones(loaded), RecomputedZones(loaded));
  EXPECT_EQ(Serialize(loaded), bytes);
}

}  // namespace
}  // namespace nous
