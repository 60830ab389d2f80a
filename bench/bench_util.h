#ifndef NOUS_BENCH_BENCH_UTIL_H_
#define NOUS_BENCH_BENCH_UTIL_H_

#include <iostream>
#include <string>
#include <utility>

#include "corpus/article_generator.h"
#include "corpus/document_stream.h"
#include "corpus/world_model.h"
#include "kb/kb_generator.h"
#include "obs/metrics.h"
#include "obs/resource_sampler.h"

namespace nous {
namespace bench {

/// Standard drone-domain fixture: world + curated KB + rendered
/// articles, sized by event count.
struct DroneFixture {
  WorldModel world;
  CuratedKb kb;
  std::vector<Article> articles;
};

/// A fixture over any drone world (e.g. a scaled-up one whose many
/// more distinct events render a longer stream).
inline DroneFixture MakeDroneFixture(const DroneWorldConfig& world_config,
                                     double entity_coverage = 0.6,
                                     CorpusConfig corpus_config = {}) {
  DroneFixture fixture{WorldModel(), CuratedKb(Ontology::DroneDefault()),
                       {}};
  fixture.world = WorldModel::BuildDroneWorld(world_config);
  KbCoverage coverage;
  coverage.entity_coverage = entity_coverage;
  fixture.kb =
      BuildCuratedKb(fixture.world, Ontology::DroneDefault(), coverage);
  fixture.articles =
      ArticleGenerator(&fixture.world, corpus_config).GenerateArticles();
  return fixture;
}

/// The standard drone world (30 companies, 20 people, 15 products).
inline DroneFixture MakeDroneFixture(size_t num_events,
                                     uint64_t seed = 17,
                                     double entity_coverage = 0.6,
                                     CorpusConfig corpus_config = {}) {
  DroneWorldConfig wc;
  wc.num_companies = 30;
  wc.num_people = 20;
  wc.num_products = 15;
  wc.num_events = num_events;
  wc.seed = seed;
  return MakeDroneFixture(wc, entity_coverage, std::move(corpus_config));
}

/// Quantiles of one registry latency histogram, in microseconds.
/// Benches call MetricsRegistry::Global().ResetAll() at the start of a
/// run, then read e.g. "nous_snapshot_publish_latency_seconds" at the
/// end to report per-run publish p50/p99 (ROADMAP item 1's baseline).
struct LatencyQuantilesUs {
  uint64_t count = 0;
  double p50_us = 0;
  double p99_us = 0;
};

inline LatencyQuantilesUs GlobalHistogramQuantilesUs(
    const std::string& name) {
  LatencyQuantilesUs q;
  for (const auto& row : MetricsRegistry::Global().HistogramRows()) {
    if (row.name != name) continue;
    q.count = row.count;
    q.p50_us = row.p50 * 1e6;
    q.p99_us = row.p99 * 1e6;
    break;
  }
  return q;
}

inline void PrintHeader(const std::string& experiment,
                        const std::string& paper_artifact,
                        const std::string& what) {
  std::cout << "\n==================================================\n"
            << experiment << " — reproduces " << paper_artifact << "\n"
            << what << "\n"
            << "==================================================\n";
}

}  // namespace bench
}  // namespace nous

#endif  // NOUS_BENCH_BENCH_UTIL_H_
