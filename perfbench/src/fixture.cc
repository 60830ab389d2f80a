#include "fixture.h"

#include <algorithm>
#include <fstream>

#include "common/binary_io.h"
#include "common/logging.h"
#include "common/status.h"
#include "durability/fs_util.h"
#include "graph/property_graph.h"
#include "kb/kb_generator.h"
#include "kb/ontology.h"

namespace nous {
namespace perfbench {

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kStreamBuild:
      return "stream_build";
    case Workload::kQueryMix:
      return "query_mix";
  }
  return "?";
}

bool ParseWorkload(const std::string& text, Workload* out) {
  for (Workload w : {Workload::kStreamBuild, Workload::kQueryMix}) {
    if (text == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

WorkloadSpec SpecFor(Workload workload, size_t nproc) {
  WorkloadSpec spec;
  spec.workload = workload;
  switch (workload) {
    case Workload::kStreamBuild:
      // An 896-article base; each pass adds 3072 articles, which grow
      // the KG several-fold and well past the miner's 4096-edge window.
      spec.world_events = 16000;
      spec.base_checkpointed = 384;
      spec.base_tail = 512;
      spec.pass_docs = 3072;
      spec.commit_batch = 64;
      // Pool threads plus the calling thread stay within nproc, with
      // headroom: on shared hosts, extraction fanned out over every
      // core waited on the slowest one and swung the rate by 20-30%.
      spec.pipeline_threads = std::max<size_t>(1, nproc / 2);
      spec.bringups = 5;
      spec.checkpoint_every = 8;
      spec.probe_rounds = 2;
      break;
    case Workload::kQueryMix:
      // The base's 1280 articles and no more: the writer re-sends them.
      spec.world_events = 4800;
      spec.base_checkpointed = 1024;
      spec.base_tail = 256;
      spec.finalize_base = true;
      // The offered load of bench/bench_query_serving.cc's writer: 250
      // docs/s, one article a commit. The one cache key of "what is
      // trending" then sees well under one ask per publish, so its
      // median is a cache miss; at 62.5 publishes/s it saw ~1.3, about
      // half its answers were hits, and its median flipped between hit
      // (~40 us) and miss (~450 us) from run to run.
      spec.writer_hz = 250;
      spec.writer_batch = 1;
      // After Recover(), the first ~40 commits ran up to 3x slower for
      // about a second on some runs, and the open-loop backlog they
      // left behind reached into the timed phase.
      spec.warmup_seconds = 3;
      spec.commit_batch = spec.writer_batch;
      spec.pipeline_threads = 1;
      spec.bringups = 5;
      break;
  }
  return spec;
}

Fixture MakeFixture(const WorkloadSpec& spec, uint64_t seed) {
  Fixture fixture{WorldModel(), CuratedKb(Ontology::DroneDefault()), {}, {}};
  DroneWorldConfig wc;
  // Enough entities that the event count never saturates the world's
  // distinct facts (the generator then retries up to 20x per event).
  wc.num_companies = 100;
  wc.num_people = 70;
  wc.num_products = 50;
  wc.num_events = spec.world_events;
  // The world (entities and true facts) is the repo benchmarks' drone
  // world (bench/bench_util.h's default seed 17) in every run; the run
  // seed drives how the news stream renders it (noise, aliases,
  // pronouns, which source reports what).
  wc.seed = 17;
  fixture.world = WorldModel::BuildDroneWorld(wc);
  KbCoverage coverage;
  coverage.entity_coverage = 0.6;
  fixture.kb =
      BuildCuratedKb(fixture.world, Ontology::DroneDefault(), coverage);

  CorpusConfig corpus;
  corpus.sources = {"wsj", "webcrawl", "technews"};
  corpus.seed = seed * 2654435761ULL + 23;
  std::vector<Article> articles =
      ArticleGenerator(&fixture.world, corpus).GenerateArticles();
  size_t base = std::min(articles.size(),
                         spec.base_checkpointed + spec.base_tail);
  fixture.base.assign(articles.begin(), articles.begin() + base);
  if (spec.workload == Workload::kQueryMix) {
    // The writer re-reports the news the KG already holds, as a mature
    // KG mostly hears: every commit runs the whole pipeline, strengthens
    // edges and publishes a snapshot, but the KG keeps its size, so the
    // queries cost the same at the end of the run as at its start. New
    // articles instead grew it 3-4 fold over a run and doubled the
    // query latencies between its first and last second.
    fixture.timed = fixture.base;
  } else {
    fixture.timed.assign(articles.begin() + base, articles.end());
  }
  return fixture;
}

Nous::Options OptionsFor(const WorkloadSpec& spec, const std::string& dir) {
  Nous::Options options;
  options.shards = 1;
  options.pipeline.num_threads = spec.pipeline_threads;
  options.durability.dir = dir;
  options.durability.fsync_policy = FsyncPolicy::kInterval;
  options.durability.checkpoint_interval_batches = 0;
  return options;
}

namespace {

constexpr const char* kDurableFiles[] = {"wal.log", "checkpoint.nous",
                                         "checkpoint.nous.tmp"};

}  // namespace

void WipeDurableDir(const std::string& dir) {
  NOUS_CHECK_OK(EnsureDirectory(dir));
  for (const char* file : kDurableFiles) {
    NOUS_CHECK_OK(RemoveFile(dir + "/" + file));
  }
}

void CopyDurableDir(const std::string& from, const std::string& to) {
  WipeDurableDir(to);
  for (const char* file : kDurableFiles) {
    std::string src = from + "/" + file;
    if (!FileExists(src)) continue;
    Result<std::string> bytes = ReadFileToString(src);
    NOUS_CHECK_OK(bytes.status());
    std::ofstream out(to + "/" + file, std::ios::binary | std::ios::trunc);
    out.write(bytes->data(), static_cast<std::streamsize>(bytes->size()));
    NOUS_CHECK(out.good()) << "short write copying " << src;
  }
}

std::string GraphBytes(const PropertyGraph& graph) {
  BinaryWriter writer;
  graph.SaveBinary(&writer);
  return writer.Take();
}

}  // namespace perfbench
}  // namespace nous
