// Interactive command-line interface (the paper's demo feature 4:
// "execute queries for pattern discovery and graph search using both
// web and command line interface").
//
// Usage:
//   nous_cli [num_events] [--threads N] [--wal-dir DIR]
//            [--checkpoint-interval N] [--fsync MODE]
//
// --threads N sizes the pipeline's extraction/BPR worker pool
// (default: hardware concurrency). The built KG is identical for
// every value.
//
// --wal-dir DIR makes :ingest crash-safe (DESIGN.md §5.10): a
// previous run's checkpoint + WAL are recovered (skipping the demo
// build) and every new ingest is logged before it is applied.
// --fsync always|interval|never picks the WAL flush policy (always =
// acknowledged once a group fsync covers it, DESIGN.md §5.16);
// --checkpoint-interval N checkpoints every N logged batches
// (default 8; 0 = only via :checkpoint).
//
// Commands (one per line on stdin):
//   tell me about <entity>            entity summary (Figure 6)
//   what is trending                  trending entities + patterns
//   show patterns                     closed frequent patterns
//   explain <A> and <B> [via <P>]     why-question / coherent paths
//   paths from <A> to <B>             graph search
//   :ingest <text...>                 feed a sentence into the pipeline
//   :checkpoint                       persist state now (durable mode)
//   :save <path>                      write the fused KG to a file
//   :stats                            pipeline + graph statistics
//   :help | :quit

#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "core/nous.h"
#include "corpus/article_generator.h"
#include "corpus/document_stream.h"
#include "corpus/world_model.h"
#include "graph/graph_io.h"
#include "kb/kb_generator.h"

namespace {

void PrintHelp() {
  std::cout <<
      "Commands:\n"
      "  tell me about <entity>\n"
      "  what is trending\n"
      "  show patterns\n"
      "  explain <A> and <B> [via <P>]\n"
      "  paths from <A> to <B>\n"
      "  :ingest <sentence>   feed text into the pipeline\n"
      "  :checkpoint          persist durable state now\n"
      "  :save <path>         write the fused KG to a file\n"
      "  :stats               pipeline + graph statistics\n"
      "  :help  :quit\n";
}

bool ParseFsyncPolicy(const std::string& mode, nous::FsyncPolicy* policy) {
  if (mode == "always") *policy = nous::FsyncPolicy::kAlways;
  else if (mode == "interval") *policy = nous::FsyncPolicy::kInterval;
  else if (mode == "never") *policy = nous::FsyncPolicy::kNever;
  else return false;
  return true;
}

/// Checked flag values: `--threads=abc` is a usage error, not a
/// silent fallback to hardware concurrency (std::atoi returned 0).
size_t RequireSize(const char* flag, std::string_view value, size_t min,
                   size_t max) {
  size_t parsed = 0;
  if (!nous::ParseSize(value, &parsed, min, max)) {
    std::cerr << flag << " expects an integer in [" << min << ", " << max
              << "], got '" << value << "'\n";
    std::exit(1);
  }
  return parsed;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nous;
  size_t num_threads = 0;  // 0 = hardware_concurrency
  std::string wal_dir;
  size_t checkpoint_interval = 8;
  FsyncPolicy fsync_policy = FsyncPolicy::kInterval;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      num_threads = RequireSize("--threads", argv[++i], 1, 1024);
    } else if (arg.rfind("--threads=", 0) == 0) {
      num_threads = RequireSize("--threads", arg.substr(10), 1, 1024);
    } else if (arg == "--wal-dir" && i + 1 < argc) {
      wal_dir = argv[++i];
    } else if (arg.rfind("--wal-dir=", 0) == 0) {
      wal_dir = arg.substr(10);
    } else if (arg == "--checkpoint-interval" && i + 1 < argc) {
      checkpoint_interval =
          RequireSize("--checkpoint-interval", argv[++i], 0, SIZE_MAX);
    } else if (arg.rfind("--checkpoint-interval=", 0) == 0) {
      checkpoint_interval =
          RequireSize("--checkpoint-interval", arg.substr(22), 0, SIZE_MAX);
    } else if (arg == "--fsync" && i + 1 < argc) {
      if (!ParseFsyncPolicy(argv[++i], &fsync_policy)) {
        std::cerr << "--fsync expects always|interval|never\n";
        return 1;
      }
    } else if (arg.rfind("--fsync=", 0) == 0) {
      if (!ParseFsyncPolicy(arg.substr(8), &fsync_policy)) {
        std::cerr << "--fsync expects always|interval|never\n";
        return 1;
      }
    } else {
      positional.push_back(arg);
    }
  }
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  size_t num_events = 300;
  if (!positional.empty()) {
    num_events = RequireSize("num_events", positional[0], 1, 10000000);
  }

  DroneWorldConfig world_config;
  world_config.num_events = num_events;
  WorldModel world = WorldModel::BuildDroneWorld(world_config);
  KbCoverage coverage;
  coverage.entity_coverage = 0.6;
  CuratedKb kb = BuildCuratedKb(world, Ontology::DroneDefault(), coverage);
  DocumentStream stream(
      ArticleGenerator(&world, CorpusConfig{}).GenerateArticles());

  Nous::Options options;
  options.pipeline.miner.use_vertex_types = true;
  options.pipeline.miner.min_support = 4;
  options.pipeline.num_threads = num_threads;
  options.durability.dir = wal_dir;
  options.durability.checkpoint_interval_batches = checkpoint_interval;
  options.durability.fsync_policy = fsync_policy;
  Nous nous(&kb, options);

  bool build_demo_kg = true;
  if (!wal_dir.empty()) {
    auto recovered = nous.Recover();
    if (!recovered.ok()) {
      std::cerr << "recovery failed: " << recovered.status() << "\n";
      return 1;
    }
    if (recovered->restored_checkpoint ||
        recovered->replayed_batches > 0) {
      std::cout << "Recovered KG from " << wal_dir
                << " (replayed batches: " << recovered->replayed_batches
                << ", dropped torn records: "
                << recovered->dropped_wal_records << ")\n";
      build_demo_kg = false;
    }
  }
  if (build_demo_kg) {
    std::cout << "Building demo KG from " << stream.TotalCount()
              << " articles (" << num_threads << " threads"
              << (wal_dir.empty() ? "" : ", durable") << ")...\n";
    Status ingest_status = nous.IngestStream(&stream);
    if (!ingest_status.ok()) {
      std::cerr << "ingest failed: " << ingest_status << "\n";
      return 1;
    }
  } else {
    nous.Finalize();
  }
  std::cout << nous.ComputeStats().ToString();
  PrintHelp();

  std::string line;
  size_t adhoc = 0;
  while (std::cout << "nous> " << std::flush &&
         std::getline(std::cin, line)) {
    std::string_view trimmed = Trim(line);
    if (trimmed.empty()) continue;
    if (trimmed == ":quit" || trimmed == ":q") break;
    if (trimmed == ":help") {
      PrintHelp();
      continue;
    }
    if (trimmed == ":stats") {
      std::cout << nous.ComputeStats().ToString();
      std::cout << nous.stats().ToString() << "\n";
      continue;
    }
    if (trimmed == ":checkpoint") {
      Status s = nous.Checkpoint();
      std::cout << (s.ok() ? "checkpointed" : s.ToString()) << "\n";
      continue;
    }
    if (StartsWith(trimmed, ":ingest ")) {
      std::string text(trimmed.substr(8));
      Status s = nous.IngestText(text, Date{2016, 1, 1},
                                 StrFormat("cli_%zu", adhoc++));
      if (!s.ok()) {
        std::cout << "ingest failed (not committed): " << s << "\n";
        continue;
      }
      nous.Finalize();  // refresh topics for path queries
      std::cout << "ingested; KG now has "
                << nous.graph().NumEdges() << " edges\n";
      continue;
    }
    if (StartsWith(trimmed, ":save ")) {
      std::string path(Trim(trimmed.substr(6)));
      Status s = SaveGraphToFile(nous.graph(), path);
      std::cout << (s.ok() ? "saved to " + path : s.ToString()) << "\n";
      continue;
    }
    auto answer = nous.Ask(std::string(trimmed));
    if (answer.ok()) {
      std::cout << answer->Render(nous.graph());
    } else {
      std::cout << "error: " << answer.status() << "\n";
    }
  }
  std::cout << "bye\n";
  return 0;
}
