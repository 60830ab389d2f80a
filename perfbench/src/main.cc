// nous_perfbench: the repository benchmark's binary (see ../NOTES.md).
// run.py drives it in two processes per run:
//
//   nous_perfbench prep    --workload W --seed N --dir D
//   nous_perfbench measure --workload W --seed N --seconds S --trace 0|1
//                          --dir D [--git-sha SHA]
//
// `prep` builds the base durable state into D/base; `measure` brings it
// up, runs the timed phase, checks correctness and prints one
// `RESULT {json}` line. Exit code 0 only when every check passed.

#include <iostream>
#include <string>

#include "common/string_util.h"
#include "workloads.h"

namespace {

int Usage(const std::string& error) {
  std::cerr << "nous_perfbench: " << error
            << "\nusage: nous_perfbench prep|measure --workload "
               "stream_build|query_mix --seed N --dir D "
               "[--seconds S] [--trace 0|1] [--git-sha SHA]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using nous::perfbench::RunArgs;
  if (argc < 2) return Usage("missing command");
  const std::string command = argv[1];
  RunArgs args;
  bool have_workload = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    size_t number = 0;
    if (flag == "--workload") {
      if (!nous::perfbench::ParseWorkload(value, &args.workload)) {
        return Usage("unknown workload '" + value + "'");
      }
      have_workload = true;
    } else if (flag == "--seed") {
      if (!nous::ParseSize(value, &number)) return Usage("bad --seed");
      args.seed = number;
    } else if (flag == "--seconds") {
      if (!nous::ParseSize(value, &number, 1, 3600)) {
        return Usage("bad --seconds");
      }
      args.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      args.trace = value == "1";
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (!have_workload || args.dir.empty()) {
    return Usage("--workload and --dir are required");
  }
  if (command == "prep") return nous::perfbench::PrepareBaseState(args);
  if (command == "measure") return nous::perfbench::MeasureRun(args);
  return Usage("unknown command '" + command + "'");
}
