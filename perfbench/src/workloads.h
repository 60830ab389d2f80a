#ifndef NOUS_PERFBENCH_WORKLOADS_H_
#define NOUS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "fixture.h"

namespace nous {
namespace perfbench {

struct RunArgs {
  Workload workload = Workload::kStreamBuild;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory of this run: `<dir>/base` holds the prepared
  /// durable state, `<dir>/work` the measured instance's copy.
  std::string dir;
  std::string git_sha = "unknown";
};

/// Child-process step: builds the workload's base state (a checkpoint
/// plus a WAL tail of un-checkpointed batches) into a wiped
/// `<dir>/base`. Returns the process exit code.
int PrepareBaseState(const RunArgs& args);

/// Measuring step: brings the base state up, runs the timed phase,
/// checks correctness, and prints one `RESULT {json}` line with the
/// end-to-end metrics (or, with `trace`, the per-layer metrics).
/// Returns 0 when every correctness check passed, else 1.
int MeasureRun(const RunArgs& args);

}  // namespace perfbench
}  // namespace nous

#endif  // NOUS_PERFBENCH_WORKLOADS_H_
