#ifndef NOUS_PERFBENCH_BENCH_STATS_H_
#define NOUS_PERFBENCH_BENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/random.h"

namespace nous {
namespace perfbench {

/// Value at quantile `q` in [0, 1] of `values` (nearest rank on the
/// sorted copy; +inf samples sort last). 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = q * static_cast<double>(values.size() - 1);
  size_t index = static_cast<size_t>(std::llround(rank));
  return values[std::min(index, values.size() - 1)];
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// The percentile rule: the highest of p99.9 / p99 / p95 / p90 / p50
/// that still has at least ten samples beyond it, as a fraction in
/// (0, 1). Returns 0.5 when even the median lacks ten samples above
/// it; the caller reports the sample count beside it either way.
inline double TailQuantileFor(size_t samples) {
  for (double q : {0.999, 0.99, 0.95, 0.9}) {
    double beyond = (1.0 - q) * static_cast<double>(samples);
    if (beyond >= 10.0 - 1e-9) return q;
  }
  return 0.5;
}

/// A failed operation counts as missing every latency limit: its
/// sample is +inf, so it lands above every percentile it can reach.
inline double FailedSample() {
  return std::numeric_limits<double>::infinity();
}

/// Folds the latencies of a list of `n` operations asked round after
/// round (sample i is position i % n) into one value per position: its
/// fastest over the complete rounds. With fewer than two complete
/// rounds, returns `samples`.
inline std::vector<double> FastestPerPosition(
    const std::vector<double>& samples, size_t n) {
  const size_t rounds = n > 0 ? samples.size() / n : 0;
  if (rounds < 2) return samples;
  std::vector<double> out(samples.begin(), samples.begin() + n);
  for (size_t r = 1; r < rounds; ++r) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = std::min(out[i], samples[r * n + i]);
    }
  }
  return out;
}

/// Groups samples (anything with a `done_s` completion time, in seconds
/// since the phase began) by the window of `width` seconds they
/// completed in. Only the phase's whole windows are kept: a sample
/// past the last of them is left out.
template <typename Sample>
std::vector<std::vector<Sample>> ByWindow(const std::vector<Sample>& samples,
                                          double width, double phase_s) {
  const size_t n = width > 0 ? static_cast<size_t>(phase_s / width) : 0;
  std::vector<std::vector<Sample>> windows(n);
  for (const Sample& s : samples) {
    if (s.done_s < 0) continue;
    const size_t w = static_cast<size_t>(s.done_s / width);
    if (w < n) windows[w].push_back(s);
  }
  return windows;
}

/// Seeded Zipf(s) picker over ranks [0, n): rank k is drawn with
/// probability proportional to 1 / (k + 1)^s. Deterministic for a
/// given (n, s, seed): the sequence depends on nothing else.
class ZipfPicker {
 public:
  ZipfPicker(size_t n, double s, uint64_t seed) : rng_(seed) {
    cdf_.reserve(n);
    double total = 0;
    for (size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  size_t Next() {
    double u = rng_.UniformDouble();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) return cdf_.size() - 1;
    return static_cast<size_t>(it - cdf_.begin());
  }

  size_t size() const { return cdf_.size(); }

 private:
  Rng rng_;
  std::vector<double> cdf_;
};

}  // namespace perfbench
}  // namespace nous

#endif  // NOUS_PERFBENCH_BENCH_STATS_H_
