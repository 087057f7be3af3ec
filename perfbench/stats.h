// Statistics and result formatting for the end-to-end benchmark.
//
// Kept header-only and free of any APQA dependency so stats_test.cc can pin
// the rules without building the library:
//
//   * percentiles are nearest-rank: the p-th percentile of n samples is the
//     ceil(p/100 * n)-th smallest sample, so the number of samples strictly
//     "beyond" it is n - ceil(p/100 * n);
//   * the tail figure is p90 when at least ten samples lie beyond it, and
//     otherwise the highest whole percentile that still leaves ten beyond
//     (TailPercentile) — with fewer samples a p90 is one or two draws;
//   * a failed or unverified operation counts once in `failed` and is never
//     part of a latency sample (it misses every latency limit);
//   * the last stdout line is one JSON object with exactly the keys
//     correct, attempted, failed, metrics.
#ifndef APQA_PERFBENCH_STATS_H_
#define APQA_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

// Nearest-rank percentile, p in (0, 100]. Empty input gives 0.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

// Samples strictly above the nearest-rank p-th percentile's rank.
inline std::size_t SamplesBeyond(std::size_t n, double p) {
  if (n == 0) return 0;
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

struct Tail {
  int percentile = 0;       // 0 when fewer than min_beyond + 1 samples
  double value = 0.0;
  std::size_t beyond = 0;   // samples strictly beyond `percentile`
};

// The highest whole percentile <= cap that leaves at least `min_beyond`
// samples beyond it.
inline Tail TailPercentile(const std::vector<double>& samples, int cap = 90,
                           std::size_t min_beyond = 10) {
  Tail t;
  for (int p = cap; p >= 1; --p) {
    std::size_t beyond = SamplesBeyond(samples.size(), p);
    if (beyond >= min_beyond) {
      t.percentile = p;
      t.value = Percentile(samples, p);
      t.beyond = beyond;
      return t;
    }
  }
  return t;
}

// Attempted/failed bookkeeping for queries and updates together.
struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  double FailRate() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// Full precision, shortest round-trip form; JSON has no NaN/Inf, so those
// (a bug upstream) print as null and fail the consumer loudly.
inline std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Human-readable "name  value unit" line.
inline std::string FormatMetricLine(const Metric& m) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-30s %14.6f %s", m.name.c_str(),
                m.value, m.unit.c_str());
  return buf;
}

inline std::string FormatResultJson(bool correct, const OpCount& ops,
                                    const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ops.attempted);
  out += ", \"failed\": " + std::to_string(ops.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

#endif  // APQA_PERFBENCH_STATS_H_
