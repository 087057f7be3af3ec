// Tests of the benchmark's statistics helpers (stats.h). Built next to the
// benchmark; `python3 perfbench/run.py --self-test` builds and runs it.
// Exit status 0 iff every check holds.
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

#define CHECK(cond)                                              \
  do {                                                           \
    if (!(cond)) {                                               \
      std::fprintf(stderr, "%s:%d: CHECK(%s) failed\n", __FILE__, \
                   __LINE__, #cond);                             \
      ++failures;                                                \
    }                                                            \
  } while (0)

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentile() {
  using perfbench::Percentile;
  CHECK(Percentile({}, 50) == 0.0);
  CHECK(Percentile({7}, 50) == 7.0);
  CHECK(Percentile({7}, 90) == 7.0);
  // Nearest rank: ceil(p/100 * n)-th smallest.
  CHECK(Percentile(OneTo(10), 50) == 5.0);
  CHECK(Percentile(OneTo(11), 50) == 6.0);
  CHECK(Percentile(OneTo(100), 90) == 90.0);
  CHECK(Percentile(OneTo(101), 90) == 91.0);
  CHECK(Percentile(OneTo(100), 100) == 100.0);
  CHECK(Percentile({3, 1, 2}, 1) == 1.0);
}

void TestSamplesBeyond() {
  using perfbench::SamplesBeyond;
  CHECK(SamplesBeyond(0, 90) == 0);
  CHECK(SamplesBeyond(100, 90) == 10);
  CHECK(SamplesBeyond(99, 90) == 9);
  CHECK(SamplesBeyond(1000, 90) == 100);
  CHECK(SamplesBeyond(10, 50) == 5);
}

void TestTailPercentile() {
  using perfbench::TailPercentile;
  // Enough samples: p90 itself, with exactly 10 beyond at n = 100.
  perfbench::Tail t = TailPercentile(OneTo(100));
  CHECK(t.percentile == 90);
  CHECK(t.value == 90.0);
  CHECK(t.beyond == 10);
  // n = 44: p90 leaves 4 beyond, so the rule falls back to the highest
  // percentile leaving 10: ceil(p * 0.44) <= 34 -> p = 77.
  t = TailPercentile(OneTo(44));
  CHECK(t.percentile == 77);
  CHECK(t.beyond == 10);
  CHECK(t.value == 34.0);
  // n = 11: only p9 (rank 1) leaves 10 beyond.
  t = TailPercentile(OneTo(11));
  CHECK(t.percentile == 9);
  CHECK(t.beyond == 10);
  // n = 10: no percentile can leave 10 samples beyond it.
  t = TailPercentile(OneTo(10));
  CHECK(t.percentile == 0);
  CHECK(t.beyond == 0);
}

void TestFailRate() {
  perfbench::OpCount c;
  CHECK(c.FailRate() == 0.0);
  c.Record(true);
  c.Record(false);
  c.Record(true);
  c.Record(true);
  CHECK(c.attempted == 4);
  CHECK(c.failed == 1);
  CHECK(c.FailRate() == 0.25);
  c.Record(false);  // an update counts in the same tally as the queries
  CHECK(c.attempted == 5);
  CHECK(c.failed == 2);
  CHECK(c.FailRate() == 0.4);
}

void TestOutputFormat() {
  using perfbench::FormatNumber;
  CHECK(FormatNumber(1.5) == "1.5");
  CHECK(FormatNumber(0.1) == "0.10000000000000001");  // all digits kept
  CHECK(FormatNumber(12) == "12");
  CHECK(FormatNumber(std::numeric_limits<double>::infinity()) == "null");

  perfbench::OpCount ops;
  ops.Record(true);
  ops.Record(true);
  std::string json = perfbench::FormatResultJson(
      true, ops, {{"qps", "1/s", 2.5}, {"setup_s", "s", 4.25}});
  CHECK(json ==
        "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": "
        "{\"qps\": {\"value\": 2.5, \"unit\": \"1/s\"}, \"setup_s\": "
        "{\"value\": 4.25, \"unit\": \"s\"}}}");
  ops.Record(false);
  json = perfbench::FormatResultJson(false, ops, {});
  CHECK(json ==
        "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": "
        "{}}");

  std::string line = perfbench::FormatMetricLine({"vo_kb", "KiB", 29.25});
  CHECK(line.find("vo_kb") != std::string::npos);
  CHECK(line.find("29.250000 KiB") != std::string::npos);
}

}  // namespace

int main() {
  TestPercentile();
  TestSamplesBeyond();
  TestTailPercentile();
  TestFailRate();
  TestOutputFormat();
  if (failures == 0) std::printf("stats_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
