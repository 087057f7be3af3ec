#include "core/aggregate.h"

#include <cstdlib>

namespace apqa::core {

std::optional<AggregateResult> VerifyAndAggregateEx(
    const VerifyKey& mvk, const Domain& domain, const Box& range,
    const RoleSet& user_roles, const RoleSet& universe, const Vo& vo,
    const MeasureFn& measure, VerifyResult* why, ThreadPool* pool,
    std::uint64_t expected_epoch) {
  std::vector<Record> results;
  VerifyResult r = VerifyRangeVoEx(mvk, domain, range, user_roles, universe,
                                   vo, &results, /*exact_pairings=*/false,
                                   pool, expected_epoch);
  if (why != nullptr) *why = r;
  if (!r.ok()) return std::nullopt;
  AggregateResult agg;
  for (const Record& rec : results) {
    std::optional<double> m = measure(rec);
    if (!m.has_value()) continue;
    ++agg.count;
    agg.sum += *m;
    if (!agg.min.has_value() || *m < *agg.min) agg.min = *m;
    if (!agg.max.has_value() || *m > *agg.max) agg.max = *m;
  }
  return agg;
}

std::optional<double> NumericValueMeasure(const Record& record) {
  const char* begin = record.value.c_str();
  char* end = nullptr;
  double v = std::strtod(begin, &end);
  if (end == begin) return std::nullopt;
  return v;
}

}  // namespace apqa::core
