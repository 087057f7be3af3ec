#include "core/range_query.h"

#include <deque>

#include "core/parallel_verify.h"

namespace apqa::core {

Vo BuildRangeVo(const GridTree& tree, const VerifyKey& mvk, const Box& range,
                const RoleSet& user_roles, const RoleSet& universe, Rng* rng,
                ThreadPool* pool) {
  return BuildRangeVoWithLacked(tree, mvk, range, user_roles,
                                SuperPolicyRoles(universe, user_roles), rng,
                                pool);
}

void StageInaccessible(const GridTree::Node& node, std::deque<VoEntry>* staged,
                       std::vector<RelaxJob>* jobs) {
  if (node.is_leaf) {
    Digest vh = crypto::Sha256::Hash(node.record.value.data(),
                                     node.record.value.size());
    auto& e = std::get<InaccessibleRecordEntry>(staged->emplace_back(
        InaccessibleRecordEntry{node.record.key, vh, {}}));
    jobs->push_back(RelaxJob{&node.sig, &node.policy,
                             RecordMessageFromHash(node.record.key, vh),
                             &e.aps_sig});
  } else {
    auto& e = std::get<InaccessibleBoxEntry>(
        staged->emplace_back(InaccessibleBoxEntry{node.box, {}}));
    jobs->push_back(
        RelaxJob{&node.sig, &node.policy, BoxMessage(node.box), &e.aps_sig});
  }
}

Vo BuildRangeVoWithLacked(const GridTree& tree, const VerifyKey& mvk,
                          const Box& range, const RoleSet& user_roles,
                          const RoleSet& lacked, Rng* rng, ThreadPool* pool) {
  // BFS to find result leaves and inaccessible covers; the covers follow
  // the results in the VO.
  Vo vo;
  vo.stamp = tree.stamp();
  std::deque<VoEntry> relaxed;
  std::vector<RelaxJob> jobs;
  std::deque<GridTree::NodeId> queue;
  queue.push_back(tree.Root());
  while (!queue.empty()) {
    GridTree::NodeId id = queue.front();
    queue.pop_front();
    const GridTree::Node& node = tree.GetNode(id);
    if (!node.box.Intersects(range)) continue;
    if (!range.ContainsBox(node.box)) {
      // Partial overlap: explore the subtree.
      for (GridTree::NodeId c : tree.Children(id)) queue.push_back(c);
      continue;
    }
    // Node fully inside the query range.
    if (node.policy.Evaluate(user_roles)) {
      if (node.is_leaf) {
        vo.entries.push_back(ResultEntry{node.record.key, node.record.value,
                                         node.record.policy, node.sig});
      } else {
        for (GridTree::NodeId c : tree.Children(id)) queue.push_back(c);
      }
    } else {
      StageInaccessible(node, &relaxed, &jobs);
    }
  }
  RelaxAll(mvk, lacked, jobs, rng, pool);
  MoveAppend(&relaxed, &vo.entries);
  return vo;
}

VerifyResult CheckCoverageEx(const Box& range, const Vo& vo) {
  std::uint64_t covered = 0;
  std::vector<Box> boxes;
  boxes.reserve(vo.entries.size());
  for (std::size_t i = 0; i < vo.entries.size(); ++i) {
    Box b = EntryRegion(vo.entries[i]);
    std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(i);
    if (b.lo.size() != range.lo.size()) {
      return VerifyResult::Fail(VerifyCode::kDimensionMismatch,
                                "entry region dimensionality mismatch", idx);
    }
    // An inverted box would wrap Volume() and could forge the covered-cell
    // sum, so reject before any arithmetic.
    if (!b.WellFormed()) {
      return VerifyResult::Fail(VerifyCode::kMalformedVo,
                                "entry region not a well-formed box", idx);
    }
    if (!range.ContainsBox(b)) {
      return VerifyResult::Fail(VerifyCode::kRegionOutsideRange,
                                "entry region outside query range", idx);
    }
    for (const Box& prev : boxes) {
      if (prev.Intersects(b)) {
        return VerifyResult::Fail(VerifyCode::kOverlap,
                                  "overlapping entry regions", idx);
      }
    }
    covered += b.Volume();
    boxes.push_back(b);
  }
  if (covered != range.Volume()) {
    return VerifyResult::Fail(VerifyCode::kCoverageGap,
                              "entry regions do not cover the query range");
  }
  return VerifyResult::Ok();
}

VerifyResult VerifyRangeVoEx(const VerifyKey& mvk, const Domain& domain,
                             const Box& range, const RoleSet& user_roles,
                             const RoleSet& universe, const Vo& vo,
                             std::vector<Record>* results, bool exact_pairings,
                             ThreadPool* pool, std::uint64_t expected_epoch) {
  return VerifyRangeVoWithLackedEx(mvk, domain, range, user_roles,
                                   SuperPolicyRoles(universe, user_roles), vo,
                                   results, exact_pairings, pool,
                                   expected_epoch);
}

VerifyResult VerifyRangeVoWithLackedEx(const VerifyKey& mvk,
                                       const Domain& domain, const Box& range,
                                       const RoleSet& user_roles,
                                       const RoleSet& lacked, const Vo& vo,
                                       std::vector<Record>* results,
                                       bool exact_pairings, ThreadPool* pool,
                                       std::uint64_t expected_epoch) {
  const Policy super_policy = Policy::OrOfRoles(lacked);
  return RunVerifier(
      mvk, {&vo.stamp}, expected_epoch, exact_pairings, pool,
      [&](SigBatch& batch) {
        if (!range.WellFormed() ||
            range.lo.size() != static_cast<std::size_t>(domain.dims) ||
            !domain.FullBox().ContainsBox(range)) {
          return VerifyResult::Fail(VerifyCode::kBadQuery,
                                    "query range invalid for domain");
        }
        if (VerifyResult r = CheckCoverageEx(range, vo); !r.ok()) return r;
        for (std::size_t i = 0; i < vo.entries.size(); ++i) {
          const VoEntry& entry = vo.entries[i];
          std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(i);
          if (const auto* res = std::get_if<ResultEntry>(&entry)) {
            if (!domain.ContainsPoint(res->key) || !range.Contains(res->key)) {
              return VerifyResult::Fail(VerifyCode::kRegionOutsideRange,
                                        "result key outside range", idx);
            }
            if (!res->policy.Evaluate(user_roles)) {
              return VerifyResult::Fail(
                  VerifyCode::kPolicyNotSatisfied,
                  "result policy not satisfied by user roles", idx);
            }
            batch.Add(RecordMessage(res->key, res->value), &res->policy,
                      &res->app_sig,
                      VerifyResult::Fail(VerifyCode::kBadSignature,
                                         "APP signature verification failed",
                                         idx),
                      [res, results] {
                        if (results == nullptr) return;
                        results->push_back(
                            Record{res->key, res->value, res->policy});
                      });
          } else if (const auto* rec =
                         std::get_if<InaccessibleRecordEntry>(&entry)) {
            if (!domain.ContainsPoint(rec->key)) {
              return VerifyResult::Fail(
                  VerifyCode::kRegionOutsideRange,
                  "inaccessible record key outside domain", idx);
            }
            batch.Add(RecordMessageFromHash(rec->key, rec->value_hash),
                      &super_policy, &rec->aps_sig,
                      VerifyResult::Fail(
                          VerifyCode::kBadSignature,
                          "record APS signature verification failed", idx));
          } else {
            const auto& boxe = std::get<InaccessibleBoxEntry>(entry);
            batch.Add(BoxMessage(boxe.box), &super_policy, &boxe.aps_sig,
                      VerifyResult::Fail(
                          VerifyCode::kBadSignature,
                          "box APS signature verification failed", idx));
          }
        }
        return VerifyResult::Ok();
      });
}

}  // namespace apqa::core
