#include "core/equality.h"

#include "core/parallel_verify.h"
#include "core/range_query.h"

namespace apqa::core {

Vo BuildEqualityVo(const GridTree& tree, const VerifyKey& mvk, const Point& key,
                   const RoleSet& user_roles, const RoleSet& universe,
                   Rng* rng) {
  Vo vo;
  vo.stamp = tree.stamp();
  const GridTree::Node& leaf = tree.GetNode(tree.LeafAt(key));
  if (leaf.policy.Evaluate(user_roles)) {
    vo.entries.push_back(ResultEntry{leaf.record.key, leaf.record.value,
                                     leaf.record.policy, leaf.sig});
    return vo;
  }
  std::deque<VoEntry> staged;
  std::vector<RelaxJob> jobs;
  StageInaccessible(leaf, &staged, &jobs);
  RelaxAll(mvk, SuperPolicyRoles(universe, user_roles), jobs, rng,
           /*pool=*/nullptr);
  MoveAppend(&staged, &vo.entries);
  return vo;
}

VerifyResult VerifyEqualityVoEx(const VerifyKey& mvk, const Domain& domain,
                                const Point& key, const RoleSet& user_roles,
                                const RoleSet& universe, const Vo& vo,
                                Record* result, bool* accessible,
                                bool exact_pairings, ThreadPool* pool,
                                std::uint64_t expected_epoch) {
  const Policy super_policy =
      Policy::OrOfRoles(SuperPolicyRoles(universe, user_roles));
  return RunVerifier(
      mvk, {&vo.stamp}, expected_epoch, exact_pairings, pool,
      [&](SigBatch& batch) {
        if (!domain.ContainsPoint(key)) {
          return VerifyResult::Fail(VerifyCode::kBadQuery,
                                    "query key outside domain");
        }
        if (vo.entries.size() != 1) {
          return VerifyResult::Fail(
              VerifyCode::kWrongEntryCount,
              "equality VO must contain exactly one entry");
        }
        const VoEntry& entry = vo.entries[0];
        if (const auto* res = std::get_if<ResultEntry>(&entry)) {
          if (res->key != key) {
            return VerifyResult::Fail(VerifyCode::kKeyMismatch,
                                      "result key does not match query", 0);
          }
          if (!res->policy.Evaluate(user_roles)) {
            return VerifyResult::Fail(
                VerifyCode::kPolicyNotSatisfied,
                "result policy not satisfied by user roles", 0);
          }
          batch.Add(RecordMessage(res->key, res->value), &res->policy,
                    &res->app_sig,
                    VerifyResult::Fail(VerifyCode::kBadSignature,
                                       "APP signature verification failed", 0),
                    [res, result, accessible] {
                      if (result != nullptr) {
                        *result = Record{res->key, res->value, res->policy};
                      }
                      if (accessible != nullptr) *accessible = true;
                    });
          return VerifyResult::Ok();
        }
        if (const auto* rec = std::get_if<InaccessibleRecordEntry>(&entry)) {
          if (rec->key != key) {
            return VerifyResult::Fail(
                VerifyCode::kKeyMismatch,
                "inaccessible entry key does not match query", 0);
          }
          batch.Add(RecordMessageFromHash(rec->key, rec->value_hash),
                    &super_policy, &rec->aps_sig,
                    VerifyResult::Fail(VerifyCode::kBadSignature,
                                       "APS signature verification failed", 0),
                    [accessible] {
                      if (accessible != nullptr) *accessible = false;
                    });
          return VerifyResult::Ok();
        }
        return VerifyResult::Fail(VerifyCode::kUnexpectedEntryType,
                                  "unexpected entry type in equality VO", 0);
      });
}

}  // namespace apqa::core
