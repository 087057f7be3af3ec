// Authenticated equality queries (paper §5.1, Algorithm 1).
//
// The ADS for equality queries is the leaf layer of the AP²G-tree: every
// possible key has a (real or pseudo) record with an APP signature, so every
// equality query has exactly one matching entry — accessible or not — and
// the two cases are the only distinguishable outcomes.
#ifndef APQA_CORE_EQUALITY_H_
#define APQA_CORE_EQUALITY_H_

#include <string>

#include "core/grid_tree.h"
#include "core/thread_pool.h"
#include "core/verify_result.h"
#include "core/vo.h"

namespace apqa::core {

// SP side: VO for an equality query on `key` by a user holding `user_roles`.
// Returns a single-entry VO: ResultEntry when accessible, otherwise an
// InaccessibleRecordEntry carrying only hash(v) and the APS signature.
Vo BuildEqualityVo(const GridTree& tree, const VerifyKey& mvk, const Point& key,
                   const RoleSet& user_roles, const RoleSet& universe,
                   Rng* rng);

// User side: verifies the VO against the queried key. On success, when the
// record is accessible, `result` (if not null) receives it and *accessible
// is set accordingly.
// Runs on the shared verifier skeleton like every other Ex verifier (see
// core/parallel_verify.h); `pool` keeps the API uniform.
VerifyResult VerifyEqualityVoEx(const VerifyKey& mvk, const Domain& domain,
                                const Point& key, const RoleSet& user_roles,
                                const RoleSet& universe, const Vo& vo,
                                Record* result, bool* accessible,
                                bool exact_pairings = false,
                                ThreadPool* pool = nullptr,
                                std::uint64_t expected_epoch = 0);

// Declassification gate for wire-decoded VOs: verification is the trust
// boundary, so the tainted value feeds the checked path directly.
inline VerifyResult VerifyEqualityVoEx(
    const VerifyKey& mvk, const Domain& domain, const Point& key,
    const RoleSet& user_roles, const RoleSet& universe,
    const common::Untrusted<Vo>& vo, Record* result, bool* accessible,
    bool exact_pairings = false, ThreadPool* pool = nullptr,
    std::uint64_t expected_epoch = 0) {
  // untrusted-ok: Verify*Ex is the declassification gate for SP bytes.
  return VerifyEqualityVoEx(mvk, domain, key, user_roles, universe,
                            vo.Unvalidated(), result, accessible,
                            exact_pairings, pool, expected_epoch);
}

}  // namespace apqa::core

#endif  // APQA_CORE_EQUALITY_H_
