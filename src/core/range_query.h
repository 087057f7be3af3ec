// Authenticated range queries over the AP²G-tree (paper §6.1, Algorithm 3).
#ifndef APQA_CORE_RANGE_QUERY_H_
#define APQA_CORE_RANGE_QUERY_H_

#include <deque>
#include <string>

#include "core/grid_tree.h"
#include "core/verify_result.h"
#include "core/vo.h"

namespace apqa::core {

// SP side: breadth-first VO construction with policy pruning. Nodes fully
// inside the range that the user cannot access contribute a single APS
// signature (derived with ABS.Relax, parallelized over `pool` when given).
Vo BuildRangeVo(const GridTree& tree, const VerifyKey& mvk, const Box& range,
                const RoleSet& user_roles, const RoleSet& universe, Rng* rng,
                ThreadPool* pool = nullptr);

// SP side, shared by the grid-tree builders: appends the inaccessible entry
// for `node` (a record entry for a leaf, a box entry otherwise) to `staged`
// and queues the job that relaxes the node's signature into it.
void StageInaccessible(const GridTree::Node& node, std::deque<VoEntry>* staged,
                       std::vector<RelaxJob>* jobs);

// Variant with an explicit relaxation target (the user's lacked-role set).
// Hierarchical role assignment (§8.1) passes the *reduced* lacked set here,
// shrinking every APS signature.
Vo BuildRangeVoWithLacked(const GridTree& tree, const VerifyKey& mvk,
                          const Box& range, const RoleSet& user_roles,
                          const RoleSet& lacked, Rng* rng,
                          ThreadPool* pool = nullptr);

// User side: soundness + completeness verification (Algorithm 3, bottom).
// On success, appends the accessible result records to `results` (if not
// null). `exact_pairings` selects per-column pairing checks instead of the
// batched verifier. When `pool` is given, the per-entry signature checks
// fan out across it; diagnostics and partial results are identical to the
// single-threaded path (see parallel_verify.h).
VerifyResult VerifyRangeVoEx(const VerifyKey& mvk, const Domain& domain,
                             const Box& range, const RoleSet& user_roles,
                             const RoleSet& universe, const Vo& vo,
                             std::vector<Record>* results,
                             bool exact_pairings = false,
                             ThreadPool* pool = nullptr,
                             std::uint64_t expected_epoch = 0);

// Variant with an explicit expected super-policy role set (§8.1).
VerifyResult VerifyRangeVoWithLackedEx(const VerifyKey& mvk,
                                       const Domain& domain, const Box& range,
                                       const RoleSet& user_roles,
                                       const RoleSet& lacked, const Vo& vo,
                                       std::vector<Record>* results,
                                       bool exact_pairings = false,
                                       ThreadPool* pool = nullptr,
                                       std::uint64_t expected_epoch = 0);

// Declassification gate for wire-decoded VOs: verification is the trust
// boundary, so the tainted value feeds the checked path directly.
inline VerifyResult VerifyRangeVoEx(const VerifyKey& mvk, const Domain& domain,
                                    const Box& range,
                                    const RoleSet& user_roles,
                                    const RoleSet& universe,
                                    const common::Untrusted<Vo>& vo,
                                    std::vector<Record>* results,
                                    bool exact_pairings = false,
                                    ThreadPool* pool = nullptr,
                                    std::uint64_t expected_epoch = 0) {
  // untrusted-ok: Verify*Ex is the declassification gate for SP bytes.
  return VerifyRangeVoEx(mvk, domain, range, user_roles, universe,
                         vo.Unvalidated(), results, exact_pairings, pool,
                         expected_epoch);
}

// Shared helper (also used by join verification): checks that the entry
// regions are well-formed, inside `range`, pairwise disjoint, and tile it
// exactly.
VerifyResult CheckCoverageEx(const Box& range, const Vo& vo);

}  // namespace apqa::core

#endif  // APQA_CORE_RANGE_QUERY_H_
