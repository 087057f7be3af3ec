#include "core/join_query.h"

#include <deque>

#include "core/parallel_verify.h"
#include "core/range_query.h"

namespace apqa::core {

namespace {

// Smallest node of `tree` under `from` whose box still covers `box`
// (Algorithm 4). In a full grid tree this is the aligned node at the same
// level as `box` when the box is a grid box.
GridTree::NodeId DescendCovering(const GridTree& tree, GridTree::NodeId from,
                                 const Box& box) {
  GridTree::NodeId cur = from;
  for (;;) {
    if (tree.IsLeafLevel(cur)) return cur;
    bool descended = false;
    for (GridTree::NodeId c : tree.Children(cur)) {
      if (tree.GetNode(c).box.ContainsBox(box)) {
        cur = c;
        descended = true;
        break;
      }
    }
    if (!descended) return cur;
  }
}

}  // namespace

JoinVo BuildJoinVo(const GridTree& tree_r, const GridTree& tree_s,
                   const VerifyKey& mvk, const Box& range,
                   const RoleSet& user_roles, const RoleSet& universe,
                   Rng* rng, ThreadPool* pool) {
  RoleSet lacked = SuperPolicyRoles(universe, user_roles);

  JoinVo vo;
  vo.r_stamp = tree_r.stamp();
  vo.s_stamp = tree_s.stamp();
  std::deque<VoEntry> r_aps, s_aps;
  std::vector<RelaxJob> jobs;

  std::deque<std::pair<GridTree::NodeId, GridTree::NodeId>> queue;
  queue.emplace_back(tree_r.Root(), tree_s.Root());
  while (!queue.empty()) {
    auto [nr, ns] = queue.front();
    queue.pop_front();
    const GridTree::Node& node_r = tree_r.GetNode(nr);
    if (!node_r.box.Intersects(range)) continue;
    if (!range.ContainsBox(node_r.box)) {
      for (GridTree::NodeId c : tree_r.Children(nr)) queue.emplace_back(c, ns);
      continue;
    }
    if (!node_r.policy.Evaluate(user_roles)) {
      StageInaccessible(node_r, &r_aps, &jobs);
      continue;
    }
    GridTree::NodeId ns_small = DescendCovering(tree_s, ns, node_r.box);
    const GridTree::Node& node_s = tree_s.GetNode(ns_small);
    if (!node_s.policy.Evaluate(user_roles)) {
      StageInaccessible(node_s, &s_aps, &jobs);
      continue;
    }
    if (tree_r.IsLeafLevel(nr)) {
      // Both sides are accessible leaves: a join result pair. Accessibility
      // excludes pseudo records (policy Role_∅).
      vo.pairs.push_back(JoinResultPair{
          ResultEntry{node_r.record.key, node_r.record.value,
                      node_r.record.policy, node_r.sig},
          ResultEntry{node_s.record.key, node_s.record.value,
                      node_s.record.policy, node_s.sig}});
    } else {
      for (GridTree::NodeId c : tree_r.Children(nr)) {
        queue.emplace_back(c, ns_small);
      }
    }
  }

  RelaxAll(mvk, lacked, jobs, rng, pool);
  MoveAppend(&r_aps, &vo.r_aps);
  MoveAppend(&s_aps, &vo.s_aps);
  return vo;
}

void JoinVo::Serialize(common::ByteWriter* w) const {
  r_stamp.Serialize(w);
  s_stamp.Serialize(w);
  w->PutU32(static_cast<std::uint32_t>(pairs.size()));
  for (const auto& p : pairs) {
    SerializeEntry(w, p.r);
    SerializeEntry(w, p.s);
  }
  w->PutU32(static_cast<std::uint32_t>(r_aps.size()));
  for (const auto& e : r_aps) SerializeEntry(w, e);
  w->PutU32(static_cast<std::uint32_t>(s_aps.size()));
  for (const auto& e : s_aps) SerializeEntry(w, e);
}

JoinVo JoinVo::DeserializeRaw(common::ByteReader* r) {
  JoinVo vo;
  vo.r_stamp = EpochStamp::DeserializeRaw(r);
  vo.s_stamp = EpochStamp::DeserializeRaw(r);
  std::uint32_t np = r->GetU32();
  // Two entries per pair, each at least kMinVoEntryBytes on the wire.
  if (!r->CheckCount(np, 2 * kMinVoEntryBytes)) return vo;
  vo.pairs.reserve(np);
  for (std::uint32_t i = 0; i < np && r->ok(); ++i) {
    JoinResultPair pair;
    VoEntry er = DeserializeEntry(r);
    VoEntry es = DeserializeEntry(r);
    auto* a = std::get_if<ResultEntry>(&er);
    auto* b = std::get_if<ResultEntry>(&es);
    if (a == nullptr || b == nullptr) {
      r->MarkBad(common::WireError::kMalformed,
                 "join pair entry is not a result entry");
      return vo;
    }
    pair.r = std::move(*a);
    pair.s = std::move(*b);
    vo.pairs.push_back(std::move(pair));
  }
  std::uint32_t nr = r->GetU32();
  if (!r->CheckCount(nr, kMinVoEntryBytes)) return vo;
  vo.r_aps.reserve(nr);
  for (std::uint32_t i = 0; i < nr && r->ok(); ++i) {
    vo.r_aps.push_back(DeserializeEntry(r));
  }
  std::uint32_t ns = r->GetU32();
  if (!r->CheckCount(ns, kMinVoEntryBytes)) return vo;
  vo.s_aps.reserve(ns);
  for (std::uint32_t i = 0; i < ns && r->ok(); ++i) {
    vo.s_aps.push_back(DeserializeEntry(r));
  }
  return vo;
}

std::size_t JoinVo::SerializedSize() const {
  common::ByteWriter w;
  Serialize(&w);
  return w.size();
}

VerifyResult VerifyJoinVoEx(const VerifyKey& mvk, const Domain& domain,
                            const Box& range, const RoleSet& user_roles,
                            const RoleSet& universe, const JoinVo& vo,
                            std::vector<std::pair<Record, Record>>* results,
                            bool exact_pairings, ThreadPool* pool,
                            std::uint64_t expected_epoch) {
  const Policy super_policy =
      Policy::OrOfRoles(SuperPolicyRoles(universe, user_roles));
  return RunVerifier(
      mvk, {&vo.r_stamp, &vo.s_stamp}, expected_epoch, exact_pairings, pool,
      [&](SigBatch& batch) {
        if (!range.WellFormed() ||
            range.lo.size() != static_cast<std::size_t>(domain.dims) ||
            !domain.FullBox().ContainsBox(range)) {
          return VerifyResult::Fail(VerifyCode::kBadQuery,
                                    "query range invalid for domain");
        }
        // Completeness: pair cells plus APS regions tile the range.
        Vo coverage;
        for (const auto& p : vo.pairs) coverage.entries.push_back(p.r);
        for (const auto& e : vo.r_aps) coverage.entries.push_back(e);
        for (const auto& e : vo.s_aps) coverage.entries.push_back(e);
        if (VerifyResult r = CheckCoverageEx(range, coverage); !r.ok()) {
          return r;
        }

        // A pair is released by its *second* (S-side) job, so an S-side
        // structural failure after the R-side job was queued emits nothing.
        for (std::size_t i = 0; i < vo.pairs.size(); ++i) {
          const JoinResultPair& pair = vo.pairs[i];
          std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(i);
          if (pair.r.key != pair.s.key) {
            return VerifyResult::Fail(VerifyCode::kKeyMismatch,
                                      "join pair keys differ", idx);
          }
          if (!domain.ContainsPoint(pair.r.key) ||
              !range.Contains(pair.r.key)) {
            return VerifyResult::Fail(VerifyCode::kRegionOutsideRange,
                                      "join pair key outside range", idx);
          }
          for (const ResultEntry* side : {&pair.r, &pair.s}) {
            if (!side->policy.Evaluate(user_roles)) {
              return VerifyResult::Fail(VerifyCode::kPolicyNotSatisfied,
                                        "join pair policy not satisfied", idx);
            }
            SigBatch::Release release;
            if (side == &pair.s) {
              release = [&pair, results] {
                if (results == nullptr) return;
                results->emplace_back(
                    Record{pair.r.key, pair.r.value, pair.r.policy},
                    Record{pair.s.key, pair.s.value, pair.s.policy});
              };
            }
            batch.Add(RecordMessage(side->key, side->value), &side->policy,
                      &side->app_sig,
                      VerifyResult::Fail(
                          VerifyCode::kBadSignature,
                          "join pair APP signature verification failed", idx),
                      std::move(release));
          }
        }

        for (const auto* side : {&vo.r_aps, &vo.s_aps}) {
          for (std::size_t i = 0; i < side->size(); ++i) {
            const VoEntry& entry = (*side)[i];
            std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(i);
            if (const auto* rec =
                    std::get_if<InaccessibleRecordEntry>(&entry)) {
              batch.Add(RecordMessageFromHash(rec->key, rec->value_hash),
                        &super_policy, &rec->aps_sig,
                        VerifyResult::Fail(VerifyCode::kBadSignature,
                                           "join APS record signature "
                                           "verification failed",
                                           idx));
            } else if (const auto* boxe =
                           std::get_if<InaccessibleBoxEntry>(&entry)) {
              batch.Add(BoxMessage(boxe->box), &super_policy, &boxe->aps_sig,
                        VerifyResult::Fail(VerifyCode::kBadSignature,
                                           "join APS box signature "
                                           "verification failed",
                                           idx));
            } else {
              return VerifyResult::Fail(
                  VerifyCode::kUnexpectedEntryType,
                  "unexpected result entry among join APS entries", idx);
            }
          }
        }
        return VerifyResult::Ok();
      });
}

MultiJoinVo BuildMultiJoinVo(const std::vector<const GridTree*>& trees,
                             const VerifyKey& mvk, const Box& range,
                             const RoleSet& user_roles,
                             const RoleSet& universe, Rng* rng) {
  RoleSet lacked = SuperPolicyRoles(universe, user_roles);
  MultiJoinVo vo;
  vo.aps.resize(trees.size());
  for (const GridTree* t : trees) vo.stamps.push_back(t->stamp());

  std::vector<std::deque<VoEntry>> aps(trees.size());
  std::vector<RelaxJob> jobs;

  // BFS over the first tree; companions track the covering node per table.
  struct Item {
    GridTree::NodeId lead;
    std::vector<GridTree::NodeId> companions;  // trees[1..]
  };
  std::deque<Item> queue;
  Item root;
  root.lead = trees[0]->Root();
  for (std::size_t i = 1; i < trees.size(); ++i) {
    root.companions.push_back(trees[i]->Root());
  }
  queue.push_back(std::move(root));
  while (!queue.empty()) {
    Item item = std::move(queue.front());
    queue.pop_front();
    const GridTree::Node& lead = trees[0]->GetNode(item.lead);
    if (!lead.box.Intersects(range)) continue;
    if (!range.ContainsBox(lead.box)) {
      for (GridTree::NodeId c : trees[0]->Children(item.lead)) {
        queue.push_back(Item{c, item.companions});
      }
      continue;
    }
    if (!lead.policy.Evaluate(user_roles)) {
      StageInaccessible(lead, &aps[0], &jobs);
      continue;
    }
    // Descend every companion to the node covering the lead box; the first
    // inaccessible one blocks the region.
    std::vector<GridTree::NodeId> next_companions;
    bool blocked = false;
    for (std::size_t i = 1; i < trees.size() && !blocked; ++i) {
      GridTree::NodeId small =
          DescendCovering(*trees[i], item.companions[i - 1], lead.box);
      const GridTree::Node& node = trees[i]->GetNode(small);
      if (!node.policy.Evaluate(user_roles)) {
        StageInaccessible(node, &aps[i], &jobs);
        blocked = true;
      }
      next_companions.push_back(small);
    }
    if (blocked) continue;
    if (trees[0]->IsLeafLevel(item.lead)) {
      std::vector<ResultEntry> tuple;
      tuple.push_back(ResultEntry{lead.record.key, lead.record.value,
                                  lead.record.policy, lead.sig});
      for (std::size_t i = 1; i < trees.size(); ++i) {
        const GridTree::Node& n = trees[i]->GetNode(next_companions[i - 1]);
        tuple.push_back(
            ResultEntry{n.record.key, n.record.value, n.record.policy, n.sig});
      }
      vo.tuples.push_back(std::move(tuple));
    } else {
      for (GridTree::NodeId c : trees[0]->Children(item.lead)) {
        queue.push_back(Item{c, next_companions});
      }
    }
  }
  RelaxAll(mvk, lacked, jobs, rng, /*pool=*/nullptr);
  for (std::size_t i = 0; i < trees.size(); ++i) {
    MoveAppend(&aps[i], &vo.aps[i]);
  }
  return vo;
}

std::size_t MultiJoinVo::SerializedSize() const {
  common::ByteWriter w;
  for (const auto& tuple : tuples) {
    for (const auto& e : tuple) SerializeEntry(&w, e);
  }
  for (const auto& side : aps) {
    for (const auto& e : side) SerializeEntry(&w, e);
  }
  return w.size();
}

VerifyResult VerifyMultiJoinVoEx(const VerifyKey& mvk, const Domain& domain,
                                 const Box& range, const RoleSet& user_roles,
                                 const RoleSet& universe,
                                 std::size_t num_tables, const MultiJoinVo& vo,
                                 std::vector<std::vector<Record>>* results,
                                 ThreadPool* pool,
                                 std::uint64_t expected_epoch) {
  // A missing stamp vector is treated like an unattested stamp: acceptable
  // only while the caller does not demand freshness.
  if (!vo.stamps.empty() || expected_epoch > 0) {
    if (vo.stamps.size() != num_tables) {
      return VerifyResult::Fail(VerifyCode::kStaleEpoch,
                                "wrong number of freshness stamps");
    }
  }
  std::vector<const EpochStamp*> stamps;
  for (const EpochStamp& stamp : vo.stamps) stamps.push_back(&stamp);
  const Policy super_policy =
      Policy::OrOfRoles(SuperPolicyRoles(universe, user_roles));
  return RunVerifier(
      mvk, stamps, expected_epoch, /*exact_pairings=*/false, pool,
      [&](SigBatch& batch) {
        if (!range.WellFormed() ||
            range.lo.size() != static_cast<std::size_t>(domain.dims) ||
            !domain.FullBox().ContainsBox(range)) {
          return VerifyResult::Fail(VerifyCode::kBadQuery,
                                    "query range invalid for domain");
        }
        if (vo.aps.size() != num_tables) {
          return VerifyResult::Fail(VerifyCode::kWrongEntryCount,
                                    "wrong number of APS groups");
        }
        Vo coverage;
        for (std::size_t i = 0; i < vo.tuples.size(); ++i) {
          if (vo.tuples[i].size() != num_tables) {
            return VerifyResult::Fail(VerifyCode::kWrongEntryCount,
                                      "tuple arity mismatch",
                                      static_cast<std::ptrdiff_t>(i));
          }
          coverage.entries.push_back(vo.tuples[i][0]);
        }
        for (const auto& side : vo.aps) {
          for (const auto& e : side) coverage.entries.push_back(e);
        }
        if (VerifyResult r = CheckCoverageEx(range, coverage); !r.ok()) {
          return r;
        }

        // A tuple is released by its *last* (num_tables-th) job, so a
        // mid-tuple structural failure emits nothing.
        for (std::size_t i = 0; i < vo.tuples.size(); ++i) {
          const auto& tuple = vo.tuples[i];
          std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(i);
          for (const auto& side : tuple) {
            if (side.key != tuple[0].key) {
              return VerifyResult::Fail(VerifyCode::kKeyMismatch,
                                        "tuple keys differ", idx);
            }
            if (!domain.ContainsPoint(side.key) || !range.Contains(side.key)) {
              return VerifyResult::Fail(VerifyCode::kRegionOutsideRange,
                                        "tuple key outside range", idx);
            }
            if (!side.policy.Evaluate(user_roles)) {
              return VerifyResult::Fail(VerifyCode::kPolicyNotSatisfied,
                                        "tuple policy not satisfied", idx);
            }
            SigBatch::Release release;
            if (&side == &tuple.back()) {
              release = [&tuple, results] {
                if (results == nullptr) return;
                std::vector<Record> out;
                for (const auto& e : tuple) {
                  out.push_back(Record{e.key, e.value, e.policy});
                }
                results->push_back(std::move(out));
              };
            }
            batch.Add(RecordMessage(side.key, side.value), &side.policy,
                      &side.app_sig,
                      VerifyResult::Fail(
                          VerifyCode::kBadSignature,
                          "tuple APP signature verification failed", idx),
                      std::move(release));
          }
        }

        for (const auto& side : vo.aps) {
          for (std::size_t i = 0; i < side.size(); ++i) {
            const VoEntry& entry = side[i];
            std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(i);
            if (const auto* rec =
                    std::get_if<InaccessibleRecordEntry>(&entry)) {
              batch.Add(RecordMessageFromHash(rec->key, rec->value_hash),
                        &super_policy, &rec->aps_sig,
                        VerifyResult::Fail(VerifyCode::kBadSignature,
                                           "multi-join record APS "
                                           "verification failed",
                                           idx));
            } else if (const auto* boxe =
                           std::get_if<InaccessibleBoxEntry>(&entry)) {
              batch.Add(BoxMessage(boxe->box), &super_policy, &boxe->aps_sig,
                        VerifyResult::Fail(
                            VerifyCode::kBadSignature,
                            "multi-join box APS verification failed", idx));
            } else {
              return VerifyResult::Fail(
                  VerifyCode::kUnexpectedEntryType,
                  "unexpected entry type in multi-join APS group", idx);
            }
          }
        }
        return VerifyResult::Ok();
      });
}

}  // namespace apqa::core
