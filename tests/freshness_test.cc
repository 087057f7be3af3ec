// Replay-robustness regression suite: a VO minted at epoch N verifies at N,
// and the *same bytes* replayed after the DO advanced the ADS to N+1 must be
// rejected with kStaleEpoch — a precise freshness diagnostic, not a generic
// signature failure — identically under the batched multi-pairing verifier
// and the per-signature fallback path.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <vector>

#include "common/serde.h"
#include "core/continuous.h"
#include "core/duplicates.h"
#include "core/equality.h"
#include "core/join_query.h"
#include "core/kd_tree.h"
#include "core/parallel_verify.h"
#include "core/range_query.h"
#include "core/system.h"
#include "core/thread_pool.h"

namespace apqa::core {
namespace {

struct FreshEnv {
  abs::MasterKey msk;
  VerifyKey mvk;
  abs::SigningKey sk;
  RoleSet universe{"RoleA", "RoleB"};
  RoleSet user{"RoleA"};
  Domain domain{1, 3};  // keys 0..7
  Box range{Point{0}, Point{7}};
  std::optional<GridTree> tree_r, tree_s;
  // Epoch-0 VOs, frozen as bytes before any update (the replay material).
  std::vector<std::uint8_t> eq_bytes, range_bytes, join_bytes;

  static FreshEnv& Get() {
    static FreshEnv* env = [] {
      auto* e = new FreshEnv;
      Rng rng(20260810);
      abs::Abs::Setup(&rng, &e->msk, &e->mvk);
      RoleSet all = e->universe;
      all.insert(kPseudoRole);
      e->sk = abs::Abs::KeyGen(e->msk, all, &rng);
      e->tree_r = GridTree::Build(
          e->mvk, e->sk, e->domain,
          {
              Record{Point{1}, "v1", Policy::Parse("RoleA")},
              Record{Point{5}, "v5", Policy::Parse("RoleB")},
          },
          &rng);
      e->tree_s = GridTree::Build(
          e->mvk, e->sk, e->domain,
          {
              Record{Point{1}, "s1", Policy::Parse("RoleA")},
              Record{Point{6}, "s6", Policy::Parse("RoleB")},
          },
          &rng);

      auto freeze = [](const auto& vo) {
        common::ByteWriter w;
        vo.Serialize(&w);
        return w.data();
      };
      e->eq_bytes = freeze(BuildEqualityVo(*e->tree_r, e->mvk, Point{1},
                                           e->user, e->universe, &rng));
      e->range_bytes = freeze(BuildRangeVo(*e->tree_r, e->mvk, e->range,
                                           e->user, e->universe, &rng));
      e->join_bytes = freeze(BuildJoinVo(*e->tree_r, *e->tree_s, e->mvk,
                                         e->range, e->user, e->universe,
                                         &rng));

      // The update that makes the frozen VOs stale: both tables advance to
      // epoch 1 (the join verifier checks both stamps).
      e->tree_r->ApplyUpdates(e->mvk, e->sk,
                              {{AdsUpdateOp::Kind::kUpsert,
                                Record{Point{2}, "v2",
                                       Policy::Parse("RoleA")}}},
                              &rng);
      e->tree_s->ApplyUpdates(e->mvk, e->sk,
                              {{AdsUpdateOp::Kind::kDelete,
                                Record{Point{6}, "", Policy{}}}},
                              &rng);
      return e;
    }();
    return *env;
  }
};

template <typename VoT>
VoT MustDeser(const std::vector<std::uint8_t>& bytes) {
  common::ByteReader r(bytes);
  VoT vo = VoT::DeserializeRaw(&r);
  EXPECT_TRUE(r.ok() && r.AtEnd());
  return vo;
}

// Runs all three verifiers over the frozen epoch-0 bytes at
// `expected_epoch` and returns the three result codes.
struct ReplayCodes {
  VerifyCode eq, range, join;
};

ReplayCodes VerifyFrozen(std::uint64_t expected_epoch) {
  FreshEnv& e = FreshEnv::Get();
  ReplayCodes out{};
  {
    Vo vo = MustDeser<Vo>(e.eq_bytes);
    out.eq = VerifyEqualityVoEx(e.mvk, e.domain, Point{1}, e.user, e.universe,
                                vo, nullptr, nullptr,
                                /*exact_pairings=*/false, nullptr,
                                expected_epoch)
                 .code;
  }
  {
    Vo vo = MustDeser<Vo>(e.range_bytes);
    out.range = VerifyRangeVoEx(e.mvk, e.domain, e.range, e.user, e.universe,
                                vo, nullptr, /*exact_pairings=*/false, nullptr,
                                expected_epoch)
                    .code;
  }
  {
    JoinVo vo = MustDeser<JoinVo>(e.join_bytes);
    out.join = VerifyJoinVoEx(e.mvk, e.domain, e.range, e.user, e.universe,
                              vo, nullptr, /*exact_pairings=*/false, nullptr,
                              expected_epoch)
                   .code;
  }
  return out;
}

TEST(ReplayTest, EpochZeroVoVerifiesAtItsOwnEpoch) {
  ReplayCodes codes = VerifyFrozen(/*expected_epoch=*/0);
  EXPECT_EQ(codes.eq, VerifyCode::kOk);
  EXPECT_EQ(codes.range, VerifyCode::kOk);
  EXPECT_EQ(codes.join, VerifyCode::kOk);
}

TEST(ReplayTest, ReplayedVoFailsWithStaleEpochNotBadSignature) {
  ReplayCodes codes = VerifyFrozen(/*expected_epoch=*/1);
  EXPECT_EQ(codes.eq, VerifyCode::kStaleEpoch);
  EXPECT_EQ(codes.range, VerifyCode::kStaleEpoch);
  EXPECT_EQ(codes.join, VerifyCode::kStaleEpoch);
}

TEST(ReplayTest, RejectionIsIdenticalOnBatchedAndPerSignaturePaths) {
  // The freshness gate runs before any signature batching, so the byte-for
  // -byte identical VO must produce the same verdict on both verify paths.
  ReplayCodes batched = VerifyFrozen(/*expected_epoch=*/1);
  ReplayCodes per_sig{};
  {
    ScopedPerSignatureVerify scoped;
    per_sig = VerifyFrozen(/*expected_epoch=*/1);
  }
  EXPECT_EQ(batched.eq, per_sig.eq);
  EXPECT_EQ(batched.range, per_sig.range);
  EXPECT_EQ(batched.join, per_sig.join);
  EXPECT_EQ(per_sig.eq, VerifyCode::kStaleEpoch);
  EXPECT_EQ(per_sig.range, VerifyCode::kStaleEpoch);
  EXPECT_EQ(per_sig.join, VerifyCode::kStaleEpoch);

  // And the positive case stays positive on both paths too.
  ReplayCodes ok_batched = VerifyFrozen(/*expected_epoch=*/0);
  ReplayCodes ok_per_sig{};
  {
    ScopedPerSignatureVerify scoped;
    ok_per_sig = VerifyFrozen(/*expected_epoch=*/0);
  }
  EXPECT_EQ(ok_batched.eq, ok_per_sig.eq);
  EXPECT_EQ(ok_per_sig.range, VerifyCode::kOk);
  EXPECT_EQ(ok_per_sig.join, VerifyCode::kOk);
}

// Freshness-first across all eight verifiers. Each case is a VO whose stamp
// is stale at `own_epoch + 1` and that is *also* structurally broken (wrong
// entry count, coverage gap or tampered signature). The freshness gate runs
// before the structural walk, so the stale VO must fail kStaleEpoch with no
// entry index, never with the failure behind it; at its own epoch the same
// VO fails with `broken`, which shows the breakage is real.
struct StaleBrokenCase {
  const char* name;
  std::uint64_t own_epoch;
  VerifyCode broken;
  std::function<VerifyResult(std::uint64_t expected_epoch, ThreadPool* pool)>
      verify;
};

std::vector<StaleBrokenCase> StaleBrokenCases() {
  FreshEnv& e = FreshEnv::Get();
  Rng rng(41);
  std::vector<StaleBrokenCase> cases;

  Vo eq = MustDeser<Vo>(e.eq_bytes);
  eq.entries.push_back(eq.entries[0]);
  cases.push_back({"equality", eq.stamp.epoch, VerifyCode::kWrongEntryCount,
                   [&e, eq](std::uint64_t epoch, ThreadPool* pool) {
                     return VerifyEqualityVoEx(e.mvk, e.domain, Point{1},
                                               e.user, e.universe, eq, nullptr,
                                               nullptr, false, pool, epoch);
                   }});

  Vo range = MustDeser<Vo>(e.range_bytes);
  range.entries.pop_back();
  cases.push_back({"range", range.stamp.epoch, VerifyCode::kCoverageGap,
                   [&e, range](std::uint64_t epoch, ThreadPool* pool) {
                     return VerifyRangeVoEx(e.mvk, e.domain, e.range, e.user,
                                            e.universe, range, nullptr, false,
                                            pool, epoch);
                   }});

  JoinVo join = MustDeser<JoinVo>(e.join_bytes);
  EXPECT_FALSE(join.pairs.empty());
  join.pairs[0].r.value += "-tampered";
  cases.push_back({"join", join.r_stamp.epoch, VerifyCode::kBadSignature,
                   [&e, join](std::uint64_t epoch, ThreadPool* pool) {
                     return VerifyJoinVoEx(e.mvk, e.domain, e.range, e.user,
                                           e.universe, join, nullptr, false,
                                           pool, epoch);
                   }});

  MultiJoinVo multi = BuildMultiJoinVo({&*e.tree_r, &*e.tree_s}, e.mvk,
                                       e.range, e.user, e.universe, &rng);
  multi.aps.pop_back();
  cases.push_back({"multi-join", multi.stamps[0].epoch,
                   VerifyCode::kWrongEntryCount,
                   [&e, multi](std::uint64_t epoch, ThreadPool* pool) {
                     return VerifyMultiJoinVoEx(e.mvk, e.domain, e.range,
                                                e.user, e.universe, 2, multi,
                                                nullptr, pool, epoch);
                   }});

  std::vector<Record> records = {
      Record{Point{1}, "a", Policy::Parse("RoleA")},
      Record{Point{1}, "b", Policy::Parse("RoleA")},
      Record{Point{5}, "c", Policy::Parse("RoleB")},
  };
  KdTree kd_tree = KdTree::Build(e.mvk, e.sk, e.domain,
                                 {records[0], records[2]}, &rng);
  KdVo kd = BuildKdRangeVo(kd_tree, e.mvk, e.range, e.user, e.universe, &rng);
  EXPECT_FALSE(kd.boxes.empty() && kd.leaves.empty());
  if (!kd.boxes.empty()) {
    kd.boxes.pop_back();
  } else {
    kd.leaves.pop_back();
  }
  cases.push_back({"kd", kd.stamp.epoch, VerifyCode::kCoverageGap,
                   [&e, kd](std::uint64_t epoch, ThreadPool* pool) {
                     return VerifyKdRangeVoEx(e.mvk, e.domain, e.range, e.user,
                                              e.universe, kd, nullptr, pool,
                                              epoch);
                   }});

  DupGridTree dup_tree = DupGridTree::Build(e.mvk, e.sk, e.domain, records,
                                            &rng);
  DupVo dup = BuildDupRangeVo(dup_tree, e.mvk, e.range, e.user, e.universe,
                              &rng);
  EXPECT_GE(dup.results.size(), 2u);
  dup.results.erase(dup.results.begin());
  cases.push_back({"dup", dup.stamp.epoch, VerifyCode::kDuplicateBookkeeping,
                   [&e, dup](std::uint64_t epoch, ThreadPool* pool) {
                     return VerifyDupRangeVoEx(e.mvk, e.domain, e.range,
                                               e.user, e.universe, dup,
                                               nullptr, pool, epoch);
                   }});

  ContinuousAds ads = ContinuousAds::Build(
      e.mvk, e.sk,
      {{100, "v100", Policy::Parse("RoleA")},
       {250, "v250", Policy::Parse("RoleB")}},
      &rng);
  ContinuousVo crange = BuildContinuousRangeVo(ads, e.mvk, 50, 500, e.user,
                                               e.universe, &rng);
  ContinuousVo cequal =
      BuildContinuousEqualityVo(ads, e.mvk, 100, e.user, e.universe, &rng);
  EXPECT_FALSE(crange.results.empty() || crange.gaps.empty());
  cequal.gaps.push_back(crange.gaps[0]);
  crange.results.clear();
  cases.push_back({"continuous-range", crange.stamp.epoch,
                   VerifyCode::kCoverageGap,
                   [&e, crange](std::uint64_t epoch, ThreadPool* pool) {
                     return VerifyContinuousRangeVoEx(e.mvk, 50, 500, e.user,
                                                      e.universe, crange,
                                                      nullptr, pool, epoch);
                   }});
  cases.push_back({"continuous-equality", cequal.stamp.epoch,
                   VerifyCode::kWrongEntryCount,
                   [&e, cequal](std::uint64_t epoch, ThreadPool* pool) {
                     return VerifyContinuousEqualityVoEx(e.mvk, 100, e.user,
                                                         e.universe, cequal,
                                                         nullptr, pool, epoch);
                   }});
  return cases;
}

TEST(ReplayTest, StaleEpochPrecedesStructuralFailureOnEveryVerifier) {
  std::vector<StaleBrokenCase> cases = StaleBrokenCases();
  ASSERT_EQ(cases.size(), 8u);
  ThreadPool pool(2);
  for (const StaleBrokenCase& c : cases) {
    SCOPED_TRACE(c.name);
    VerifyResult own = c.verify(c.own_epoch, nullptr);
    EXPECT_EQ(own.code, c.broken) << own.ToString();

    const std::uint64_t stale = c.own_epoch + 1;
    std::vector<VerifyResult> verdicts = {c.verify(stale, nullptr),
                                          c.verify(stale, &pool)};
    {
      ScopedPerSignatureVerify per_signature;
      verdicts.push_back(c.verify(stale, nullptr));
    }
    for (const VerifyResult& r : verdicts) {
      EXPECT_EQ(r.code, VerifyCode::kStaleEpoch) << r.ToString();
      EXPECT_EQ(r.entry_index, -1) << r.ToString();
    }
  }
}

TEST(ReplayTest, FreshVoAtTheNewEpochVerifies) {
  FreshEnv& e = FreshEnv::Get();
  Rng rng(31);
  Vo vo = BuildRangeVo(*e.tree_r, e.mvk, e.range, e.user, e.universe, &rng);
  std::vector<Record> results;
  VerifyResult r = VerifyRangeVoEx(e.mvk, e.domain, e.range, e.user,
                                   e.universe, vo, &results,
                                   /*exact_pairings=*/false, nullptr,
                                   /*expected_epoch=*/1);
  ASSERT_TRUE(r.ok()) << r.ToString();
  // v1 (epoch-0 signature) and v2 (epoch-1 signature) both verify: per-node
  // epochs are mixed after an incremental update; freshness rides the stamp.
  ASSERT_EQ(results.size(), 2u);
}

TEST(ReplayTest, NewerVoPassesAnOlderExpectation) {
  // expected_epoch is a minimum, not an exact match: a client that lags the
  // DO must still accept newer, attested VOs.
  FreshEnv& e = FreshEnv::Get();
  Rng rng(32);
  Vo vo = BuildEqualityVo(*e.tree_r, e.mvk, Point{2}, e.user, e.universe,
                          &rng);
  VerifyResult r = VerifyEqualityVoEx(e.mvk, e.domain, Point{2}, e.user,
                                      e.universe, vo, nullptr, nullptr,
                                      /*exact_pairings=*/false, nullptr,
                                      /*expected_epoch=*/0);
  EXPECT_TRUE(r.ok()) << r.ToString();
}

TEST(ReplayTest, ForgedStampEpochFailsSignatureCheck) {
  // An attacker re-labeling a stale VO with a bumped epoch cannot mint the
  // attestation: the stamp's ABS signature covers (epoch, digest).
  FreshEnv& e = FreshEnv::Get();
  Vo vo = MustDeser<Vo>(e.range_bytes);
  vo.stamp.epoch = 1;  // claim freshness without the DO's signature
  VerifyResult r = VerifyRangeVoEx(e.mvk, e.domain, e.range, e.user,
                                   e.universe, vo, nullptr,
                                   /*exact_pairings=*/false, nullptr,
                                   /*expected_epoch=*/1);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.code == VerifyCode::kStaleEpoch ||
              r.code == VerifyCode::kBadSignature)
      << r.ToString();
}

}  // namespace
}  // namespace apqa::core
