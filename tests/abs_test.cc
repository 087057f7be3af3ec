// Tests for the ABS scheme with predicate relaxation (§5.2).
#include <gtest/gtest.h>

#include "abs/abs.h"
#include "abs/batch_verify.h"
#include "crypto/serde.h"
#include "crypto/sha256.h"

namespace apqa::abs {
namespace {

using crypto::Rng;

std::vector<std::uint8_t> Msg(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

class AbsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<Rng>(2024);
    Abs::Setup(rng_.get(), &msk_, &mvk_);
    universe_ = {"Role0", "RoleA", "RoleB", "RoleC", "RoleD"};
    sk_all_ = Abs::KeyGen(msk_, universe_, rng_.get());
  }

  std::unique_ptr<Rng> rng_;
  MasterKey msk_;
  VerifyKey mvk_;
  RoleSet universe_;
  SigningKey sk_all_;
};

TEST_F(AbsTest, SignVerifyRoundTrip) {
  Policy pred = Policy::Parse("(RoleA & RoleB) | RoleC");
  auto sig = Abs::Sign(mvk_, sk_all_, Msg("hello"), pred, rng_.get());
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(Abs::Verify(mvk_, Msg("hello"), pred, *sig));
  EXPECT_TRUE(Abs::Verify(mvk_, Msg("hello"), pred, *sig, /*exact=*/true));
}

TEST_F(AbsTest, VerifyRejectsWrongMessage) {
  Policy pred = Policy::Parse("RoleA & RoleB");
  auto sig = Abs::Sign(mvk_, sk_all_, Msg("hello"), pred, rng_.get());
  ASSERT_TRUE(sig.has_value());
  EXPECT_FALSE(Abs::Verify(mvk_, Msg("hellO"), pred, *sig));
  EXPECT_FALSE(Abs::Verify(mvk_, Msg(""), pred, *sig));
}

TEST_F(AbsTest, VerifyRejectsWrongPredicate) {
  Policy pred = Policy::Parse("RoleA & RoleB");
  auto sig = Abs::Sign(mvk_, sk_all_, Msg("m"), pred, rng_.get());
  ASSERT_TRUE(sig.has_value());
  // Same shape, different role.
  EXPECT_FALSE(Abs::Verify(mvk_, Msg("m"), Policy::Parse("RoleA & RoleC"), *sig));
}

TEST_F(AbsTest, VerifyRejectsTamperedSignature) {
  Policy pred = Policy::Parse("(RoleA & RoleB) | RoleC");
  auto sig = Abs::Sign(mvk_, sk_all_, Msg("m"), pred, rng_.get());
  ASSERT_TRUE(sig.has_value());
  ASSERT_GE(sig->p.size(), 2u);
  // Both arms reject every tamper kind: the folded default (a batch of one
  // signature) and the exact per-equation reference.
  for (bool exact : {false, true}) {
    SCOPED_TRACE(exact ? "exact" : "folded");
    EXPECT_TRUE(Abs::Verify(mvk_, Msg("m"), pred, *sig, exact));
    Signature bad = *sig;
    bad.w = bad.w + crypto::G1Generator();
    EXPECT_FALSE(Abs::Verify(mvk_, Msg("m"), pred, bad, exact));
    bad = *sig;
    bad.y = bad.y + crypto::G1Generator();
    EXPECT_FALSE(Abs::Verify(mvk_, Msg("m"), pred, bad, exact));
    bad = *sig;
    bad.s[0] = bad.s[0].Double();
    EXPECT_FALSE(Abs::Verify(mvk_, Msg("m"), pred, bad, exact));
    bad = *sig;
    bad.p[0] = bad.p[0] + crypto::G2Generator();
    EXPECT_FALSE(Abs::Verify(mvk_, Msg("m"), pred, bad, exact));
    bad = *sig;
    bad.p.back() = bad.p.back() + crypto::G2Generator();
    EXPECT_FALSE(Abs::Verify(mvk_, Msg("m"), pred, bad, exact));
    EXPECT_FALSE(Abs::Verify(mvk_, Msg("M"), pred, *sig, exact));
    bad = *sig;
    bad.epoch += 1;
    EXPECT_FALSE(Abs::Verify(mvk_, Msg("m"), pred, bad, exact));
    bad = *sig;
    bad.tau[0] ^= 1;
    EXPECT_FALSE(Abs::Verify(mvk_, Msg("m"), pred, bad, exact));
  }
}

TEST_F(AbsTest, SignFailsWithoutSatisfyingAttributes) {
  SigningKey sk_c = Abs::KeyGen(msk_, {"RoleC"}, rng_.get());
  Policy pred = Policy::Parse("RoleA & RoleB");
  EXPECT_FALSE(Abs::Sign(mvk_, sk_c, Msg("m"), pred, rng_.get()).has_value());
  // But a predicate it satisfies works, even mentioning foreign roles.
  Policy pred2 = Policy::Parse("(RoleA & RoleB) | RoleC");
  auto sig = Abs::Sign(mvk_, sk_c, Msg("m"), pred2, rng_.get());
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(Abs::Verify(mvk_, Msg("m"), pred2, *sig));
}

TEST_F(AbsTest, RelaxProducesVerifiableSignature) {
  // Predicate RoleA & RoleB; user owns only RoleC, so the super policy is
  // the OR of everything they lack.
  Policy pred = Policy::Parse("RoleA & RoleB");
  auto sig = Abs::Sign(mvk_, sk_all_, Msg("m"), pred, rng_.get());
  ASSERT_TRUE(sig.has_value());
  RoleSet lacks = {"Role0", "RoleA", "RoleB", "RoleD"};  // universe \ {RoleC}
  auto relaxed = Abs::Relax(mvk_, *sig, pred, Msg("m"), lacks, rng_.get());
  ASSERT_TRUE(relaxed.has_value());
  Policy super = Policy::OrOfRoles(lacks);
  EXPECT_TRUE(Abs::Verify(mvk_, Msg("m"), super, *relaxed));
  EXPECT_TRUE(Abs::Verify(mvk_, Msg("m"), super, *relaxed, /*exact=*/true));
  // The relaxed signature does not verify under the original predicate.
  EXPECT_FALSE(Abs::Verify(mvk_, Msg("m"), pred, *relaxed));
}

TEST_F(AbsTest, RelaxFailsWhenUserCouldAccess) {
  // Paper's running example: predicate RoleA & RoleB cannot be relaxed to
  // Role0 | RoleC because {RoleA, RoleB} avoids that set and still satisfies.
  Policy pred = Policy::Parse("RoleA & RoleB");
  auto sig = Abs::Sign(mvk_, sk_all_, Msg("m"), pred, rng_.get());
  ASSERT_TRUE(sig.has_value());
  EXPECT_FALSE(
      Abs::Relax(mvk_, *sig, pred, Msg("m"), {"Role0", "RoleC"}, rng_.get())
          .has_value());
}

TEST_F(AbsTest, RelaxedSignatureBindsMessage) {
  Policy pred = Policy::Parse("RoleA & RoleB");
  auto sig = Abs::Sign(mvk_, sk_all_, Msg("m"), pred, rng_.get());
  RoleSet lacks = {"Role0", "RoleA", "RoleB", "RoleD"};
  auto relaxed = Abs::Relax(mvk_, *sig, pred, Msg("m"), lacks, rng_.get());
  ASSERT_TRUE(relaxed.has_value());
  Policy super = Policy::OrOfRoles(lacks);
  EXPECT_FALSE(Abs::Verify(mvk_, Msg("x"), super, *relaxed));
}

TEST_F(AbsTest, RelaxHandlesDuplicateAttributesInPredicate) {
  // RoleA appears in two clauses; purge keeps multiple rows with the same
  // label which must be merged (Algorithm 2, step 2).
  Policy pred = Policy::Parse("(RoleA & RoleB) | (RoleA & RoleC)");
  auto sig = Abs::Sign(mvk_, sk_all_, Msg("m"), pred, rng_.get());
  ASSERT_TRUE(sig.has_value());
  // User owns RoleD only: lacks everything else.
  RoleSet lacks = {"Role0", "RoleA", "RoleB", "RoleC"};
  auto relaxed = Abs::Relax(mvk_, *sig, pred, Msg("m"), lacks, rng_.get());
  ASSERT_TRUE(relaxed.has_value());
  EXPECT_TRUE(Abs::Verify(mvk_, Msg("m"), Policy::OrOfRoles(lacks), *relaxed));
}

TEST_F(AbsTest, RelaxOnComplexPredicates) {
  Rng rng(31337);
  Policy pred = Policy::Parse("(RoleA & (RoleB | RoleC)) | (RoleC & RoleD)");
  auto sig = Abs::Sign(mvk_, sk_all_, Msg("m"), pred, &rng);
  ASSERT_TRUE(sig.has_value());
  // User owns {RoleB}: complement {Role0, RoleA, RoleC, RoleD}; the
  // predicate is not satisfiable by {RoleB} alone, so relaxation succeeds.
  RoleSet lacks = {"Role0", "RoleA", "RoleC", "RoleD"};
  auto relaxed = Abs::Relax(mvk_, *sig, pred, Msg("m"), lacks, &rng);
  ASSERT_TRUE(relaxed.has_value());
  for (bool exact : {false, true}) {
    EXPECT_TRUE(Abs::Verify(mvk_, Msg("m"), Policy::OrOfRoles(lacks), *relaxed,
                            exact))
        << (exact ? "exact" : "folded");
  }
  // User owns {RoleA, RoleB}: predicate satisfied, relaxation must fail.
  RoleSet lacks2 = {"Role0", "RoleC", "RoleD"};
  EXPECT_FALSE(Abs::Relax(mvk_, *sig, pred, Msg("m"), lacks2, &rng).has_value());
}

TEST_F(AbsTest, SignatureSerializationRoundTrip) {
  Policy pred = Policy::Parse("(RoleA & RoleB) | RoleC");
  auto sig = Abs::Sign(mvk_, sk_all_, Msg("m"), pred, rng_.get());
  ASSERT_TRUE(sig.has_value());
  common::ByteWriter w;
  sig->Serialize(&w);
  EXPECT_EQ(w.size(), sig->SerializedSize());
  common::ByteReader r(w.data());
  Signature back = Signature::Deserialize(&r);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(Abs::Verify(mvk_, Msg("m"), pred, back));
}

TEST_F(AbsTest, VerifyKeySerializationRoundTrip) {
  common::ByteWriter w;
  mvk_.Serialize(&w);
  common::ByteReader r(w.data());
  VerifyKey back = VerifyKey::Deserialize(&r);
  EXPECT_TRUE(r.AtEnd());
  Policy pred = Policy::Parse("RoleA");
  auto sig = Abs::Sign(back, sk_all_, Msg("m"), pred, rng_.get());
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(Abs::Verify(back, Msg("m"), pred, *sig));
}

TEST_F(AbsTest, SignatureSizeGrowsWithPredicateLength) {
  auto s1 = Abs::Sign(mvk_, sk_all_, Msg("m"), Policy::Parse("RoleA"), rng_.get());
  auto s4 = Abs::Sign(mvk_, sk_all_, Msg("m"),
                      Policy::Parse("(RoleA & RoleB) | (RoleC & RoleD)"),
                      rng_.get());
  ASSERT_TRUE(s1.has_value() && s4.has_value());
  EXPECT_LT(s1->SerializedSize(), s4->SerializedSize());
}

TEST_F(AbsTest, KeyGenCovers) {
  SigningKey sk = Abs::KeyGen(msk_, {"RoleA", "RoleB"}, rng_.get());
  EXPECT_TRUE(sk.Covers({"RoleA"}));
  EXPECT_TRUE(sk.Covers({"RoleA", "RoleB"}));
  EXPECT_FALSE(sk.Covers({"RoleC"}));
}

// --- Whole-VO batched verification (abs/batch_verify.h) ---

TEST_F(AbsTest, BatchAcceptsValidSignatures) {
  std::vector<Policy> preds = {
      Policy::Parse("RoleA"),
      Policy::Parse("RoleA & RoleB"),
      Policy::Parse("(RoleA & RoleB) | RoleC"),
  };
  BatchAccumulator acc(mvk_);
  std::vector<std::pair<std::vector<std::uint8_t>, Signature>> sigs;
  for (std::size_t k = 0; k < 9; ++k) {
    auto msg = Msg("m" + std::to_string(k));
    auto sig = Abs::Sign(mvk_, sk_all_, msg, preds[k % preds.size()],
                         rng_.get());
    ASSERT_TRUE(sig.has_value());
    ASSERT_TRUE(acc.Accumulate(msg, preds[k % preds.size()], *sig,
                               rng_.get()));
  }
  EXPECT_EQ(acc.Size(), 9u);
  EXPECT_TRUE(acc.Check());
}

TEST_F(AbsTest, BatchRejectsOneTamperedSignature) {
  Policy pred = Policy::Parse("RoleA & RoleB");
  for (int tampered = 0; tampered < 3; ++tampered) {
    BatchAccumulator acc(mvk_);
    for (int k = 0; k < 3; ++k) {
      auto msg = Msg("m" + std::to_string(k));
      auto sig = Abs::Sign(mvk_, sk_all_, msg, pred, rng_.get());
      ASSERT_TRUE(sig.has_value());
      if (k == tampered) sig->s[0] = sig->s[0].Double();
      ASSERT_TRUE(acc.Accumulate(msg, pred, *sig, rng_.get()));
    }
    EXPECT_FALSE(acc.Check()) << "tampered index " << tampered;
  }
}

TEST_F(AbsTest, BatchStructuralFailureLeavesBatchUntouched) {
  Policy pred = Policy::Parse("RoleA");
  auto good = Abs::Sign(mvk_, sk_all_, Msg("ok"), pred, rng_.get());
  ASSERT_TRUE(good.has_value());
  BatchAccumulator acc(mvk_);
  ASSERT_TRUE(acc.Accumulate(Msg("ok"), pred, *good, rng_.get()));

  Signature wrong_shape = *good;
  wrong_shape.s.push_back(crypto::G1Generator());
  EXPECT_FALSE(acc.Accumulate(Msg("ok"), pred, wrong_shape, rng_.get()));
  Signature y_inf = *good;
  y_inf.y = G1::Infinity();
  EXPECT_FALSE(acc.Accumulate(Msg("ok"), pred, y_inf, rng_.get()));

  // The rejected signatures contributed nothing: the batch still passes.
  EXPECT_EQ(acc.Size(), 1u);
  EXPECT_TRUE(acc.Check());
}

// Adversarial pair cancellation: two individually invalid signatures whose
// errors are equal and opposite group elements. If the batch reused one
// fixed weight across signatures, the errors would cancel inside the shared
// per-base MSMs and the forged pair would slip through. Fresh per-verify
// 128-bit weights make the combined error delta_1*T - delta_2*T vanish only
// when delta_1 == delta_2 (probability 2^-128), so every trial must reject.
TEST_F(AbsTest, BatchRejectsForgedPairCancellation) {
  Policy pred = Policy::Parse("RoleA & RoleB");
  auto s1 = Abs::Sign(mvk_, sk_all_, Msg("p1"), pred, rng_.get());
  auto s2 = Abs::Sign(mvk_, sk_all_, Msg("p2"), pred, rng_.get());
  ASSERT_TRUE(s1.has_value() && s2.has_value());
  G1 t = crypto::G1Generator().ScalarMul(Fr::FromU64(0xD00DFEED));

  for (int trial = 0; trial < 4; ++trial) {
    // W-equation cancellation: W1 += T, W2 -= T hits the shared a0 bucket.
    Signature bad1 = *s1, bad2 = *s2;
    bad1.w = bad1.w + t;
    bad2.w = bad2.w + (-t);
    ASSERT_FALSE(Abs::Verify(mvk_, Msg("p1"), pred, bad1));
    ASSERT_FALSE(Abs::Verify(mvk_, Msg("p2"), pred, bad2));
    BatchAccumulator acc(mvk_);
    ASSERT_TRUE(acc.Accumulate(Msg("p1"), pred, bad1, rng_.get()));
    ASSERT_TRUE(acc.Accumulate(Msg("p2"), pred, bad2, rng_.get()));
    EXPECT_FALSE(acc.Check()) << "W cancellation survived, trial " << trial;

    // Y-side cancellation: hits the shared h and h0 folds instead.
    bad1 = *s1;
    bad2 = *s2;
    bad1.y = bad1.y + t;
    bad2.y = bad2.y + (-t);
    ASSERT_FALSE(Abs::Verify(mvk_, Msg("p1"), pred, bad1));
    ASSERT_FALSE(Abs::Verify(mvk_, Msg("p2"), pred, bad2));
    BatchAccumulator acc2(mvk_);
    ASSERT_TRUE(acc2.Accumulate(Msg("p1"), pred, bad1, rng_.get()));
    ASSERT_TRUE(acc2.Accumulate(Msg("p2"), pred, bad2, rng_.get()));
    EXPECT_FALSE(acc2.Check()) << "Y cancellation survived, trial " << trial;
  }
}

// Golden byte identity: a seeded Setup/KeyGen/Sign/Relax mix, every output
// serialized in order and hashed. Scalar-multiplication rewrites (ladder
// shape, fixed-base folds of the blinding scalars) must yield the same group
// elements from the same RNG draws, so this digest may never move. The mix
// covers kept, merged-duplicate and fresh relaxed rows, zero rows of the
// satisfying vector, a nonzero epoch, a failing Relax, a nine-role
// relaxation, and a hand-assembled key without fixed-base tables (the
// variable-base fallback in Sign).
TEST(AbsGoldenTest, SeededSetupKeyGenSignRelaxBytesArePinned) {
  Rng rng(0x601d);
  MasterKey msk;
  VerifyKey mvk;
  Abs::Setup(&rng, &msk, &mvk);
  common::ByteWriter w;
  mvk.Serialize(&w);

  SigningKey sk_all =
      Abs::KeyGen(msk, {"Role0", "RoleA", "RoleB", "RoleC", "RoleD"}, &rng);
  SigningKey sk_ab = Abs::KeyGen(msk, {"RoleA", "RoleB"}, &rng);
  SigningKey sk_bare;  // same key material, no fixed-base tables
  sk_bare.k_base = sk_ab.k_base;
  sk_bare.k0 = sk_ab.k0;
  sk_bare.k_attr = sk_ab.k_attr;
  for (const SigningKey* sk : {&sk_all, &sk_ab}) {
    crypto::WriteG1(&w, sk->k_base);
    crypto::WriteG1(&w, sk->k0);
    for (const auto& [role, k] : sk->k_attr) {
      w.PutString(role);
      crypto::WriteG1(&w, k);
    }
  }

  const RoleSet lacked9 = {"RoleA", "R1", "R2", "R3", "R4",
                           "R5",    "R6", "R7", "R8"};
  struct Case {
    const char* pred;
    const SigningKey* sk;
    std::uint64_t epoch;
    std::vector<RoleSet> relax_to;
  };
  const std::vector<Case> cases = {
      {"(RoleA & RoleB) | RoleC", &sk_all, 0,
       {{"Role0", "RoleA", "RoleB", "RoleD"}, {"RoleC", "RoleD"}}},
      {"(RoleA & RoleB) | RoleC", &sk_ab, 7, {{"RoleA", "RoleC"}}},
      {"RoleA & RoleB", &sk_bare, 0, {{"Role0", "RoleA", "RoleB", "RoleD"}}},
      {"(RoleA & RoleB) | (RoleA & RoleC)", &sk_all, 3,
       {{"Role0", "RoleA", "RoleB", "RoleC"}}},
      {"(RoleA & (RoleB | RoleC)) | (RoleC & RoleD)", &sk_all, 0,
       {{"Role0", "RoleA", "RoleC", "RoleD"}, {"Role0", "RoleC", "RoleD"}}},
      {"RoleA", &sk_ab, 1, {lacked9}},
  };
  for (const Case& c : cases) {
    Policy pred = Policy::Parse(c.pred);
    auto sig = Abs::Sign(mvk, *c.sk, Msg(c.pred), pred, &rng, c.epoch);
    ASSERT_TRUE(sig.has_value()) << c.pred;
    ASSERT_TRUE(Abs::Verify(mvk, Msg(c.pred), pred, *sig)) << c.pred;
    sig->Serialize(&w);
    for (const RoleSet& to : c.relax_to) {
      auto relaxed = Abs::Relax(mvk, *sig, pred, Msg(c.pred), to, &rng);
      w.PutU8(relaxed.has_value() ? 1 : 0);
      if (!relaxed.has_value()) continue;
      ASSERT_TRUE(
          Abs::Verify(mvk, Msg(c.pred), Policy::OrOfRoles(to), *relaxed));
      relaxed->Serialize(&w);
    }
  }
  EXPECT_EQ(crypto::DigestToHex(crypto::Sha256::Hash(w.data().data(),
                                                     w.data().size())),
            "6da4ea013693a4b76ef03646f16905bdd9cb9b737909cc7f513ac8bb811580a3");
}

}  // namespace
}  // namespace apqa::abs
