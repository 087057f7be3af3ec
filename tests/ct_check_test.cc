// Secret-taint and constant-time checks (crypto/ct.h).
//
// Four layers of assurance:
//
//   1. Compile-time: static detection idioms prove that the variable-time
//      scalar entry points (wNAF ScalarMul, FixedBaseTable::Mul, generator
//      G1Mul/G2Mul) reject SecretFr — the taint cannot reach a fast path
//      without an explicit Declassify().
//   2. Differential: the constant-time primitives (CtEqBytes, CtSelect*,
//      CtCondAssignObj) match naive semantics on adversarial edge cases,
//      and every constant-pattern ladder matches its variable-time twin on
//      edge scalars (0, 1, 2, r-1) and random scalars; the GLV
//      variable-base ladder also matches the double-and-add reference on
//      the seams of its scalar split (k1 = 0, k2 = 0, lambda, 2^128 +- 1).
//   3. Trace equivalence (runs under any compiler): the ct_trace hook
//      records the ladder step sequence; distinct secrets must produce
//      byte-identical traces, all the way up through ABS.Sign, ABS.Relax
//      and CP-ABE KeyGen. A data-dependent skip, extra add, or reordering
//      fails the comparison.
//   4. MSan poisoning (clang + -DAPQA_SANITIZE=memory only): secret scalars
//      are poisoned as uninitialized memory; any secret-dependent branch or
//      table index inside the ladders aborts the test. Compiled out
//      elsewhere.
#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "abs/abs.h"
#include "cpabe/cpabe.h"
#include "crypto/ct.h"
#include "crypto/glv.h"
#include "crypto/msm.h"
#include "crypto/pairing.h"

namespace apqa {
namespace {

using crypto::CtCompleteAdd;
using crypto::CtCondAssignObj;
using crypto::CtEq;
using crypto::CtEqBytes;
using crypto::CtEqMask64;
using crypto::CtG1Mul;
using crypto::CtG2Mul;
using crypto::CtInverse;
using crypto::CtPoint;
using crypto::CtPow;
using crypto::CtScalarMul;
using crypto::CtSelectLimbs;
using crypto::CtSelectU64;
using crypto::Fp;
using crypto::Fp2;
using crypto::Fr;
using crypto::G1;
using crypto::G2;
using crypto::GT;
using crypto::Limbs;
using crypto::Rng;
using crypto::SecretFr;
using crypto::u64;

// --- 1. Compile-time taint enforcement --------------------------------------

template <typename P, typename K, typename = void>
struct CanScalarMul : std::false_type {};
template <typename P, typename K>
struct CanScalarMul<
    P, K,
    std::void_t<decltype(std::declval<const P&>().ScalarMul(
        std::declval<const K&>()))>> : std::true_type {};

template <typename T, typename K, typename = void>
struct CanTableMul : std::false_type {};
template <typename T, typename K>
struct CanTableMul<T, K,
                   std::void_t<decltype(std::declval<const T&>().Mul(
                       std::declval<const K&>()))>> : std::true_type {};

template <typename K, typename = void>
struct CanG1Mul : std::false_type {};
template <typename K>
struct CanG1Mul<K, std::void_t<decltype(crypto::G1Mul(
                       std::declval<const K&>()))>> : std::true_type {};

// Public scalars still flow everywhere...
static_assert(CanScalarMul<G1, Fr>::value);
static_assert(CanScalarMul<G2, Fr>::value);
static_assert(CanTableMul<crypto::FixedBaseTable<Fp>, Fr>::value);
static_assert(CanG1Mul<Fr>::value);
// ...but a SecretFr at a variable-time entry point is a compile error.
static_assert(!CanScalarMul<G1, SecretFr>::value);
static_assert(!CanScalarMul<G2, SecretFr>::value);
static_assert(!CanTableMul<crypto::FixedBaseTable<Fp>, SecretFr>::value);
static_assert(!CanTableMul<crypto::FixedBaseTable<Fp2>, SecretFr>::value);
static_assert(!CanG1Mul<SecretFr>::value);
// And the wrapper never converts back implicitly.
static_assert(!std::is_convertible_v<SecretFr, Fr>);
static_assert(!std::is_constructible_v<Fr, SecretFr>);

// --- 2a. Constant-time primitive differential tests -------------------------

TEST(CtPrimitives, EqBytesMatchesMemcmpOnEdgeCases) {
  constexpr std::size_t kN = 32;
  std::array<std::uint8_t, kN> base{}, other{};

  auto check = [&](const std::array<std::uint8_t, kN>& a,
                   const std::array<std::uint8_t, kN>& b) {
    EXPECT_EQ(CtEqBytes(a.data(), b.data(), kN),
              std::memcmp(a.data(), b.data(), kN) == 0);
    EXPECT_EQ(CtEq(a, b), std::memcmp(a.data(), b.data(), kN) == 0);
  };

  // All-zero vs all-zero, all-ones vs all-ones, zero vs ones.
  check(base, other);
  base.fill(0xff);
  other.fill(0xff);
  check(base, other);
  other.fill(0x00);
  check(base, other);

  // Single-bit differences at both extremes of the buffer.
  base.fill(0x00);
  other.fill(0x00);
  other[0] = 0x01;  // lowest bit of first byte
  check(base, other);
  other[0] = 0x00;
  other[kN - 1] = 0x80;  // highest bit of last byte
  check(base, other);

  // Difference only in the middle.
  other[kN - 1] = 0x00;
  other[kN / 2] = 0x10;
  check(base, other);
}

TEST(CtPrimitives, SelectAndCondAssignMatchNaive) {
  const u64 kOnes = ~u64{0};
  EXPECT_EQ(CtSelectU64(kOnes, 7, 9), u64{7});
  EXPECT_EQ(CtSelectU64(0, 7, 9), u64{9});
  EXPECT_EQ(CtEqMask64(0, 0), kOnes);
  EXPECT_EQ(CtEqMask64(~u64{0}, ~u64{0}), kOnes);
  EXPECT_EQ(CtEqMask64(1, 2), u64{0});
  EXPECT_EQ(CtEqMask64(u64{1} << 63, 0), u64{0});

  Limbs<4> a{1, 2, 3, 4}, b{5, 6, 7, 8}, r{};
  CtSelectLimbs<4>(kOnes, a, b, &r);
  EXPECT_EQ(r, a);
  CtSelectLimbs<4>(0, a, b, &r);
  EXPECT_EQ(r, b);
  // Aliasing: output may be one of the inputs.
  r = a;
  CtSelectLimbs<4>(0, r, b, &r);
  EXPECT_EQ(r, b);

  Fr x = Fr::FromU64(42), y = Fr::FromU64(1337);
  Fr z = x;
  CtCondAssignObj(&z, y, 0);
  EXPECT_EQ(z, x);
  CtCondAssignObj(&z, y, kOnes);
  EXPECT_EQ(z, y);
}

TEST(CtPrimitives, FieldComparisonsStillCorrect) {
  // The branch-free IsZero/== rewrites in prime_field.h must keep exact
  // semantics.
  EXPECT_TRUE(Fr::Zero().IsZero());
  EXPECT_FALSE(Fr::One().IsZero());
  EXPECT_TRUE(Fr::One() == Fr::FromU64(1));
  EXPECT_FALSE(Fr::One() == Fr::Zero());
  Fr r_minus_1 = Fr::Zero() - Fr::One();
  EXPECT_TRUE(r_minus_1 + Fr::One() == Fr::Zero());
}

// --- 2b. Ladder vs variable-time differential -------------------------------

std::vector<Fr> EdgeAndRandomScalars() {
  Rng rng(0x5ec7e7);
  std::vector<Fr> ks = {Fr::Zero(), Fr::One(), Fr::FromU64(2),
                        Fr::Zero() - Fr::One()};  // r - 1
  for (int i = 0; i < 6; ++i) ks.push_back(rng.NextFr());
  return ks;
}

// Scalars at the seams of the GLV split k = k1 + k2*lambda that the
// variable-base ladder runs on: k2 = 0 (k < lambda), k1 = 0 (multiples of
// lambda, up to r - 1 = lambda * (lambda + 1)), the carry into the top
// window (lambda - 1, lambda, 2^128 +- 1), and the edge scalars above.
std::vector<Fr> GlvBoundaryScalars() {
  const Fr lambda = Fr::FromCanonical(crypto::GlvLambda());
  const Fr two128 = Fr::FromCanonical(Limbs<4>{0, 0, 1, 0});
  std::vector<Fr> ks = EdgeAndRandomScalars();
  for (const Fr& k :
       {Fr::FromU64(0xfedcba9876543210u), lambda - Fr::One(), lambda,
        lambda + Fr::One(), lambda * Fr::FromU64(2),
        lambda * Fr::FromU64(0xffffffffu), lambda * lambda,
        lambda * (lambda + Fr::One()), two128 - Fr::One(), two128,
        two128 + Fr::One()}) {
    ks.push_back(k);
  }
  return ks;
}

TEST(CtKernels, GlvBoundaryScalarsHitTheirSplitShape) {
  const Fr lambda = Fr::FromCanonical(crypto::GlvLambda());
  // k < lambda: the phi-track mini-scalar is zero.
  crypto::GlvDecomp d =
      crypto::GlvSplitLimbs((lambda - Fr::One()).ToCanonical());
  EXPECT_EQ(d.k2, (Limbs<4>{}));
  // k = m * lambda: the P-track mini-scalar is zero.
  d = crypto::GlvSplitLimbs((lambda * lambda).ToCanonical());
  EXPECT_EQ(d.k1, (Limbs<4>{}));
  EXPECT_EQ(d.k2, crypto::GlvLambda());
  // r - 1 = lambda * (lambda + 1): k1 = 0, k2 = lambda + 1 < 2^128.
  d = crypto::GlvSplitLimbs((Fr::Zero() - Fr::One()).ToCanonical());
  EXPECT_EQ(d.k1, (Limbs<4>{}));
  EXPECT_EQ(d.k2, (lambda + Fr::One()).ToCanonical());
}

TEST(CtKernels, CompleteDoublingMatchesJacobianDouble) {
  Rng rng(0xdb1);
  G1 p = crypto::G1Mul(rng.NextNonZeroFr());
  G2 q = crypto::G2Mul(rng.NextNonZeroFr());
  const Fp& b3 = crypto::CtCurveB3<Fp>::Get();
  const Fp2& b3_2 = crypto::CtCurveB3<Fp2>::Get();
  EXPECT_EQ(crypto::CtToJacobian(
                crypto::CtCompleteDouble(crypto::CtFromJacobian(p), b3)),
            p.Double());
  EXPECT_EQ(crypto::CtToJacobian(
                crypto::CtCompleteDouble(crypto::CtFromJacobian(q), b3_2)),
            q.Double());
  // 2O = O, with no special case.
  EXPECT_TRUE(crypto::CtToJacobian(
                  crypto::CtCompleteDouble(CtPoint<Fp>::Identity(), b3))
                  .IsInfinity());
}

TEST(CtKernels, FixedBaseMulCtMatchesVariableTimeMul) {
  const auto& g1_tab = crypto::G1GeneratorTable();
  const auto& g2_tab = crypto::G2GeneratorTable();
  for (const Fr& k : EdgeAndRandomScalars()) {
    EXPECT_EQ(g1_tab.MulCt(SecretFr(k)), g1_tab.Mul(k));
    EXPECT_EQ(g2_tab.MulCt(SecretFr(k)), g2_tab.Mul(k));
  }
}

// The GLV ladder against the wNAF path and against the plain double-and-add
// reference, which shares no code with the GLV split or the wNAF recoding.
TEST(CtKernels, VariableBaseCtScalarMulMatchesWnaf) {
  Rng rng(0xba5e);
  G1 p1 = crypto::G1Mul(rng.NextNonZeroFr());
  G2 p2 = crypto::G2Mul(rng.NextNonZeroFr());
  for (const Fr& k : GlvBoundaryScalars()) {
    const G1 r1 = CtScalarMul(p1, SecretFr(k));
    const G2 r2 = CtScalarMul(p2, SecretFr(k));
    EXPECT_EQ(r1, p1.ScalarMul(k));
    EXPECT_EQ(r2, p2.ScalarMul(k));
    EXPECT_EQ(r1, p1.ScalarMulBinary(k));
    EXPECT_EQ(r2, p2.ScalarMulBinary(k));
  }
  // Identity base: k * O == O for every k.
  EXPECT_TRUE(CtScalarMul(G1::Infinity(), SecretFr(Fr::FromU64(5)))
                  .IsInfinity());
  EXPECT_TRUE(CtScalarMul(G2::Infinity(), SecretFr(Fr::FromU64(5)))
                  .IsInfinity());
}

TEST(CtKernels, GeneratorCtMulsMatch) {
  for (const Fr& k : EdgeAndRandomScalars()) {
    EXPECT_EQ(CtG1Mul(SecretFr(k)), crypto::G1Mul(k));
    EXPECT_EQ(CtG2Mul(SecretFr(k)), crypto::G2Mul(k));
  }
}

TEST(CtKernels, CtPowMatchesVariableTimePow) {
  Rng rng(0x6e57);
  GT base = crypto::Pairing(crypto::G1Mul(rng.NextNonZeroFr()),
                            crypto::G2Mul(rng.NextNonZeroFr()));
  for (const Fr& k : EdgeAndRandomScalars()) {
    Limbs<4> e = k.ToCanonical();
    GT expected = base.Pow(std::span<const u64>(e.data(), 4));
    EXPECT_EQ(CtPow(base, SecretFr(k)), expected);
  }
}

TEST(CtKernels, CtInverseMatchesEgcdInverse) {
  Rng rng(0x111e);
  for (const Fr& k : EdgeAndRandomScalars()) {
    // declassify: test-only comparison of a public differential result
    EXPECT_EQ(CtInverse(SecretFr(k)).Declassify(), k.Inverse());
  }
  EXPECT_TRUE(CtInverse(SecretFr(Fr::Zero())).Declassify().IsZero());
  Fr k = rng.NextNonZeroFr();
  // declassify: test-only check that k * k^-1 == 1
  EXPECT_EQ(CtInverse(SecretFr(k)).Declassify() * k, Fr::One());
}

TEST(CtKernels, CompleteAdditionHandlesExceptionalInputs) {
  Rng rng(0xadd);
  G1 p = crypto::G1Mul(rng.NextNonZeroFr());
  const Fp& b3 = crypto::CtCurveB3<Fp>::Get();
  CtPoint<Fp> cp = crypto::CtFromJacobian(p);
  CtPoint<Fp> id = CtPoint<Fp>::Identity();

  // P + P (the doubling case that breaks incomplete formulas).
  EXPECT_EQ(crypto::CtToJacobian(CtCompleteAdd(cp, cp, b3)), p.Double());
  // P + (-P) = O.
  CtPoint<Fp> neg = {cp.x, -cp.y, cp.z};
  EXPECT_TRUE(crypto::CtToJacobian(CtCompleteAdd(cp, neg, b3)).IsInfinity());
  // P + O = P, O + P = P, O + O = O.
  EXPECT_EQ(crypto::CtToJacobian(CtCompleteAdd(cp, id, b3)), p);
  EXPECT_EQ(crypto::CtToJacobian(CtCompleteAdd(id, cp, b3)), p);
  EXPECT_TRUE(crypto::CtToJacobian(CtCompleteAdd(id, id, b3)).IsInfinity());
}

TEST(CtKernels, SecretArithmeticMatchesPlain) {
  Rng rng(0xa51);
  Fr a = rng.NextFr(), b = rng.NextFr();
  SecretFr sa(a), sb(b);
  // declassify: test-only differential checks of wrapper arithmetic
  EXPECT_EQ((sa + sb).Declassify(), a + b);
  EXPECT_EQ((sa - sb).Declassify(), a - b);
  EXPECT_EQ((sa * sb).Declassify(), a * b);
  EXPECT_EQ((sa * b).Declassify(), a * b);
  EXPECT_EQ((b * sa).Declassify(), b * a);
  EXPECT_EQ((-sa).Declassify(), -a);
}

TEST(CtKernels, SecretRngDrawsMatchPlainStream) {
  Rng plain(99), secret(99);
  for (int i = 0; i < 8; ++i) {
    // declassify: test-only check that the taint-typed draws consume the
    // identical ChaCha stream
    EXPECT_EQ(secret.NextSecretFr().Declassify(), plain.NextFr());
  }
  Rng plain2(7), secret2(7);
  for (int i = 0; i < 8; ++i) {
    // declassify: as above, for the non-zero variant
    EXPECT_EQ(secret2.NextNonZeroSecretFr().Declassify(),
              plain2.NextNonZeroFr());
  }
}

// --- 3. Trace-equivalence oracle --------------------------------------------

std::vector<std::pair<char, unsigned>>& Trace() {
  static std::vector<std::pair<char, unsigned>> t;
  return t;
}

void RecordTrace(char op, unsigned step) { Trace().emplace_back(op, step); }

struct TraceCapture {
  TraceCapture() {
    Trace().clear();
    crypto::ct_trace::hook = &RecordTrace;
  }
  ~TraceCapture() { crypto::ct_trace::hook = nullptr; }
  std::vector<std::pair<char, unsigned>> Take() {
    auto t = std::move(Trace());
    Trace().clear();
    return t;
  }
};

TEST(CtTrace, FixedBaseLadderTraceIsScalarIndependent) {
  TraceCapture cap;
  const auto& tab = crypto::G1GeneratorTable();
  std::vector<std::pair<char, unsigned>> reference;
  bool first = true;
  for (const Fr& k : EdgeAndRandomScalars()) {
    // discard-ok: the trace capture observes the access pattern; the
    // product itself is irrelevant here.
    (void)tab.MulCt(SecretFr(k));
    auto t = cap.Take();
    EXPECT_FALSE(t.empty());
    if (first) {
      reference = std::move(t);
      first = false;
    } else {
      EXPECT_EQ(t, reference) << "fixed-base ladder trace depends on scalar";
    }
  }
}

// The GLV fixed-base walk must touch both mini-scalar tracks in every
// window in a fixed order: ('T', w) then ('U', w) for w = 0..31. Pinning
// the exact shape (not just scalar-independence) catches a refactor that,
// say, skips the endomorphism track when k2 == 0 — which would leak the
// magnitude of the secret scalar.
TEST(CtTrace, FixedBaseGlvTraceCoversBothTracksEveryWindow) {
  TraceCapture cap;
  const auto& tab = crypto::G1GeneratorTable();
  // discard-ok: the trace capture observes the access pattern; the
  // product itself is irrelevant here.
  (void)tab.MulCt(SecretFr(Fr::Zero()));
  auto t = cap.Take();
  ASSERT_EQ(t.size(), 64u);
  for (unsigned w = 0; w < 32; ++w) {
    EXPECT_EQ(t[2 * w], std::make_pair('T', w));
    EXPECT_EQ(t[2 * w + 1], std::make_pair('U', w));
  }
}

template <typename Point>
void ExpectVariableBaseTraceIsScalarIndependent(const Point& p) {
  TraceCapture cap;
  std::vector<std::pair<char, unsigned>> reference;
  bool first = true;
  for (const Fr& k : GlvBoundaryScalars()) {
    // discard-ok: the trace capture observes the access pattern; the
    // product itself is irrelevant here.
    (void)CtScalarMul(p, SecretFr(k));
    auto t = cap.Take();
    EXPECT_FALSE(t.empty());
    if (first) {
      reference = std::move(t);
      first = false;
    } else {
      EXPECT_EQ(t, reference) << "variable-base ladder trace depends on scalar";
    }
  }
}

TEST(CtTrace, VariableBaseLadderTraceIsScalarIndependent) {
  Rng rng(0x7ace);
  ExpectVariableBaseTraceIsScalarIndependent(
      crypto::G1Mul(rng.NextNonZeroFr()));
  ExpectVariableBaseTraceIsScalarIndependent(
      crypto::G2Mul(rng.NextNonZeroFr()));
}

// The GLV variable-base ladder's exact shape: the top window adds on both
// tracks ('A' for k1, 'B' for k2) with no doubling, and each of the 31
// lower windows does four doublings ('D') before its two adds — 124 'D',
// 32 'A', 32 'B'. A ladder that skipped the phi-track when k2 == 0, or a
// leading run of zero windows, would change the shape.
TEST(CtTrace, VariableBaseGlvTraceShapeIsPinned) {
  TraceCapture cap;
  // discard-ok: the trace capture observes the access pattern; the
  // product itself is irrelevant here.
  (void)CtScalarMul(crypto::G1Generator(), SecretFr(Fr::Zero()));
  auto t = cap.Take();
  std::vector<std::pair<char, unsigned>> want;
  for (unsigned w = 32; w-- > 0;) {
    if (w != 31) {
      for (int i = 0; i < 4; ++i) want.emplace_back('D', w);
    }
    want.emplace_back('A', w);
    want.emplace_back('B', w);
  }
  ASSERT_EQ(want.size(), 124u + 64u);
  EXPECT_EQ(t, want);
}

TEST(CtTrace, GtPowTraceIsExponentIndependent) {
  TraceCapture cap;
  Rng rng(0x9077);
  GT base = crypto::Pairing(crypto::G1Mul(rng.NextNonZeroFr()),
                            crypto::G2Mul(rng.NextNonZeroFr()));
  std::vector<std::pair<char, unsigned>> reference;
  bool first = true;
  for (const Fr& k : EdgeAndRandomScalars()) {
    // discard-ok: the trace capture observes the access pattern; the
    // power itself is irrelevant here.
    (void)CtPow(base, SecretFr(k));
    auto t = cap.Take();
    EXPECT_EQ(t.size(), 255u);
    if (first) {
      reference = std::move(t);
      first = false;
    } else {
      EXPECT_EQ(t, reference) << "GT ladder trace depends on exponent";
    }
  }
}

// End-to-end: two independently keyed signers producing a signature over
// the same predicate/attribute structure must drive the ladders
// identically — only key material and blinding scalars differ between the
// runs, so any trace divergence is a secret-dependent pattern.
TEST(CtTrace, AbsSignTraceIsKeyAndBlindingIndependent) {
  using abs::Abs;
  const policy::Policy pred =
      policy::Policy::Parse("(doctor & cardiology) | admin");
  const policy::RoleSet roles = {"doctor", "cardiology"};
  const std::vector<std::uint8_t> msg = {1, 2, 3};

  auto trace_one_signer = [&](u64 seed) {
    Rng rng(seed);
    abs::MasterKey msk;
    abs::VerifyKey mvk;
    Abs::Setup(&rng, &msk, &mvk);
    abs::SigningKey sk = Abs::KeyGen(msk, roles, &rng);
    TraceCapture cap;
    auto sig = Abs::Sign(mvk, sk, msg, pred, &rng);
    EXPECT_TRUE(sig.has_value());
    return cap.Take();
  };

  auto t1 = trace_one_signer(101);
  auto t2 = trace_one_signer(20202);
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2) << "ABS.Sign ladder trace depends on key material";
}

// ABS.Relax under independent keys, signatures and blinding draws: only
// the predicate and the relaxation target (public structure) may shape the
// ladder sequence — the kept-row/fresh-role split, the rho re-randomization
// and the folded fixed-base P term all run the same steps for every secret.
TEST(CtTrace, AbsRelaxTraceIsBlindingIndependent) {
  using abs::Abs;
  const policy::Policy pred =
      policy::Policy::Parse("(doctor & cardiology) | (doctor & admin)");
  const policy::RoleSet roles = {"doctor", "cardiology", "admin"};
  const policy::RoleSet lacked = {"cardiology", "doctor", "nurse", "intern"};
  const std::vector<std::uint8_t> msg = {4, 5, 6};

  auto trace_one = [&](u64 seed) {
    Rng rng(seed);
    abs::MasterKey msk;
    abs::VerifyKey mvk;
    Abs::Setup(&rng, &msk, &mvk);
    abs::SigningKey sk = Abs::KeyGen(msk, roles, &rng);
    auto sig = Abs::Sign(mvk, sk, msg, pred, &rng);
    EXPECT_TRUE(sig.has_value());
    TraceCapture cap;
    auto relaxed = Abs::Relax(mvk, *sig, pred, msg, lacked, &rng);
    EXPECT_TRUE(relaxed.has_value());
    return cap.Take();
  };

  auto t1 = trace_one(777);
  auto t2 = trace_one(0x5eed);
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2) << "ABS.Relax ladder trace depends on blinding or keys";
}

TEST(CtTrace, CpabeKeyGenTraceIsKeyIndependent) {
  using cpabe::CpAbe;
  const policy::RoleSet attrs = {"doctor", "nurse"};
  auto trace_one = [&](u64 seed) {
    Rng rng(seed);
    cpabe::MasterKey mk;
    cpabe::PublicKey pk;
    CpAbe::Setup(&rng, &mk, &pk);
    TraceCapture cap;
    // discard-ok: the trace capture observes KeyGen's operation sequence;
    // the key itself is irrelevant here.
    (void)CpAbe::KeyGen(mk, pk, attrs, &rng);
    return cap.Take();
  };
  auto t1 = trace_one(31337);
  auto t2 = trace_one(4242);
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2) << "CP-ABE KeyGen ladder trace depends on key material";
}

// --- 4. MSan poisoning harness (clang -fsanitize=memory builds only) --------

#ifdef APQA_CT_MSAN

TEST(CtMsan, PoisonedSecretSurvivesFieldArithmetic) {
  Rng rng(1);
  Fr k = rng.NextFr();
  Fr pub = rng.NextFr();
  SecretFr sk(k);
  CtPoison(&sk, sizeof(sk));
  SecretFr combined = sk * pub + sk;
  SecretFr inv = CtInverse(combined);
  CtDeclassifyMem(&inv, sizeof(inv));
  // declassify: MSan oracle — compare against the unpoisoned reference
  EXPECT_EQ(inv.Declassify(), (k * pub + k).CtInverse());
}

TEST(CtMsan, PoisonedScalarFixedBaseLadderIsBranchAndIndexClean) {
  Rng rng(2);
  Fr k = rng.NextFr();
  SecretFr sk(k);
  CtPoison(&sk, sizeof(sk));
  G1 r = crypto::G1GeneratorTable().MulCt(sk);
  CtDeclassifyMem(&r, sizeof(r));
  EXPECT_EQ(r, crypto::G1Mul(k));
}

TEST(CtMsan, PoisonedScalarVariableBaseLadderIsBranchAndIndexClean) {
  Rng rng(3);
  G1 base = crypto::G1Mul(rng.NextNonZeroFr());
  Fr k = rng.NextFr();
  SecretFr sk(k);
  CtPoison(&sk, sizeof(sk));
  G1 r = CtScalarMul(base, sk);
  CtDeclassifyMem(&r, sizeof(r));
  EXPECT_EQ(r, base.ScalarMul(k));
  G2 base2 = crypto::G2Mul(rng.NextNonZeroFr());
  G2 r2 = CtScalarMul(base2, sk);
  CtDeclassifyMem(&r2, sizeof(r2));
  EXPECT_EQ(r2, base2.ScalarMul(k));
}

TEST(CtMsan, PoisonedExponentGtLadderIsBranchClean) {
  Rng rng(4);
  GT base = crypto::Pairing(crypto::G1Mul(rng.NextNonZeroFr()),
                            crypto::G2Mul(rng.NextNonZeroFr()));
  Fr k = rng.NextFr();
  SecretFr sk(k);
  CtPoison(&sk, sizeof(sk));
  GT r = CtPow(base, sk);
  CtDeclassifyMem(&r, sizeof(r));
  Limbs<4> e = k.ToCanonical();
  EXPECT_EQ(r, base.Pow(std::span<const u64>(e.data(), 4)));
}

#endif  // APQA_CT_MSAN

}  // namespace
}  // namespace apqa
