#include "crypto/pairing.h"

#include "crypto/bigint.h"
#include "crypto/pairing_prepared.h"

namespace apqa::crypto {

namespace {

// Embeds an Fp element into Fp12 (constant coefficient).
Fp12 EmbedFp(const Fp& a) {
  Fp12 r = Fp12::Zero();
  r.c0.c0.c0 = a;
  return r;
}

// Embeds an Fp2 element into Fp12.
Fp12 EmbedFp2(const Fp2& a) {
  Fp12 r = Fp12::Zero();
  r.c0.c0 = a;
  return r;
}

struct UntwistConsts {
  Fp12 winv2;  // w^-2
  Fp12 winv3;  // w^-3
};

const UntwistConsts& Untwist() {
  static const UntwistConsts c = [] {
    Fp12 w = Fp12::Zero();
    w.c1.c0 = Fp2::One();  // the element w itself
    Fp12 w2 = w.Square();
    UntwistConsts uc;
    uc.winv2 = w2.Inverse();
    uc.winv3 = (w2 * w).Inverse();
    return uc;
  }();
  return c;
}

// Exponent of the final-exponentiation hard part, (p^4 - p^2 + 1) / r,
// derived by exact integer arithmetic at first use.
const std::vector<u64>& HardPartExponent() {
  static const std::vector<u64> e = [] {
    BigInt p = BigInt::FromLimbs(FpTag::kModulus.data(), 6);
    BigInt r = BigInt::FromLimbs(FrTag::kModulus.data(), 4);
    BigInt p2 = p * p;
    BigInt p4 = p2 * p2;
    BigInt num = p4 - p2 + BigInt(1);
    BigInt q, rem;
    BigInt::DivMod(num, r, &q, &rem);
    // The BLS family guarantees exact divisibility; a failure here would
    // mean the curve constants are corrupted.
    if (!rem.IsZero()) std::abort();
    std::vector<u64> limbs((q.BitLength() + 63) / 64);
    q.ToLimbs(limbs.data(), limbs.size());
    return limbs;
  }();
  return e;
}

// Affine point in E(Fp12).
struct Pt {
  Fp12 x, y;
};

// Line through a and b (or tangent at a if a == b) evaluated at the
// (embedded) G1 point (xp, yp); also advances a to a+b (or 2a).
Fp12 LineAndStep(Pt* a, const Pt& b, bool tangent, const Fp12& xp,
                 const Fp12& yp) {
  Fp12 lambda;
  if (tangent) {
    Fp12 x2 = a->x.Square();
    lambda = (x2 + x2 + x2) * (a->y + a->y).Inverse();
  } else {
    lambda = (b.y - a->y) * (b.x - a->x).Inverse();
  }
  Fp12 l = yp - a->y - lambda * (xp - a->x);
  Fp12 x3 = lambda.Square() - a->x - b.x;
  Fp12 y3 = lambda * (a->x - x3) - a->y;
  a->x = x3;
  a->y = y3;
  return l;
}

}  // namespace

GT MillerLoopGeneric(const G1& p, const G2& q) {
  if (p.IsInfinity() || q.IsInfinity()) return GT::One();

  Fp pax, pay;
  p.ToAffine(&pax, &pay);
  Fp12 xp = EmbedFp(pax);
  Fp12 yp = EmbedFp(pay);

  Fp2 qax, qay;
  q.ToAffine(&qax, &qay);
  const auto& ut = Untwist();
  Pt qq{EmbedFp2(qax) * ut.winv2, EmbedFp2(qay) * ut.winv3};
  Pt t = qq;

  Fp12 f = Fp12::One();
  // |u| has 64 bits; iterate from the bit below the MSB down to 0.
  int msb = 63;
  while (!((kBlsParamAbs >> msb) & 1)) --msb;
  for (int i = msb - 1; i >= 0; --i) {
    f = f.Square() * LineAndStep(&t, t, /*tangent=*/true, xp, yp);
    if ((kBlsParamAbs >> i) & 1) {
      f = f * LineAndStep(&t, qq, /*tangent=*/false, xp, yp);
    }
  }
  // u < 0: conjugate (the vertical-line correction dies in the final
  // exponentiation).
  return f.Conjugate();
}

namespace {

// f^x for the (negative) BLS parameter x = -kBlsParamAbs, valid only in the
// cyclotomic subgroup where inversion is conjugation.
Fp12 ExpByBlsX(const Fp12& f) {
  u64 e[1] = {kBlsParamAbs};
  return f.PowCyclotomic(std::span<const u64>(e, 1)).Conjugate();
}

// Shared easy part f^((p^6 - 1)(p^2 + 1)); lands in the cyclotomic
// subgroup, where Granger-Scott squarings and conjugation-inverse apply.
Fp12 EasyPart(const Fp12& f) {
  Fp12 t = f.Conjugate() * f.Inverse();
  return t.Frobenius().Frobenius() * t;
}

}  // namespace

GT FinalExponentiation(const GT& f) {
  // Hard part via the BLS12 parameter addition chain (Hayashida-Hayasaka-
  // Teruya): computes r^((x-1)^2 (x+p) (x^2+p^2-1) + 3), which equals
  // r^(3 (p^4-p^2+1)/r). The extra cube is a fixed exponent coprime to the
  // group order, so the map remains a non-degenerate bilinear pairing and
  // IsOne checks are unaffected; this is the same convention production
  // BLS12-381 libraries use. Four exponentiations by the 64-bit |x| replace
  // the generic ~1270-bit windowed exponentiation (FinalExponentiation-
  // Generic below keeps the exact-exponent path as the audit oracle).
  GT r = EasyPart(f);
  GT y0 = r.CyclotomicSquare();             // r^2
  GT y1 = ExpByBlsX(r);                     // r^x
  GT y2 = r.Conjugate();                    // r^-1
  y1 = y1 * y2;                             // r^(x-1)
  y2 = ExpByBlsX(y1);                       // r^(x(x-1))
  y1 = y1.Conjugate();                      // r^-(x-1)
  y1 = y1 * y2;                             // r^((x-1)^2)
  y2 = ExpByBlsX(y1);                       // r^(x(x-1)^2)
  y1 = y1.Frobenius();                      // r^(p(x-1)^2)
  y1 = y1 * y2;                             // r^((x-1)^2 (x+p))
  r = r * y0;                               // r^3
  y0 = ExpByBlsX(y1);                       // r^(x(x-1)^2 (x+p))
  y2 = ExpByBlsX(y0);                       // r^(x^2(x-1)^2 (x+p))
  y0 = y1.Frobenius().Frobenius();          // r^(p^2(x-1)^2 (x+p))
  y1 = y1.Conjugate();                      // r^-((x-1)^2 (x+p))
  y1 = y1 * y2;                             // r^((x^2-1)(x-1)^2 (x+p))
  y1 = y1 * y0;                             // r^((x^2+p^2-1)(x-1)^2 (x+p))
  return r * y1;
}

GT FinalExponentiationGeneric(const GT& f) {
  // Exact exponent (p^4 - p^2 + 1)/r derived by integer arithmetic; the
  // production chain above must equal this raised to the third power.
  GT t = EasyPart(f);
  const auto& e = HardPartExponent();
  return t.PowCyclotomic(std::span<const u64>(e.data(), e.size()));
}

GT Pairing(const G1& p, const G2& q) { return MultiPairing({{p, q}}); }

GT MultiPairing(const std::vector<std::pair<G1, G2>>& pairs) {
  return MultiPairingPrepared({}, pairs);
}

}  // namespace apqa::crypto
