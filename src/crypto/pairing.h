// Optimal ate pairing e : G1 x G2 -> GT for BLS12-381.
//
// Every pairing in the library is evaluated by one engine: the lockstep
// Miller loop over prepared line tables in crypto/pairing_prepared.h,
// followed by the shared `FinalExponentiation`. `Pairing` and
// `MultiPairing` are thin entry points into it for callers whose G2 points
// are not cached; products of pairings share a single final exponentiation.
// `MillerLoopGeneric` and `FinalExponentiationGeneric` are the deliberately
// simple, easily-audited oracles the engine is tested against.
#ifndef APQA_CRYPTO_PAIRING_H_
#define APQA_CRYPTO_PAIRING_H_

#include <utility>
#include <vector>

#include "crypto/curve.h"
#include "crypto/fp12.h"

namespace apqa::crypto {

using GT = Fp12;

// Generic reference Miller loop f_{|u|,Q}(P) over the untwisted image of G2
// in E(Fp12) with affine line functions, conjugated for the negative curve
// parameter. GT::One() if either input is infinity. Test/bench oracle only:
// much slower than the prepared engine, which works on the twist with Fp2
// line arithmetic.
GT MillerLoopGeneric(const G1& p, const G2& q);

// Final exponentiation. Computes f^(3 (p^12 - 1) / r) via the BLS12
// parameter addition chain; the fixed cube is coprime to r, so the result
// is still a non-degenerate bilinear pairing (the convention production
// BLS12-381 libraries use) and IsOne checks are unaffected. Every pairing
// path in this library shares this one function.
GT FinalExponentiation(const GT& f);

// Audit oracle: the exact exponent f^((p^12 - 1) / r) computed by generic
// windowed exponentiation against an integer-arithmetic-derived hard part.
// FinalExponentiation(f) == FinalExponentiationGeneric(f)^3 is unit-tested.
GT FinalExponentiationGeneric(const GT& f);

// e(p, q).
GT Pairing(const G1& p, const G2& q);

// prod_i e(p_i, q_i) with one shared final exponentiation: every G2 point
// gets a fresh inversion-free line table and all pairs walk one lockstep
// Miller loop (MultiPairingPrepared with only fresh pairs). Pairs with an
// identity side are skipped; if every pair is skipped the result is
// GT::One().
GT MultiPairing(const std::vector<std::pair<G1, G2>>& pairs);

}  // namespace apqa::crypto

#endif  // APQA_CRYPTO_PAIRING_H_
