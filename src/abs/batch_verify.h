// The folded ABS verification equation, for one signature or a whole VO.
//
// Every default ABS check in the library runs here: Abs::Verify is a batch
// of one, and a verification object's dozens of signatures are one batch
// (core/parallel_verify.h). Each signature's weighted pairing equations are
// poured into a single PairingProductAccumulator, grouped by the shared
// prepared G2 bases the verification key caches (h, h0, a0, and the
// memoized attribute bases), so the whole VO costs one G1 MSM per base, two
// shared G2 MSMs for the message-side terms, and ONE final exponentiation.
//
// Soundness: each signature k draws its own fresh small-exponent weights
// delta_k, rho_{k,j} (128-bit, nonzero, from the caller's RNG). The grand
// product is then a random linear combination of all individual equations
// with independent coefficients, so a passing product implies every
// signature verifies except with probability <= n * 2^-128 — no nested
// outer weights are needed, and all MSM scalars stay ~128 bits (only the
// mu*rho message terms are full-width). Completeness is deterministic:
// valid signatures satisfy their equations identically, so the product of
// their weighted forms is exactly one.
//
// Message-side aggregation: signature k's fresh pair e(-(C g^{mu_k}),
// sum_j rho_{k,j} P_{k,j}) would need a fresh G2Prepared per signature
// (~0.8 ms each). With two or more signatures it is instead split over the
// shared G1 points C and g:
//   e(-C, sum_k sum_j rho_{k,j} P_{k,j}) * e(-g, sum_k mu_k sum_j ...)
// — two deferred G2 MSMs pairing against just two fresh G2 points. Those
// two MSMs fold the SAME points under different weights, as do the -Y
// folds against h (column-0 weight) and h0 (W-equation weight), so both
// run as shared-table multi-set MSMs (crypto::MsmShared): one table build,
// one accumulation chain per weight vector. A batch of exactly one
// signature pairs -(C g^mu) with sum_j rho_j P_j directly: one fresh G2
// table instead of two, and no mu*rho fold.
#ifndef APQA_ABS_BATCH_VERIFY_H_
#define APQA_ABS_BATCH_VERIFY_H_

#include <cstddef>
#include <vector>

#include "abs/abs.h"
#include "crypto/pairing_accumulator.h"

namespace apqa::abs {

class BatchAccumulator {
 public:
  using ParallelRunner = crypto::PairingProductAccumulator::ParallelRunner;

  // The key must outlive the accumulator (its precomp owns the prepared G2
  // tables the buckets point into).
  explicit BatchAccumulator(const VerifyKey& mvk) : mvk_(mvk) {}

  // Folds one signature's equations into the batch under fresh weights from
  // `rng`. Returns false — leaving the batch untouched — iff the signature
  // fails Verify's structural checks (component counts, Y != infinity);
  // those failures are deterministic, so callers can blame them without
  // running the batch.
  bool Accumulate(const std::vector<std::uint8_t>& msg,
                  const Policy& predicate, const Signature& sig, Rng* rng);

  // Number of signatures successfully accumulated.
  std::size_t Size() const { return count_; }

  // Evaluates the whole product: true iff (whp) every accumulated signature
  // is valid; an empty batch passes without any pairing work. The per-base
  // G1 MSMs and the message-side G2 MSMs fan out over `runner` when
  // provided. Single use: after Check the accumulator is spent.
  bool Check(const ParallelRunner& runner = {});

 private:
  const VerifyKey& mvk_;
  crypto::PairingProductAccumulator acc_;
  // Deferred -Y folds: against h under the column-0 weight and against h0
  // under the W-equation weight — one shared-table multi-set G1 MSM.
  std::vector<G1> y_pts_;
  std::vector<Fr> y_rho0_;
  std::vector<Fr> y_delta_;
  // Deferred message-side terms: e(-C, sum rho_j P_j) and
  // e(-g, sum mu*rho_j P_j) across all signatures — one shared-table
  // multi-set G2 MSM.
  std::vector<G2> p_pts_;
  std::vector<Fr> p_rho_;
  std::vector<Fr> p_murho_;
  // Message scalar of the latest signature: paired directly in C g^mu when
  // it is the only one.
  Fr mu_;
  std::size_t count_ = 0;
};

}  // namespace apqa::abs

#endif  // APQA_ABS_BATCH_VERIFY_H_
