#include "abs/batch_verify.h"

namespace apqa::abs {

using policy::BuildMsp;
using policy::Msp;

bool BatchAccumulator::Accumulate(const std::vector<std::uint8_t>& msg,
                                  const Policy& predicate,
                                  const Signature& sig, Rng* rng) {
  // Structural checks mirror Abs::Verify exactly: the batch path must blame
  // the same signatures the sequential verifier would, and these failures
  // are deterministic (no algebra involved).
  Msp msp = BuildMsp(predicate);
  std::size_t rows = msp.Rows(), cols = msp.Cols();
  if (sig.s.size() != rows || sig.p.size() != cols) return false;
  if (sig.y.IsInfinity()) return false;

  Fr mu = internal::MessageScalar(sig.tau, msg, sig.epoch);
  const VerifyKey::Precomp& pc = mvk_.precomp();

  // Fresh per-signature weights: delta for the W-equation, rho_j for each
  // column equation. Independence across signatures is what makes the grand
  // product a sound random linear combination — see the header comment.
  // The weights stay plain Fr (variable-time folds): they are drawn after
  // the signature is fixed and protect only this batch's soundness, so
  // leaking them post-hoc is harmless — quarantined in DESIGN.md.
  Fr delta = internal::SmallExponentWeight(rng);
  std::vector<Fr> rho(cols);
  for (auto& r : rho) r = internal::SmallExponentWeight(rng);

  // sum_j rho_j * [column j equation], fold weights kept on the scalar side:
  // the accumulator's per-base MSM absorbs (S_i, c_i) directly, so no G1
  // scalar multiplication happens here at all.
  for (std::size_t i = 0; i < rows; ++i) {
    Fr ci = Fr::Zero();
    for (std::size_t j = 0; j < cols; ++j) {
      if (msp.m[i][j] == 1) {
        ci = ci + rho[j];
      } else if (msp.m[i][j] == -1) {
        ci = ci - rho[j];
      }
    }
    if (!ci.IsZero()) {
      const crypto::G2Prepared& xi =
          mvk_.AttributeBasePrepared(RoleScalar(msp.row_labels[i]));
      acc_.Add(&xi, sig.s[i], ci);
    }
  }
  // e(Y, h)^{-rho_0} from column 0 and e(Y, h0)^{-delta} from the
  // W-equation share the point -Y: deferred to one multi-set MSM in Check.
  y_pts_.push_back(-sig.y);
  y_rho0_.push_back(rho[0]);
  y_delta_.push_back(delta);
  // delta * e(W, A0) side of the W-equation.
  acc_.Add(&pc.a0_prep, sig.w, delta);
  // Message side, deferred: e(-(C g^mu), sum_j rho_j P_j) splits into
  // e(-C, .)^{rho_j} and e(-g, .)^{mu rho_j} terms of two shared G2 MSMs.
  for (std::size_t j = 0; j < cols; ++j) {
    p_pts_.push_back(sig.p[j]);
    p_rho_.push_back(rho[j]);
    p_murho_.push_back(mu * rho[j]);
  }
  mu_ = mu;
  ++count_;
  return true;
}

bool BatchAccumulator::Check(const ParallelRunner& runner) {
  const VerifyKey::Precomp& pc = mvk_.precomp();
  const bool single = count_ == 1;
  // The two multi-set folds are independent of each other (and of the
  // per-base MSMs IsOne runs), so fan them out when a runner is supplied.
  // A single signature needs only the rho fold of its P_j.
  std::vector<G1> yf;
  std::vector<G2> pf;
  auto fold = [&](std::size_t t) {
    if (t == 0) {
      std::vector<Fr> sets[] = {std::move(y_rho0_), std::move(y_delta_)};
      yf = crypto::G1MsmShared(std::span<const G1>(y_pts_),
                               std::span<const std::vector<Fr>>(sets, 2));
    } else {
      std::vector<Fr> sets[] = {std::move(p_rho_), std::move(p_murho_)};
      pf = crypto::G2MsmShared(
          std::span<const G2>(p_pts_),
          std::span<const std::vector<Fr>>(sets, single ? 1 : 2));
    }
  };
  if (runner) {
    runner(2, fold);
  } else {
    fold(0);
    fold(1);
  }
  acc_.Add(&pc.h_prep, yf[0], Fr::One());
  acc_.Add(&pc.h0_prep, yf[1], Fr::One());
  if (single) {
    acc_.AddFresh(-internal::MessageBase(mvk_, mu_), pf[0]);
  } else {
    acc_.AddFresh(-mvk_.c, pf[0]);
    acc_.AddFresh(-mvk_.g, pf[1]);
  }
  return acc_.IsOne(runner);
}

}  // namespace apqa::abs
