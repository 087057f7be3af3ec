#include "crypto/pairing_accumulator.h"

namespace apqa::crypto {

void PairingProductAccumulator::Add(const G2Prepared* base, const G1& p,
                                    const Fr& scalar) {
  if (base == nullptr || base->IsInfinity() || p.IsInfinity() ||
      scalar.IsZero()) {
    return;
  }
  auto [it, inserted] = bucket_index_.try_emplace(base, buckets_.size());
  if (inserted) buckets_.push_back(Bucket{base, {}, {}});
  Bucket& b = buckets_[it->second];
  b.pts.push_back(p);
  b.scalars.push_back(scalar);
  ++terms_;
}

void PairingProductAccumulator::AddFresh(const G1& p, const G2& q) {
  if (p.IsInfinity() || q.IsInfinity()) return;
  fresh_.emplace_back(p, q);
  ++terms_;
}

bool PairingProductAccumulator::IsOne(const ParallelRunner& runner) const {
  if (terms_ == 0) return true;  // the empty product, no pairing work
  const std::size_t nb = buckets_.size();
  std::vector<G1> folded(nb);
  auto fold_one = [&](std::size_t t) {
    const Bucket& b = buckets_[t];
    folded[t] =
        G1Msm(std::span<const G1>(b.pts), std::span<const Fr>(b.scalars));
  };
  // Each task writes one disjoint slot of folded and reads only immutable
  // accumulator state, so the fan-out is race-free by construction; the
  // runner's join publishes the slots.
  if (runner && nb > 1) {
    runner(nb, fold_one);
  } else {
    for (std::size_t t = 0; t < nb; ++t) fold_one(t);
  }

  std::vector<PreparedPair> prepared;
  prepared.reserve(nb);
  for (std::size_t i = 0; i < nb; ++i) {
    prepared.push_back(PreparedPair{folded[i], buckets_[i].base});
  }
  return MultiPairingPrepared(prepared, fresh_).IsOne();
}

}  // namespace apqa::crypto
