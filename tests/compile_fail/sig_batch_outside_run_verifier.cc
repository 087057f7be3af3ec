// MUST NOT COMPILE: signature work may only be queued into a SigBatch that
// RunVerifier constructs after the freshness gate (core/parallel_verify.h).
// A verifier building its own batch could verify signatures of a replayed
// VO before checking its stamp.
#include "core/parallel_verify.h"

namespace {

void QueueWithoutGate(const apqa::abs::VerifyKey& mvk) {
  apqa::core::SigBatch batch(mvk, /*exact_pairings=*/false);
  batch.Add({}, nullptr, nullptr, apqa::core::VerifyResult::Ok());
}

}  // namespace

int main() {
  apqa::abs::VerifyKey mvk;
  QueueWithoutGate(mvk);
  return 0;
}
