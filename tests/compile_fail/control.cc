// Positive control for the negative-compile harness: correct use of the
// taint wrapper and the verdict types MUST compile under the exact flags the
// WILL_FAIL tests use. If this file stops compiling, the harness is testing
// the flags, not the invariants.
#include "common/serde.h"
#include "core/parallel_verify.h"
#include "core/verify_result.h"

namespace {

apqa::common::Untrusted<int> Decode() {
  return apqa::common::Untrusted<int>(42);
}

apqa::core::VerifyResult Check() { return {}; }

// The only way to queue signature work: through RunVerifier.
apqa::core::VerifyResult CheckThroughRunVerifier(
    const apqa::abs::VerifyKey& mvk) {
  return apqa::core::RunVerifier(
      mvk, {}, /*expected_epoch=*/0, /*exact_pairings=*/false,
      /*pool=*/nullptr,
      [](apqa::core::SigBatch&) { return apqa::core::VerifyResult::Ok(); });
}

int UseProperly() {
  apqa::common::Untrusted<int> u = Decode();
  int v = u.Unvalidated();  // explicit, auditable escape
  apqa::core::VerifyResult r = Check();
  apqa::abs::VerifyKey mvk;
  apqa::core::VerifyResult run = CheckThroughRunVerifier(mvk);
  return v + static_cast<int>(r.ok()) + static_cast<int>(run.ok());
}

}  // namespace

int main() { return UseProperly() == 0; }
