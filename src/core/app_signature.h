// Access-policy-preserving (APP) and access-policy-stripped (APS)
// signatures (Definitions 5.1 and 5.2).
//
// APP: σ = ABS.Sign(sk_DO, hash(o)|hash(v), Υ) for records, or
//      ABS.Sign(sk_DO, hash(gb), p) for AP²G-tree nodes.
// APS: the relaxation of an APP signature to the querying user's super
//      access policy ∨_{a ∈ 𝔸\𝒜} a.
//
// Side channels: the blinding scalars drawn inside ABS.Sign / ABS.Relax are
// taint-typed SecretFr and ride the constant-pattern ladders (crypto/ct.h);
// everything hashed or signed through this header — keys, boxes, value
// hashes, policies — is public VO material.
#ifndef APQA_CORE_APP_SIGNATURE_H_
#define APQA_CORE_APP_SIGNATURE_H_

#include <deque>
#include <iterator>
#include <optional>
#include <vector>

#include "abs/abs.h"
#include "core/record.h"
#include "core/thread_pool.h"
#include "core/verify_result.h"
#include "crypto/sha256.h"

namespace apqa::core {

using abs::Abs;
using abs::Signature;
using abs::SigningKey;
using abs::VerifyKey;
using crypto::Digest;
using crypto::Rng;

// Canonical byte encoding of a query key (little-endian u32 per dimension).
std::vector<std::uint8_t> EncodeKey(const Point& key);
// Canonical byte encoding of a grid box (lo then hi).
std::vector<std::uint8_t> EncodeBox(const Box& box);

// hash(o) | hash(v) — the signed message of a record APP signature.
std::vector<std::uint8_t> RecordMessage(const Point& key,
                                        const std::string& value);
// Same, from a precomputed value hash (the user of an APS signature only
// learns hash(v), never v).
std::vector<std::uint8_t> RecordMessageFromHash(const Point& key,
                                                const Digest& value_hash);
// hash(gb) — the signed message of a grid-node APP signature.
std::vector<std::uint8_t> BoxMessage(const Box& box);

// Forces construction of the verification key's fixed-base
// scalar-multiplication tables (crypto/msm.h) and prepared-pairing line
// tables (crypto/pairing_prepared.h). Keys produced by Setup are
// already warm; call this once for keys received over the wire so the first
// signature operation does not pay the table build.
void WarmSignatureEngine(const VerifyKey& mvk);

// The super access policy for a user holding `user_roles` within `universe`:
// the OR of every role the user lacks (always includes Role_∅).
policy::RoleSet SuperPolicyRoles(const policy::RoleSet& universe,
                                 const policy::RoleSet& user_roles);

// Signs a record (APP signature). Pseudo records use policy Role_∅ and a
// random value supplied by the caller. `epoch` is the ADS epoch the
// signature is minted at (bound into the ABS message scalar).
std::optional<Signature> SignRecord(const VerifyKey& mvk,
                                    const SigningKey& sk_do,
                                    const Record& record, Rng* rng,
                                    std::uint64_t epoch = 0);

// Signs a grid node (APP signature over the grid box).
std::optional<Signature> SignBox(const VerifyKey& mvk, const SigningKey& sk_do,
                                 const Box& box, const Policy& node_policy,
                                 Rng* rng, std::uint64_t epoch = 0);

// One ABS.Relax of a stored APP signature into a VO entry's APS slot. The
// pointers must stay valid until RelaxAll returns.
struct RelaxJob {
  const Signature* app;               // the stored APP signature
  const Policy* policy;               // the policy `app` was signed under
  std::vector<std::uint8_t> message;  // the message `app` signs
  Signature* aps;                     // receives the APS signature
};

// The SP's ABS.Relax stage (Algorithm 2, parallelized per §8.2): relaxes
// every job to the super policy over `lacked` (see SuperPolicyRoles).
// Fans out over ThreadPool::SeededFanOut, so with a null or one-thread
// pool, or at most one job, it runs serially on `rng` in job order. Throws
// std::runtime_error when a stored signature does not fit its policy (a
// corrupted ADS), for which Relax derives nothing.
void RelaxAll(const VerifyKey& mvk, const policy::RoleSet& lacked,
              const std::vector<RelaxJob>& jobs, Rng* rng, ThreadPool* pool);

// Builders stage the entries whose APS slots RelaxAll fills in a deque,
// where appending never moves an entry already staged, and move them onto
// the VO afterwards.
template <typename Entry>
void MoveAppend(std::deque<Entry>* staged, std::vector<Entry>* out) {
  out->insert(out->end(), std::make_move_iterator(staged->begin()),
              std::make_move_iterator(staged->end()));
}

// ---------------------------------------------------------------------------
// Epoch freshness attestation.
//
// Per-node signatures bind the epoch each node was last re-signed at, which
// after an incremental update is *mixed*: untouched nodes keep older epochs.
// Whole-VO freshness therefore rides on a separate DO attestation: an ABS
// signature (under the always-derivable Role_∅ policy) over the pair
// (current epoch, set-hash digest of the entire signature multiset). Every
// VO carries the stamp; verifiers check it against the caller's
// expected_epoch *before* any per-entry signature work, so a replayed VO
// fails with kStaleEpoch rather than a generic signature failure.

struct EpochStamp {
  std::uint64_t epoch = 0;
  // Hand-built VOs in tests may omit the attestation; builders always fill
  // it. An unattested stamp only passes CheckFreshness at expected_epoch 0.
  bool attested = false;
  Digest ads_digest{};
  Signature attestation;

  void Serialize(common::ByteWriter* w) const;
  // Tainted wire entry; a standalone stamp is only trusted after
  // CheckFreshness. DeserializeRaw is for the composite VO deserializers
  // (every VO embeds a stamp) — serde-layer only in src/ (lint R10).
  static common::Untrusted<EpochStamp> Deserialize(common::ByteReader* r) {
    return common::Untrusted<EpochStamp>(DeserializeRaw(r));
  }
  static EpochStamp DeserializeRaw(common::ByteReader* r);

  // epoch (8) + attested flag (1); digest + attestation only when attested.
  static constexpr std::size_t kMinSerializedSize = 8 + 1;
};

// Domain-separated message of the epoch attestation:
//   "APQA/epoch/v1" || epoch_le8 || ads_digest.
std::vector<std::uint8_t> EpochAttestationMessage(std::uint64_t epoch,
                                                  const Digest& ads_digest);

// The claim-predicate of epoch attestations: the single pseudo-role Role_∅,
// which every DO signing key covers and every super policy includes.
Policy AttestationPolicy();

// Signs a fresh attestation for (epoch, ads_digest).
std::optional<EpochStamp> MakeEpochStamp(const VerifyKey& mvk,
                                         const SigningKey& sk_do,
                                         std::uint64_t epoch,
                                         const Digest& ads_digest, Rng* rng);

// The freshness gate every Ex verifier runs first. `expected_epoch` is the
// *minimum* acceptable epoch (newer stamps pass — the client may lag behind
// the DO). Rejections:
//   * stamp.epoch < expected_epoch                  -> kStaleEpoch
//   * unattested stamp at expected_epoch > 0        -> kStaleEpoch
//   * attestation minted at a different epoch       -> kStaleEpoch
//   * attestation fails ABS verification            -> kBadSignature
VerifyResult CheckFreshness(const VerifyKey& mvk, const EpochStamp& stamp,
                            std::uint64_t expected_epoch);

}  // namespace apqa::core

#endif  // APQA_CORE_APP_SIGNATURE_H_
