// Attribute-based signatures with predicate relaxation (paper §5.2).
//
// A variant of the Maji–Prabhakaran–Rosulek practical ABS instantiation in
// which the service provider, holding only a signature, can *relax* its
// claim-predicate Υ to a disjunction ∨_{a∈𝒜′} a — provided Υ(𝔸\𝒜′)=0 — and
// re-randomize, yielding a signature distributed identically to a fresh one
// (perfect privacy). This is the primitive behind APP → APS signature
// derivation.
//
// Groups: 𝔾 = G1, ℍ = G2 of BLS12-381; messages are arbitrary byte strings.
#ifndef APQA_ABS_ABS_H_
#define APQA_ABS_ABS_H_

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/lock_rank.h"
#include "common/serde.h"
#include "crypto/msm.h"
#include "crypto/pairing.h"
#include "crypto/pairing_prepared.h"
#include "crypto/rng.h"
#include "policy/msp.h"
#include "policy/policy.h"

namespace apqa::abs {

using crypto::Fr;
using crypto::G1;
using crypto::G2;
using crypto::Rng;
using crypto::SecretFr;
using policy::Policy;
using policy::RoleSet;

// Master verification key mvk = (g, h0, h, A0, A, B, C).
struct VerifyKey {
  G1 g, c;
  G2 h0, h, a0, a, b;

  void Serialize(common::ByteWriter* w) const;
  static VerifyKey Deserialize(common::ByteReader* r);

  // Prepared-pairing table for the per-row base h^(a + b*u) of an attribute
  // scalar u, built from the precomputed B table and memoized per scalar
  // (verification keys are long-lived and see the same role scalars over
  // and over). The returned reference stays valid for the key's lifetime
  // (map nodes are stable) and the table is immutable once built, so it is
  // safe to share read-only across verifier threads.
  const crypto::G2Prepared& AttributeBasePrepared(const Fr& u) const;

  // Fixed-base tables for the key components that every sign/relax/verify
  // multiplies: G = g, C = c over G1 and A = h^a, B = h^b over G2 — plus
  // prepared-pairing line tables for the fixed G2 pairing inputs h0/h/a0,
  // so verification never redoes their Miller-loop G2 arithmetic.
  // Built lazily on first use and shared by copies taken afterwards.
  struct Precomp {
    crypto::FixedBaseTable<crypto::Fp> g_tab, c_tab;
    crypto::FixedBaseTable<crypto::Fp2> a_tab, b_tab;
    crypto::G2Prepared h0_prep, h_prep, a0_prep;
    // Rank kAttrCache: taken by verifiers and signers that may already hold
    // the server's kServerSp lock and the pool's kThreadPool lock context.
    mutable common::RankedMutex<common::LockRank::kAttrCache> attr_mu;
    // Keyed by canonical u.
    mutable std::map<crypto::Limbs<4>, crypto::G2Prepared> attr_prep;
  };
  const Precomp& precomp() const;

 private:
  mutable std::shared_ptr<const Precomp> precomp_;
};

// Master signing key msk = (a0, a, b). The scalars are taint-typed: they
// can be combined arithmetically and fed to the constant-pattern ladders
// (MulCt / CtScalarMul / CtInverse), but passing one to a variable-time
// scalar path is a compile error without an explicit Declassify().
struct MasterKey {
  SecretFr a0, a, b;
};

// Per-attribute-set signing key.
struct SigningKey {
  G1 k_base;
  G1 k0;
  std::map<std::string, G1> k_attr;  // K_u = K_base^(1/(a+b*u)) by role name

  // Fixed-base tables for K_base and K_0, built by KeyGen: a signing key
  // typically signs an entire AP²G-tree, so both bases are multiplied once
  // per record/node.
  crypto::FixedBaseTable<crypto::Fp> k_base_tab, k0_tab;

  bool Covers(const RoleSet& roles) const;
};

// Signature sigma = (tau, Y, W, S_1..S_l, P_1..P_t) on a claim-predicate
// carried externally. Row labels of the predicate's span program order the
// S_i components.
struct Signature {
  std::array<std::uint8_t, 32> tau{};
  // ADS epoch this signature was minted at. Hashed into the message scalar
  // mu = H(tau || msg || epoch), so a signature from epoch N cannot be
  // presented as one from epoch M != N without forging: the verifier always
  // recomputes mu from the epoch the signature itself declares.
  std::uint64_t epoch = 0;
  G1 y, w;
  std::vector<G1> s;
  std::vector<G2> p;

  void Serialize(common::ByteWriter* w_) const;
  static Signature Deserialize(common::ByteReader* r);
  std::size_t SerializedSize() const;

  // Smallest possible wire footprint: tau (32) + epoch (8) + y, w as
  // infinity flags (1 each) + two empty vector counts (4 each). Used to
  // clamp hostile element counts before allocating.
  static constexpr std::size_t kMinSerializedSize = 32 + 8 + 1 + 1 + 4 + 4;
};

// Maps a role name to its attribute scalar (SHA-256 into Fr).
Fr RoleScalar(const std::string& role);

namespace internal {

// mu = H(tau || msg || epoch_le8) as an Fr scalar. The epoch rides inside
// the hash so re-signed nodes at epoch N+1 invalidate their epoch-N
// predecessors without any change to the carried message bytes.
Fr MessageScalar(const std::array<std::uint8_t, 32>& tau,
                 const std::vector<std::uint8_t>& msg, std::uint64_t epoch);

// C * g^mu, the message-binding base.
G1 MessageBase(const VerifyKey& mvk, const Fr& mu);

// A nonzero 128-bit batching weight (Bellare–Garay–Rabin small exponent):
// keeps the per-equation forgery bound at 2^-128 while halving the weight
// multiplications, since wNAF ladder length tracks scalar magnitude.
Fr SmallExponentWeight(Rng* rng);

}  // namespace internal

class Abs {
 public:
  // ABS.Setup.
  static void Setup(Rng* rng, MasterKey* msk, VerifyKey* mvk);

  // ABS.KeyGen: signing key able to sign for any predicate satisfied by
  // `attrs`.
  static SigningKey KeyGen(const MasterKey& msk, const RoleSet& attrs,
                           Rng* rng);

  // ABS.Sign: requires predicate(attrs of sk) = 1 (i.e. a satisfying vector
  // exists over the attributes present in sk). Returns nullopt otherwise.
  // `epoch` is bound into the message scalar and recorded in the signature.
  static std::optional<Signature> Sign(const VerifyKey& mvk,
                                       const SigningKey& sk,
                                       const std::vector<std::uint8_t>& msg,
                                       const Policy& predicate, Rng* rng,
                                       std::uint64_t epoch = 0);

  // ABS.Verify. The default check is a batch of one: it accumulates `sig`
  // into a BatchAccumulator (abs/batch_verify.h), which folds the W equation
  // and every span-program column equation under fresh 128-bit weights into
  // one multi-pairing (sound up to 2^-128). `exact` is the reference arm: it
  // checks the W equation and each column equation as its own pairing
  // product and shares no folding code with the default. Both run on the
  // prepared-pairing engine: line tables for the fixed mvk components and
  // memoized attribute bases are reused across calls.
  static bool Verify(const VerifyKey& mvk, const std::vector<std::uint8_t>& msg,
                     const Policy& predicate, const Signature& sig,
                     bool exact = false);

  // ABS.Relax (Algorithm 2): derives a signature on ∨_{a∈relax_to} a from a
  // signature on `predicate`. Fails iff predicate(𝔸 \ relax_to) = 1.
  static std::optional<Signature> Relax(const VerifyKey& mvk,
                                        const Signature& sig,
                                        const Policy& predicate,
                                        const std::vector<std::uint8_t>& msg,
                                        const RoleSet& relax_to, Rng* rng);
};

}  // namespace apqa::abs

#endif  // APQA_ABS_ABS_H_
