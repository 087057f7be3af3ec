#include "abs/abs.h"

#include "abs/batch_verify.h"
#include "crypto/serde.h"
#include "crypto/sha256.h"

namespace apqa::abs {

using crypto::HashToFr;
using policy::BuildMsp;
using policy::Msp;
using policy::Purge;
using policy::PurgeResult;
using policy::SatisfyingVector;

namespace internal {

Fr MessageScalar(const std::array<std::uint8_t, 32>& tau,
                 const std::vector<std::uint8_t>& msg, std::uint64_t epoch) {
  std::vector<std::uint8_t> buf;
  buf.reserve(tau.size() + msg.size() + 8);
  buf.insert(buf.end(), tau.begin(), tau.end());
  buf.insert(buf.end(), msg.begin(), msg.end());
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<std::uint8_t>(epoch >> (8 * i)));
  }
  return HashToFr(buf.data(), buf.size());
}

G1 MessageBase(const VerifyKey& mvk, const Fr& mu) {
  return mvk.c + mvk.precomp().g_tab.Mul(mu);
}

Fr SmallExponentWeight(Rng* rng) {
  crypto::Limbs<4> l{};
  do {
    l[0] = rng->NextU64();
    l[1] = rng->NextU64();
  } while (l[0] == 0 && l[1] == 0);
  return Fr::FromCanonical(l);
}

}  // namespace internal

namespace {

using internal::MessageBase;
using internal::MessageScalar;

// Table-backed constant-pattern multiply with a fallback for keys assembled
// by hand (tests, deserialization paths) whose tables were never built. The
// scalar is a blinding secret, so both paths are constant-pattern ladders.
G1 MulCtByTable(const crypto::FixedBaseTable<crypto::Fp>& tab, const G1& base,
                const SecretFr& k) {
  return tab.Initialized() ? tab.MulCt(k) : crypto::CtScalarMul(base, k);
}

}  // namespace

Fr RoleScalar(const std::string& role) {
  std::string tagged = "apqa-role:" + role;
  return HashToFr(tagged);
}

const VerifyKey::Precomp& VerifyKey::precomp() const {
  // Rank kSigningBuild: lazy table builds happen under the server's
  // kServerSp lock on the first query, so this must outrank it.
  static common::RankedMutex<common::LockRank::kSigningBuild> build_mu;
  std::lock_guard lock(build_mu);
  if (!precomp_) {
    auto pc = std::make_shared<Precomp>();
    pc->g_tab = crypto::FixedBaseTable<crypto::Fp>(g);
    pc->c_tab = crypto::FixedBaseTable<crypto::Fp>(c);
    pc->a_tab = crypto::FixedBaseTable<crypto::Fp2>(a);
    pc->b_tab = crypto::FixedBaseTable<crypto::Fp2>(b);
    pc->h0_prep = crypto::G2Prepared(h0);
    pc->h_prep = crypto::G2Prepared(h);
    pc->a0_prep = crypto::G2Prepared(a0);
    precomp_ = std::move(pc);
  }
  return *precomp_;
}

const crypto::G2Prepared& VerifyKey::AttributeBasePrepared(const Fr& u) const {
  const Precomp& pc = precomp();
  crypto::Limbs<4> key = u.ToCanonical();
  {
    std::lock_guard lock(pc.attr_mu);
    auto it = pc.attr_prep.find(key);
    if (it != pc.attr_prep.end()) return it->second;
  }
  // Build outside the lock (table construction is the expensive part);
  // emplace keeps the first insertion on a race, and map-node stability
  // makes the returned reference long-lived.
  crypto::G2Prepared prep(a + pc.b_tab.Mul(u));
  std::lock_guard lock(pc.attr_mu);
  return pc.attr_prep.emplace(key, std::move(prep)).first->second;
}

void VerifyKey::Serialize(common::ByteWriter* w) const {
  crypto::WriteG1(w, g);
  crypto::WriteG1(w, c);
  crypto::WriteG2(w, h0);
  crypto::WriteG2(w, h);
  crypto::WriteG2(w, a0);
  crypto::WriteG2(w, a);
  crypto::WriteG2(w, b);
}

VerifyKey VerifyKey::Deserialize(common::ByteReader* r) {
  VerifyKey k;
  k.g = crypto::ReadG1(r);
  k.c = crypto::ReadG1(r);
  k.h0 = crypto::ReadG2(r);
  k.h = crypto::ReadG2(r);
  k.a0 = crypto::ReadG2(r);
  k.a = crypto::ReadG2(r);
  k.b = crypto::ReadG2(r);
  return k;
}

bool SigningKey::Covers(const RoleSet& roles) const {
  for (const auto& r : roles) {
    if (k_attr.find(r) == k_attr.end()) return false;
  }
  return true;
}

void Signature::Serialize(common::ByteWriter* w_) const {
  w_->PutBytes(tau.data(), tau.size());
  w_->PutU64(epoch);
  crypto::WriteG1(w_, y);
  crypto::WriteG1(w_, w);
  w_->PutU32(static_cast<std::uint32_t>(s.size()));
  for (const G1& e : s) crypto::WriteG1(w_, e);
  w_->PutU32(static_cast<std::uint32_t>(p.size()));
  for (const G2& e : p) crypto::WriteG2(w_, e);
}

Signature Signature::Deserialize(common::ByteReader* r) {
  Signature sig;
  r->Get(sig.tau.data(), sig.tau.size());
  sig.epoch = r->GetU64();
  sig.y = crypto::ReadG1(r);
  sig.w = crypto::ReadG1(r);
  std::uint32_t ns = r->GetU32();
  // A G1 element takes at least one byte on the wire; element counts beyond
  // the remaining bytes are corrupt. Guards reserve() from hostile counts.
  if (!r->CheckCount(ns, 1)) return sig;
  sig.s.reserve(ns);
  for (std::uint32_t i = 0; i < ns && r->ok(); ++i) {
    sig.s.push_back(crypto::ReadG1(r));
  }
  std::uint32_t np = r->GetU32();
  if (!r->CheckCount(np, 1)) return sig;
  sig.p.reserve(np);
  for (std::uint32_t i = 0; i < np && r->ok(); ++i) {
    sig.p.push_back(crypto::ReadG2(r));
  }
  return sig;
}

std::size_t Signature::SerializedSize() const {
  common::ByteWriter bw;
  Serialize(&bw);
  return bw.size();
}

void Abs::Setup(Rng* rng, MasterKey* msk, VerifyKey* mvk) {
  // The ephemeral discrete logs of g/c/h0/h are never stored, but knowing
  // one would break soundness, so they take the constant-pattern generator
  // path too.
  msk->a0 = rng->NextNonZeroSecretFr();
  msk->a = rng->NextNonZeroSecretFr();
  msk->b = rng->NextNonZeroSecretFr();
  mvk->g = crypto::CtG1Mul(rng->NextNonZeroSecretFr());
  mvk->c = crypto::CtG1Mul(rng->NextNonZeroSecretFr());
  mvk->h0 = crypto::CtG2Mul(rng->NextNonZeroSecretFr());
  mvk->h = crypto::CtG2Mul(rng->NextNonZeroSecretFr());
  mvk->a0 = crypto::CtScalarMul(mvk->h0, msk->a0);
  mvk->a = crypto::CtScalarMul(mvk->h, msk->a);
  mvk->b = crypto::CtScalarMul(mvk->h, msk->b);
  mvk->precomp();  // warm the fixed-base tables while setup owns the key
}

SigningKey Abs::KeyGen(const MasterKey& msk, const RoleSet& attrs, Rng* rng) {
  SigningKey sk;
  sk.k_base = crypto::CtG1Mul(rng->NextNonZeroSecretFr());
  sk.k_base_tab = crypto::FixedBaseTable<crypto::Fp>(sk.k_base);
  sk.k0 = sk.k_base_tab.MulCt(crypto::CtInverse(msk.a0));
  sk.k0_tab = crypto::FixedBaseTable<crypto::Fp>(sk.k0);
  for (const auto& role : attrs) {
    Fr u = RoleScalar(role);
    SecretFr exp = crypto::CtInverse(msk.a + msk.b * u);
    sk.k_attr[role] = sk.k_base_tab.MulCt(exp);
  }
  return sk;
}

std::optional<Signature> Abs::Sign(const VerifyKey& mvk, const SigningKey& sk,
                                   const std::vector<std::uint8_t>& msg,
                                   const Policy& predicate, Rng* rng,
                                   std::uint64_t epoch) {
  Msp msp = BuildMsp(predicate);
  RoleSet owned;
  for (const auto& [role, key] : sk.k_attr) owned.insert(role);
  auto v = SatisfyingVector(predicate, owned);
  if (!v.has_value()) return std::nullopt;

  Signature sig;
  rng->Fill(sig.tau.data(), sig.tau.size());
  sig.epoch = epoch;
  Fr mu = MessageScalar(sig.tau, msg, sig.epoch);
  const VerifyKey::Precomp& pc = mvk.precomp();

  SecretFr r0 = rng->NextNonZeroSecretFr();
  sig.y = MulCtByTable(sk.k_base_tab, sk.k_base, r0);
  sig.w = MulCtByTable(sk.k0_tab, sk.k0, r0);

  std::size_t rows = msp.Rows(), cols = msp.Cols();
  std::vector<SecretFr> ri(rows);
  for (auto& r : ri) r = rng->NextNonZeroSecretFr();

  sig.s.resize(rows);
  std::vector<Fr> u(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    // (C g^mu)^{r_i}, split over the fixed-base tables of the key
    // components; blinding scalars stay on the constant-pattern ladder
    // throughout. The (*v)[i] branch itself is quarantined: it reveals which
    // owned attributes satisfy the predicate (an attribute-usage pattern),
    // not key material — see DESIGN.md.
    G1 si = pc.c_tab.MulCt(ri[i]) + pc.g_tab.MulCt(mu * ri[i]);
    if ((*v)[i] != 0) {
      si = si + crypto::CtScalarMul(sk.k_attr.at(msp.row_labels[i]), r0);
    }
    sig.s[i] = si;
    u[i] = RoleScalar(msp.row_labels[i]);
  }

  // P_j = prod_i (A B^{u_i})^{M_ij r_i} = A^{sum_i M_ij r_i} *
  // B^{sum_i M_ij u_i r_i}: the exponents are folded in Fr first, so each
  // column costs two fixed-base multiplies however many rows feed it.
  sig.p.resize(cols);
  for (std::size_t j = 0; j < cols; ++j) {
    SecretFr ea(Fr::Zero()), eb(Fr::Zero());
    for (std::size_t i = 0; i < rows; ++i) {
      if (msp.m[i][j] == 1) {
        ea = ea + ri[i];
        eb = eb + u[i] * ri[i];
      } else if (msp.m[i][j] == -1) {
        ea = ea - ri[i];
        eb = eb - u[i] * ri[i];
      }
    }
    sig.p[j] = pc.a_tab.MulCt(ea) + pc.b_tab.MulCt(eb);
  }
  return sig;
}

bool Abs::Verify(const VerifyKey& mvk, const std::vector<std::uint8_t>& msg,
                 const Policy& predicate, const Signature& sig, bool exact) {
  if (!exact) {
    // The folded check is a batch of one signature: BatchAccumulator holds
    // the only implementation of the small-exponent-folded equation.
    Rng rng;  // fresh OS-seeded randomness for the batching weights
    BatchAccumulator acc(mvk);
    return acc.Accumulate(msg, predicate, sig, &rng) && acc.Check();
  }

  Msp msp = BuildMsp(predicate);
  std::size_t rows = msp.Rows(), cols = msp.Cols();
  if (sig.s.size() != rows || sig.p.size() != cols) return false;
  if (sig.y.IsInfinity()) return false;

  Fr mu = MessageScalar(sig.tau, msg, sig.epoch);
  G1 cg = MessageBase(mvk, mu);

  // All fixed G2 pairing inputs come from cached line tables: h0/h/a0 from
  // the key's precomp, the per-row bases A * B^{u_i} from the prepared
  // memo. Only the signature's P_j components pair as fresh G2 points.
  const VerifyKey::Precomp& pc = mvk.precomp();
  std::vector<const crypto::G2Prepared*> xi(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    xi[i] = &mvk.AttributeBasePrepared(RoleScalar(msp.row_labels[i]));
  }

  // e(W, A0) == e(Y, h0)
  if (!crypto::MultiPairingPrepared(
           {{sig.w, &pc.a0_prep}, {-sig.y, &pc.h0_prep}})
           .IsOne()) {
    return false;
  }
  for (std::size_t j = 0; j < cols; ++j) {
    std::vector<crypto::PreparedPair> pairs;
    for (std::size_t i = 0; i < rows; ++i) {
      if (msp.m[i][j] == 1) {
        pairs.push_back({sig.s[i], xi[i]});
      } else if (msp.m[i][j] == -1) {
        pairs.push_back({-sig.s[i], xi[i]});
      }
    }
    if (j == 0) pairs.push_back({-sig.y, &pc.h_prep});
    if (!crypto::MultiPairingPrepared(pairs, {{-cg, sig.p[j]}}).IsOne()) {
      return false;
    }
  }
  return true;
}

std::optional<Signature> Abs::Relax(const VerifyKey& mvk, const Signature& sig,
                                    const Policy& predicate,
                                    const std::vector<std::uint8_t>& msg,
                                    const RoleSet& relax_to, Rng* rng) {
  Msp msp = BuildMsp(predicate);
  if (sig.s.size() != msp.Rows() || sig.p.size() != msp.Cols()) {
    return std::nullopt;
  }
  // Step 1: purge attributes absent from relax_to.
  PurgeResult purge = Purge(predicate, relax_to);
  if (!purge.ok) return std::nullopt;

  Fr mu = MessageScalar(sig.tau, msg, sig.epoch);
  const VerifyKey::Precomp& pc = mvk.precomp();

  G2 p_kept = G2::Infinity();
  for (std::size_t j : purge.kept_cols) p_kept = p_kept + sig.p[j];

  // Step 2 (merge duplicates) + Step 3 (append missing attributes). The new
  // predicate ∨_{a∈relax_to} a has one row per role, ordered like RoleSet
  // (lexicographically) — the same order BuildMsp produces for
  // Policy::OrOfRoles(relax_to). A missing role draws a fresh r (in role
  // order, before rho); its row is filled in after step 4's rho is known.
  Signature out;
  out.tau = sig.tau;
  out.epoch = sig.epoch;
  std::vector<G1> merged(relax_to.size(), G1::Infinity());
  std::vector<std::optional<SecretFr>> fresh(relax_to.size());
  std::size_t i = 0;
  for (const auto& role : relax_to) {
    bool found = false;
    for (std::size_t k : purge.kept_rows) {
      if (msp.row_labels[k] == role) {
        merged[i] = merged[i] + sig.s[k];
        found = true;
      }
    }
    if (!found) fresh[i] = rng->NextNonZeroSecretFr();
    ++i;
  }

  // Step 4: re-randomize so the output is distributed like a fresh
  // signature on the relaxed predicate. Leaking rho would link the APS
  // signature back to the APP original, so the re-randomization stays on
  // the constant-pattern ladders. rho is folded into the fresh scalars: a
  // fresh row is (C g^mu)^{r rho} from the fixed-base tables, and all fresh
  // P terms collapse into A^{sum r rho} * B^{sum u r rho} — two G2
  // fixed-base multiplies per Relax, whatever the number of missing roles.
  SecretFr rho = rng->NextNonZeroSecretFr();
  out.y = crypto::CtScalarMul(sig.y, rho);
  out.w = crypto::CtScalarMul(sig.w, rho);
  out.s.reserve(relax_to.size());
  SecretFr ea(Fr::Zero()), eb(Fr::Zero());
  i = 0;
  for (const auto& role : relax_to) {
    if (fresh[i].has_value()) {
      SecretFr rr = *fresh[i] * rho;
      out.s.push_back(pc.c_tab.MulCt(rr) + pc.g_tab.MulCt(mu * rr));
      ea = ea + rr;
      eb = eb + RoleScalar(role) * rr;
    } else {
      out.s.push_back(crypto::CtScalarMul(merged[i], rho));
    }
    ++i;
  }
  out.p = {crypto::CtScalarMul(p_kept, rho) + pc.a_tab.MulCt(ea) +
           pc.b_tab.MulCt(eb)};
  return out;
}

}  // namespace apqa::abs
