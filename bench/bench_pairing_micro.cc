// Micro-benchmark (ablation): the prepared-pairing engine — the library's
// one pairing evaluation — vs. the audit oracles and its own cached vs.
// fresh-table arms.
//
//   miller loop   — the affine E(Fp12) oracle MillerLoopGeneric vs.
//                   MillerLoopPrepared on a cached G2Prepared table.
//   final exp     — the cyclotomic BLS12 chain vs. the exact
//                   FinalExponentiationGeneric square-and-multiply ladder.
//   pairing       — the oracle pairing (generic Miller loop + generic FE)
//                   vs. Pairing(p, q) (table built per call) vs.
//                   PairWith(p, prepared), and the one-off G2Prepared
//                   construction cost.
//   fp12          — full Fp12 mul vs. MulBySparseLine on line-shaped operands.
//   multipairing  — MultiPairing (a fresh table per G2 input) vs.
//                   MultiPairingPrepared with every G2 input served from a
//                   cached table.
//   abs           — end-to-end ABS verify (Abs::Verify, a batch of one
//                   signature) on the prepared engine.
//   abs batch     — whole-batch BatchAccumulator verification of n
//                   signatures sharing one final exponentiation.
//   range vo      — user-side range-VO verification: the serial exact
//                   reference arm vs. the whole-VO batch, plus the
//                   tampered-VO bisect blame path.
//
// Every row is also emitted through the JSON trajectory sink (bench_util.h):
//   APQA_BENCH_JSON=BENCH_pairing.json ./bench_pairing_micro  (or --json=PATH)
#include <cinttypes>

#include "abs/abs.h"
#include "abs/batch_verify.h"
#include "bench_util.h"
#include "core/parallel_verify.h"
#include "crypto/pairing.h"
#include "crypto/pairing_prepared.h"

namespace {

using namespace apqa;
using namespace apqa::crypto;
using apqa::bench::RecordJson;
using apqa::bench::Timer;

constexpr const char* kBench = "pairing_micro";

// Keeps results alive without pulling in google-benchmark.
template <typename T>
void Sink(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

// Runs fn `iters` times and returns the fastest call in milliseconds. The
// minimum is the standard low-noise estimator for single-core microbenches:
// scheduler preemption and frequency excursions only ever add time, so the
// fastest observation is the closest to the true cost.
template <typename Fn>
double TimeMs(int iters, Fn&& fn) {
  double best = 0;
  for (int i = 0; i < iters; ++i) {
    Timer t;
    fn();
    double ms = t.ElapsedMs();
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

void Report(const char* row, double ms) {
  std::printf("  %-32s %10.3f ms\n", row, ms);
  RecordJson(kBench, row, ms);
}

void Speedup(const char* row, double baseline, double engine) {
  std::printf("  %-32s %10.2fx\n", row, baseline / engine);
  RecordJson(kBench, row, baseline / engine);
}

void BenchMillerLoop(Rng* rng, int iters) {
  std::printf("Miller loop: generic oracle vs prepared\n");
  G1 p = G1Mul(rng->NextNonZeroFr());
  G2 q = G2Mul(rng->NextNonZeroFr());
  G2Prepared prep(q);
  double generic = TimeMs(iters, [&] { Sink(MillerLoopGeneric(p, q)); });
  Report("miller_generic", generic);
  double prepared =
      TimeMs(iters, [&] { Sink(MillerLoopPrepared({{p, &prep}})); });
  Report("miller_prepared", prepared);
  Speedup("miller_prepared_vs_generic", generic, prepared);
}

void BenchFinalExp(Rng* rng, int iters) {
  std::printf("final exponentiation: generic ladder vs cyclotomic chain\n");
  GT f = MillerLoopGeneric(G1Mul(rng->NextNonZeroFr()),
                           G2Mul(rng->NextNonZeroFr()));
  double generic = TimeMs(iters, [&] { Sink(FinalExponentiationGeneric(f)); });
  Report("final_exp_generic", generic);
  double fast = TimeMs(iters, [&] { Sink(FinalExponentiation(f)); });
  Report("final_exp_cyclotomic", fast);
  Speedup("final_exp_speedup", generic, fast);
}

void BenchPairing(Rng* rng, int iters) {
  std::printf("single pairing: oracle vs fresh table vs prepared\n");
  G1 p = G1Mul(rng->NextNonZeroFr());
  G2 q = G2Mul(rng->NextNonZeroFr());
  // The oracle pairing: affine Miller loop + exact-ladder final
  // exponentiation (what Pairing(p, q) cost before the engine landed).
  double seed = TimeMs(iters, [&] {
    Sink(FinalExponentiationGeneric(MillerLoopGeneric(p, q)));
  });
  Report("pairing_pre_engine", seed);
  double fresh = TimeMs(iters, [&] { Sink(Pairing(p, q)); });
  Report("pairing_fresh_table", fresh);
  double prepare = TimeMs(iters, [&] { Sink(G2Prepared(q)); });
  Report("g2_prepare", prepare);
  G2Prepared prep(q);
  double prepared = TimeMs(iters, [&] { Sink(PairWith(p, prep)); });
  Report("pairing_prepared", prepared);
  Speedup("pairing_prepared_vs_pre_engine", seed, prepared);
}

void BenchFp12Mul(Rng* rng, int iters) {
  std::printf("Fp12 line fold: full mul vs sparse-line mul\n");
  GT a = MillerLoopGeneric(G1Mul(rng->NextNonZeroFr()),
                           G2Mul(rng->NextNonZeroFr()));
  // Line-shaped operand: only the w^0, w^2, w^3 slots are non-zero.
  Fp2 a0 = a.c0.c0, a2 = a.c0.c1, a3 = a.c1.c1;
  GT line = Fp12::FromSparseLine(a0, a2, a3);
  double full = TimeMs(iters, [&] { Sink(a * line); });
  Report("fp12_mul_full", full);
  double sparse = TimeMs(iters, [&] { Sink(a.MulBySparseLine(a0, a2, a3)); });
  Report("fp12_mul_sparse_line", sparse);
  Speedup("fp12_sparse_speedup", full, sparse);
}

void BenchMultiPairing(Rng* rng, bool fast) {
  std::printf("multi-pairing: fresh tables vs cached tables\n");
  for (std::size_t n : {2u, 4u, 8u, 16u}) {
    if (fast && n > 4) break;
    std::vector<std::pair<G1, G2>> pairs;
    std::vector<G2Prepared> tables;
    tables.reserve(n);
    std::vector<PreparedPair> prepared;
    for (std::size_t j = 0; j < n; ++j) {
      pairs.emplace_back(G1Mul(rng->NextNonZeroFr()),
                         G2Mul(rng->NextNonZeroFr()));
      tables.emplace_back(pairs.back().second);
      prepared.push_back(PreparedPair{pairs.back().first, &tables.back()});
    }
    int iters = fast ? 2 : 5;
    double fresh = TimeMs(iters, [&] { Sink(MultiPairing(pairs)); });
    char row[64];
    std::snprintf(row, sizeof(row), "multipairing_fresh_n%zu", n);
    Report(row, fresh);
    double prep = TimeMs(iters, [&] { Sink(MultiPairingPrepared(prepared)); });
    std::snprintf(row, sizeof(row), "multipairing_prepared_n%zu", n);
    Report(row, prep);
  }
}

void BenchAbsVerify(bool fast) {
  std::printf("ABS verify end-to-end (prepared engine)\n");
  crypto::Rng rng(11);
  abs::MasterKey msk;
  abs::VerifyKey mvk;
  abs::Abs::Setup(&rng, &msk, &mvk);
  policy::RoleSet universe;
  for (int i = 0; i < 16; ++i) universe.insert("Role" + std::to_string(i));
  abs::SigningKey sk = abs::Abs::KeyGen(msk, universe, &rng);
  std::vector<policy::Clause> clauses;
  for (int i = 0; i + 1 < 12; i += 2) {
    clauses.push_back({"Role" + std::to_string(i),
                       "Role" + std::to_string(i + 1)});
  }
  policy::Policy pred = policy::Policy::FromDnfClauses(clauses);
  std::vector<std::uint8_t> msg = {'p', 'a', 'i', 'r'};
  auto sig = abs::Abs::Sign(mvk, sk, msg, pred, &rng);

  // Warm once so attribute-table construction is not billed to the row.
  Sink(abs::Abs::Verify(mvk, msg, pred, *sig));

  int iters = fast ? 2 : 8;
  double prepared = TimeMs(iters, [&] {
    Sink(abs::Abs::Verify(mvk, msg, pred, *sig));
  });
  Report("abs_verify_prepared_len12", prepared);
}

void BenchAbsBatchVerify(bool fast) {
  std::printf("ABS batch verify: n signatures, one final exponentiation\n");
  crypto::Rng rng(13);
  abs::MasterKey msk;
  abs::VerifyKey mvk;
  abs::Abs::Setup(&rng, &msk, &mvk);
  policy::RoleSet universe;
  for (int i = 0; i < 16; ++i) universe.insert("Role" + std::to_string(i));
  abs::SigningKey sk = abs::Abs::KeyGen(msk, universe, &rng);
  std::vector<policy::Clause> clauses;
  for (int i = 0; i + 1 < 12; i += 2) {
    clauses.push_back({"Role" + std::to_string(i),
                       "Role" + std::to_string(i + 1)});
  }
  policy::Policy pred = policy::Policy::FromDnfClauses(clauses);

  std::size_t max_n = fast ? 8 : 128;
  std::vector<std::vector<std::uint8_t>> msgs;
  std::vector<abs::Signature> sigs;
  for (std::size_t k = 0; k < max_n; ++k) {
    std::string m = "m" + std::to_string(k);
    msgs.emplace_back(m.begin(), m.end());
    sigs.push_back(*abs::Abs::Sign(mvk, sk, msgs.back(), pred, &rng));
  }
  Sink(abs::Abs::Verify(mvk, msgs[0], pred, sigs[0]));  // warm the tables

  for (std::size_t n : {std::size_t{8}, std::size_t{32}, std::size_t{128}}) {
    if (n > max_n) break;
    int iters = fast ? 1 : 3;
    double ms = TimeMs(iters, [&] {
      abs::BatchAccumulator acc(mvk);
      crypto::Rng wrng;
      for (std::size_t k = 0; k < n; ++k) {
        acc.Accumulate(msgs[k], pred, sigs[k], &wrng);
      }
      Sink(acc.Check());
    });
    char row[64];
    std::snprintf(row, sizeof(row), "abs_batch_verify_n%zu", n);
    Report(row, ms);
  }
}

void BenchRangeVoVerify(bool fast) {
  std::printf("range-VO verification: exact reference vs whole-VO batch\n");
  core::Domain domain{/*dims=*/1, /*bits=*/6};
  core::DataOwner owner(policy::RoleSet{"RoleA", "RoleB"}, domain, 20260807);
  std::vector<core::Record> records;
  int n = fast ? 12 : 48;
  for (int k = 0; k < n; ++k) {
    records.push_back(core::Record{
        core::Point{static_cast<std::uint32_t>(k)}, "v" + std::to_string(k),
        policy::Policy::Parse((k % 3 == 0) ? "RoleA" : "RoleA & RoleB")});
  }
  core::ServiceProvider sp(owner.keys(), owner.BuildAds(records));
  core::UserCredentials creds = owner.EnrollUser({"RoleA"});
  const core::SystemKeys& keys = owner.keys();
  core::Box range{core::Point{0}, core::Point{static_cast<std::uint32_t>(n - 1)}};
  core::Vo vo = sp.RangeQuery(range, creds.roles);

  auto verify = [&](const core::Vo& v) {
    Sink(core::VerifyRangeVoEx(keys.mvk, keys.domain, range, creds.roles,
                               keys.universe, v, nullptr));
  };

  // The serial row pins the exact reference arm (one per-column pairing
  // product per equation, per signature) so the batched row below has a
  // same-run baseline.
  int iters = fast ? 1 : 5;
  double serial;
  {
    core::ScopedPerSignatureVerify reference;
    serial = TimeMs(iters, [&] { verify(vo); });
  }
  Report("range_vo_verify_serial", serial);

  double batched = TimeMs(iters, [&] { verify(vo); });
  Report("range_vo_verify_batched", batched);
  Speedup("range_vo_batch_speedup", serial, batched);

  // Failure path: one tampered record forces the whole-batch check to fail
  // and the prefix bisection to recover the blamed index.
  core::Vo tampered = vo;
  for (auto& entry : tampered.entries) {
    if (auto* res = std::get_if<core::ResultEntry>(&entry)) {
      res->value += "-tampered";
      break;
    }
  }
  double bisect = TimeMs(iters, [&] { verify(tampered); });
  Report("batch_bisect_tamper_1", bisect);
}

}  // namespace

int main(int argc, char** argv) {
  apqa::bench::EnableJsonFromArgs(argc, argv);
  apqa::bench::PrintHeader("Pairing micro",
                           "prepared-pairing verification engine ablation");
  bool fast = apqa::bench::FastMode();
  Rng rng(20260807);
  int iters = fast ? 2 : 10;
  BenchMillerLoop(&rng, iters);
  BenchFinalExp(&rng, iters);
  BenchPairing(&rng, iters);
  BenchFp12Mul(&rng, fast ? 100 : 2000);
  BenchMultiPairing(&rng, fast);
  BenchAbsVerify(fast);
  BenchAbsBatchVerify(fast);
  BenchRangeVoVerify(fast);
  return 0;
}
