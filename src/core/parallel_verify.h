// The user-side verifier skeleton and its whole-VO signature batch.
//
// The paper's user-side check is one algorithm for every query shape
// (Algorithms 1, 3 and 4, §9, Appendix E): check the VO's claims, verify the
// ABS signatures, release only the rows those signatures cover. RunVerifier
// is that algorithm; each Verify*Ex supplies only its structural walk and
// the row each queued signature job releases. RunVerifier fixes the order:
//   1. CheckFreshness on every stamp of the VO (one for most VOs, two for a
//      join, N for a multi-join) — a replayed VO fails kStaleEpoch before
//      any structural or signature work. SigBatch is constructible only by
//      RunVerifier, after this gate, so no verifier can reorder it;
//   2. the walk: the cheap structural checks (query validity, coverage, key
//      agreement, policy evaluation) serially in entry order, queueing one
//      SigBatch job per ABS check; its first failure is the structural
//      verdict, and jobs queued before it still run;
//   3. SigBatch::FirstFailure over the queued jobs;
//   4. release of the rows attached to jobs below EmitLimit, in job order;
//   5. the batch failure if any (it precedes the structural failure in the
//      sequential order), else the structural verdict.
//
// The batch folds ALL queued signatures, however many, into one
// abs::BatchAccumulator — the library's one implementation of the folded
// ABS equation: one G1 MSM per shared prepared G2 base, the message-side G2
// MSMs, and a single final exponentiation for the entire VO.
//
// Blame stays byte-identical to the sequential verifier. Jobs are queued in
// the exact order the sequential verifier would have evaluated them, and
// FirstFailure reports the *lowest* failing job index:
//   - structural failures (component counts, Y at infinity) are found
//     deterministically while accumulating and bound the batch to the jobs
//     before them;
//   - if the whole-batch check fails, a prefix bisection (log2 n re-batches,
//     each over ~half the remaining range) recovers the lowest
//     cryptographically failing index — same index the sequential verifier
//     would return, up to the 2^-128 batching soundness bound.
// The reference arm runs one exact Abs::Verify per job (every W and column
// equation as its own pairing product) serially, stopping at the first
// failure. Exact-mode callers and anything under a ScopedPerSignatureVerify
// guard take it; it shares no folding code with the batch it checks.
//
// Thread-safety: jobs only read the VO, the verify key's prepared tables
// (immutable once built; the attribute memo is mutex-guarded), and
// per-call randomness. The batch's MSMs fan out over the pool with each task
// writing a disjoint slot, so the fan-out is TSan-clean by construction.
// Rows are released on the calling thread after the batch has run.
#ifndef APQA_CORE_PARALLEL_VERIFY_H_
#define APQA_CORE_PARALLEL_VERIFY_H_

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "abs/abs.h"
#include "abs/batch_verify.h"
#include "core/app_signature.h"
#include "core/thread_pool.h"
#include "core/verify_result.h"

namespace apqa::core {

// RAII guard forcing SigBatch::FirstFailure onto the exact reference arm for
// the current thread. Used by benches (to keep measuring the pre-batching
// baseline) and by tests comparing the two arms.
class ScopedPerSignatureVerify {
 public:
  ScopedPerSignatureVerify() { ++depth_; }
  ~ScopedPerSignatureVerify() { --depth_; }
  ScopedPerSignatureVerify(const ScopedPerSignatureVerify&) = delete;
  ScopedPerSignatureVerify& operator=(const ScopedPerSignatureVerify&) =
      delete;
  static bool Active() { return depth_ > 0; }

 private:
  static inline thread_local int depth_ = 0;
};

class SigBatch;

// Structural walk of one verifier: validates the query and coverage, queues
// the VO's ABS checks into the batch, and returns the first structural
// failure (or Ok).
using VoWalk = std::function<VerifyResult(SigBatch&)>;

// Runs one verifier on the skeleton above: checks every stamp in `stamps`
// against `expected_epoch`, runs `walk` on a fresh SigBatch, verifies the
// queued signatures (over `pool` when given), releases the covered rows and
// returns the verdict.
inline VerifyResult RunVerifier(const abs::VerifyKey& mvk,
                                const std::vector<const EpochStamp*>& stamps,
                                std::uint64_t expected_epoch,
                                bool exact_pairings, ThreadPool* pool,
                                const VoWalk& walk);

class SigBatch {
 public:
  // Row release of one job: runs iff this job and every job queued before
  // it verified.
  using Release = std::function<void()>;

  // Queues one ABS check in sequential-verifier order. `policy` and `sig`
  // must outlive the RunVerifier call (they point into the VO or at a
  // caller-owned super policy); `on_fail` is the exact VerifyResult the
  // sequential verifier would return if this check fails; `release` emits
  // the row this signature covers.
  void Add(std::vector<std::uint8_t> msg, const policy::Policy* policy,
           const abs::Signature* sig, VerifyResult on_fail,
           Release release = {}) {
    jobs_.push_back(Job{std::move(msg), policy, sig, std::move(on_fail),
                        std::move(release)});
  }

 private:
  friend VerifyResult RunVerifier(const abs::VerifyKey&,
                                  const std::vector<const EpochStamp*>&,
                                  std::uint64_t, bool, ThreadPool*,
                                  const VoWalk&);

  SigBatch(const abs::VerifyKey& mvk, bool exact_pairings)
      : mvk_(mvk), exact_(exact_pairings) {}
  SigBatch(const SigBatch&) = delete;
  SigBatch& operator=(const SigBatch&) = delete;

  // Runs the queued checks; returns the lowest failing job index, or -1 if
  // all pass. Default: whole-VO batch with bisect blame recovery; exact
  // mode and ScopedPerSignatureVerify run the reference arm.
  std::ptrdiff_t FirstFailure(ThreadPool* pool) const {
    if (exact_ || ScopedPerSignatureVerify::Active()) {
      return ReferenceFirstFailure();
    }

    // Accumulate in sequential order until the first structural failure:
    // the sequential verifier never evaluates anything past it, so jobs
    // beyond `s` are irrelevant to blame and emission.
    const std::size_t n = jobs_.size();
    abs::Rng rng;
    abs::BatchAccumulator acc(mvk_);
    std::size_t s = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (!acc.Accumulate(jobs_[i].msg, *jobs_[i].policy, *jobs_[i].sig,
                          &rng)) {
        s = i;
        break;
      }
    }
    if (acc.Check(MakeRunner(pool))) {
      // Everything before the structural failure (or everything, s == n)
      // verifies — whp the lowest failure is the structural one.
      return s == n ? -1 : static_cast<std::ptrdiff_t>(s);
    }
    return Bisect(pool, s);
  }

  // Jobs strictly below this index succeeded; used for partial-result
  // emission after a failure (matching the sequential verifier, which
  // emits an entry's results only once all its checks have passed).
  std::size_t EmitLimit(std::ptrdiff_t first_failure) const {
    return first_failure >= 0 ? static_cast<std::size_t>(first_failure)
                              : jobs_.size();
  }

  struct Job {
    std::vector<std::uint8_t> msg;
    const policy::Policy* policy;
    const abs::Signature* sig;
    VerifyResult on_fail;
    Release release;
  };

  static abs::BatchAccumulator::ParallelRunner MakeRunner(ThreadPool* pool) {
    if (pool == nullptr || pool->thread_count() <= 1) return {};
    return [pool](std::size_t n,
                  const std::function<void(std::size_t)>& task) {
      pool->ParallelFor(n, task);
    };
  }

  // Re-batches jobs [lo, hi) with fresh weights; true iff the range passes.
  // Structural validity of every job in the range is already established by
  // the first accumulation pass.
  bool RangePasses(ThreadPool* pool, std::size_t lo, std::size_t hi) const {
    abs::Rng rng;
    abs::BatchAccumulator acc(mvk_);
    for (std::size_t i = lo; i < hi; ++i) {
      acc.Accumulate(jobs_[i].msg, *jobs_[i].policy, *jobs_[i].sig, &rng);
    }
    return acc.Check(MakeRunner(pool));
  }

  // The batch over [0, hi) failed, so the lowest failing index lies in
  // [0, hi). Prefix bisection: checking [lo, mid) either clears it (lowest
  // failure moves to [mid, hi)) or tightens to [lo, mid). log2 n re-batches
  // totalling ~hi extra accumulations — paid only on the failure path.
  std::ptrdiff_t Bisect(ThreadPool* pool, std::size_t hi) const {
    std::size_t lo = 0;
    while (hi - lo > 1) {
      std::size_t mid = lo + (hi - lo) / 2;
      if (RangePasses(pool, lo, mid)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return static_cast<std::ptrdiff_t>(lo);
  }

  // Reference arm: one exact Abs::Verify per job, serially, stopping at the
  // first failure.
  std::ptrdiff_t ReferenceFirstFailure() const {
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const Job& j = jobs_[i];
      if (!abs::Abs::Verify(mvk_, j.msg, *j.policy, *j.sig, /*exact=*/true)) {
        return static_cast<std::ptrdiff_t>(i);
      }
    }
    return -1;
  }

  const abs::VerifyKey& mvk_;
  bool exact_;
  std::vector<Job> jobs_;
};

inline VerifyResult RunVerifier(const abs::VerifyKey& mvk,
                                const std::vector<const EpochStamp*>& stamps,
                                std::uint64_t expected_epoch,
                                bool exact_pairings, ThreadPool* pool,
                                const VoWalk& walk) {
  for (const EpochStamp* stamp : stamps) {
    if (VerifyResult f = CheckFreshness(mvk, *stamp, expected_epoch);
        !f.ok()) {
      return f;
    }
  }
  SigBatch batch(mvk, exact_pairings);
  VerifyResult struct_fail = walk(batch);
  std::ptrdiff_t bad = batch.FirstFailure(pool);
  std::size_t emit = batch.EmitLimit(bad);
  for (std::size_t i = 0; i < emit; ++i) {
    if (batch.jobs_[i].release) batch.jobs_[i].release();
  }
  if (bad >= 0) return batch.jobs_[static_cast<std::size_t>(bad)].on_fail;
  return struct_fail;
}

}  // namespace apqa::core

#endif  // APQA_CORE_PARALLEL_VERIFY_H_
