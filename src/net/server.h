// SpServer: the fault-tolerant query service wrapped around a
// core::ServiceProvider.
//
// One session thread per attached transport receives frames; request
// handling is pushed onto a bounded ThreadPool queue. The failure story,
// in order of the request path:
//
//   * undecodable frame            → counted, dropped (like a lost datagram;
//                                    replying to garbage ids helps nobody)
//   * server draining              → kShuttingDown error (retryable)
//   * queue full                   → kRetryLater error + backoff hint (shed)
//   * deadline passed in queue     → kDeadlineExceeded error, the query is
//                                    never executed (processing work the
//                                    client has given up on is pure waste)
//   * malformed / out-of-domain    → kBadRequest error (fatal for client)
//   * handler threw                → kInternal error
//   * success                      → kVoResponse / kJoinVoResponse
//
// Stop() is drain-then-stop: new requests are refused, every *accepted*
// request is answered, then sessions are closed and joined. The invariant
// the shutdown tests assert: accepted == served + expired + failed.
#ifndef APQA_NET_SERVER_H_
#define APQA_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/lock_rank.h"
#include "core/sp_storage.h"
#include "core/system.h"
#include "core/thread_pool.h"
#include "net/frame.h"
#include "net/transport.h"

namespace apqa::net {

struct SpServerOptions {
  int worker_threads = 2;
  // Bounded request queue; TrySubmit beyond this sheds with kRetryLater.
  std::size_t max_queue = 8;
  // Backoff hint attached to kRetryLater / kShuttingDown responses.
  std::uint32_t backoff_hint_ms = 25;
  // Session-loop poll granularity: how quickly a session notices Stop().
  std::uint32_t recv_poll_ms = 50;
  // Optional durable state store (must outlive the server). When set, every
  // applied update is journaled *before* its ack goes out — under sp_mu_,
  // so WAL order equals apply order — and Stop() writes a final snapshot
  // once the drain completes. A journal append failure downgrades the ack
  // to a retryable error: the DO keeps pushing until the bytes are durable
  // (kAlreadyApplied absorbs the re-apply).
  core::SpStateStore* state_store = nullptr;
};

// Monotonic counters, `accepted` splitting exactly into
// served+expired+failed, plus the `sessions` gauge.
struct ServerStats {
  std::uint64_t accepted = 0;   // queued for a worker
  std::uint64_t served = 0;     // answered with a VO or an update ack
  std::uint64_t expired = 0;    // answered kDeadlineExceeded from the queue
  std::uint64_t failed = 0;     // answered kBadRequest / kInternal, or a
                                // journal-failure kRetryLater after accept
  std::uint64_t shed = 0;       // answered kRetryLater (queue full)
  std::uint64_t refused = 0;    // answered kShuttingDown (draining)
  std::uint64_t malformed = 0;  // undecodable frames dropped
  // Informational slice of `served`: kAdsUpdate frames answered with an
  // ack, split by whether the delta advanced the tree. A rejected delta
  // (kEpochGap / kBadPatch / bad auth) still counts as served — the frame
  // was processed and answered — so the accepted invariant is unchanged.
  std::uint64_t updates_applied = 0;
  std::uint64_t updates_rejected = 0;
  // Gauge, not a counter: sessions the server holds a thread for — live
  // ones plus any that ended since the last AttachTransport reaped them.
  // 0 after Stop().
  std::uint64_t sessions = 0;
};

class SpServer {
 public:
  // `sp` must outlive the server. ServiceProvider is not internally
  // synchronized (shared Rng), so query execution is serialized with a
  // mutex; workers still overlap on framing, checksums, and (de)serialization.
  explicit SpServer(core::ServiceProvider* sp, SpServerOptions opts = {});
  ~SpServer();

  SpServer(const SpServer&) = delete;
  SpServer& operator=(const SpServer&) = delete;

  // Spawns a session thread serving frames from `t` until Stop() or the
  // peer closes, first joining and dropping every session that has ended.
  // Returns false once Stop() has begun.
  bool AttachTransport(std::shared_ptr<Transport> t);

  // Drain-then-stop: idempotent and safe under concurrent callers — the
  // first caller tears down (writing a final snapshot when a state store is
  // configured), later callers block until teardown completes.
  void Stop();

  bool draining() const { return draining_.load(std::memory_order_relaxed); }
  ServerStats stats() const;

 private:
  // Frames travel the whole handling path inside the taint wrapper: only
  // the validated envelope fields are projected out (net/frame.h), and the
  // payload escapes solely through ValidateQueryRequest / the SP's
  // authenticated-apply gate.
  void SessionLoop(const std::shared_ptr<Transport>& t);
  void HandleFrame(const std::shared_ptr<Transport>& t,
                   common::Untrusted<Frame> frame);
  // Runs on a pool worker: deadline check, decode, execute, reply.
  void Process(const std::shared_ptr<Transport>& t,
               const common::Untrusted<Frame>& frame,
               std::uint64_t arrival_ms);
  // kAdsUpdate path: strict decode → authenticated apply under sp_mu_ →
  // kUpdateAck carrying the outcome and the SP's post-frame epoch.
  void ProcessUpdate(const std::shared_ptr<Transport>& t,
                     const common::Untrusted<Frame>& frame);
  void ReplyError(const std::shared_ptr<Transport>& t,
                  std::uint64_t request_id, const ErrorInfo& info);

  core::ServiceProvider* sp_;
  SpServerOptions opts_;
  core::ThreadPool pool_;
  // Serializes ServiceProvider query/update execution. Rank kServerSp: the
  // SP fans VO construction out over its pool and signs lazily, so pool and
  // signing/attr-cache locks nest *inside* this one (see common/lock_rank.h).
  common::RankedMutex<common::LockRank::kServerSp> sp_mu_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};

  // One attached transport and the thread serving it. The thread starts
  // last, so emplace_back either registers a running session or throws with
  // nothing started. `done` is set once SessionLoop has returned, so the
  // thread joins at once.
  struct Session {
    Session(SpServer* server, std::shared_ptr<Transport> t)
        : transport(std::move(t)),
          done(std::make_shared<std::atomic<bool>>(false)),
          thread([server, tr = transport, flag = done] {
            server->SessionLoop(tr);
            flag->store(true);
          }) {}

    std::shared_ptr<Transport> transport;
    std::shared_ptr<std::atomic<bool>> done;
    std::thread thread;
  };

  // Guards the session registry; always held alone (rank kServerSessions
  // sits below kServerSp so holding it across a query would trip lockdep,
  // not deadlock silently).
  common::RankedMutex<common::LockRank::kServerSessions> sessions_mu_;
  std::vector<Session> sessions_;
  std::atomic<std::uint64_t> session_count_{0};  // sessions_.size()

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> refused_{0};
  std::atomic<std::uint64_t> malformed_{0};
  std::atomic<std::uint64_t> updates_applied_{0};
  std::atomic<std::uint64_t> updates_rejected_{0};
};

}  // namespace apqa::net

#endif  // APQA_NET_SERVER_H_
