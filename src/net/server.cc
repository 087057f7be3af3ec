#include "net/server.h"

#include <chrono>
#include <exception>

#include "common/serde.h"

namespace apqa::net {

namespace {

std::uint64_t NowMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Request types a session admits: the three queries plus DO update frames
// (everything else arriving at a server is either a response type echoed
// back by a confused peer or garbage — dropped like an undecodable frame).
bool IsRequestType(MsgType t) {
  return t == MsgType::kEqualityQuery || t == MsgType::kRangeQuery ||
         t == MsgType::kJoinQuery || t == MsgType::kAdsUpdate;
}

}  // namespace

SpServer::SpServer(core::ServiceProvider* sp, SpServerOptions opts)
    : sp_(sp),
      opts_(opts),
      pool_(opts.worker_threads, opts.max_queue) {}

SpServer::~SpServer() { Stop(); }

bool SpServer::AttachTransport(std::shared_ptr<Transport> t) {
  std::lock_guard lock(sessions_mu_);
  if (draining_.load()) return false;
  // Reap ended sessions: their loop has returned and closed the transport,
  // so the join is immediate and a long-running server holds a thread only
  // for connections still open.
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->done->load()) {
      it->thread.join();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
  sessions_.emplace_back(this, std::move(t));
  session_count_.store(sessions_.size());
  return true;
}

void SpServer::Stop() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) {
    // Second caller (e.g. the destructor after an explicit Stop, or a
    // signal handler racing a clean shutdown): block until the first
    // finishes tearing down instead of sleep-polling.
    stopped_.wait(false);
    return;
  }
  // Phase 1: draining_ makes sessions refuse new work; every request
  // already accepted gets answered.
  pool_.WaitAll();
  // Phase 2: with the drain complete and no worker touching the tree,
  // persist a final snapshot so restart skips the whole WAL replay. A
  // failed snapshot is not an error here — the WAL already holds every
  // acked update, so recovery reaches the same epoch the long way.
  if (opts_.state_store != nullptr) {
    std::lock_guard lock(sp_mu_);
    // discard-ok: snapshot failure leaves old snapshot + WAL authoritative.
    (void)opts_.state_store->SaveSnapshot(sp_->tree());
  }
  // Phase 3: wake the sessions out of Recv and join them.
  stopping_.store(true);
  std::vector<Session> sessions;
  {
    std::lock_guard lock(sessions_mu_);
    sessions.swap(sessions_);
  }
  for (Session& s : sessions) s.transport->Close();
  for (Session& s : sessions) s.thread.join();
  session_count_.store(0);
  pool_.Stop();
  stopped_.store(true);
  stopped_.notify_all();
}

ServerStats SpServer::stats() const {
  ServerStats s;
  s.accepted = accepted_.load();
  s.served = served_.load();
  s.expired = expired_.load();
  s.failed = failed_.load();
  s.shed = shed_.load();
  s.refused = refused_.load();
  s.malformed = malformed_.load();
  s.updates_applied = updates_applied_.load();
  s.updates_rejected = updates_rejected_.load();
  s.sessions = session_count_.load();
  return s;
}

void SpServer::SessionLoop(const std::shared_ptr<Transport>& t) {
  std::vector<std::uint8_t> buf;
  while (!stopping_.load()) {
    RecvStatus st = t->Recv(&buf, opts_.recv_poll_ms);
    if (st == RecvStatus::kTimeout) continue;
    if (st == RecvStatus::kClosed || st == RecvStatus::kError) break;
    common::Untrusted<Frame> frame;
    if (DecodeFrame(buf, &frame) != FrameDecodeError::kOk ||
        !IsRequestType(FrameType(frame))) {
      malformed_.fetch_add(1);
      continue;
    }
    HandleFrame(t, std::move(frame));
  }
  // Nobody reads this transport any more (peer gone, desynchronized stream
  // or shutdown): close it so the peer sees kClosed at once instead of
  // writing into an undrained socket until its deadline. Close is
  // idempotent, so Stop() closing every transport again is harmless.
  t->Close();
}

void SpServer::HandleFrame(const std::shared_ptr<Transport>& t,
                           common::Untrusted<Frame> frame) {
  if (draining_.load()) {
    refused_.fetch_add(1);
    ReplyError(t, FrameRequestId(frame),
               {RpcErrorCode::kShuttingDown, opts_.backoff_hint_ms,
                "server draining"});
    return;
  }
  std::uint64_t arrival_ms = NowMs();
  std::uint64_t request_id = FrameRequestId(frame);
  bool queued = pool_.TrySubmit(
      [this, t, frame = std::move(frame), arrival_ms]() mutable {
        Process(t, frame, arrival_ms);
      });
  if (!queued) {
    shed_.fetch_add(1);
    ReplyError(t, request_id,
               {RpcErrorCode::kRetryLater, opts_.backoff_hint_ms,
                "request queue full"});
    return;
  }
  accepted_.fetch_add(1);
}

void SpServer::Process(const std::shared_ptr<Transport>& t,
                       const common::Untrusted<Frame>& frame,
                       std::uint64_t arrival_ms) {
  std::uint64_t request_id = FrameRequestId(frame);
  MsgType type = FrameType(frame);
  // A request that outlived its deadline while queued is answered, not
  // executed: the client has moved on, and executing it would only delay
  // requests that are still live.
  std::uint32_t deadline_ms = FrameDeadlineMs(frame);
  if (deadline_ms > 0 && NowMs() - arrival_ms >= deadline_ms) {
    expired_.fetch_add(1);
    ReplyError(t, request_id,
               {RpcErrorCode::kDeadlineExceeded, 0, "expired in queue"});
    return;
  }

  if (type == MsgType::kAdsUpdate) {
    ProcessUpdate(t, frame);
    return;
  }

  common::Untrusted<QueryRequest> tainted_req;
  if (!DecodeQueryPayload(frame, &tainted_req)) {
    failed_.fetch_add(1);
    ReplyError(t, request_id,
               {RpcErrorCode::kBadRequest, 0, "query payload failed to parse"});
    return;
  }
  // The declassification gate of the query path: the request only escapes
  // the taint wrapper once its geometry is validated against the domain.
  QueryRequest req;
  if (!ValidateQueryRequest(tainted_req, sp_->keys().domain, &req)) {
    failed_.fetch_add(1);
    ReplyError(t, request_id,
               {RpcErrorCode::kBadRequest, 0, "query outside domain"});
    return;
  }

  Frame resp;
  resp.request_id = request_id;
  try {
    common::ByteWriter w;
    if (type == MsgType::kJoinQuery) {
      core::JoinVo vo;
      {
        std::lock_guard lock(sp_mu_);
        vo = sp_->JoinQuery(req.range, req.roles);
      }
      vo.Serialize(&w);
      resp.type = MsgType::kJoinVoResponse;
    } else {
      core::Vo vo;
      {
        std::lock_guard lock(sp_mu_);
        vo = type == MsgType::kEqualityQuery
                 ? sp_->EqualityQuery(req.key, req.roles)
                 : sp_->RangeQuery(req.range, req.roles);
      }
      vo.Serialize(&w);
      resp.type = MsgType::kVoResponse;
    }
    resp.payload = w.Take();
  } catch (const std::exception& e) {
    failed_.fetch_add(1);
    ReplyError(t, request_id, {RpcErrorCode::kInternal, 0, e.what()});
    return;
  }
  served_.fetch_add(1);
  t->Send(EncodeFrame(resp));
}

void SpServer::ProcessUpdate(const std::shared_ptr<Transport>& t,
                             const common::Untrusted<Frame>& frame) {
  std::uint64_t request_id = FrameRequestId(frame);
  common::Untrusted<core::SignedAdsUpdate> update;
  if (!DecodeAdsUpdatePayload(frame, &update)) {
    failed_.fetch_add(1);
    ReplyError(t, request_id,
               {RpcErrorCode::kBadRequest, 0,
                "update payload failed to parse"});
    return;
  }
  UpdateAck ack;
  bool journal_ok = true;
  {
    // Same lock as query execution: a query never observes a half-applied
    // tree, and the ack's epoch is the epoch queries actually serve at.
    // ApplyAdsUpdate's Untrusted overload is the declassification gate (DO
    // signature check before any tree mutation).
    std::lock_guard lock(sp_mu_);
    // untrusted-ok: peeking the claimed target epoch only to decide whether
    // to journal; acceptance is decided by the authenticated apply below.
    std::uint64_t to_epoch = update.Unvalidated().delta.to_epoch;
    ack.status = sp_->ApplyAdsUpdate(update);
    ack.epoch = sp_->epoch();
    // Journal-before-ack, under the same lock, so WAL order equals apply
    // order. kAlreadyApplied is journaled only when the WAL could have
    // missed it (applied earlier but the journal append failed, so the DO
    // retried): the durable-epoch gate catches exactly that corner.
    if (opts_.state_store != nullptr &&
        (ack.status == core::ApplyStatus::kApplied ||
         (ack.status == core::ApplyStatus::kAlreadyApplied &&
          to_epoch > opts_.state_store->durable_epoch()))) {
      // untrusted-ok: journaling the exact bytes the apply above just
      // authenticated; replay re-verifies them through the same gate.
      journal_ok = opts_.state_store->AppendApplied(
          frame.Unvalidated().payload, to_epoch);
    }
  }
  if (!journal_ok) {
    // Applied in memory but not durable: answer retryable so the DO pushes
    // the same delta again (kAlreadyApplied + the durable-epoch gate turn
    // the retry into a pure re-journal).
    failed_.fetch_add(1);
    ReplyError(t, request_id,
               {RpcErrorCode::kRetryLater, opts_.backoff_hint_ms,
                "state journal append failed"});
    return;
  }
  if (ack.status == core::ApplyStatus::kApplied) {
    updates_applied_.fetch_add(1);
  } else if (ack.status != core::ApplyStatus::kAlreadyApplied) {
    updates_rejected_.fetch_add(1);
  }
  Frame resp;
  resp.type = MsgType::kUpdateAck;
  resp.request_id = request_id;
  resp.payload = EncodeUpdateAckPayload(ack);
  served_.fetch_add(1);
  t->Send(EncodeFrame(resp));
}

void SpServer::ReplyError(const std::shared_ptr<Transport>& t,
                          std::uint64_t request_id, const ErrorInfo& info) {
  Frame f;
  f.type = MsgType::kError;
  f.request_id = request_id;
  f.payload = EncodeErrorPayload(info);
  t->Send(EncodeFrame(f));
}

}  // namespace apqa::net
