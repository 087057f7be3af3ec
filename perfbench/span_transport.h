// Benchmark-side Transport decorator: per-request timestamps at the wire.
//
// One SpanTable serves one connection (a client endpoint and the server
// endpoint it talks to). The client-side decorator stamps its Send and Recv,
// the server-side one stamps its Recv and Send, all against the same
// steady clock, keyed by the frame's request id (ids are unique within a
// connection, not across connections). From the four stamps:
//
//   transport  = (server recv - client send) + (client recv - server send)
//   residency  =  server send - server recv   (queue, lock, construct,
//                                              serialize, frame encode)
//
// Send stamps are taken *before* the inner Send, Recv stamps *after* a frame
// is in hand, so the two intervals tile [client send, client recv].
//
// Without a table, or while its table is switched off, the decorator only
// remembers the last response's payload size and request id (read back by
// the single client thread after each call) and reads no clock: that is the
// tracing-off configuration.
#ifndef APQA_PERFBENCH_SPAN_TRANSPORT_H_
#define APQA_PERFBENCH_SPAN_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/frame.h"
#include "net/transport.h"

namespace perfbench {

inline double NowMs() {
  static const auto kStart = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - kStart)
      .count();
}

// Stamps of one request; -1 marks a stamp that never happened.
struct RequestSpans {
  double client_send = -1;
  double server_recv = -1;
  double server_send = -1;
  double client_recv = -1;

  bool complete() const {
    return client_send >= 0 && server_recv >= 0 && server_send >= 0 &&
           client_recv >= 0;
  }
  double transport_ms() const {
    return (server_recv - client_send) + (client_recv - server_send);
  }
  double residency_ms() const { return server_send - server_recv; }
};

class SpanTable {
 public:
  enum class Stamp { kClientSend, kServerRecv, kServerSend, kClientRecv };

  // Switched on only for the traced half of a traced run.
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

  void Note(Stamp stamp, std::uint64_t request_id, double t_ms) {
    std::lock_guard lock(mu_);
    RequestSpans& s = spans_[request_id];
    switch (stamp) {
      case Stamp::kClientSend: s.client_send = t_ms; break;
      case Stamp::kServerRecv: s.server_recv = t_ms; break;
      case Stamp::kServerSend: s.server_send = t_ms; break;
      case Stamp::kClientRecv: s.client_recv = t_ms; break;
    }
  }

  // Removes and returns the stamps of `request_id`.
  RequestSpans Take(std::uint64_t request_id) {
    std::lock_guard lock(mu_);
    RequestSpans s;
    auto it = spans_.find(request_id);
    if (it != spans_.end()) {
      s = it->second;
      spans_.erase(it);
    }
    return s;
  }

 private:
  std::atomic<bool> on_{false};
  std::mutex mu_;
  std::unordered_map<std::uint64_t, RequestSpans> spans_;
};

// Header fields read straight off the wire bytes (layout in net/frame.h:
// request id at offset 6, payload length at offset 18, little-endian).
inline std::uint64_t FrameBytesRequestId(const std::vector<std::uint8_t>& f) {
  std::uint64_t id = 0;
  if (f.size() < apqa::net::kFrameHeaderBytes) return 0;
  for (int i = 7; i >= 0; --i) id = (id << 8) | f[6 + i];
  return id;
}

inline std::size_t FrameBytesPayloadLength(
    const std::vector<std::uint8_t>& f) {
  if (f.size() < apqa::net::kFrameHeaderBytes) return 0;
  std::uint32_t n = 0;
  for (int i = 3; i >= 0; --i) n = (n << 8) | f[18 + i];
  return n;
}

class SpanTransport : public apqa::net::Transport {
 public:
  // `table` may be null (never traced). `client_side` picks the stamps.
  SpanTransport(std::shared_ptr<apqa::net::Transport> inner,
                std::shared_ptr<SpanTable> table, bool client_side)
      : inner_(std::move(inner)),
        table_(std::move(table)),
        client_side_(client_side) {}

  bool Send(const std::vector<std::uint8_t>& frame) override {
    if (table_ != nullptr && table_->on()) {
      table_->Note(client_side_ ? SpanTable::Stamp::kClientSend
                                : SpanTable::Stamp::kServerSend,
                   FrameBytesRequestId(frame), NowMs());
    }
    return inner_->Send(frame);
  }

  apqa::net::RecvStatus Recv(std::vector<std::uint8_t>* frame,
                       std::uint32_t timeout_ms) override {
    apqa::net::RecvStatus st = inner_->Recv(frame, timeout_ms);
    if (st != apqa::net::RecvStatus::kOk) return st;
    std::uint64_t id = FrameBytesRequestId(*frame);
    if (table_ != nullptr && table_->on()) {
      table_->Note(client_side_ ? SpanTable::Stamp::kClientRecv
                                : SpanTable::Stamp::kServerRecv,
                   id, NowMs());
    }
    if (client_side_) {
      last_request_id_ = id;
      last_payload_bytes_ = FrameBytesPayloadLength(*frame);
    }
    return st;
  }

  void Close() override { inner_->Close(); }

  // Client side only, read by the thread that issues the calls.
  std::uint64_t last_request_id() const { return last_request_id_; }
  std::size_t last_payload_bytes() const { return last_payload_bytes_; }

 private:
  std::shared_ptr<apqa::net::Transport> inner_;
  std::shared_ptr<SpanTable> table_;
  bool client_side_;
  std::uint64_t last_request_id_ = 0;
  std::size_t last_payload_bytes_ = 0;
};

}  // namespace perfbench

#endif  // APQA_PERFBENCH_SPAN_TRANSPORT_H_
