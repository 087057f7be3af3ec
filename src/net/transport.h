// Message-oriented transport abstraction for the SP query service.
//
// A Transport moves whole frame buffers (see net/frame.h) between a client
// and a server endpoint. Implementations:
//   * PipeTransport   — in-process queue pair for deterministic tests;
//   * SocketTransport — POSIX TCP, the real deployment shape;
//   * FaultyTransport — chaos decorator injecting drops/corruption/etc.
//
// Send/Recv must be safe to call from different threads (the server answers
// from pool workers while its session thread keeps receiving), and Send must
// be safe to call concurrently from several threads on one endpoint.
#ifndef APQA_NET_TRANSPORT_H_
#define APQA_NET_TRANSPORT_H_

#include <cstdint>
#include <vector>

namespace apqa::net {

enum class RecvStatus : std::uint8_t {
  kOk = 0,
  kTimeout,  // no whole frame within the deadline; endpoint still usable
             // (a stream transport resumes a partial frame on the next Recv)
  kClosed,   // peer closed; no further frames will arrive
  kError,    // transport-level failure (I/O error, protocol desync)
};

inline const char* RecvStatusName(RecvStatus s) {
  switch (s) {
    case RecvStatus::kOk: return "ok";
    case RecvStatus::kTimeout: return "timeout";
    case RecvStatus::kClosed: return "closed";
    case RecvStatus::kError: return "error";
  }
  return "?";
}

class Transport {
 public:
  virtual ~Transport() = default;

  // Queues one frame buffer for the peer. Returns false when the endpoint
  // is closed or the write fails; a true return is *not* a delivery
  // guarantee (the frame may still be lost — that is what checksums,
  // request ids, and retries are for).
  virtual bool Send(const std::vector<std::uint8_t>& frame) = 0;

  // Blocks up to `timeout_ms` for one frame. On kOk, `*frame` holds the
  // received buffer (which may be corrupt — callers must DecodeFrame).
  virtual RecvStatus Recv(std::vector<std::uint8_t>* frame,
                          std::uint32_t timeout_ms) = 0;

  // Closes both directions; pending and future Recv calls return kClosed.
  virtual void Close() = 0;
};

}  // namespace apqa::net

#endif  // APQA_NET_TRANSPORT_H_
