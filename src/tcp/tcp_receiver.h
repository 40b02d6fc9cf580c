// TCP bulk-data receiver: reassembly with out-of-order buffering, delayed
// ACKs (one per two segments — the paper's stated assumption), immediate
// dupacks on reordering/loss (which HACK must deliver intact to keep fast
// retransmit working), SACK block generation and RFC 7323 timestamp echo.
#ifndef SRC_TCP_TCP_RECEIVER_H_
#define SRC_TCP_TCP_RECEIVER_H_

#include <cstdint>
#include <functional>
#include <map>

#include "src/net/address.h"
#include "src/packet/packet.h"
#include "src/sim/scheduler.h"
#include "src/tcp/tcp_common.h"

namespace hacksim {

struct TcpReceiverStats {
  uint64_t segments_received = 0;
  uint64_t bytes_delivered = 0;
  uint64_t acks_sent = 0;
  uint64_t dupacks_sent = 0;
  uint64_t out_of_order_segments = 0;
  uint64_t delack_timer_fires = 0;

  friend bool operator==(const TcpReceiverStats&,
                         const TcpReceiverStats&) = default;
};

class TcpReceiver {
 public:
  // `flow` is the *data* direction (src = remote sender); ACKs flow along
  // flow.Reversed(). `send` hands ACK packets to the network.
  TcpReceiver(Scheduler* scheduler, TcpConfig config, FiveTuple flow,
              std::function<void(Packet)> send);

  void OnPacket(const Packet& packet);

  // In-order payload delivery: called with the byte count newly delivered.
  std::function<void(uint64_t bytes)> on_data;

  // Test hook: overrides the advertised window (bytes) per ACK index; used
  // to exercise ROHC's window-change encoding and a small-window flight.
  std::function<uint32_t(uint64_t ack_index)> window_override;

  bool established() const { return state_ == State::kEstablished; }
  uint64_t total_delivered() const { return stats_.bytes_delivered; }
  const TcpReceiverStats& stats() const { return stats_; }

 private:
  enum class State { kListen, kSynRcvd, kEstablished };

  void SendSynAck();
  void AcceptData(const Packet& packet);
  void MaybeSendAck(bool force_immediate);
  void SendAck();
  void OnDelackTimer();
  uint16_t AdvertisedWindowField() const;
  SackList BuildSackBlocks() const;

  Scheduler* scheduler_;
  TcpConfig config_;
  FiveTuple flow_;
  std::function<void(Packet)> send_;

  State state_ = State::kListen;
  uint32_t irs_ = 0;       // peer's initial seq
  uint32_t iss_ = 0;       // our initial seq
  uint32_t rcv_nxt_ = 0;
  uint32_t snd_nxt_ = 0;   // our (data-less) sequence
  uint32_t ts_recent_ = 0;
  uint32_t last_sacked_edge_ = 0;  // most recently arrived OOO block start

  // Out-of-order store: start -> end (exclusive), non-overlapping. The
  // comparator is a named type (not a header lambda) so the member's type
  // has proper linkage — a decltype(lambda) here trips GCC's
  // -Wsubobject-linkage in every including TU.
  struct Seq32Less {
    bool operator()(uint32_t a, uint32_t b) const { return Seq32Lt(a, b); }
  };
  std::map<uint32_t, uint32_t, Seq32Less> ooo_;

  uint32_t segments_since_ack_ = 0;
  EventId delack_event_ = kInvalidEventId;

  TcpReceiverStats stats_;
};

}  // namespace hacksim

#endif  // SRC_TCP_TCP_RECEIVER_H_
