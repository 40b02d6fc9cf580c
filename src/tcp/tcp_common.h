// Shared TCP machinery: configuration, 32-bit sequence arithmetic and the
// timestamp clock. The TCP model is deliberately faithful where the paper's
// dynamics depend on it: delayed ACKs (1 per 2 segments — the assumption
// behind every capacity figure), fast retransmit with RFC 6675 SACK loss
// recovery (HACK must preserve dupacks; §6 criticises prior work for
// breaking them), RFC 6298 retransmission timeouts (the §3.2 stall scenario)
// and RFC 7323 timestamps (the 52-byte ACKs of Table 2, and §5's
// timestamp-echo future-work variant). Both endpoints always negotiate SACK
// and timestamps, as the paper's Linux stacks did.
#ifndef SRC_TCP_TCP_COMMON_H_
#define SRC_TCP_TCP_COMMON_H_

#include <cstdint>
#include <functional>

#include "src/sim/sim_time.h"

namespace hacksim {

// Serial-number arithmetic on 32-bit sequence space.
inline bool Seq32Lt(uint32_t a, uint32_t b) {
  return static_cast<int32_t>(a - b) < 0;
}
inline bool Seq32Le(uint32_t a, uint32_t b) {
  return static_cast<int32_t>(a - b) <= 0;
}
inline bool Seq32Gt(uint32_t a, uint32_t b) { return Seq32Lt(b, a); }
inline bool Seq32Ge(uint32_t a, uint32_t b) { return Seq32Le(b, a); }
inline uint32_t Seq32Max(uint32_t a, uint32_t b) {
  return Seq32Gt(a, b) ? a : b;
}

inline constexpr uint32_t kTcpInitialCwndSegments = 10;
inline constexpr uint8_t kTcpWindowScale = 7;

// Delayed ACK (RFC 1122 / 5681): one ACK per kTcpDelayedAckSegments full
// segments, or after kTcpDelayedAckTimeout, whichever first.
inline constexpr uint32_t kTcpDelayedAckSegments = 2;
inline constexpr SimTime kTcpDelayedAckTimeout = SimTime::Millis(40);

// RTO per RFC 6298 with Linux-like floor.
inline constexpr SimTime kTcpRtoInitial = SimTime::Seconds(1);
inline constexpr SimTime kTcpRtoMin = SimTime::Millis(200);
inline constexpr SimTime kTcpRtoMax = SimTime::Seconds(60);

// Timestamp clock granularity (Linux: 1 ms).
inline constexpr SimTime kTcpTsGranularity = SimTime::Millis(1);

// Advertised receive window: the 2014-era Linux default (tcp_rmem max
// ~208-256 KB untuned). It bounds the slow-start overshoot into the AP's
// 126-packet queue exactly as the paper's stacks did.
inline constexpr uint32_t kTcpReceiveWindowBytes = 256 * 1024;

struct TcpConfig {
  uint32_t mss = 1460;            // payload bytes per segment

  // DSCP/ToS stamped on every segment and ACK of the flow (both directions
  // use the same config). Under EDCA the MAC classifies it via AcForTos —
  // 0xC0 puts the flow in VO, the HACK-vs-EDCA interaction workload. The
  // default 0 (BE) keeps every legacy scenario byte-identical.
  uint8_t tos = 0;
};

// Millisecond timestamp-option clock.
inline uint32_t TsClock(SimTime now) {
  return static_cast<uint32_t>(now.ns() / 1'000'000);
}

}  // namespace hacksim

#endif  // SRC_TCP_TCP_COMMON_H_
