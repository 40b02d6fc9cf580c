// The simulator's packet: a structured header stack plus a synthetic payload
// length. Headers are real structs with byte-exact sizes (tests compare
// their serialised bytes; nothing parses them back); payload bytes are not
// materialised — only their count matters for airtime, queueing and goodput.
//
// Packets are value types stored by value in queues and safe to retain for
// link-layer retransmission — but the hot path never copies them: every
// queue handoff (device -> HACK agent -> MAC queue -> frame) moves, which
// transfers the header storage pointer-for-pointer. Copies are reserved for
// deliberate retention (MAC retransmission buffers, the opportunistic HACK
// race).
//
// Header storage is arena-pooled: the three header structs live in a
// HeaderBlock drawn from a process-lifetime free-list slab, so MakeTcp /
// MakeUdp are allocation-free in steady state (SACK blocks are inline in
// the TCP header — see SackList — so a block has no secondary
// allocations). A Packet itself is four words; moves swap one pointer.
//
// The free list and the uid counter are thread_local: each thread owns a
// private pool, so concurrent RunScenario calls (the campaign engine,
// src/scenario/campaign.h) never contend or interleave. A Packet must be
// released on the thread that built it — true by construction, since a
// simulation run lives entirely on one worker thread.
#ifndef SRC_PACKET_PACKET_H_
#define SRC_PACKET_PACKET_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/net/address.h"
#include "src/net/ipv4_header.h"
#include "src/net/tcp_header.h"
#include "src/net/udp_header.h"
#include "src/sim/sim_time.h"

namespace hacksim {

class Packet {
 public:
  Packet() = default;
  Packet(const Packet& other) { CopyFrom(other); }
  Packet& operator=(const Packet& other) {
    if (this != &other) {
      ReleaseBlock();
      CopyFrom(other);
    }
    return *this;
  }
  // Moves must stay noexcept so containers relocate rather than copy.
  Packet(Packet&& other) noexcept
      : uid_(other.uid_),
        created_at_(other.created_at_),
        block_(other.block_),
        payload_bytes_(other.payload_bytes_) {
    other.block_ = nullptr;
  }
  Packet& operator=(Packet&& other) noexcept {
    if (this != &other) {
      ReleaseBlock();
      uid_ = other.uid_;
      created_at_ = other.created_at_;
      block_ = other.block_;
      payload_bytes_ = other.payload_bytes_;
      other.block_ = nullptr;
    }
    return *this;
  }
  ~Packet() { ReleaseBlock(); }

  // --- builders -----------------------------------------------------------
  static Packet MakeTcp(Ipv4Address src, Ipv4Address dst, TcpHeader tcp,
                        uint32_t payload_bytes);
  static Packet MakeUdp(Ipv4Address src, Ipv4Address dst, uint16_t src_port,
                        uint16_t dst_port, uint32_t payload_bytes);

  // --- header access ------------------------------------------------------
  bool has_ip() const { return block_ != nullptr && block_->ip.has_value(); }
  bool has_tcp() const {
    return block_ != nullptr && block_->tcp.has_value();
  }
  bool has_udp() const {
    return block_ != nullptr && block_->udp.has_value();
  }
  const Ipv4Header& ip() const { return *block_->ip; }
  Ipv4Header& mutable_ip() { return *block_->ip; }
  const TcpHeader& tcp() const { return *block_->tcp; }
  TcpHeader& mutable_tcp() { return *block_->tcp; }
  const UdpHeader& udp() const { return *block_->udp; }

  uint32_t payload_bytes() const { return payload_bytes_; }

  // Total IP datagram size: IP header + transport header + payload.
  size_t SizeBytes() const;

  // True for a TCP segment with no payload and plain ACK semantics — the
  // packets HACK is allowed to compress into link-layer ACKs.
  bool IsPureTcpAck() const {
    return has_tcp() && payload_bytes_ == 0 && block_->tcp->IsPureAckShape();
  }

  // Flow key in the direction this packet travels.
  FiveTuple Flow() const;

  // --- bookkeeping --------------------------------------------------------
  uint64_t uid() const { return uid_; }
  SimTime created_at() const { return created_at_; }
  void set_created_at(SimTime t) { created_at_ = t; }

 private:
  // Pooled header storage. Blocks come from slabs that stay reachable (via
  // a process-lifetime slab registry — see packet.cc) forever, so neither
  // static-destruction order nor a worker thread exiting can invalidate a
  // live Packet. The free list itself is thread_local: every thread recycles
  // only its own blocks, so N concurrent simulation runs share nothing and
  // need no atomics on this path.
  struct HeaderBlock {
    std::optional<Ipv4Header> ip;
    std::optional<TcpHeader> tcp;
    std::optional<UdpHeader> udp;
    HeaderBlock* next_free = nullptr;
  };

  static HeaderBlock* AllocBlock();
  static constinit thread_local HeaderBlock* free_blocks_;

  void ReleaseBlock() {
    if (block_ != nullptr) {
      // All three header types are trivially destructible (SACK storage is
      // inline), so a reset is a flag store and the block is immediately
      // reusable.
      block_->ip.reset();
      block_->tcp.reset();
      block_->udp.reset();
      block_->next_free = free_blocks_;
      free_blocks_ = block_;
      block_ = nullptr;
    }
  }
  void CopyFrom(const Packet& other) {
    uid_ = other.uid_;
    created_at_ = other.created_at_;
    payload_bytes_ = other.payload_bytes_;
    if (other.block_ != nullptr) {
      block_ = AllocBlock();
      block_->ip = other.block_->ip;
      block_->tcp = other.block_->tcp;
      block_->udp = other.block_->udp;
    } else {
      block_ = nullptr;
    }
  }

  // Monotonic uid source for the builders. `constinit` proves constant
  // initialisation — no static-initialisation-order hazard even when a
  // Packet is built from another translation unit's static initialiser.
  // thread_local: uids are unique within a thread (which is all the code
  // ever relies on — uids only back same-run equality checks, never
  // ordering), so concurrent runs need no atomic increment and a run's
  // behaviour is identical whether it executes serially or on a worker.
  static constinit thread_local uint64_t next_uid_;

  uint64_t uid_ = 0;
  SimTime created_at_;
  HeaderBlock* block_ = nullptr;
  uint32_t payload_bytes_ = 0;
};

}  // namespace hacksim

#endif  // SRC_PACKET_PACKET_H_
