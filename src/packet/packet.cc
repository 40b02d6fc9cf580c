#include "src/packet/packet.h"

#include <mutex>
#include <vector>

#include "src/util/logging.h"

namespace hacksim {
namespace {

// Every slab ever carved, by any thread, stays registered here for the
// whole process lifetime. This is what makes the thread_local free list
// safe: a worker thread's slabs outlive the thread (its unreturned blocks
// are merely lost capacity, not dangling memory), and LeakSanitizer sees
// the allocations as reachable. Only slab carving — once per 256 blocks —
// takes the lock; the per-packet alloc/release path never does.
std::mutex g_slab_registry_mu;
std::vector<void*>& SlabRegistry() {
  static std::vector<void*>* registry = new std::vector<void*>();  // immortal
  return *registry;
}

}  // namespace

constinit thread_local uint64_t Packet::next_uid_ = 1;
constinit thread_local Packet::HeaderBlock* Packet::free_blocks_ = nullptr;

Packet::HeaderBlock* Packet::AllocBlock() {
  if (free_blocks_ == nullptr) {
    // Carve a fresh slab and thread it onto this thread's free list. Slabs
    // live for the whole process (registered above, so not a leak to
    // LeakSanitizer even after the carving thread exits); in steady state
    // every Make* call is satisfied from recycled blocks with zero heap
    // traffic.
    constexpr size_t kSlabBlocks = 256;
    HeaderBlock* slab = new HeaderBlock[kSlabBlocks];
    {
      std::lock_guard<std::mutex> lock(g_slab_registry_mu);
      SlabRegistry().push_back(slab);
    }
    for (size_t i = 0; i < kSlabBlocks; ++i) {
      slab[i].next_free = free_blocks_;
      free_blocks_ = &slab[i];
    }
  }
  HeaderBlock* b = free_blocks_;
  free_blocks_ = b->next_free;
  return b;
}

Packet Packet::MakeTcp(Ipv4Address src, Ipv4Address dst, TcpHeader tcp,
                       uint32_t payload_bytes) {
  Packet p;
  p.uid_ = next_uid_++;
  p.block_ = AllocBlock();
  p.block_->tcp = std::move(tcp);
  p.payload_bytes_ = payload_bytes;
  Ipv4Header ip;
  ip.protocol = kIpProtoTcp;
  ip.src = src;
  ip.dst = dst;
  ip.identification = 0;  // pure-rate model; DF always set
  ip.total_length = static_cast<uint16_t>(Ipv4Header::kBytes +
                                          p.block_->tcp->HeaderBytes() +
                                          payload_bytes);
  p.block_->ip = ip;
  return p;
}

Packet Packet::MakeUdp(Ipv4Address src, Ipv4Address dst, uint16_t src_port,
                       uint16_t dst_port, uint32_t payload_bytes) {
  Packet p;
  p.uid_ = next_uid_++;
  p.block_ = AllocBlock();
  UdpHeader udp;
  udp.src_port = src_port;
  udp.dst_port = dst_port;
  udp.length = static_cast<uint16_t>(UdpHeader::kBytes + payload_bytes);
  p.block_->udp = udp;
  p.payload_bytes_ = payload_bytes;
  Ipv4Header ip;
  ip.protocol = kIpProtoUdp;
  ip.src = src;
  ip.dst = dst;
  ip.total_length =
      static_cast<uint16_t>(Ipv4Header::kBytes + udp.length);
  p.block_->ip = ip;
  return p;
}

size_t Packet::SizeBytes() const {
  size_t n = 0;
  if (has_ip()) {
    n += ip().HeaderBytes();
  }
  if (has_tcp()) {
    n += tcp().HeaderBytes();
  }
  if (has_udp()) {
    n += udp().HeaderBytes();
  }
  return n + payload_bytes_;
}

FiveTuple Packet::Flow() const {
  CHECK(has_ip());
  FiveTuple t;
  t.src_ip = ip().src;
  t.dst_ip = ip().dst;
  t.protocol = ip().protocol;
  if (has_tcp()) {
    t.src_port = tcp().src_port;
    t.dst_port = tcp().dst_port;
  } else if (has_udp()) {
    t.src_port = udp().src_port;
    t.dst_port = udp().dst_port;
  }
  return t;
}

}  // namespace hacksim
