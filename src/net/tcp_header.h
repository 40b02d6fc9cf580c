// TCP header (RFC 793) with the options TCP/HACK must preserve end-to-end:
// MSS, window scale, SACK-permitted, SACK blocks (RFC 2018) and timestamps
// (RFC 7323). The paper requires the compressed-ACK encoding to carry "the
// full generality of information that may potentially be found in a TCP ACK"
// — so this struct is the single source of truth: the ACK the ROHC
// decompressor rebuilds must serialise to the vanilla ACK's bytes. Headers
// travel as structs; nothing parses serialised bytes back.
#ifndef SRC_NET_TCP_HEADER_H_
#define SRC_NET_TCP_HEADER_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <vector>

#include "src/net/address.h"
#include "src/util/bitio.h"
#include "src/util/logging.h"

namespace hacksim {

struct TcpTimestamps {
  uint32_t tsval = 0;
  uint32_t tsecr = 0;
  friend bool operator==(const TcpTimestamps&, const TcpTimestamps&) = default;
};

struct SackBlock {
  uint32_t start = 0;  // left edge (inclusive)
  uint32_t end = 0;    // right edge (exclusive)
  friend bool operator==(const SackBlock&, const SackBlock&) = default;
};

// Fixed-capacity SACK block list with inline storage: building or copying a
// TCP header never allocates (the former std::vector was the one heap
// allocation on the MakeTcp path). Capacity covers both limits in play —
// a real header fits at most 4 blocks in its 40-byte option space (3 with
// timestamps), and a ROHC refresh record carries at most
// kMaxSackBlocksInRefresh = 7.
class SackList {
 public:
  static constexpr size_t kCapacity = 7;

  SackList() = default;
  SackList(std::initializer_list<SackBlock> blocks) {
    for (const SackBlock& b : blocks) {
      push_back(b);
    }
  }

  void push_back(const SackBlock& b) {
    CHECK_LT(size_, kCapacity) << "SACK list overflow";
    blocks_[size_++] = b;
  }
  void clear() { size_ = 0; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const SackBlock* data() const { return blocks_.data(); }
  SackBlock* data() { return blocks_.data(); }
  const SackBlock* begin() const { return blocks_.data(); }
  const SackBlock* end() const { return blocks_.data() + size_; }
  SackBlock* begin() { return blocks_.data(); }
  SackBlock* end() { return blocks_.data() + size_; }
  const SackBlock& operator[](size_t i) const { return blocks_[i]; }
  SackBlock& operator[](size_t i) { return blocks_[i]; }

  friend bool operator==(const SackList& a, const SackList& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  std::array<SackBlock, kCapacity> blocks_{};
  uint8_t size_ = 0;
};

struct TcpHeader {
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint32_t seq = 0;
  uint32_t ack = 0;
  bool flag_syn = false;
  bool flag_fin = false;
  bool flag_rst = false;
  bool flag_psh = false;
  bool flag_ack = false;
  uint16_t window = 0;

  // Options. MSS / window scale / SACK-permitted are legal on SYN segments
  // only; serialisation enforces this.
  std::optional<uint16_t> mss;
  std::optional<uint8_t> window_scale;
  bool sack_permitted = false;
  std::optional<TcpTimestamps> timestamps;
  SackList sack_blocks;  // at most 3 when timestamps present

  // 20 bytes + options, padded to a multiple of 4 (data offset units).
  size_t HeaderBytes() const;

  void Serialize(ByteWriter& writer) const;

  // A "pure ACK" is what HACK may compress: ACK set, no payload implied by
  // caller, and no SYN/FIN/RST semantics.
  bool IsPureAckShape() const {
    return flag_ack && !flag_syn && !flag_fin && !flag_rst;
  }

  friend bool operator==(const TcpHeader&, const TcpHeader&) = default;
};

}  // namespace hacksim

#endif  // SRC_NET_TCP_HEADER_H_
