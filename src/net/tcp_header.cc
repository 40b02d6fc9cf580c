#include "src/net/tcp_header.h"

#include "src/util/logging.h"

namespace hacksim {
namespace {

constexpr uint8_t kOptEnd = 0;
constexpr uint8_t kOptNop = 1;
constexpr uint8_t kOptMss = 2;
constexpr uint8_t kOptWScale = 3;
constexpr uint8_t kOptSackPermitted = 4;
constexpr uint8_t kOptSack = 5;
constexpr uint8_t kOptTimestamps = 8;

size_t OptionsBytesUnpadded(const TcpHeader& h) {
  size_t n = 0;
  if (h.mss.has_value()) {
    n += 4;
  }
  if (h.sack_permitted) {
    n += 2;
  }
  if (h.window_scale.has_value()) {
    n += 3;
  }
  if (h.timestamps.has_value()) {
    n += 12;  // conventional 2x NOP + 10-byte option
  }
  if (!h.sack_blocks.empty()) {
    n += 2 + 2 + 8 * h.sack_blocks.size();  // 2x NOP + kind/len + blocks
  }
  return n;
}

}  // namespace

size_t TcpHeader::HeaderBytes() const {
  size_t n = 20 + OptionsBytesUnpadded(*this);
  n = (n + 3) & ~size_t{3};
  CHECK_LE(n, 60u) << "TCP header overflow (too many options)";
  return n;
}

void TcpHeader::Serialize(ByteWriter& writer) const {
  if (mss.has_value() || window_scale.has_value() || sack_permitted) {
    CHECK(flag_syn) << "MSS/WScale/SACK-permitted are SYN-only options";
  }
  size_t header_bytes = HeaderBytes();
  writer.WriteU16Be(src_port);
  writer.WriteU16Be(dst_port);
  writer.WriteU32Be(seq);
  writer.WriteU32Be(ack);
  uint8_t offset_byte = static_cast<uint8_t>((header_bytes / 4) << 4);
  writer.WriteU8(offset_byte);
  uint8_t flags = 0;
  if (flag_fin) {
    flags |= 0x01;
  }
  if (flag_syn) {
    flags |= 0x02;
  }
  if (flag_rst) {
    flags |= 0x04;
  }
  if (flag_psh) {
    flags |= 0x08;
  }
  if (flag_ack) {
    flags |= 0x10;
  }
  writer.WriteU8(flags);
  writer.WriteU16Be(window);
  writer.WriteU16Be(0);  // checksum: not modelled at byte level in-sim
  writer.WriteU16Be(0);  // urgent pointer

  size_t options_start = writer.size();
  if (mss.has_value()) {
    writer.WriteU8(kOptMss);
    writer.WriteU8(4);
    writer.WriteU16Be(*mss);
  }
  if (sack_permitted) {
    writer.WriteU8(kOptSackPermitted);
    writer.WriteU8(2);
  }
  if (window_scale.has_value()) {
    writer.WriteU8(kOptWScale);
    writer.WriteU8(3);
    writer.WriteU8(*window_scale);
  }
  if (timestamps.has_value()) {
    writer.WriteU8(kOptNop);
    writer.WriteU8(kOptNop);
    writer.WriteU8(kOptTimestamps);
    writer.WriteU8(10);
    writer.WriteU32Be(timestamps->tsval);
    writer.WriteU32Be(timestamps->tsecr);
  }
  if (!sack_blocks.empty()) {
    writer.WriteU8(kOptNop);
    writer.WriteU8(kOptNop);
    writer.WriteU8(kOptSack);
    writer.WriteU8(static_cast<uint8_t>(2 + 8 * sack_blocks.size()));
    for (const SackBlock& block : sack_blocks) {
      writer.WriteU32Be(block.start);
      writer.WriteU32Be(block.end);
    }
  }
  size_t written = writer.size() - options_start;
  size_t want = header_bytes - 20;
  CHECK_LE(written, want);
  while (written < want) {
    writer.WriteU8(kOptEnd);
    ++written;
  }
}

}  // namespace hacksim
