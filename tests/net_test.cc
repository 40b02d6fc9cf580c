// Unit tests: addresses, the MD5-derived ROHC CID, and byte-exact header
// serialisation for IPv4 / TCP (with options) / UDP.
#include <gtest/gtest.h>

#include <vector>

#include "src/net/address.h"
#include "src/net/ipv4_header.h"
#include "src/net/tcp_header.h"
#include "src/net/udp_header.h"

namespace hacksim {
namespace {

TEST(AddressTest, Ipv4Formatting) {
  EXPECT_EQ(Ipv4Address::FromOctets(10, 0, 2, 1).ToString(), "10.0.2.1");
  EXPECT_EQ(Ipv4Address::FromOctets(255, 255, 255, 255).value(), 0xFFFFFFFFu);
}

TEST(AddressTest, MacFormatting) {
  EXPECT_EQ(MacAddress::ForStation(1).ToString(), "02:00:00:00:00:01");
  EXPECT_TRUE(MacAddress::Broadcast().IsBroadcast());
  EXPECT_FALSE(MacAddress::ForStation(3).IsBroadcast());
}

TEST(AddressTest, FiveTupleReversal) {
  FiveTuple t{Ipv4Address::FromOctets(1, 2, 3, 4),
              Ipv4Address::FromOctets(5, 6, 7, 8), 1000, 2000, 6};
  FiveTuple r = t.Reversed();
  EXPECT_EQ(r.src_ip, t.dst_ip);
  EXPECT_EQ(r.dst_port, t.src_port);
  EXPECT_EQ(r.Reversed(), t);
}

TEST(AddressTest, RohcCidIsDeterministicAndDirectional) {
  FiveTuple t{Ipv4Address::FromOctets(10, 0, 0, 1),
              Ipv4Address::FromOctets(10, 0, 2, 1), 5000, 6000, 6};
  EXPECT_EQ(t.RohcCid(), t.RohcCid());
  // Different flows should usually map to different CIDs (not guaranteed —
  // just check these particular ones do, as a change detector).
  FiveTuple u = t;
  u.src_port = 5001;
  EXPECT_NE(t.RohcCid(), u.RohcCid());
}

TEST(AddressTest, CidDistributionCoversSpace) {
  // Hash 512 flows; a healthy MD5 low byte should hit > 200 distinct CIDs.
  std::set<uint8_t> seen;
  for (int i = 0; i < 512; ++i) {
    FiveTuple t{Ipv4Address::FromOctets(10, 0, 0, 1),
                Ipv4Address::FromOctets(10, 0, 2, 1),
                static_cast<uint16_t>(5000 + i), 6000, 6};
    seen.insert(t.RohcCid());
  }
  EXPECT_GT(seen.size(), 200u);
}

// Serialises `h` and checks the byte count against its HeaderBytes().
template <typename Header>
std::vector<uint8_t> SerializedBytes(const Header& h) {
  ByteWriter w;
  h.Serialize(w);
  EXPECT_EQ(w.size(), h.HeaderBytes());
  return std::move(w).Take();
}

// --- IPv4 ------------------------------------------------------------------------

// RFC 791 layout: version/IHL, ToS, total length, identification,
// flags/fragment offset (DF = 0x4000), TTL, protocol, header checksum,
// source, destination. The checksum is the RFC 1071 sum of the ten
// 16-bit words with the checksum field zeroed.
TEST(Ipv4HeaderTest, GoldenBytesWithChecksum) {
  Ipv4Header h;
  h.tos = 0x10;
  h.total_length = 1512;
  h.identification = 77;
  h.dont_fragment = true;
  h.ttl = 64;
  h.protocol = kIpProtoTcp;
  h.src = Ipv4Address::FromOctets(10, 0, 0, 1);
  h.dst = Ipv4Address::FromOctets(10, 0, 2, 5);
  // 4510 + 05e8 + 004d + 4000 + 4006 + 0a00 + 0001 + 0a00 + 0205 = e151,
  // complemented: 1eae.
  std::vector<uint8_t> want = {
      0x45, 0x10, 0x05, 0xe8, 0x00, 0x4d, 0x40, 0x00, 0x40, 0x06,
      0x1e, 0xae, 0x0a, 0x00, 0x00, 0x01, 0x0a, 0x00, 0x02, 0x05};
  EXPECT_EQ(SerializedBytes(h), want);
}

TEST(Ipv4HeaderTest, GoldenBytesChecksumFoldsCarries) {
  // A UDP datagram 192.168.0.1 -> 192.168.0.199: the word sum 2479c folds
  // to 479e, complemented b861.
  Ipv4Header h;
  h.total_length = 0x73;
  h.protocol = kIpProtoUdp;
  h.src = Ipv4Address::FromOctets(192, 168, 0, 1);
  h.dst = Ipv4Address::FromOctets(192, 168, 0, 199);
  std::vector<uint8_t> want = {
      0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11,
      0xb8, 0x61, 0xc0, 0xa8, 0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7};
  EXPECT_EQ(SerializedBytes(h), want);
}

TEST(Ipv4HeaderTest, InternetChecksumKnownVector) {
  // RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> checksum 0x220d.
  uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(InternetChecksum(data), 0x220d);
}

// --- TCP --------------------------------------------------------------------------

TcpHeader MakePlainAck() {
  TcpHeader t;
  t.src_port = 6000;
  t.dst_port = 5000;
  t.seq = 1;
  t.ack = 14601;
  t.flag_ack = true;
  t.window = 32768;
  return t;
}

TEST(TcpHeaderTest, PlainHeaderIs20Bytes) {
  TcpHeader t = MakePlainAck();
  EXPECT_EQ(t.HeaderBytes(), 20u);
  ByteWriter w;
  t.Serialize(w);
  EXPECT_EQ(w.size(), 20u);
}

TEST(TcpHeaderTest, TimestampAckIs32Bytes) {
  // The paper's Table 2 has 52-byte ACK packets: 20 IP + 32 TCP.
  TcpHeader t = MakePlainAck();
  t.timestamps = TcpTimestamps{123456, 654321};
  EXPECT_EQ(t.HeaderBytes(), 32u);
}

// RFC 793 layout: ports, sequence and acknowledgment numbers, data offset
// in 32-bit words (high nibble), control bits (FIN 0x01, SYN 0x02, RST 0x04,
// PSH 0x08, ACK 0x10), window, checksum and urgent pointer (both zero:
// the checksum is not modelled), then options padded with End of Option
// List (kind 0) to a multiple of four bytes.
TEST(TcpHeaderTest, GoldenBytesPlainAck) {
  std::vector<uint8_t> want = {
      0x17, 0x70, 0x13, 0x88,  // ports 6000 -> 5000
      0x00, 0x00, 0x00, 0x01,  // seq 1
      0x00, 0x00, 0x39, 0x09,  // ack 14601
      0x50, 0x10,              // 5 words, ACK
      0x80, 0x00,              // window 32768
      0x00, 0x00, 0x00, 0x00};
  EXPECT_EQ(SerializedBytes(MakePlainAck()), want);
}

TEST(TcpHeaderTest, GoldenBytesTimestampAckWithThreeSackBlocks) {
  TcpHeader t = MakePlainAck();
  t.timestamps = TcpTimestamps{11, 22};
  t.sack_blocks = {{30000, 31460}, {35000, 36460}, {40000, 41460}};
  std::vector<uint8_t> want = {
      0x17, 0x70, 0x13, 0x88, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x39, 0x09,
      0xf0, 0x10,              // 15 words (60 bytes), ACK
      0x80, 0x00, 0x00, 0x00, 0x00, 0x00,
      // RFC 7323 timestamps: NOP, NOP, kind 8, length 10, TSval, TSecr.
      0x01, 0x01, 0x08, 0x0a,
      0x00, 0x00, 0x00, 0x0b,
      0x00, 0x00, 0x00, 0x16,
      // RFC 2018 SACK: NOP, NOP, kind 5, length 2 + 8 * 3 = 26, blocks.
      0x01, 0x01, 0x05, 0x1a,
      0x00, 0x00, 0x75, 0x30, 0x00, 0x00, 0x7a, 0xe4,  // 30000-31460
      0x00, 0x00, 0x88, 0xb8, 0x00, 0x00, 0x8e, 0x6c,  // 35000-36460
      0x00, 0x00, 0x9c, 0x40, 0x00, 0x00, 0xa1, 0xf4};  // 40000-41460
  EXPECT_EQ(SerializedBytes(t), want);
}

TEST(TcpHeaderTest, GoldenBytesSynWithAllOptions) {
  TcpHeader t;
  t.src_port = 5000;
  t.dst_port = 6000;
  t.seq = 0;
  t.flag_syn = true;
  t.window = 65535;
  t.mss = 1460;
  t.window_scale = 7;
  t.sack_permitted = true;
  t.timestamps = TcpTimestamps{1000, 0};
  std::vector<uint8_t> want = {
      0x13, 0x88, 0x17, 0x70, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xb0, 0x02,              // 11 words (44 bytes), SYN
      0xff, 0xff, 0x00, 0x00, 0x00, 0x00,
      0x02, 0x04, 0x05, 0xb4,  // MSS 1460
      0x04, 0x02,              // SACK permitted
      0x03, 0x03, 0x07,        // window scale 7
      0x01, 0x01, 0x08, 0x0a,  // timestamps: TSval 1000, TSecr 0
      0x00, 0x00, 0x03, 0xe8,
      0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00};       // 21 option bytes padded to 24
  EXPECT_EQ(SerializedBytes(t), want);
}

TEST(TcpHeaderTest, GoldenBytesEveryFlagMask) {
  for (int mask = 0; mask < 32; ++mask) {
    TcpHeader t;
    t.flag_fin = mask & 1;
    t.flag_syn = mask & 2;
    t.flag_rst = mask & 4;
    t.flag_psh = mask & 8;
    t.flag_ack = mask & 16;
    uint8_t control = (t.flag_fin ? 0x01 : 0) | (t.flag_syn ? 0x02 : 0) |
                      (t.flag_rst ? 0x04 : 0) | (t.flag_psh ? 0x08 : 0) |
                      (t.flag_ack ? 0x10 : 0);
    std::vector<uint8_t> want(20, 0);
    want[12] = 0x50;
    want[13] = control;
    EXPECT_EQ(SerializedBytes(t), want) << "mask=" << mask;
  }
}

TEST(TcpHeaderTest, PureAckShape) {
  TcpHeader t = MakePlainAck();
  EXPECT_TRUE(t.IsPureAckShape());
  t.flag_syn = true;
  EXPECT_FALSE(t.IsPureAckShape());
  t.flag_syn = false;
  t.flag_fin = true;
  EXPECT_FALSE(t.IsPureAckShape());
}

// --- UDP --------------------------------------------------------------------------

// RFC 768 layout: ports, length (header + payload), checksum (zero: not
// computed, which IPv4 allows).
TEST(UdpHeaderTest, GoldenBytes) {
  UdpHeader u;
  u.src_port = 7;
  u.dst_port = 9;
  u.length = 1480;
  std::vector<uint8_t> want = {0x00, 0x07, 0x00, 0x09, 0x05, 0xc8, 0x00, 0x00};
  EXPECT_EQ(SerializedBytes(u), want);
}

}  // namespace
}  // namespace hacksim
