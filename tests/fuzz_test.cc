// Deterministic fuzzing of the HACK record parsers, the only code that
// consumes bytes off the air: corrupted or random input must never crash,
// hang or be silently accepted as valid where integrity checks exist.
#include <gtest/gtest.h>

#include "src/net/tcp_header.h"
#include "src/rohc/compressed_ack.h"
#include "src/rohc/rohc.h"
#include "src/sim/random.h"

namespace hacksim {
namespace {

std::vector<uint8_t> RandomBytes(Random& rng, size_t max_len) {
  std::vector<uint8_t> out(rng.NextBounded(max_len + 1));
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  return out;
}

class FuzzSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzSeeds, RandomBytesNeverCrashParsers) {
  Random rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    std::vector<uint8_t> bytes = RandomBytes(rng, 128);
    {
      ByteReader r(bytes);
      (void)CompressedAckRecord::Deserialize(r);
    }
    (void)SplitHackPayload(bytes);
  }
}

TEST_P(FuzzSeeds, BitFlippedRecordsNeverApplySilently) {
  // Flip bits in valid compressed records; the decompressor must either
  // reject them (malformed / CRC / duplicate) or produce a packet — but a
  // packet only when the flip happened to keep the CRC-3 consistent, which
  // the CRC coverage bounds at ~1/8 of single-bit flips.
  Random rng(GetParam());
  RohcCompressor comp;
  RohcDecompressor decomp;

  TcpHeader tcp;
  tcp.src_port = 6000;
  tcp.dst_port = 5000;
  tcp.seq = 1;
  tcp.ack = 1000;
  tcp.flag_ack = true;
  tcp.window = 32768;
  tcp.timestamps = TcpTimestamps{100, 200};
  Packet base = Packet::MakeTcp(Ipv4Address::FromOctets(10, 0, 2, 1),
                                Ipv4Address::FromOctets(10, 0, 0, 1), tcp, 0);
  decomp.NoteVanillaAck(base);

  int accepted_corrupt = 0;
  int total_flips = 0;
  for (int round = 0; round < 100; ++round) {
    tcp.ack += 2920;
    Packet ack = Packet::MakeTcp(Ipv4Address::FromOctets(10, 0, 2, 1),
                                 Ipv4Address::FromOctets(10, 0, 0, 1), tcp,
                                 0);
    RohcCompressor::Result c = comp.Compress(ack);
    ASSERT_FALSE(c.bytes.empty());
    std::vector<uint8_t> corrupted = c.bytes;
    size_t byte = rng.NextBounded(corrupted.size());
    corrupted[byte] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
    ++total_flips;
    ByteReader r(corrupted);
    auto rec = CompressedAckRecord::Deserialize(r);
    if (rec.has_value() && r.AtEnd()) {
      auto result = decomp.Decompress(*rec);
      if (result.status == RohcDecompressor::Status::kOk) {
        ++accepted_corrupt;
      }
    }
    // Keep the decompressor in sync for the next round regardless.
    decomp.NoteVanillaAck(ack);
    comp.ForceRefresh(ack.Flow());
  }
  // CRC-3 plus structural checks should catch the large majority.
  EXPECT_LT(accepted_corrupt, total_flips / 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Values(101, 202, 303));

}  // namespace
}  // namespace hacksim
