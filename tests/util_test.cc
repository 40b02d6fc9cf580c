// Unit tests: MD5 (RFC 1321 vectors), ROHC CRC-3, byte IO, statistics.
#include <gtest/gtest.h>

#include <string>

#include "src/util/bitio.h"
#include "src/util/crc.h"
#include "src/util/md5.h"
#include "src/util/stats.h"

namespace hacksim {
namespace {

std::span<const uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

// --- MD5: the full RFC 1321 appendix A.5 test suite --------------------------

struct Md5Vector {
  const char* input;
  const char* digest;
};

class Md5VectorTest : public ::testing::TestWithParam<Md5Vector> {};

TEST_P(Md5VectorTest, MatchesRfc1321) {
  const Md5Vector& v = GetParam();
  EXPECT_EQ(Md5::ToHex(Md5::Hash(Bytes(v.input))), v.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc1321, Md5VectorTest,
    ::testing::Values(
        Md5Vector{"", "d41d8cd98f00b204e9800998ecf8427e"},
        Md5Vector{"a", "0cc175b9c0f1b6a831c399e269772661"},
        Md5Vector{"abc", "900150983cd24fb0d6963f7d28e17f72"},
        Md5Vector{"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
        Md5Vector{"abcdefghijklmnopqrstuvwxyz",
                  "c3fcd3d76192e4007dfb496cca67e13b"},
        Md5Vector{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz012345"
                  "6789",
                  "d174ab98d277d9f5a5611c2c9f419d9f"},
        Md5Vector{"1234567890123456789012345678901234567890123456789012345678"
                  "9012345678901234567890",
                  "57edf4a22be3c955ac49da2e2107b67a"}));

TEST(Md5Test, IncrementalMatchesOneShot) {
  std::string data(1000, 'x');
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>('a' + i % 26);
  }
  Md5 incremental;
  // Feed in awkward chunk sizes spanning block boundaries.
  size_t offset = 0;
  size_t chunk = 1;
  while (offset < data.size()) {
    size_t take = std::min(chunk, data.size() - offset);
    incremental.Update(Bytes(data.substr(offset, take)));
    offset += take;
    chunk = chunk * 2 + 1;
  }
  EXPECT_EQ(Md5::ToHex(incremental.Finish()),
            Md5::ToHex(Md5::Hash(Bytes(data))));
}

TEST(Md5Test, ExactBlockSizeInputs) {
  // 55/56/63/64/65 bytes hit every padding branch.
  for (size_t n : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string data(n, 'q');
    Md5 a;
    a.Update(Bytes(data));
    EXPECT_EQ(Md5::ToHex(a.Finish()), Md5::ToHex(Md5::Hash(Bytes(data))))
        << "n=" << n;
  }
}

TEST(Md5Test, ResetAllowsReuse) {
  Md5 hasher;
  hasher.Update(Bytes("abc"));
  (void)hasher.Finish();
  hasher.Reset();
  hasher.Update(Bytes("abc"));
  EXPECT_EQ(Md5::ToHex(hasher.Finish()),
            "900150983cd24fb0d6963f7d28e17f72");
}

// --- CRC ----------------------------------------------------------------------

TEST(CrcTest, Crc3InRange) {
  for (int i = 0; i < 64; ++i) {
    uint8_t data[5] = {static_cast<uint8_t>(i), 0x55, 0xAA,
                       static_cast<uint8_t>(i * 3), 0x01};
    EXPECT_LE(Crc3Rohc(data), 7);
  }
}

TEST(CrcTest, Crc3DetectsSingleBitFlips) {
  uint8_t data[8] = {0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0};
  uint8_t base = Crc3Rohc(data);
  int detected = 0;
  int total = 0;
  for (int byte = 0; byte < 8; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= 1 << bit;
      if (Crc3Rohc(data) != base) {
        ++detected;
      }
      ++total;
      data[byte] ^= 1 << bit;
    }
  }
  // A CRC-3 detects all single-bit errors.
  EXPECT_EQ(detected, total);
}

// --- ByteWriter / ByteReader -----------------------------------------------------

TEST(BitIoTest, RoundTripAllWidths) {
  ByteWriter w;
  w.WriteU8(0xAB);
  w.WriteU16Be(0x1234);
  w.WriteU32Be(0xDEADBEEF);
  w.WriteU16Le(0x5678);
  w.WriteU32Le(0xCAFEBABE);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.ReadU8(), 0xAB);
  EXPECT_EQ(r.ReadU16Be(), 0x1234);
  EXPECT_EQ(r.ReadU32Be(), 0xDEADBEEF);
  EXPECT_EQ(r.ReadU16Le(), 0x5678);
  EXPECT_EQ(r.ReadU32Le(), 0xCAFEBABE);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BitIoTest, ReadPastEndReturnsNullopt) {
  ByteWriter w;
  w.WriteU8(1);
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.ReadU8().has_value());
  EXPECT_FALSE(r.ReadU8().has_value());
  EXPECT_FALSE(r.ReadU16Be().has_value());
  EXPECT_FALSE(r.ReadU32Le().has_value());
  EXPECT_FALSE(r.ReadBytes(1).has_value());
}

TEST(BitIoTest, TruncatedMultiByteReadDoesNotConsume) {
  ByteWriter w;
  w.WriteU8(0x42);
  ByteReader r(w.bytes());
  EXPECT_FALSE(r.ReadU32Be().has_value());
  EXPECT_EQ(r.ReadU8(), 0x42);  // position unchanged by the failed read
}

TEST(BitIoTest, SkipAndRemaining) {
  std::vector<uint8_t> data(10, 7);
  ByteReader r(data);
  EXPECT_EQ(r.remaining(), 10u);
  EXPECT_TRUE(r.Skip(4));
  EXPECT_EQ(r.remaining(), 6u);
  EXPECT_FALSE(r.Skip(7));
  EXPECT_EQ(r.remaining(), 6u);
}

// --- RunningStats ----------------------------------------------------------------

TEST(StatsTest, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StatsTest, EmptyStatsAreZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

}  // namespace
}  // namespace hacksim
