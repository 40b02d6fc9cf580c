// Unit tests: MD5 (RFC 1321 vectors), ROHC CRC-3, byte IO, statistics.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/sim/random.h"
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

// The compressor and the decompressor call the same Crc3Rohc, so a wrong
// CRC still matches itself and no end-to-end digest can catch it. The
// bit-serial form below is the reference: polynomial x^3 + x + 1, init 0x7,
// each byte MSB-first (RFC 5795 §5.3.1.1).
uint8_t Crc3BitSerial(std::span<const uint8_t> data) {
  uint8_t crc = 0x7;
  for (uint8_t byte : data) {
    for (int bit = 7; bit >= 0; --bit) {
      uint8_t in = (byte >> bit) & 1;
      uint8_t top = (crc >> 2) & 1;
      crc = static_cast<uint8_t>((crc << 1) & 0x7);
      if (in ^ top) {
        crc ^= 0x3;
      }
    }
  }
  return crc;
}

TEST(CrcTest, Crc3MatchesBitSerialOnEveryShortInput) {
  EXPECT_EQ(Crc3Rohc({}), Crc3BitSerial({}));
  for (int a = 0; a < 256; ++a) {
    uint8_t one[1] = {static_cast<uint8_t>(a)};
    ASSERT_EQ(Crc3Rohc(one), Crc3BitSerial(one)) << a;
    for (int b = 0; b < 256; ++b) {
      uint8_t two[2] = {static_cast<uint8_t>(a), static_cast<uint8_t>(b)};
      ASSERT_EQ(Crc3Rohc(two), Crc3BitSerial(two)) << a << "," << b;
    }
  }
}

TEST(CrcTest, Crc3MatchesBitSerialOnRandomAckRecords) {
  // 19 bytes: the seq/ack/tsval/tsecr/window/MSN record ComputeAckCrc3 hashes.
  Random rng(19);
  uint8_t record[19];
  for (int i = 0; i < 20000; ++i) {
    for (uint8_t& byte : record) {
      byte = static_cast<uint8_t>(rng.NextU64());
    }
    ASSERT_EQ(Crc3Rohc(record), Crc3BitSerial(record)) << i;
  }
}

TEST(CrcTest, Crc3FixedVectors) {
  // Values of the bit-serial Crc3Rohc the simulator first shipped.
  std::vector<uint8_t> ramp(19);
  for (size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<uint8_t>(0x11 * i + 3);
  }
  struct Vector {
    std::vector<uint8_t> data;
    uint8_t crc;
  };
  const Vector vectors[] = {
      {{}, 7},
      {{0x00}, 5},
      {{0xFF}, 6},
      {{0x80}, 6},
      {{0x01}, 6},
      {{'1', '2', '3', '4', '5', '6', '7', '8', '9'}, 2},
      {{0xDE, 0xAD, 0xBE, 0xEF}, 3},
      {ramp, 1},
      {std::vector<uint8_t>(19, 0x00), 3},
      {std::vector<uint8_t>(19, 0xFF), 5},
  };
  for (const Vector& v : vectors) {
    EXPECT_EQ(Crc3Rohc(v.data), v.crc) << v.data.size() << " bytes";
  }
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
