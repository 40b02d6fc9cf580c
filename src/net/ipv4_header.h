// IPv4 header (RFC 791), no options. HeaderBytes() sizes packets, and so
// airtimes and compression ratios, as the paper's: a pure TCP ACK with
// timestamps is 20 + 32 = 52 bytes, exactly the 471120 / 9060 bytes-per-ACK
// ratio in Table 2. Headers travel as structs; Serialize writes the RFC 791
// bytes for tests to compare, and nothing parses them back.
#ifndef SRC_NET_IPV4_HEADER_H_
#define SRC_NET_IPV4_HEADER_H_

#include <cstdint>

#include "src/net/address.h"
#include "src/util/bitio.h"

namespace hacksim {

inline constexpr uint8_t kIpProtoTcp = 6;
inline constexpr uint8_t kIpProtoUdp = 17;

struct Ipv4Header {
  uint8_t tos = 0;
  uint16_t total_length = 0;  // header + payload, bytes
  uint16_t identification = 0;
  bool dont_fragment = true;
  uint8_t ttl = 64;
  uint8_t protocol = kIpProtoTcp;
  Ipv4Address src;
  Ipv4Address dst;

  static constexpr size_t kBytes = 20;
  size_t HeaderBytes() const { return kBytes; }

  // Serialises with a correct header checksum.
  void Serialize(ByteWriter& writer) const;

  // RFC 1071 ones'-complement sum over the 20-byte header with the checksum
  // field zeroed.
  uint16_t ComputeChecksum() const;

  friend bool operator==(const Ipv4Header&, const Ipv4Header&) = default;
};

// Ones'-complement checksum helper shared by IP/TCP/UDP.
uint16_t InternetChecksum(std::span<const uint8_t> data, uint32_t seed = 0);

}  // namespace hacksim

#endif  // SRC_NET_IPV4_HEADER_H_
