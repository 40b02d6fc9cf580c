// ROHC CRC-3 (x^3+x+1): the per-compressed-ACK check (RFC 5795 §5.3.1.1)
// that ComputeAckCrc3 stamps on every record. It is the only checksum the
// simulator computes: FCS corruption is modelled by the PHY's loss verdicts,
// and the HACK payload envelope is a count byte followed by the records.
#ifndef SRC_UTIL_CRC_H_
#define SRC_UTIL_CRC_H_

#include <cstdint>
#include <span>

namespace hacksim {

// ROHC CRC-3: polynomial x^3 + x + 1 (0x3), init 0x7, each byte MSB-first
// (RFC 5795). Returns a value in [0, 7]. One lookup in a 256-entry table,
// built at compile time, per byte.
uint8_t Crc3Rohc(std::span<const uint8_t> data);

}  // namespace hacksim

#endif  // SRC_UTIL_CRC_H_
