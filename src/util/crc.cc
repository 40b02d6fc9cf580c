#include "src/util/crc.h"

namespace hacksim {

uint8_t Crc3Rohc(std::span<const uint8_t> data) {
  // Bit-serial CRC-3 with polynomial x^3 + x + 1 (0b011 taps), init 0x7,
  // processing bytes MSB-first as RFC 5795 specifies.
  uint8_t crc = 0x7;
  for (uint8_t byte : data) {
    for (int bit = 7; bit >= 0; --bit) {
      uint8_t in = (byte >> bit) & 1;
      uint8_t top = (crc >> 2) & 1;
      crc = static_cast<uint8_t>((crc << 1) & 0x7);
      if (in ^ top) {
        crc ^= 0x3;  // x + 1 taps; bit 0 enters as the feedback bit
      }
    }
  }
  return crc;
}

}  // namespace hacksim
