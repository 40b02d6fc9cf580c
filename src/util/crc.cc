#include "src/util/crc.h"

#include <array>

namespace hacksim {
namespace {

// The register after eight MSB-first steps over byte `i` from zero, kept in
// the top three bits of a byte, so the polynomial's x + 1 taps sit at 0x60.
constexpr std::array<uint8_t, 256> MakeCrc3Table() {
  std::array<uint8_t, 256> table{};
  for (int i = 0; i < 256; ++i) {
    uint8_t r = static_cast<uint8_t>(i);
    for (int bit = 0; bit < 8; ++bit) {
      r = static_cast<uint8_t>((r & 0x80) ? (r << 1) ^ 0x60 : r << 1);
    }
    table[i] = static_cast<uint8_t>(r >> 5);
  }
  return table;
}

constexpr std::array<uint8_t, 256> kCrc3Table = MakeCrc3Table();

}  // namespace

uint8_t Crc3Rohc(std::span<const uint8_t> data) {
  // A byte's eight steps from register `crc` equal those from zero over
  // the byte with `crc` XORed into its top three bits.
  uint8_t crc = 0x7;
  for (uint8_t byte : data) {
    crc = kCrc3Table[byte ^ (crc << 5)];
  }
  return crc;
}

}  // namespace hacksim
