#include "src/net/address.h"

#include <cstdio>

#include "src/util/md5.h"

namespace hacksim {

std::string Ipv4Address::ToString() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (value_ >> 24) & 0xFF,
                (value_ >> 16) & 0xFF, (value_ >> 8) & 0xFF, value_ & 0xFF);
  return buf;
}

std::string MacAddress::ToString() const {
  char buf[18];
  std::snprintf(buf, sizeof(buf), "%02x:%02x:%02x:%02x:%02x:%02x",
                static_cast<unsigned>((value_ >> 40) & 0xFF),
                static_cast<unsigned>((value_ >> 32) & 0xFF),
                static_cast<unsigned>((value_ >> 24) & 0xFF),
                static_cast<unsigned>((value_ >> 16) & 0xFF),
                static_cast<unsigned>((value_ >> 8) & 0xFF),
                static_cast<unsigned>(value_ & 0xFF));
  return buf;
}

std::array<uint8_t, 13> FiveTuple::Canonical() const {
  std::array<uint8_t, 13> out;
  uint32_t s = src_ip.value();
  uint32_t d = dst_ip.value();
  out[0] = static_cast<uint8_t>(s >> 24);
  out[1] = static_cast<uint8_t>(s >> 16);
  out[2] = static_cast<uint8_t>(s >> 8);
  out[3] = static_cast<uint8_t>(s);
  out[4] = static_cast<uint8_t>(d >> 24);
  out[5] = static_cast<uint8_t>(d >> 16);
  out[6] = static_cast<uint8_t>(d >> 8);
  out[7] = static_cast<uint8_t>(d);
  out[8] = static_cast<uint8_t>(src_port >> 8);
  out[9] = static_cast<uint8_t>(src_port);
  out[10] = static_cast<uint8_t>(dst_port >> 8);
  out[11] = static_cast<uint8_t>(dst_port);
  out[12] = protocol;
  return out;
}

uint8_t FiveTuple::RohcCid() const {
  if (cid_cache_.v != 0) {
    return static_cast<uint8_t>(cid_cache_.v - 1);
  }
  auto canonical = Canonical();
  Md5Digest digest = Md5::Hash(canonical);
  // "selects the lowest byte as the CID" — lowest byte of the 128-bit
  // digest rendered as the usual byte sequence is digest[15].
  cid_cache_.v = static_cast<uint16_t>(digest[15]) + 1;
  return digest[15];
}

}  // namespace hacksim
