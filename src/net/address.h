// Address types: IPv4, 802 MAC, and the TCP/IP 5-tuple flow key whose MD5
// hash low byte becomes the ROHC context id (paper §3.3.2).
#ifndef SRC_NET_ADDRESS_H_
#define SRC_NET_ADDRESS_H_

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

namespace hacksim {

class Ipv4Address {
 public:
  constexpr Ipv4Address() = default;
  explicit constexpr Ipv4Address(uint32_t value) : value_(value) {}
  static constexpr Ipv4Address FromOctets(uint8_t a, uint8_t b, uint8_t c,
                                          uint8_t d) {
    return Ipv4Address((static_cast<uint32_t>(a) << 24) |
                       (static_cast<uint32_t>(b) << 16) |
                       (static_cast<uint32_t>(c) << 8) | d);
  }

  constexpr uint32_t value() const { return value_; }
  constexpr bool IsZero() const { return value_ == 0; }

  friend constexpr auto operator<=>(Ipv4Address, Ipv4Address) = default;

  std::string ToString() const;
  friend std::ostream& operator<<(std::ostream& os, Ipv4Address a) {
    return os << a.ToString();
  }

 private:
  uint32_t value_ = 0;
};

class MacAddress {
 public:
  constexpr MacAddress() = default;
  // Uses the low 48 bits of `value`.
  explicit constexpr MacAddress(uint64_t value)
      : value_(value & 0xFFFFFFFFFFFFull) {}

  // Stable locally-administered unicast address for station index i.
  static constexpr MacAddress ForStation(uint32_t i) {
    return MacAddress(0x020000000000ull | i);
  }
  static constexpr MacAddress Broadcast() {
    return MacAddress(0xFFFFFFFFFFFFull);
  }

  constexpr uint64_t value() const { return value_; }
  constexpr bool IsBroadcast() const { return value_ == 0xFFFFFFFFFFFFull; }

  friend constexpr auto operator<=>(MacAddress, MacAddress) = default;

  std::string ToString() const;
  friend std::ostream& operator<<(std::ostream& os, MacAddress a) {
    return os << a.ToString();
  }

 private:
  uint64_t value_ = 0;
};

// Memo slot for FiveTuple::RohcCid(). Deliberately NOT propagated by copy
// or assignment: the usual reason to copy a tuple is to derive a variant
// with different fields, and a copied memo would then serve a stale CID.
struct RohcCidCache {
  mutable uint16_t v = 0;  // 0 = unset, else CID + 1

  constexpr RohcCidCache() = default;
  constexpr RohcCidCache(const RohcCidCache&) {}
  constexpr RohcCidCache& operator=(const RohcCidCache&) {
    v = 0;
    return *this;
  }
};

// TCP/IP 5-tuple. Protocol is implicit (TCP) for HACK purposes but kept so
// the key generalises (the paper mentions SCTP/DCCP as future higher layers).
//
// The key fields are written at construction and treated as immutable once
// RohcCid() has been called on that object: the MD5-derived result is
// memoised (cid_cache_), so mutating a field afterwards would serve a stale
// CID. Copies start with a cold memo, so copy-then-mutate stays correct.
struct FiveTuple {
  constexpr FiveTuple() = default;
  constexpr FiveTuple(Ipv4Address src, Ipv4Address dst, uint16_t sport,
                      uint16_t dport, uint8_t proto = 6)
      : src_ip(src),
        dst_ip(dst),
        src_port(sport),
        dst_port(dport),
        protocol(proto) {}

  Ipv4Address src_ip;
  Ipv4Address dst_ip;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint8_t protocol = 6;
  // Not part of the key — excluded from comparison and hashing.
  RohcCidCache cid_cache_;

  friend constexpr bool operator==(const FiveTuple& a, const FiveTuple& b) {
    return a.src_ip == b.src_ip && a.dst_ip == b.dst_ip &&
           a.src_port == b.src_port && a.dst_port == b.dst_port &&
           a.protocol == b.protocol;
  }
  friend constexpr std::strong_ordering operator<=>(const FiveTuple& a,
                                                    const FiveTuple& b) {
    if (auto c = a.src_ip <=> b.src_ip; c != 0) return c;
    if (auto c = a.dst_ip <=> b.dst_ip; c != 0) return c;
    if (auto c = a.src_port <=> b.src_port; c != 0) return c;
    if (auto c = a.dst_port <=> b.dst_port; c != 0) return c;
    return a.protocol <=> b.protocol;
  }

  // Canonical 13-byte serialisation hashed to derive the ROHC CID.
  std::array<uint8_t, 13> Canonical() const;

  // Low byte of MD5 over Canonical() — the paper's CID derivation. Hashes
  // once per tuple; repeat calls return the memoised byte.
  uint8_t RohcCid() const;

  // The same flow viewed from the opposite direction.
  FiveTuple Reversed() const {
    return FiveTuple{dst_ip, src_ip, dst_port, src_port, protocol};
  }
};

struct FiveTupleHash {
  size_t operator()(const FiveTuple& t) const {
    uint64_t h = t.src_ip.value();
    h = h * 1000003ull ^ t.dst_ip.value();
    h = h * 1000003ull ^ (static_cast<uint64_t>(t.src_port) << 16 |
                          t.dst_port);
    h = h * 1000003ull ^ t.protocol;
    return std::hash<uint64_t>{}(h);
  }
};

struct MacAddressHash {
  size_t operator()(MacAddress a) const {
    return std::hash<uint64_t>{}(a.value());
  }
};

}  // namespace hacksim

#endif  // SRC_NET_ADDRESS_H_
