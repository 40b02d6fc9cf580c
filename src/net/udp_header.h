// UDP header (RFC 768). Used by the unidirectional CBR workload that gives
// the paper its capacity yardstick (Figures 9 and 10). Like the IPv4 and
// TCP headers it is written out (Serialize) but never parsed.
#ifndef SRC_NET_UDP_HEADER_H_
#define SRC_NET_UDP_HEADER_H_

#include <cstdint>

#include "src/util/bitio.h"

namespace hacksim {

struct UdpHeader {
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint16_t length = 0;  // header + payload

  static constexpr size_t kBytes = 8;
  size_t HeaderBytes() const { return kBytes; }

  void Serialize(ByteWriter& writer) const;

  friend bool operator==(const UdpHeader&, const UdpHeader&) = default;
};

}  // namespace hacksim

#endif  // SRC_NET_UDP_HEADER_H_
