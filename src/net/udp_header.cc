#include "src/net/udp_header.h"

namespace hacksim {

void UdpHeader::Serialize(ByteWriter& writer) const {
  writer.WriteU16Be(src_port);
  writer.WriteU16Be(dst_port);
  writer.WriteU16Be(length);
  writer.WriteU16Be(0);  // checksum optional in IPv4; not modelled
}

}  // namespace hacksim
