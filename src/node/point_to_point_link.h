// Full-duplex point-to-point wired link with a FIFO transmit queue per
// direction. Models the server <-> AP backhaul of the paper's simulations
// (500 Mbps, 1 ms one-way latency, §4.3).
#ifndef SRC_NODE_POINT_TO_POINT_LINK_H_
#define SRC_NODE_POINT_TO_POINT_LINK_H_

#include <deque>
#include <functional>

#include "src/packet/packet.h"
#include "src/sim/scheduler.h"

namespace hacksim {

class PointToPointLink {
 public:
  static constexpr double kRateBps = 500e6;
  static constexpr SimTime kDelay = SimTime::Millis(1);
  static constexpr size_t kQueueLimitPackets = 1000;  // per direction

  explicit PointToPointLink(Scheduler* scheduler) : scheduler_(scheduler) {}

  // Endpoint 0 and 1 receive callbacks.
  std::function<void(Packet)> deliver_to_0;
  std::function<void(Packet)> deliver_to_1;

  // Sends from the given endpoint to the other.
  void SendFrom(int endpoint, Packet packet);

  uint64_t drops() const { return drops_; }

 private:
  struct Direction {
    std::deque<Packet> queue;
    bool busy = false;
  };

  void StartTransmission(int direction);

  Scheduler* scheduler_;
  Direction dir_[2];  // index = source endpoint
  uint64_t drops_ = 0;
};

}  // namespace hacksim

#endif  // SRC_NODE_POINT_TO_POINT_LINK_H_
