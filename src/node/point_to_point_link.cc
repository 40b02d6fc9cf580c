#include "src/node/point_to_point_link.h"

#include "src/util/logging.h"

namespace hacksim {

void PointToPointLink::SendFrom(int endpoint, Packet packet) {
  CHECK(endpoint == 0 || endpoint == 1);
  Direction& dir = dir_[endpoint];
  if (dir.queue.size() >= kQueueLimitPackets) {
    ++drops_;
    return;
  }
  dir.queue.push_back(std::move(packet));
  if (!dir.busy) {
    StartTransmission(endpoint);
  }
}

void PointToPointLink::StartTransmission(int direction) {
  Direction& dir = dir_[direction];
  CHECK(!dir.queue.empty());
  dir.busy = true;
  Packet packet = std::move(dir.queue.front());
  dir.queue.pop_front();
  double bits = static_cast<double>(packet.SizeBytes()) * 8.0;
  SimTime serialization = SimTime::FromSecondsF(bits / kRateBps);
  SimTime arrival = serialization + kDelay;
  scheduler_->ScheduleIn(
      arrival,
      [this, direction, packet = std::move(packet)]() mutable {
        auto& deliver = direction == 0 ? deliver_to_1 : deliver_to_0;
        if (deliver) {
          deliver(std::move(packet));
        }
      },
      EventClass::kChannel);
  scheduler_->ScheduleIn(
      serialization,
      [this, direction]() {
        Direction& d = dir_[direction];
        d.busy = false;
        if (!d.queue.empty()) {
          StartTransmission(direction);
        }
      },
      EventClass::kChannel);
}

}  // namespace hacksim
