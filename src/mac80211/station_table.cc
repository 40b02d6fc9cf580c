#include "src/mac80211/station_table.h"

#include <algorithm>
#include <bit>

#include "src/util/logging.h"

namespace hacksim {

StationId StationTable::Intern(MacAddress address) {
  StationId candidate = free_ids_.empty()
                            ? static_cast<StationId>(addresses_.size())
                            : free_ids_.back();
  auto [it, inserted] = index_.try_emplace(address.value(), candidate);
  if (inserted) {
    if (free_ids_.empty()) {
      addresses_.push_back(address);
    } else {
      free_ids_.pop_back();
      addresses_[candidate] = address;
    }
  }
  return it->second;
}

StationId StationTable::Find(MacAddress address) const {
  auto it = index_.find(address.value());
  return it == index_.end() ? kInvalidStationId : it->second;
}

void StationTable::Disassociate(MacAddress address) {
  auto it = index_.find(address.value());
  CHECK(it != index_.end()) << "disassociating unknown station";
  free_ids_.push_back(it->second);
  index_.erase(it);
}

size_t ActiveSlotRing::AddSlot() {
  if (!free_slots_.empty()) {
    size_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  size_t slot = size_++;
  if ((slot >> 6) >= words_.size()) {
    words_.push_back(0);
    if (((words_.size() - 1) >> 6) >= summary_.size()) {
      summary_.push_back(0);
    }
  }
  return slot;
}

void ActiveSlotRing::ReleaseSlot(size_t slot) {
  CHECK_LT(slot, size_);
  CHECK(!Test(slot)) << "releasing an active service slot";
  free_slots_.push_back(slot);
}

void ActiveSlotRing::Set(size_t slot, bool active) {
  CHECK_LT(slot, size_);
  size_t w = slot >> 6;
  uint64_t bit = uint64_t{1} << (slot & 63);
  bool was = (words_[w] & bit) != 0;
  if (was == active) {
    return;
  }
  if (active) {
    words_[w] |= bit;
    ++active_;
  } else {
    words_[w] &= ~bit;
    --active_;
  }
  uint64_t sbit = uint64_t{1} << (w & 63);
  if (words_[w] != 0) {
    summary_[w >> 6] |= sbit;
  } else {
    summary_[w >> 6] &= ~sbit;
  }
}

size_t ActiveSlotRing::FirstActiveAtOrAfter(size_t from) const {
  if (from >= size_) {
    return size_;
  }
  size_t w = from >> 6;
  // Partial first word: only bits at/after `from`.
  uint64_t masked = words_[w] & (~uint64_t{0} << (from & 63));
  if (masked != 0) {
    return (w << 6) + static_cast<size_t>(std::countr_zero(masked));
  }
  // Climb to the summary level for the remaining words.
  size_t next_w = w + 1;
  size_t sw = next_w >> 6;
  if (sw >= summary_.size()) {
    return size_;
  }
  uint64_t s = summary_[sw] & (~uint64_t{0} << (next_w & 63));
  while (s == 0) {
    if (++sw >= summary_.size()) {
      return size_;
    }
    s = summary_[sw];
  }
  size_t word = (sw << 6) + static_cast<size_t>(std::countr_zero(s));
  size_t slot =
      (word << 6) + static_cast<size_t>(std::countr_zero(words_[word]));
  return slot < size_ ? slot : size_;
}

bool ActiveSlotRing::PickNext(size_t* slot_out) {
  if (active_ == 0) {
    return false;
  }
  size_t slot = FirstActiveAtOrAfter(cursor_);
  if (slot == size_) {
    slot = FirstActiveAtOrAfter(0);
    CHECK_LT(slot, size_);
  }
  *slot_out = slot;
  cursor_ = (slot + 1) % size_;
  return true;
}

// --- ArfRateController -------------------------------------------------------

ArfRateController::ArfRateController(std::span<const WifiMode> table,
                                     size_t initial_index,
                                     RateAdaptConfig config)
    : table_(table), initial_index_(initial_index), config_(config) {
  CHECK(!table.empty());
  CHECK_LE(table.size(), kMaxRateTableSize);
  CHECK_LT(initial_index, table.size());
}

ArfRateController::StationState& ArfRateController::StateFor(StationId sid) {
  if (stations_.size() <= sid) {
    StationState fresh;
    fresh.idx = initial_index_;
    stations_.resize(sid + 1, fresh);
  }
  return stations_[sid];
}

size_t ArfRateController::current_index(StationId sid) const {
  return sid < stations_.size() ? stations_[sid].idx : initial_index_;
}

size_t ArfRateController::PickModeIndex(StationId sid) {
  StationState& st = StateFor(sid);
  if (config_.probe_interval > 0 &&
      ++st.since_probe >= config_.probe_interval) {
    st.since_probe = 0;
    size_t target = std::min(st.idx + 1, table_.size() - 1);
    if (target != st.idx) {
      st.last_was_probe = true;
      return target;
    }
  }
  st.last_was_probe = false;
  return st.idx;
}

void ArfRateController::AbandonPick(StationId sid) {
  StationState& st = StateFor(sid);
  if (st.last_was_probe) {
    st.last_was_probe = false;
    // Probe due again on the very next pick.
    st.since_probe = config_.probe_interval;
  }
}

ArfRateController::Move ArfRateController::OnTxOutcome(StationId sid,
                                                       bool success) {
  StationState& st = StateFor(sid);
  Move move;
  if (st.last_was_probe) {
    // The ARF streaks track the operating rate alone.
    st.last_was_probe = false;
    return move;
  }
  if (success) {
    st.fail_streak = 0;
    st.on_trial = false;
    if (++st.succ_streak >= config_.up_threshold) {
      st.succ_streak = 0;
      if (st.idx + 1 < table_.size()) {
        ++st.idx;
        st.on_trial = true;
        move.up = true;
      }
    }
  } else {
    st.succ_streak = 0;
    ++st.fail_streak;
    if ((st.on_trial || st.fail_streak >= config_.down_threshold) &&
        st.idx > 0) {
      --st.idx;
      st.fail_streak = 0;
      move.down = true;
    }
    st.on_trial = false;
  }
  return move;
}

}  // namespace hacksim
