#include "src/sim/scheduler.h"

#include <bit>
#include <utility>

namespace hacksim {

// --- slot lifecycle -----------------------------------------------------------


void Scheduler::ArmOuter(WheelEntry entry, uint64_t tick0) {
  // Level 1: buckets of 256 ticks. The bucket for the current L1 tick has
  // already cascaded, hence delta >= 1; delta <= 255 avoids aliasing.
  uint64_t tick1 = tick0 >> kBucketBits;
  uint64_t curr1 = wheel_pos_ >> kBucketBits;
  if (tick1 - curr1 <= kBucketMask) {  // >= 1 implied by the L0 miss
    AppendToBucket(1, tick1 & kBucketMask, entry);
    wheel_next_hint_ = std::min(wheel_next_hint_, tick1 << kBucketBits);
    return;
  }
  // Level 2: buckets of 2^16 ticks.
  uint64_t tick2 = tick1 >> kBucketBits;
  uint64_t curr2 = curr1 >> kBucketBits;
  if (tick2 - curr2 <= kBucketMask) {
    AppendToBucket(2, tick2 & kBucketMask, entry);
    wheel_next_hint_ =
        std::min(wheel_next_hint_, tick2 << (2 * kBucketBits));
    return;
  }
  // Beyond the wheel horizon: the heap carries it with its exact key.
  Push(HeapEntry{PackKey(entry.key_time, slots_[SlotOf(entry.id)].key_seq),
                 entry.id});
}

void Scheduler::CascadeBucket(uint32_t level, uint32_t idx) {
  std::vector<WheelEntry>& b = buckets_[(level << kBucketBits) | idx];
  occupancy_[level][idx >> 6] &= ~(uint64_t{1} << (idx & 63));
  wheel_entries_ -= b.size();
  // Re-arming can append to *other* buckets but never to this one (the
  // entries' ticks all precede this bucket's next alias), so iterating the
  // vector while re-arming is safe — but swap it out anyway to keep the
  // invariant obvious and the bucket reusable immediately.
  std::vector<WheelEntry> moving;
  moving.swap(b);
  for (const WheelEntry& e : moving) {
    if (IsPendingKnownSlot(e.id)) {
      Arm(e);  // re-places one level down (or L0 / heap)
    }
  }
  moving.clear();
  // Hand the storage back so the bucket keeps its capacity.
  if (b.empty()) {
    b.swap(moving);
  }
}

void Scheduler::GrowReady(size_t need) {
  size_t cap = std::max<size_t>(ready_cap_ * 2, 64);
  cap = std::max(cap, ready_size_ + need);
  auto grown = std::make_unique<HeapEntry[]>(cap);
  std::copy(ready_.get(), ready_.get() + ready_size_, grown.get());
  ready_ = std::move(grown);
  ready_cap_ = cap;
}

size_t Scheduler::DrainBucket(uint32_t idx) {
  std::vector<WheelEntry>& b = buckets_[idx];  // level 0: bucket == idx
  occupancy_[0][idx >> 6] &= ~(uint64_t{1} << (idx & 63));
  wheel_entries_ -= b.size();
  // One capacity check buys the whole walk an append pointer that lives in
  // a register.
  if (ready_cap_ - ready_size_ < b.size()) {
    GrowReady(b.size());
  }
  HeapEntry* out = ready_.get() + ready_size_;
  HeapEntry* first = out;
  // Buckets usually hold entries in key order (append order is arm order),
  // but cascaded-in entries carry their original seq and may interleave
  // behind direct-armed equal-time neighbours — so track sortedness on the
  // FULL (time, seq) key, not the time alone. Stale (cancelled) entries
  // are dropped here: this is where lazy wheel cancellation settles up.
  HeapKey prev_key = 0;
  bool sorted = true;
  for (const WheelEntry& e : b) {
    const Slot& s = slots_[SlotOf(e.id)];
    if (s.generation != GenerationOf(e.id)) {
      continue;  // cancelled after arming
    }
    HeapKey key = PackKey(e.key_time, s.key_seq);
    sorted = sorted && key >= prev_key;
    prev_key = key;
    *out++ = HeapEntry{key, e.id};
  }
  b.clear();
  size_t drained = static_cast<size_t>(out - first);
  ready_size_ += drained;
  if (!sorted) {
    // Same-tick events armed with out-of-order times: restore exact
    // (time, seq) order. Against everything already in ready_ the order is
    // free — earlier drains hold strictly earlier ticks.
    std::sort(first, out);
  }
  return drained;
}

int Scheduler::NextOccupiedDistance(uint32_t level, uint32_t start) const {
  const auto& bm = occupancy_[level];
  uint32_t word = start >> 6;
  uint32_t off = start & 63;
  uint64_t w = bm[word] >> off;
  if (w != 0) {
    return std::countr_zero(w);
  }
  for (uint32_t k = 1; k <= 4; ++k) {
    uint32_t wi = (word + k) & 3;
    uint64_t v = bm[wi];
    if (k == 4) {
      // Wrapped back to the start word: only bits below `off` are new.
      v &= off != 0 ? (uint64_t{1} << off) - 1 : 0;
    }
    if (v != 0) {
      return static_cast<int>(64 - off + 64 * (k - 1)) +
             std::countr_zero(v);
    }
  }
  return -1;
}

size_t Scheduler::AdvanceWheel(uint64_t tick_limit, bool stop_on_drain) {
  size_t drained = 0;
  while (wheel_entries_ > 0) {
    uint64_t curr1 = wheel_pos_ >> kBucketBits;
    uint64_t curr2 = curr1 >> kBucketBits;
    int d0 = NextOccupiedDistance(0, wheel_pos_ & kBucketMask);
    int d1 = NextOccupiedDistance(1, curr1 & kBucketMask);
    int d2 = NextOccupiedDistance(2, curr2 & kBucketMask);
    // Next tick at which anything needs doing: an occupied L0 bucket's own
    // tick, or the start-of-range (cascade) tick of an occupied L1/L2
    // bucket. The max() guards keep post-jump d == 0 cases from computing a
    // cascade tick behind the cursor.
    uint64_t t0 = d0 < 0 ? kNoTick : wheel_pos_ + static_cast<uint64_t>(d0);
    uint64_t c1 = d1 < 0 ? kNoTick
                         : std::max((curr1 + static_cast<uint64_t>(d1))
                                        << kBucketBits,
                                    wheel_pos_);
    uint64_t c2 = d2 < 0 ? kNoTick
                         : std::max((curr2 + static_cast<uint64_t>(d2))
                                        << (2 * kBucketBits),
                                    wheel_pos_);
    uint64_t next = std::min({t0, c1, c2});
    if (next > tick_limit) {
      // Everything due by tick_limit has been drained. Park the cursor just
      // past the limit (never past the next occupied tick) so the window
      // stays maximal for future arms.
      wheel_pos_ = std::max(wheel_pos_, tick_limit + 1);
      wheel_next_hint_ = next;
      return drained;
    }
    wheel_pos_ = next;
    // Cascades first (outer level first): a cascade may feed the very L0
    // bucket drained at this tick, so re-evaluate after each action.
    if (c2 == next) {
      CascadeBucket(2, (curr2 + static_cast<uint64_t>(d2)) & kBucketMask);
      continue;
    }
    if (c1 == next) {
      CascadeBucket(1, (curr1 + static_cast<uint64_t>(d1)) & kBucketMask);
      continue;
    }
    drained += DrainBucket(static_cast<uint32_t>(next & kBucketMask));
    wheel_pos_ = next + 1;
    if (stop_on_drain && drained > 0) {
      break;
    }
  }
  wheel_next_hint_ = wheel_entries_ == 0 ? kNoTick : wheel_pos_;
  return drained;
}

bool Scheduler::TakeNext(HeapEntry* out, uint64_t horizon_ns) {
  for (;;) {
    while (ready_pos_ < ready_size_ &&
           !IsPendingKnownSlot(ready_[ready_pos_].id)) {
      ++ready_pos_;  // cancelled after draining: skip
    }
    if (ready_pos_ == ready_size_) {
      // Run fully consumed (here or by RunLoop's tight lane): rewind, so
      // the next drain refills the buffer from the front.
      ready_size_ = 0;
      ready_pos_ = 0;
    }
    while (!heap_.empty() && !IsPendingKnownSlot(heap_.front().id)) {
      PopTop();  // cancelled: drop the dead entry
    }
    bool have_ready = ready_pos_ < ready_size_;
    bool have_heap = !heap_.empty();
    if (have_ready || have_heap) {
      bool use_ready =
          have_ready &&
          (!have_heap || ready_[ready_pos_].key < heap_.front().key);
      HeapKey key = use_ready ? ready_[ready_pos_].key : heap_.front().key;
      uint64_t cand_tick = static_cast<uint64_t>(key >> 64) >> kTickBits;
      if (wheel_entries_ != 0 && cand_tick >= wheel_next_hint_ &&
          AdvanceWheel(cand_tick, /*stop_on_drain=*/false) != 0) {
        continue;  // something drained; it may now be the earlier head
      }
      if (static_cast<uint64_t>(key >> 64) > horizon_ns) {
        return false;  // next event beyond the caller's horizon
      }
      if (use_ready) {
        *out = ready_[ready_pos_++];
      } else {
        *out = heap_.front();
        PopTop();
      }
      return true;
    }
    if (wheel_entries_ == 0) {
      return false;
    }
    AdvanceWheel(kNoTick, /*stop_on_drain=*/true);
    // Loop: re-sweep the freshly drained run.
  }
}

// --- run loops ----------------------------------------------------------------

template <bool kBounded>
uint64_t Scheduler::RunLoop(uint64_t limit, uint64_t horizon_ns) {
  uint64_t n = 0;
  while (n < limit) {
    EventId id;
    // Tight lane: with the heap and the wheel empty nothing can preempt
    // the ready head, so skip the full TakeNext dance. Callbacks that
    // schedule new events flip the emptiness tests and fall back below.
    if (heap_.empty() && wheel_entries_ == 0 && ready_pos_ < ready_size_) {
      const HeapEntry& e = ready_[ready_pos_];
      if (!IsPendingKnownSlot(e.id)) {
        ++ready_pos_;  // cancelled after draining: skip
        continue;
      }
      if (kBounded && static_cast<uint64_t>(e.key >> 64) > horizon_ns) {
        break;
      }
      now_ = KeyTime(e.key);
      id = e.id;
      ++ready_pos_;
    } else {
      HeapEntry entry;
      if (!TakeNext(&entry, kBounded ? horizon_ns : UINT64_MAX)) {
        break;
      }
      now_ = KeyTime(entry.key);
      id = entry.id;
    }
    // Retire before invoking: the event is no longer pending while it runs,
    // so cancelling its own id inside the callback is a harmless no-op and
    // the slot is immediately reusable by events it schedules (which is why
    // the closure moves out of the arena first).
    uint32_t slot = SlotOf(id);
    Slot& s = slots_[slot];
    EventClass cls = s.cls;
    EventFn fn = std::move(s.fn);
    RetireSlot(slot);
    fn.InvokeAndReset();
    ++n;
    ++executed_by_class_[static_cast<size_t>(cls)];
  }
  // Aggregated here, off the per-event path; events_executed() is a
  // between-runs probe, not something callbacks read mid-flight.
  executed_ += n;
  return n;
}

uint64_t Scheduler::Run(uint64_t limit) {
  return RunLoop</*kBounded=*/false>(limit, UINT64_MAX);
}

uint64_t Scheduler::RunUntil(SimTime t) {
  CHECK_GE(t, now_);
  uint64_t n =
      RunLoop</*kBounded=*/true>(UINT64_MAX, static_cast<uint64_t>(t.ns()));
  now_ = t;
  return n;
}

}  // namespace hacksim
