// Dense station addressing for the MAC hot path.
//
// StationTable interns MacAddress -> StationId (small, dense, assigned in
// first-contact order), so per-station MAC state can live in flat vectors
// instead of std::map<MacAddress, ...>. In the paper's cells a handful of
// stations made map lookups invisible; at the ROADMAP's dense-cell scale
// (1000+ stations) the log-n probes and the O(n) round-robin scan in
// WifiMac::PickNextDest dominated — both are O(1) against this table.
//
// ActiveSlotRing is the companion scheduler structure: a cyclic cursor over
// "service slots" (assigned in first-enqueue order, exactly the legacy
// round_robin_ vector positions) backed by a two-level bitmap, so "first
// station with pending work at/after the cursor" is a couple of word scans
// instead of a linear walk. Pick semantics are bit-for-bit the legacy scan:
// same slot chosen, same cursor advance, which is what keeps same-seed runs
// identical across the refactor.
#ifndef SRC_MAC80211_STATION_TABLE_H_
#define SRC_MAC80211_STATION_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/net/address.h"
#include "src/phy80211/wifi_mode.h"
#include "src/stats/mac_stats.h"

namespace hacksim {

using StationId = uint32_t;
inline constexpr StationId kInvalidStationId = 0xFFFFFFFFu;

class StationTable {
 public:
  // Returns the station's id, interning the address on first contact.
  // Ids are dense: 0, 1, 2, ... in interning order; a Disassociate'd id is
  // recycled (LIFO) by the next new-address Intern, so the dense-vector
  // footprint tracks the *live* membership under churn, not its history.
  StationId Intern(MacAddress address);

  // Lookup without interning; kInvalidStationId if never seen.
  StationId Find(MacAddress address) const;

  // Removes the address and recycles its id. The caller owns resetting any
  // per-id flat state (TxState, seq rings, service slot) before the id is
  // handed out again. Address must be present.
  void Disassociate(MacAddress address);

  MacAddress AddressOf(StationId id) const { return addresses_[id]; }
  // High-water id count, including recycled-but-reusable slots — the right
  // size for per-id flat vectors.
  size_t size() const { return addresses_.size(); }
  // Currently-associated station count (size() minus the free list).
  size_t live_count() const { return index_.size(); }

 private:
  std::unordered_map<uint64_t, StationId> index_;
  std::vector<MacAddress> addresses_;
  std::vector<StationId> free_ids_;  // LIFO recycle stack
};

// Cyclic "who gets served next" ring over dense slots with O(1) expected
// pick. Slots are appended once (AddSlot) and toggled active/inactive as the
// station gains/loses pending work. PickNext returns the first active slot
// at or after the cursor in cyclic slot order and advances the cursor past
// it — the exact semantics of scanning a vector round-robin and skipping
// idle entries, minus the scan.
class ActiveSlotRing {
 public:
  // Returns an inactive slot: a recycled one if any was released, else a
  // freshly appended index.
  size_t AddSlot();

  // Returns a slot to the recycle pool; it must already be inactive. The
  // ring's size() is unchanged (released slots simply never test active
  // until re-added), so cursor arithmetic stays stable under churn.
  void ReleaseSlot(size_t slot);

  void Set(size_t slot, bool active);
  bool Test(size_t slot) const {
    return (words_[slot >> 6] >> (slot & 63)) & 1;
  }

  bool Empty() const { return active_ == 0; }
  size_t active_count() const { return active_; }
  size_t size() const { return size_; }
  size_t cursor() const { return cursor_; }

  // Picks the next active slot in cyclic order from the cursor; false when
  // no slot is active (cursor untouched, matching the legacy failed scan).
  bool PickNext(size_t* slot_out);

 private:
  // First active slot in [from, size_), or size_ if none.
  size_t FirstActiveAtOrAfter(size_t from) const;

  std::vector<uint64_t> words_;    // bit s of words_[s/64]: slot s active
  std::vector<uint64_t> summary_;  // bit w of summary_[w/64]: words_[w] != 0
  std::vector<size_t> free_slots_;  // LIFO recycle stack
  size_t size_ = 0;
  size_t active_ = 0;
  size_t cursor_ = 0;
};

// Per-station rate adaptation: ARF with counter-driven probing.
//
// Each StationId carries an independent position in the MAC's rate table.
// The core loop is classic ARF: `up_threshold` consecutive delivered
// exchanges step the station one rate up (and if the first exchange at the
// new rate fails, it falls straight back — the trial-frame rule);
// `down_threshold` consecutive failures step it one rate down. Failures are
// exchange-level signals: a response timeout or a CTS timeout — under
// RTS/CTS, data losses and collision losses are therefore separated, which
// is exactly why ARF stops collapsing to the lowest rate in dense cells.
//
// Probing: every `probe_interval`-th data PPDU is sent one rate above the
// station's current one. Probes never advance the ARF streaks, so a failed
// probe costs one PPDU and never moves the operating rate.
//
// Determinism: no RNG anywhere — probing is counter-driven, so same-seed
// runs stay reproducible.
struct RateAdaptConfig {
  int up_threshold = 10;
  int down_threshold = 2;
  // Every Nth data PPDU per station is a probe; 0 disables probing.
  int probe_interval = 16;
};

class ArfRateController {
 public:
  // `table` must outlive the controller (the global mode tables do);
  // `initial_index` is every station's starting rate.
  ArfRateController(std::span<const WifiMode> table, size_t initial_index,
                    RateAdaptConfig config);

  // Rate decision for the next data PPDU to `sid`: the station's current
  // ARF rate, or — every probe_interval-th call — a probe rate.
  size_t PickModeIndex(StationId sid);

  // Exchange outcome for the PPDU whose rate the last PickModeIndex(sid)
  // chose. Returns whether the station's operating rate moved.
  struct Move {
    bool up = false;
    bool down = false;
  };
  Move OnTxOutcome(StationId sid, bool success);

  // The PPDU the last PickModeIndex(sid) rated never got a data-rate
  // outcome (built empty, or the exchange died at the RTS). A consumed
  // probe slot is re-armed — the probe is deferred, not burned — so the
  // "every probe_interval-th data PPDU probes" contract holds under
  // window exhaustion and CTS-timeout churn.
  void AbandonPick(StationId sid);

  const WifiMode& mode(size_t index) const { return table_[index]; }
  size_t table_size() const { return table_.size(); }
  size_t current_index(StationId sid) const;

 private:
  struct StationState {
    size_t idx;
    int succ_streak = 0;
    int fail_streak = 0;
    int since_probe = 0;
    bool last_was_probe = false;
    // Set by an ARF up-move: the first exchange at the new rate is a trial,
    // and a single failure falls straight back down.
    bool on_trial = false;
  };

  StationState& StateFor(StationId sid);

  std::span<const WifiMode> table_;
  size_t initial_index_;
  RateAdaptConfig config_;
  std::vector<StationState> stations_;
};

}  // namespace hacksim

#endif  // SRC_MAC80211_STATION_TABLE_H_
