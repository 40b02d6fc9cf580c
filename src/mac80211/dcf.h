// DCF / EDCA channel-access engine: AIFS deferral, slotted binary
// exponential backoff with lazy countdown, EIFS after failed receptions,
// and the immediate-access rule for frames arriving on a long-idle medium.
//
// The engine consumes *combined* medium state (physical CCA OR NAV); the
// owning MAC computes that combination and feeds transitions in. Both
// inputs are per-receiver quantities: on a range-limited channel two
// engines in the same cell can legitimately disagree about whether the
// medium is busy (the hidden-terminal condition) — the engine itself is
// agnostic, it only ever sees its own MAC's edges.
//
// Idle edges may be future-dated: NotifyMediumIdleFrom(t) announces at the
// moment the physical carrier drops that the medium counts as busy until
// `t` (the NAV reservation) and idle afterwards. The engine arms its grant
// timer for the post-`t` timeline immediately — the owning MAC never has to
// schedule a NAV-expiry event, which is what kept every overhearing station
// burning one executed timer per PPDU in dense cells (see docs/perf.md).
// Backoff freezing is explicit state (`backoff_slots_`,
// `backoff_valid_from_`, `idle_since_`), not timer churn: a busy edge
// consumes elapsed slots and cancels the single armed grant timer (O(1) in
// the scheduler's timing wheel), and the grant is re-armed once per idle
// announcement, lazily re-dated if the EIFS flag changes while the idle
// start is still in the future.
#ifndef SRC_MAC80211_DCF_H_
#define SRC_MAC80211_DCF_H_

#include <functional>

#include "src/sim/random.h"
#include "src/sim/scheduler.h"

namespace hacksim {

class DcfEngine {
 public:
  struct Config {
    SimTime slot;
    SimTime aifs;
    uint32_t cw_min = 15;
    uint32_t cw_max = 1023;
    // Extra deferral added to AIFS after a reception failure (EIFS - DIFS).
    SimTime eifs_extra;
  };

  DcfEngine(Scheduler* scheduler, Random rng, Config config);

  // Invoked exactly once per grant; the requester transmits immediately.
  std::function<void()> on_grant;

  // --- medium state (combined CCA+NAV) ---------------------------------------
  // Physical busy edge, effective immediately.
  void NotifyMediumBusy();
  // The physical carrier is down; the medium counts as idle from `t`
  // onward (t >= Now(); t > Now() encodes a NAV reservation). Must follow
  // a busy edge: to move an announced idle start, the owning MAC sends a
  // busy edge and then the new announcement.
  void NotifyMediumIdleFrom(SimTime t);
  // Immediate idle edge — the eager-notification form.
  void NotifyMediumIdle() { NotifyMediumIdleFrom(scheduler_->Now()); }
  // True while busy, physically or by an unexpired idle-from reservation.
  bool medium_busy() const {
    return medium_busy_ || scheduler_->Now() < idle_since_;
  }

  // --- EIFS ------------------------------------------------------------------
  void NotifyRxFailed() {
    if (!last_rx_failed_) {
      last_rx_failed_ = true;
      ReevaluateDeferredIdle();
    }
  }
  void NotifyRxOk() {
    if (last_rx_failed_) {
      last_rx_failed_ = false;
      ReevaluateDeferredIdle();
    }
  }

  // --- access ----------------------------------------------------------------
  void RequestAccess();
  bool access_pending() const { return pending_; }

  // --- contention window ------------------------------------------------------
  // Failure doubles CW and redraws the pending backoff from the new window;
  // success resets CW to CWmin.
  void NotifyTxFailure();
  void NotifyTxSuccess();
  // Post-transmission backoff: drawn after every transmission completes.
  void DrawPostTxBackoff();

  // --- EDCA internal contention ----------------------------------------------
  // When several per-AC engines inside one MAC would be granted access at
  // the same instant, only the highest-priority AC transmits; each loser
  // suffers a *virtual collision*: CW doubles, a fresh backoff is drawn
  // from the doubled window, and the still-pending grant is re-armed for
  // the new countdown. Identical to NotifyTxFailure except the request
  // stays pending (the loser never got to transmit, so nothing consumed
  // its access request).
  void NotifyInternalCollision();
  // True while a grant timer is armed (access granted but not yet fired).
  bool has_armed_grant() const { return grant_event_ != kInvalidEventId; }
  // The instant the armed grant will fire; only meaningful while
  // has_armed_grant(). The owning MAC compares this against Now() to
  // detect same-instant grants across its AC engines.
  SimTime armed_grant_time() const { return grant_time_; }

  uint32_t cw() const { return cw_; }
  int backoff_slots() const { return backoff_slots_; }

  // Radio-reset support: cancels any armed grant and returns the engine to
  // its cold-boot state (CW at minimum, no pending request, medium idle
  // from now). The RNG stream is deliberately NOT rewound — determinism
  // means "same seed, same plan → same run", not "reset forgets draws".
  void Reset();

 private:
  SimTime EffectiveAifs() const;
  // (Re)schedules the grant if pending and the medium is physically idle.
  void Evaluate();
  // A grant armed against a still-future idle start was computed with the
  // EIFS flag of the announcement moment; a flag flip before the idle start
  // re-dates it (the eager path would have evaluated at the idle edge, with
  // the flipped flag).
  void ReevaluateDeferredIdle() {
    if (!medium_busy_ && pending_ && scheduler_->Now() < idle_since_) {
      Evaluate();
    }
  }
  void CancelGrantEvent();
  int DrawBackoff() {
    backoff_valid_from_ = scheduler_->Now();
    return static_cast<int>(rng_.NextBounded(cw_ + 1));
  }
  // Decrements backoff by slots elapsed while idle up to `until`.
  void ConsumeElapsedSlots(SimTime until);

  Scheduler* scheduler_;
  Random rng_;
  Config config_;

  // Physical busy flag; NAV deferrals live in idle_since_ instead.
  bool medium_busy_ = false;
  // Start of the current (or announced future) idle period.
  SimTime idle_since_;
  bool last_rx_failed_ = false;
  bool pending_ = false;
  int backoff_slots_ = -1;  // -1: no backoff owed
  // Slots may only elapse after the later of (idle start + AIFS) and the
  // moment the backoff was drawn — a fresh draw cannot be consumed by idle
  // time that already passed.
  SimTime backoff_valid_from_;
  EventId grant_event_ = kInvalidEventId;
  // Fire time of the armed grant event; valid only while grant_event_ is.
  SimTime grant_time_;
  uint32_t cw_;
};

}  // namespace hacksim

#endif  // SRC_MAC80211_DCF_H_
