#include "src/mac80211/dcf.h"

#include <algorithm>

#include "src/util/logging.h"

namespace hacksim {

DcfEngine::DcfEngine(Scheduler* scheduler, Random rng, Config config)
    : scheduler_(scheduler),
      rng_(rng),
      config_(config),
      idle_since_(scheduler->Now()),
      cw_(config.cw_min) {}

SimTime DcfEngine::EffectiveAifs() const {
  return config_.aifs +
         (last_rx_failed_ ? config_.eifs_extra : SimTime::Zero());
}

void DcfEngine::CancelGrantEvent() {
  if (grant_event_ != kInvalidEventId) {
    scheduler_->Cancel(grant_event_);
    grant_event_ = kInvalidEventId;
  }
}

void DcfEngine::ConsumeElapsedSlots(SimTime until) {
  if (backoff_slots_ <= 0) {
    return;
  }
  // With a future-dated idle_since_ the countdown has not started, so a
  // busy edge arriving before it consumes nothing — exactly the eager
  // engine's behaviour, where the idle edge had not yet been delivered.
  SimTime countdown_start =
      std::max(idle_since_ + EffectiveAifs(), backoff_valid_from_);
  if (until <= countdown_start) {
    return;
  }
  int64_t elapsed = (until - countdown_start).ns() / config_.slot.ns();
  backoff_slots_ -= static_cast<int>(
      std::min<int64_t>(elapsed, backoff_slots_));
}

void DcfEngine::NotifyMediumBusy() {
  if (medium_busy_) {
    return;
  }
  ConsumeElapsedSlots(scheduler_->Now());
  medium_busy_ = true;
  CancelGrantEvent();
  // A pending frame that found the medium busy must take a backoff draw.
  if (pending_ && backoff_slots_ < 0) {
    backoff_slots_ = DrawBackoff();
  }
}

void DcfEngine::NotifyMediumIdleFrom(SimTime t) {
  CHECK(medium_busy_) << "idle announced without a busy edge";
  medium_busy_ = false;
  idle_since_ = t;
  Evaluate();
}

void DcfEngine::RequestAccess() {
  if (pending_) {
    return;
  }
  pending_ = true;
  if (medium_busy()) {
    // Busy — physically or by reservation: no immediate access; a backoff
    // is owed.
    if (backoff_slots_ < 0) {
      backoff_slots_ = DrawBackoff();
    }
    if (medium_busy_) {
      return;  // Evaluate() runs when the idle announcement arrives
    }
    // Reserved (NAV): the idle start is already known; arm the grant for
    // the post-reservation timeline now.
  }
  Evaluate();
}

void DcfEngine::Evaluate() {
  if (!pending_ || medium_busy_) {
    return;
  }
  CancelGrantEvent();
  SimTime now = scheduler_->Now();
  SimTime countdown_start =
      std::max(idle_since_ + EffectiveAifs(), backoff_valid_from_);
  SimTime grant_time;
  if (backoff_slots_ > 0) {
    ConsumeElapsedSlots(now);
  }
  if (backoff_slots_ > 0) {
    grant_time = std::max(now, countdown_start) +
                 config_.slot * backoff_slots_;
  } else {
    // No backoff owed (or it completed during a prior idle period): the
    // frame may go as soon as AIFS has been satisfied.
    grant_time = std::max(now, countdown_start);
  }
  grant_time_ = grant_time;
  grant_event_ = scheduler_->ScheduleAt(
      grant_time,
      [this]() {
        grant_event_ = kInvalidEventId;
        pending_ = false;
        backoff_slots_ = -1;
        CHECK(on_grant != nullptr);
        on_grant();
      },
      EventClass::kDcfTimer);
}

void DcfEngine::NotifyTxFailure() {
  cw_ = std::min(cw_ * 2 + 1, config_.cw_max);
  backoff_slots_ = DrawBackoff();
  // In the MAC's flow no grant is armed here (the failed exchange consumed
  // the pending access), but keep the engine self-consistent for any call
  // order: a grant armed against a future idle start must track the new
  // draw, as the eager path's later evaluation would have.
  ReevaluateDeferredIdle();
}

void DcfEngine::NotifyTxSuccess() { cw_ = config_.cw_min; }

void DcfEngine::NotifyInternalCollision() {
  cw_ = std::min(cw_ * 2 + 1, config_.cw_max);
  backoff_slots_ = DrawBackoff();
  // The request is still pending (the losing grant never fired, or was
  // re-requested); re-arm it for the fresh draw. Evaluate() cancels the
  // stale same-instant grant event before scheduling the new one.
  Evaluate();
}

void DcfEngine::Reset() {
  CancelGrantEvent();
  pending_ = false;
  backoff_slots_ = -1;
  backoff_valid_from_ = scheduler_->Now();
  cw_ = config_.cw_min;
  medium_busy_ = false;
  idle_since_ = scheduler_->Now();
  last_rx_failed_ = false;
}

void DcfEngine::DrawPostTxBackoff() {
  backoff_slots_ = DrawBackoff();
  ReevaluateDeferredIdle();
}

}  // namespace hacksim
