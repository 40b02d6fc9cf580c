// Unit tests for the DCF/EDCA channel-access engine: AIFS deferral, backoff
// freezing/resumption, immediate access, CW doubling, EIFS.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/mac80211/dcf.h"
#include "src/phy80211/wifi_mode.h"

namespace hacksim {
namespace {

class DcfFixture : public ::testing::Test {
 protected:
  DcfFixture() {
    PhyTimings t = TimingsFor(WifiStandard::k80211a);
    DcfEngine::Config cfg{t.slot, t.difs, t.cw_min, t.cw_max,
                          SimTime::Micros(44)};
    dcf_ = std::make_unique<DcfEngine>(&sched_, Random(99), cfg);
    dcf_->on_grant = [this]() {
      ++grants_;
      last_grant_ = sched_.Now();
    };
  }

  Scheduler sched_;
  std::unique_ptr<DcfEngine> dcf_;
  int grants_ = 0;
  SimTime last_grant_;
};

TEST_F(DcfFixture, ImmediateAccessAfterLongIdle) {
  // Medium idle since t=0; request at t=1ms: grant after (at most) AIFS.
  sched_.RunUntil(SimTime::Millis(1));
  dcf_->RequestAccess();
  sched_.Run();
  EXPECT_EQ(grants_, 1);
  // Idle since t=0 means AIFS long since satisfied: immediate grant.
  EXPECT_EQ(last_grant_, SimTime::Millis(1));
}

TEST_F(DcfFixture, FreshIdleWaitsAifs) {
  dcf_->NotifyMediumBusy();
  sched_.RunUntil(SimTime::Micros(100));
  dcf_->RequestAccess();        // busy: must defer and draw backoff
  sched_.RunUntil(SimTime::Micros(200));
  dcf_->NotifyMediumIdle();
  sched_.Run();
  EXPECT_EQ(grants_, 1);
  // Grant no earlier than idle start + DIFS (34 us).
  EXPECT_GE(last_grant_, SimTime::Micros(200 + 34));
  // And no later than DIFS + CWmin slots.
  EXPECT_LE(last_grant_, SimTime::Micros(200 + 34 + 15 * 9));
}

TEST_F(DcfFixture, BackoffFreezesAndResumes) {
  dcf_->NotifyMediumBusy();
  dcf_->RequestAccess();
  dcf_->NotifyMediumIdle();
  int slots = dcf_->backoff_slots();
  ASSERT_GE(slots, 0);
  if (slots < 2) {
    GTEST_SKIP() << "drawn backoff too short to split";
  }
  // Let AIFS + one slot elapse, then freeze.
  sched_.RunUntil(SimTime::Micros(34 + 9 + 1));
  dcf_->NotifyMediumBusy();
  EXPECT_EQ(dcf_->backoff_slots(), slots - 1);
  EXPECT_EQ(grants_, 0);
  // Resume; remaining slots count down after a fresh AIFS.
  SimTime resume = sched_.Now();
  dcf_->NotifyMediumIdle();
  sched_.Run();
  EXPECT_EQ(grants_, 1);
  EXPECT_EQ(last_grant_,
            resume + SimTime::Micros(34) + SimTime::Micros(9) * (slots - 1));
}

TEST_F(DcfFixture, CwDoublesOnFailureAndResetsOnSuccess) {
  EXPECT_EQ(dcf_->cw(), 15u);
  dcf_->NotifyTxFailure();
  EXPECT_EQ(dcf_->cw(), 31u);
  dcf_->NotifyTxFailure();
  EXPECT_EQ(dcf_->cw(), 63u);
  for (int i = 0; i < 10; ++i) {
    dcf_->NotifyTxFailure();
  }
  EXPECT_EQ(dcf_->cw(), 1023u);  // capped at CWmax
  dcf_->NotifyTxSuccess();
  EXPECT_EQ(dcf_->cw(), 15u);
}

TEST_F(DcfFixture, EifsAfterRxFailure) {
  dcf_->NotifyRxFailed();
  dcf_->NotifyMediumBusy();
  dcf_->RequestAccess();
  SimTime idle_start = sched_.Now();
  dcf_->NotifyMediumIdle();
  sched_.Run();
  EXPECT_EQ(grants_, 1);
  // Deferral extended by eifs_extra (44 us here).
  EXPECT_GE(last_grant_, idle_start + SimTime::Micros(34 + 44));
}

TEST_F(DcfFixture, RxOkClearsEifs) {
  dcf_->NotifyRxFailed();
  dcf_->NotifyRxOk();
  sched_.RunUntil(SimTime::Millis(1));
  dcf_->RequestAccess();
  sched_.Run();
  EXPECT_EQ(last_grant_, SimTime::Millis(1));  // immediate: no EIFS residue
}

TEST_F(DcfFixture, RepeatedRequestIsIdempotent) {
  sched_.RunUntil(SimTime::Millis(1));
  dcf_->RequestAccess();
  dcf_->RequestAccess();
  dcf_->RequestAccess();
  sched_.Run();
  EXPECT_EQ(grants_, 1);
}

// The CTS-timeout shape: an exchange consumed its grant, failed before any
// response, and immediately re-requests access. The redraw must come from
// the doubled window and count down from now — no crediting of the idle
// time that passed before the failure.
TEST_F(DcfFixture, FailureThenImmediateRequestRearmsFromNow) {
  sched_.RunUntil(SimTime::Millis(1));
  dcf_->RequestAccess();
  sched_.Run();
  ASSERT_EQ(grants_, 1);
  sched_.RunUntil(SimTime::Millis(2));
  dcf_->NotifyTxFailure();
  int slots = dcf_->backoff_slots();
  ASSERT_GE(slots, 0);
  EXPECT_EQ(dcf_->cw(), 31u);
  dcf_->RequestAccess();
  sched_.Run();
  EXPECT_EQ(grants_, 2);
  EXPECT_EQ(last_grant_, SimTime::Millis(2) + SimTime::Micros(9) * slots);
}

TEST_F(DcfFixture, PostTxBackoffDelaysNextGrant) {
  sched_.RunUntil(SimTime::Millis(1));
  dcf_->DrawPostTxBackoff();
  int slots = dcf_->backoff_slots();
  dcf_->RequestAccess();
  sched_.Run();
  EXPECT_EQ(grants_, 1);
  // Even on a long-idle medium, a fresh post-TX backoff must elapse in
  // real time from the draw — past idle time cannot be credited.
  if (slots > 0) {
    EXPECT_GE(last_grant_, SimTime::Millis(1) + SimTime::Micros(9) * slots);
  }
}

TEST_F(DcfFixture, GrantTimesAreSlotAligned) {
  // Statistical check: grants after busy periods land on AIFS + k*slot.
  for (int i = 0; i < 50; ++i) {
    dcf_->NotifyMediumBusy();
    dcf_->RequestAccess();
    SimTime idle_start = sched_.Now();
    dcf_->NotifyMediumIdle();
    int before = grants_;
    sched_.Run();
    ASSERT_EQ(grants_, before + 1);
    int64_t offset_ns = (last_grant_ - idle_start).ns() - 34'000;
    EXPECT_GE(offset_ns, 0);
    EXPECT_EQ(offset_ns % 9'000, 0) << "grant not slot-aligned";
    EXPECT_LE(offset_ns / 9'000, 15);
  }
}

// Lazy re-arm equivalence: announcing "idle from T" at the moment the
// carrier drops must produce the same grants, at the same times, as the
// eager path that waits until T and delivers a plain idle edge — pick for
// pick across randomized busy/request/EIFS scripts. Both engines share a
// seed, so any divergence in draw *points* would desynchronise the grant
// times immediately.
TEST(DcfLazyRearmTest, IdleFromMatchesEagerIdleEdgePickForPick) {
  PhyTimings timings = TimingsFor(WifiStandard::k80211a);
  DcfEngine::Config cfg{timings.slot, timings.difs, timings.cw_min,
                        timings.cw_max, SimTime::Micros(44)};
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Scheduler sched_eager;
    Scheduler sched_lazy;
    DcfEngine eager(&sched_eager, Random(seed), cfg);
    DcfEngine lazy(&sched_lazy, Random(seed), cfg);
    std::vector<int64_t> grants_eager;
    std::vector<int64_t> grants_lazy;
    eager.on_grant = [&]() { grants_eager.push_back(sched_eager.Now().ns()); };
    lazy.on_grant = [&]() { grants_lazy.push_back(sched_lazy.Now().ns()); };

    Random script(seed * 104729);
    int64_t t = 0;
    for (int step = 0; step < 80; ++step) {
      // Idle gap, then a busy period [busy_start, busy_end) — the lazy
      // engine learns busy_end at busy_start (a NAV-style reservation),
      // the eager engine gets the idle edge only when time reaches it.
      int64_t gap = static_cast<int64_t>(script.NextBounded(300)) * 1000;
      int64_t busy_start = t + gap;
      int64_t busy_ns =
          1000 + static_cast<int64_t>(script.NextBounded(2000)) * 1000;
      int64_t busy_end = busy_start + busy_ns;

      bool request_before = script.NextBounded(3) == 0;
      bool request_during = script.NextBounded(3) == 0;
      bool rx_failed = script.NextBounded(4) == 0;
      bool tx_result = script.NextBounded(2) == 0;

      if (request_before) {
        int64_t rt = t + static_cast<int64_t>(
                             script.NextBounded(gap > 0 ? gap : 1));
        sched_eager.RunUntil(SimTime::Nanos(rt));
        sched_lazy.RunUntil(SimTime::Nanos(rt));
        if (!eager.access_pending()) {
          eager.RequestAccess();
        }
        if (!lazy.access_pending()) {
          lazy.RequestAccess();
        }
      }

      sched_eager.RunUntil(SimTime::Nanos(busy_start));
      sched_lazy.RunUntil(SimTime::Nanos(busy_start));
      eager.NotifyMediumBusy();
      lazy.NotifyMediumBusy();
      // The lazy engine is told the reservation horizon immediately.
      lazy.NotifyMediumIdleFrom(SimTime::Nanos(busy_end));

      if (request_during) {
        int64_t rt = busy_start + static_cast<int64_t>(
                                      script.NextBounded(busy_ns));
        sched_eager.RunUntil(SimTime::Nanos(rt));
        sched_lazy.RunUntil(SimTime::Nanos(rt));
        if (!eager.access_pending()) {
          eager.RequestAccess();
        }
        if (!lazy.access_pending()) {
          lazy.RequestAccess();
        }
      }
      if (rx_failed) {
        eager.NotifyRxFailed();
        lazy.NotifyRxFailed();
      } else {
        eager.NotifyRxOk();
        lazy.NotifyRxOk();
      }
      if (!grants_eager.empty() && script.NextBounded(3) == 0) {
        if (tx_result) {
          eager.NotifyTxSuccess();
          lazy.NotifyTxSuccess();
          eager.DrawPostTxBackoff();
          lazy.DrawPostTxBackoff();
        } else {
          eager.NotifyTxFailure();
          lazy.NotifyTxFailure();
          // CTS-timeout shape: the failed exchange immediately re-requests
          // access (WifiMac::HandleCtsTimeout does exactly this), often
          // while the lazy engine still holds a future-dated idle start.
          if (script.NextBounded(2) == 0) {
            if (!eager.access_pending()) {
              eager.RequestAccess();
            }
            if (!lazy.access_pending()) {
              lazy.RequestAccess();
            }
          }
        }
      }

      // Eager: a plain idle edge when time reaches busy_end. (The lazy
      // engine needs no call at all — its grant is already armed.)
      sched_eager.RunUntil(SimTime::Nanos(busy_end));
      sched_lazy.RunUntil(SimTime::Nanos(busy_end));
      eager.NotifyMediumIdle();

      t = busy_end;
      ASSERT_EQ(grants_eager, grants_lazy)
          << "seed " << seed << " step " << step;
      ASSERT_EQ(eager.backoff_slots(), lazy.backoff_slots())
          << "seed " << seed << " step " << step;
    }
    // Drain the tail.
    sched_eager.Run();
    sched_lazy.Run();
    EXPECT_EQ(grants_eager, grants_lazy) << "seed " << seed;
  }
}

TEST_F(DcfFixture, BackoffDistributionIsUniformish) {
  // Mean of CWmin backoff draws should be ~CWmin/2 = 7.5 slots.
  double total_slots = 0;
  int samples = 200;
  for (int i = 0; i < samples; ++i) {
    dcf_->NotifyMediumBusy();
    dcf_->RequestAccess();
    SimTime idle_start = sched_.Now();
    dcf_->NotifyMediumIdle();
    sched_.Run();
    total_slots += static_cast<double>(
        ((last_grant_ - idle_start).ns() - 34'000) / 9'000);
  }
  EXPECT_NEAR(total_slots / samples, 7.5, 1.0);
}

}  // namespace
}  // namespace hacksim
