// HackAgent: the paper's driver + NIC functionality (§3.3.1), both roles.
//
// Client role (TCP receiver): intercepts outgoing pure TCP ACKs, compresses
// them (ROHC), stages them across a modelled driver->NIC DMA latency, and
// hands them to the MAC for encapsulation in LL ACKs / Block ACKs. It
// implements:
//   * the MORE DATA latch (§3.2) deciding HACK vs vanilla transmission,
//   * the opportunistic and explicit-timer variants (§3.2) for comparison,
//   * the timestamp-echo variant sketched as future work in §5,
//   * loss recovery (§3.4): retained payloads are re-sent on every LL ACK
//     until implicitly confirmed (new A-MPDU / higher MAC sequence number),
//     kept across Block ACK Requests, kept when the AP signals SYNC, and
//     flushed to vanilla ACKs when MORE DATA is clear (Fig 7's policy:
//     cumulative ACKs make dropping the older ones safe).
//
// AP role (data sender): extracts HACK payloads from received LL ACKs,
// discards duplicates by MSN, decompresses records, and forwards the
// reconstituted TCP ACKs upstream. It also snoops vanilla TCP ACKs to
// bootstrap decompressor contexts (no ROHC IR packets, §3.3.2).
//
// Decompressor contexts are scoped per sending peer (one RohcDecompressor
// per client MAC), mirroring ROHC's rule that CIDs are only unique within a
// channel: each client derives CIDs from its own flows' 5-tuple hashes, so
// two clients can legitimately pick the same CID. A single AP-wide CID
// space would let one client's records apply deltas to another client's
// context — the compressor-side collision guard cannot see across clients,
// and compressed records carry no flow identity to check against. Same-peer
// collisions are still resolved by the compressor guard (younger flow stays
// vanilla-only).
#ifndef SRC_HACK_HACK_AGENT_H_
#define SRC_HACK_HACK_AGENT_H_

#include <deque>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "src/mac80211/wifi_mac.h"
#include "src/rohc/rohc.h"
#include "src/stats/experiment_stats.h"

namespace hacksim {

enum class HackVariant {
  kOff,
  kMoreData,       // the paper's chosen design
  kOpportunistic,  // naive contention-race variant (§3.2)
  kExplicitTimer,  // naive timeout variant (§3.2)
  kTimestampEcho,  // §5 future work: TCP timestamp echo as implicit ACK-of-ACK
};

// ACK-aggregation policy: instead of releasing every staged compressed ACK
// onto the next LL ACK individually, hold them in a pending (held) set and
// release the whole set — one hierarchical ACK batch riding one LL ACK /
// Block ACK — when the first of three triggers fires:
//   * the flush window expires (one coalesced timer per peer, armed when the
//     first ACK of a batch is held and cancelled on release — the PR 8
//     coalesced-deadline idiom, never a per-ACK timer),
//   * the held count reaches flush_count (0 = no count trigger), or
//   * the peer's MORE DATA bit falls (flush_on_more_data_edge): its burst is
//     over, so the upcoming final LL ACK is the last free ride.
// flush_window == 0 (the default) disables the policy entirely: no held
// flags, no timers, no counters — bit-identical to the pre-policy agent,
// pinned the same way edca_enabled=false is (docs/hack.md).
struct HackAckPolicy {
  SimTime flush_window;
  size_t flush_count = 0;
  bool flush_on_more_data_edge = true;

  bool enabled() const { return !flush_window.IsZero(); }
};

struct HackAgentConfig {
  HackVariant variant = HackVariant::kMoreData;
  // Driver -> NIC staging (DMA + descriptor) latency; the window for the
  // Fig 3/4 ready race.
  SimTime staging_latency = SimTime::Micros(30);
  // Per-LL-ACK payload budget; anything beyond stays staged for the next LL
  // ACK (footnote 7's "split across multiple LL ACKs" option). 240 B keeps
  // a full delayed-ACK batch (21 records) plus recovery refreshes on one
  // Block ACK while staying close to the fits-in-AIFS goal; the ablation
  // bench sweeps this knob.
  size_t max_payload_bytes = 240;
  // Batched/paced release of staged compressed ACKs; off by default.
  HackAckPolicy ack_policy;
};

class HackAgent final : public HackHooks {
 public:
  HackAgent(Scheduler* scheduler, WifiMac* mac, HackAgentConfig config);

  HackAgent(const HackAgent&) = delete;
  HackAgent& operator=(const HackAgent&) = delete;

  // --- client role -----------------------------------------------------------
  // Offer an outgoing packet heading to `dest`. Returns true if HACK
  // consumed it (it will ride an LL ACK, or was enqueued vanilla by the
  // agent itself — either way the packet was moved from); false means the
  // packet was left untouched and the caller enqueues it on the MAC as
  // usual.
  bool OfferOutgoingPacket(Packet&& packet, MacAddress dest);

  // Wire to WifiMac::on_mpdu_delivered.
  void OnMpduDelivered(const Packet& packet, MacAddress dest);

  // --- AP role ----------------------------------------------------------------
  // Reconstituted TCP ACKs ready to forward upstream.
  std::function<void(Packet, MacAddress from)> forward_decompressed;
  // Wire to the receive path: every pure TCP ACK received over the WLAN.
  // `from` scopes the bootstrap to that peer's decompressor.
  void NoteReceivedVanillaAck(const Packet& packet, MacAddress from);
  // Wire to the receive path for kTimestampEcho: data segments' TSecr.
  void NoteReceivedDataSegment(const Packet& packet);

  // HackHooks:
  void OnDataPpdu(MacAddress from, bool aggregated, bool has_new_mpdu,
                  bool more_data, bool sync) override;
  std::vector<uint8_t> BuildAckPayload(MacAddress to) override;
  void OnAckPayload(MacAddress from, std::span<const uint8_t> payload) override;

  HackStats& stats() { return stats_; }
  const HackStats& stats() const { return stats_; }
  // Peer-scoped decompressor lookup (tests/diagnostics); null if the peer
  // has never anchored a context or sent a HACK payload.
  const RohcDecompressor* decompressor(MacAddress from) const {
    auto it = decompressors_.find(from);
    return it == decompressors_.end() ? nullptr : &it->second;
  }

 private:
  struct StagedAck {
    Packet original;
    FiveTuple flow;
    std::vector<uint8_t> compressed;
    SimTime ready_at;
    uint64_t vanilla_uid = 0;  // opportunistic: uid of the queued vanilla copy
    // Held back by the ACK-aggregation policy: not yet eligible to ride an
    // LL ACK. Held entries are always a contiguous suffix of `staged` —
    // marking is append-only and release clears every flag at once — which
    // is what lets BuildAckPayload stop at the first held entry.
    bool held = false;
  };

  struct PeerState {
    bool more_data_latched = false;
    std::deque<StagedAck> staged;    // compressed, not yet sent on any LL ACK
    std::deque<StagedAck> retained;  // sent, awaiting implicit confirmation
    EventId flush_timer = kInvalidEventId;
    // ACK-aggregation policy: number of staged entries currently held, and
    // the one coalesced release timer (armed when the first entry of a batch
    // is held, cancelled when the batch releases for any reason).
    size_t held_count = 0;
    EventId batch_timer = kInvalidEventId;
    // kTimestampEcho: newest TSval we released and whether it was echoed.
    uint32_t last_released_tsval = 0;
    bool echo_outstanding = false;
  };

  bool ContextEstablished(const FiveTuple& flow) const {
    return established_flows_.count(flow) != 0;
  }
  void SendVanilla(Packet&& packet, MacAddress dest);
  // Fig 7: a vanilla ACK for `flow` is about to go out — drop the flow's
  // retained records (the newer cumulative ACK supersedes them) and demote
  // its staged (never-sent) records to vanilla so dupack counts survive.
  void FlushFlowState(PeerState& ps, const FiveTuple& flow, MacAddress dest);
  // Explicit-timer / timestamp-echo safety flush: demote everything staged
  // for `dest` to vanilla transmission.
  void FlushAllToVanilla(MacAddress dest, PeerState& ps);
  void ArmFlushTimer(MacAddress dest, PeerState& ps);
  bool ShouldHoldAcks(const PeerState& ps) const;
  // ACK-aggregation policy: mark the just-staged entry held and arm/trip the
  // batch triggers (count threshold, coalesced window timer).
  void HoldStagedAck(MacAddress dest, PeerState& ps);
  // Release every held entry (they ride the next LL ACK as one batch) and
  // cancel the window timer. `cause` is the per-trigger counter to bump;
  // releasing an empty held set only cancels the timer and counts nothing.
  void ReleaseHeld(PeerState& ps, uint64_t* cause);
  // Un-hold bookkeeping for eviction paths (FlushFlowState / opportunistic
  // withdrawal): held entries leaving `staged` decrement the count; when it
  // hits zero the pending window timer is cancelled.
  void NoteHeldEvicted(PeerState& ps, size_t evicted);

  Scheduler* scheduler_;
  WifiMac* mac_;
  HackAgentConfig config_;

  RohcCompressor compressor_;
  // One decompressor (= one 256-CID context space) per sending peer; see
  // the header comment on CID scoping.
  std::map<MacAddress, RohcDecompressor> decompressors_;
  std::map<MacAddress, PeerState> peers_;
  std::unordered_set<FiveTuple, FiveTupleHash> established_flows_;

  HackStats stats_;
};

}  // namespace hacksim

#endif  // SRC_HACK_HACK_AGENT_H_
