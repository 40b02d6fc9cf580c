// ROHC-style compressor / decompressor for pure TCP ACKs.
//
// Context lifecycle (paper §3.3.2's three simplifications):
//  1. No IR packets: the decompressor (at the AP) bootstraps a context by
//     snooping vanilla TCP ACKs it forwards; the compressor (client driver)
//     only compresses once at least one vanilla ACK for the flow has been
//     link-layer-acknowledged.
//  2. CIDs are computed independently on both sides: low byte of MD5 over
//     the flow 5-tuple. A CID collision simply disables compression for the
//     younger flow (it stays on vanilla ACKs). That guard only sees one
//     compressor's flows, so CIDs are unique per *channel*, never globally:
//     the AP keys decompressors per sending peer MAC (hack_agent.h) so two
//     clients picking the same CID cannot cross-apply deltas.
//  3. No ROHC feedback: reliability is HACK's retention protocol; the MSN
//     dedup window (half the 8-bit space) discards retransmitted records.
//
// Lockstep invariant: HACK guarantees records are applied in MSN order with
// no gaps (retention until implicit confirmation; a vanilla fallback forces
// the next record to be an absolute refresh), so compressor and decompressor
// contexts evolve identically; the CRC-3 check verifies this and any
// mismatch staleness-poisons the context until the next refresh/vanilla ACK.
#ifndef SRC_ROHC_ROHC_H_
#define SRC_ROHC_ROHC_H_

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>

#include "src/packet/packet.h"
#include "src/rohc/compressed_ack.h"

namespace hacksim {

struct RohcContextState {
  FiveTuple flow;       // ACK direction (src = TCP receiver)
  uint32_t seq = 0;     // receiver's sequence (static for pure ACKs)
  uint32_t ack = 0;
  uint32_t tsval = 0;
  uint32_t tsecr = 0;
  uint16_t window = 0;
  uint32_t stride = 0;  // learned ack increment
  bool has_timestamps = false;
  // IP ToS of the flow's ACKs, restored on reconstruction so the forwarded
  // copy keeps its DSCP marking under EDCA. Static per flow and outside the
  // CRC-3 coverage (seq/ack/tsval/tsecr/window/msn), so this is pure
  // reconstruction fidelity — it cannot introduce crc_failures.
  uint8_t tos = 0;
};

class RohcCompressor {
 public:
  struct Result {
    std::vector<uint8_t> bytes;  // empty = cannot compress (fall back)
    uint8_t msn = 0;
    bool was_refresh = false;
  };

  // Compresses a pure TCP ACK. Creates the flow context on first use.
  // Returns an empty Result.bytes on CID collision (caller sends vanilla).
  Result Compress(const Packet& ack_packet);

  // Must be called whenever the delta chain for a flow is interrupted —
  // an ACK was sent vanilla, or staged/retained compressed ACKs were
  // discarded without delivery confirmation. The next compressed record for
  // the flow will be an absolute refresh.
  void ForceRefresh(const FiveTuple& flow);

  uint64_t cid_collisions() const { return cid_collisions_; }

 private:
  struct CompressorContext {
    RohcContextState state;
    uint8_t cid = 0;  // derived once at context creation (MD5 over 5-tuple)
    uint8_t next_msn = 0;
    bool needs_refresh = true;  // fresh contexts always refresh first
  };

  std::unordered_map<FiveTuple, CompressorContext, FiveTupleHash> flows_;
  std::array<std::optional<FiveTuple>, 256> cid_owner_;
  uint64_t cid_collisions_ = 0;
};

class RohcDecompressor {
 public:
  enum class Status {
    kOk,
    kDuplicate,    // MSN already applied (retained re-send): discard quietly
    kNoContext,    // unknown CID
    kStale,        // context poisoned by an earlier CRC failure
    kCrcFailure,   // reconstruction mismatch: poison context
    kMalformed,
  };

  struct Result {
    Status status = Status::kMalformed;
    std::optional<Packet> packet;
  };

  // Learns or refreshes a context from a vanilla TCP ACK the AP forwards.
  void NoteVanillaAck(const Packet& ack_packet);

  // Decompresses one record.
  Result Decompress(const CompressedAckRecord& record);

  uint64_t duplicates() const { return duplicates_; }
  uint64_t crc_failures() const { return crc_failures_; }

 private:
  struct DecompressorContext {
    RohcContextState state;
    uint8_t last_msn = 0;
    bool has_msn = false;
    bool stale = false;
  };

  Packet Reconstruct(const DecompressorContext& ctx) const;

  std::array<std::optional<DecompressorContext>, 256> contexts_;
  // flow -> CID memo so NoteVanillaAck does one MD5 per flow, not per ACK
  // (every forwarded vanilla TCP ACK lands there; under the opportunistic
  // variant that is *all* of them).
  std::unordered_map<FiveTuple, uint8_t, FiveTupleHash> flow_cids_;
  uint64_t duplicates_ = 0;
  uint64_t crc_failures_ = 0;
};

}  // namespace hacksim

#endif  // SRC_ROHC_ROHC_H_
