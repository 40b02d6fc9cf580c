#include "src/rohc/rohc.h"

#include "src/tcp/tcp_common.h"
#include "src/util/logging.h"

namespace hacksim {
namespace {

// Applies an ACK's dynamic fields to a context (used on both sides to keep
// them in lockstep).
void LoadFromPacket(RohcContextState* state, const Packet& packet) {
  const TcpHeader& tcp = packet.tcp();
  state->seq = tcp.seq;
  state->ack = tcp.ack;
  state->window = tcp.window;
  state->tos = packet.ip().tos;
  state->has_timestamps = tcp.timestamps.has_value();
  if (tcp.timestamps.has_value()) {
    state->tsval = tcp.timestamps->tsval;
    state->tsecr = tcp.timestamps->tsecr;
  }
}

}  // namespace

RohcCompressor::Result RohcCompressor::Compress(const Packet& ack_packet) {
  CHECK(ack_packet.IsPureTcpAck());
  const TcpHeader& tcp = ack_packet.tcp();
  FiveTuple flow = ack_packet.Flow();

  // Context lookup first: flows in steady state never touch MD5 — the CID
  // is derived once at context creation and cached in the context.
  auto it = flows_.find(flow);
  if (it == flows_.end()) {
    uint8_t cid = flow.RohcCid();
    if (cid_owner_[cid].has_value() && *cid_owner_[cid] != flow) {
      ++cid_collisions_;
      return Result{};  // younger flow loses: vanilla only
    }
    cid_owner_[cid] = flow;
    CompressorContext ctx;
    ctx.state.flow = flow;
    ctx.cid = cid;
    it = flows_.emplace(flow, std::move(ctx)).first;
  }
  CompressorContext& ctx = it->second;
  RohcContextState& st = ctx.state;

  CompressedAckRecord rec;
  rec.cid = ctx.cid;
  rec.msn = ctx.next_msn++;

  bool need_refresh = ctx.needs_refresh;
  // Conditions a delta record cannot express:
  if (!tcp.sack_blocks.empty() || tcp.seq != st.seq ||
      tcp.timestamps.has_value() != st.has_timestamps) {
    need_refresh = true;
  }
  uint32_t ack_delta = tcp.ack - st.ack;
  uint32_t tsval_delta = 0;
  uint32_t tsecr_delta = 0;
  if (tcp.timestamps.has_value() && st.has_timestamps) {
    tsval_delta = tcp.timestamps->tsval - st.tsval;
    tsecr_delta = tcp.timestamps->tsecr - st.tsecr;
    if (tsval_delta > 0xFF || tsecr_delta > 0xFF) {
      need_refresh = true;
    }
  }

  if (need_refresh) {
    if (tcp.sack_blocks.size() > kMaxSackBlocksInRefresh) {
      return Result{};  // cannot express: vanilla
    }
    rec.refresh = true;
    rec.seq = tcp.seq;
    rec.ack = tcp.ack;
    rec.window = tcp.window;
    rec.refresh_has_ts = tcp.timestamps.has_value();
    if (tcp.timestamps.has_value()) {
      rec.tsval = tcp.timestamps->tsval;
      rec.tsecr = tcp.timestamps->tsecr;
    }
    rec.sack_blocks = tcp.sack_blocks;
  } else {
    if (ack_delta == 0) {
      rec.ack_mode = 1;  // dupack: explicit zero delta
      rec.ack_delta = 0;
    } else if (st.stride != 0 && ack_delta == st.stride) {
      rec.ack_mode = 0;
    } else if (ack_delta <= 0xFF) {
      rec.ack_mode = 1;
      rec.ack_delta = ack_delta;
    } else if (ack_delta <= 0xFFFF) {
      rec.ack_mode = 2;
      rec.ack_delta = ack_delta;
    } else {
      rec.ack_mode = 3;
      rec.ack_abs = tcp.ack;
    }
    if (tsval_delta != 0 || tsecr_delta != 0) {
      rec.has_ts_delta = true;
      rec.tsval_delta = static_cast<uint8_t>(tsval_delta);
      rec.tsecr_delta = static_cast<uint8_t>(tsecr_delta);
    }
    if (tcp.window != st.window) {
      rec.has_window = true;
      rec.window = tcp.window;
    }
  }

  // Advance the compressor context exactly as the decompressor will.
  if (!rec.refresh && ack_delta != 0) {
    st.stride = ack_delta;
  }
  if (rec.refresh) {
    st.stride = 0;
  }
  LoadFromPacket(&st, ack_packet);
  ctx.needs_refresh = false;

  rec.crc3 = ComputeAckCrc3(st.seq, st.ack, st.tsval, st.tsecr, st.window,
                            rec.msn);
  ByteWriter writer;
  rec.Serialize(writer);
  Result result;
  result.bytes = std::move(writer).Take();
  result.msn = rec.msn;
  result.was_refresh = rec.refresh;
  return result;
}

void RohcCompressor::ForceRefresh(const FiveTuple& flow) {
  auto it = flows_.find(flow);
  if (it == flows_.end()) {
    return;
  }
  it->second.needs_refresh = true;
}

void RohcDecompressor::NoteVanillaAck(const Packet& ack_packet) {
  if (!ack_packet.IsPureTcpAck()) {
    return;
  }
  FiveTuple flow = ack_packet.Flow();
  auto [cid_it, fresh_flow] = flow_cids_.try_emplace(flow, 0);
  if (fresh_flow) {
    cid_it->second = flow.RohcCid();  // one MD5 per flow, memoised after
  }
  uint8_t cid = cid_it->second;
  auto& slot = contexts_[cid];
  if (slot.has_value() && slot->state.flow != flow) {
    return;  // CID collision: first flow keeps the slot
  }
  if (!slot.has_value()) {
    DecompressorContext ctx;
    ctx.state.flow = flow;
    slot = std::move(ctx);
  } else if (!slot->stale) {
    // Forward-only re-anchoring: vanilla ACKs can arrive *behind* newer
    // compressed records (they queue through DCF while compressed records
    // ride the SIFS response). Rewinding the context — by ACK number *or*
    // by timestamp for an equal-ACK dupack — would desync the delta chain.
    // Stale contexts accept any vanilla ACK: that is their recovery path.
    const TcpHeader& tcp = ack_packet.tcp();
    const RohcContextState& st = slot->state;
    if (Seq32Lt(tcp.ack, st.ack)) {
      return;
    }
    if (tcp.ack == st.ack && tcp.timestamps.has_value() &&
        st.has_timestamps) {
      uint32_t tsval = tcp.timestamps->tsval;
      uint32_t tsecr = tcp.timestamps->tsecr;
      if (Seq32Lt(tsval, st.tsval) ||
          (tsval == st.tsval && Seq32Lt(tsecr, st.tsecr))) {
        return;
      }
    }
  }
  LoadFromPacket(&slot->state, ack_packet);
  slot->state.stride = 0;
  slot->stale = false;
  // The vanilla ACK re-anchors the context absolutely; drop the MSN anchor
  // so the next (refresh) record is accepted whatever its MSN. HACK
  // guarantees any retained records for this flow were discarded before the
  // vanilla fallback, so no stale record can slip in.
  slot->has_msn = false;
}

Packet RohcDecompressor::Reconstruct(const DecompressorContext& ctx) const {
  const RohcContextState& st = ctx.state;
  TcpHeader tcp;
  tcp.src_port = st.flow.src_port;
  tcp.dst_port = st.flow.dst_port;
  tcp.seq = st.seq;
  tcp.ack = st.ack;
  tcp.flag_ack = true;
  tcp.window = st.window;
  if (st.has_timestamps) {
    tcp.timestamps = TcpTimestamps{st.tsval, st.tsecr};
  }
  Packet p = Packet::MakeTcp(st.flow.src_ip, st.flow.dst_ip, tcp, 0);
  p.mutable_ip().tos = st.tos;
  return p;
}

RohcDecompressor::Result RohcDecompressor::Decompress(
    const CompressedAckRecord& rec) {
  Result result;
  auto& slot = contexts_[rec.cid];
  if (!slot.has_value()) {
    result.status = Status::kNoContext;
    return result;
  }
  DecompressorContext& ctx = *slot;

  // MSN duplicate window: a record whose MSN does not move forward (within
  // half the 8-bit space) is a retained re-send the AP already applied.
  if (ctx.has_msn) {
    uint8_t distance = static_cast<uint8_t>(rec.msn - ctx.last_msn);
    if (distance == 0 || distance >= 128) {
      ++duplicates_;
      result.status = Status::kDuplicate;
      return result;
    }
  }

  if (ctx.stale && !rec.refresh) {
    result.status = Status::kStale;
    return result;
  }

  RohcContextState st = ctx.state;  // apply to a copy, commit after CRC
  if (rec.refresh) {
    st.seq = rec.seq;
    st.ack = rec.ack;
    st.window = rec.window;
    st.has_timestamps = rec.refresh_has_ts;
    st.tsval = rec.tsval;
    st.tsecr = rec.tsecr;
    st.stride = 0;
  } else {
    uint32_t delta = 0;
    switch (rec.ack_mode) {
      case 0:
        delta = st.stride;
        break;
      case 1:
      case 2:
        delta = rec.ack_delta;
        break;
      case 3:
        delta = rec.ack_abs - st.ack;
        break;
    }
    st.ack += delta;
    if (delta != 0) {
      st.stride = delta;
    }
    if (rec.has_ts_delta) {
      st.tsval += rec.tsval_delta;
      st.tsecr += rec.tsecr_delta;
    }
    if (rec.has_window) {
      st.window = rec.window;
    }
  }

  uint8_t crc = ComputeAckCrc3(st.seq, st.ack, st.tsval, st.tsecr, st.window,
                               rec.msn);
  if (crc != rec.crc3) {
    ++crc_failures_;
    ctx.stale = true;
    result.status = Status::kCrcFailure;
    return result;
  }

  ctx.state = st;
  ctx.last_msn = rec.msn;
  ctx.has_msn = true;
  ctx.stale = false;

  result.status = Status::kOk;
  Packet packet = Reconstruct(ctx);
  if (rec.refresh && !rec.sack_blocks.empty()) {
    packet.mutable_tcp().sack_blocks = rec.sack_blocks;
    // SACK options change the header length; rebuild the IP total length.
    packet.mutable_ip().total_length = static_cast<uint16_t>(
        Ipv4Header::kBytes + packet.tcp().HeaderBytes());
  }
  result.packet = std::move(packet);
  return result;
}

}  // namespace hacksim
