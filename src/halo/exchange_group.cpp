#include "halo/exchange_group.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "halo/halo_internal.hpp"
#include "telemetry/telemetry.hpp"
#include "util/crc64.hpp"

namespace licomk::halo {

using detail::group_tag;
using detail::note_counter;
using detail::note_message;

ExchangeGroup::ExchangeGroup(HaloExchanger& exchanger, int tag_block)
    : ex_(exchanger), tag_block_(tag_block) {
  LICOMK_REQUIRE(tag_block >= 0, "ExchangeGroup tag_block must be >= 0");
}

ExchangeGroup::~ExchangeGroup() {
  try {
    drain_sends();
  } catch (...) {
    // A poisoned world can make the drain throw; destruction must not.
  }
  release_tags();
}

void ExchangeGroup::claim_tags() {
  ex_.claim_tag_range(group_tag(eff_block(), 0), group_tag(eff_block(), 1),
                      "ExchangeGroup(tag_block=" + std::to_string(tag_block_) +
                          ", tag_base=" + std::to_string(ex_.tag_base_) + ")");
  tags_claimed_ = true;
}

void ExchangeGroup::release_tags() noexcept {
  if (!tags_claimed_) return;
  ex_.release_tag_range(group_tag(eff_block(), 0));
  tags_claimed_ = false;
}

void ExchangeGroup::add(BlockField2D& field, FoldSign sign) {
  Slot s;
  s.f2 = &field;
  s.sign = sign;
  s.method = Halo3DMethod::HorizontalMajor;
  s.nz = 1;
  add_slot(s);
}

void ExchangeGroup::add(BlockField3D& field, FoldSign sign, Halo3DMethod method) {
  Slot s;
  s.f3 = &field;
  s.sign = sign;
  s.method = method;
  s.nz = field.nz();
  add_slot(s);
}

void ExchangeGroup::add_slot(const Slot& slot) {
  LICOMK_REQUIRE(phase_ == Phase::Idle, "cannot enroll fields while an exchange is in flight");
  const decomp::BlockExtent& e = slot.f2 != nullptr ? slot.f2->extent() : slot.f3->extent();
  LICOMK_REQUIRE(e.cells() == ex_.extent_.cells() && e.i0 == ex_.extent_.i0 &&
                     e.j0 == ex_.extent_.j0,
                 "field extent does not match this exchanger's block");
  slots_.push_back(slot);
  drain_sends();
  plan_ = {};
  plan_valid_ = false;
}

std::size_t ExchangeGroup::box_elements(int nj, int ni) const {
  std::size_t n = 0;
  for (const Slot& s : slots_) {
    if (s.participating) n += static_cast<std::size_t>(s.nz) * nj * ni;
  }
  return n;
}

std::size_t ExchangeGroup::box_elements_full(int nj, int ni) const {
  std::size_t n = 0;
  for (const Slot& s : slots_) n += static_cast<std::size_t>(s.nz) * nj * ni;
  return n;
}

std::size_t ExchangeGroup::message_doubles(std::size_t payload) const {
  return payload + (plan_crc_ ? 1 : 0);
}

void ExchangeGroup::seal_crc(double* buf, std::size_t payload) const {
  if (!plan_crc_) return;
  util::Crc64 crc;
  crc.update(buf, payload * sizeof(double));
  std::uint64_t value = crc.value();
  std::memcpy(buf + payload, &value, sizeof(value));
}

void ExchangeGroup::check_crc(const double* buf, std::size_t payload, int src) const {
  if (!plan_crc_) return;
  util::Crc64 crc;
  crc.update(buf, payload * sizeof(double));
  std::uint64_t stored = 0;
  std::memcpy(&stored, buf + payload, sizeof(stored));
  if (crc.value() != stored) {
    note_counter("resilience.halo_crc_failures", 1);
    throw CommError("halo group CRC mismatch on rank " + std::to_string(ex_.rank_) +
                    " (from rank " + std::to_string(src) + "): in-flight corruption detected");
  }
}

void ExchangeGroup::check_size(std::size_t got, std::size_t expected, int src) const {
  // Oversized messages already threw (truncation) inside the receive; an
  // undersized one means sender and receiver disagree on the round's
  // composition — fail loudly rather than unpack garbage into ghost cells.
  if (got != expected) {
    throw CommError("halo group message size mismatch on rank " + std::to_string(ex_.rank_) +
                    " (from rank " + std::to_string(src) + "): got " + std::to_string(got) +
                    " bytes, expected " + std::to_string(expected) +
                    " — ranks disagree on the group's enrolled/dirty fields");
  }
}

void ExchangeGroup::pack_message(const std::vector<PackBox>& boxes, double* out) {
  std::size_t off = 0;
  for (const PackBox& b : boxes) {
    for (Slot& s : slots_) {
      if (!s.participating) continue;
      ex_.pack_box(s.base, s.nz, s.method, b.j0, b.nj, b.i0, b.ni, out + off);
      off += static_cast<std::size_t>(s.nz) * b.nj * b.ni;
    }
  }
}

void ExchangeGroup::unpack_message(const std::vector<UnpackBox>& boxes, const double* in) {
  std::size_t off = 0;
  for (const UnpackBox& b : boxes) {
    for (Slot& s : slots_) {
      if (!s.participating) continue;
      const double scale = b.fold && s.sign == FoldSign::Antisymmetric ? -1.0 : 1.0;
      ex_.unpack_box(s.base, s.nz, s.method, b.j0, b.nj, b.i0, b.ni, b.dst_sj, b.dst_si, scale,
                     in + off);
      off += static_cast<std::size_t>(s.nz) * b.nj * b.ni;
    }
  }
}

void ExchangeGroup::drain_sends() {
  for (PhasePlan& plan : plan_) {
    for (SendOp& op : plan.sends) {
      for (SendOp::RingSlot& slot : op.ring) {
        if (slot.req.started()) ex_.comm_.wait(slot.req);
      }
    }
  }
}

void ExchangeGroup::ensure_plan() {
  if (plan_valid_ && plan_crc_ == ex_.verify_crc_ && plan_block_ == eff_block()) {
    ++plan_hits_;
    note_counter("halo.group.plan_hits", 1);
    return;
  }
  build_plan();
  plan_valid_ = true;
  ++plan_builds_;
  note_counter("halo.group.plan_builds", 1);
}

void ExchangeGroup::build_plan() {
  drain_sends();
  plan_ = {};
  plan_crc_ = ex_.verify_crc_;
  plan_block_ = eff_block();

  const int h = decomp::kHaloWidth;
  const int nx = ex_.extent_.nx();
  const int ny = ex_.extent_.ny();
  const long long nxt = nx + 2 * h;
  const int nyt = ny + 2 * h;
  const int nxg = ex_.decomp_.nx();
  const int me = ex_.rank_;
  const decomp::Neighbors& nb = ex_.neigh_;
  const bool north_link = nb.north >= 0 && !nb.north_is_fold;

  // Sender-order (peer, box) enumerations. The SENDER's enumeration order is
  // the canonical payload order of a fused message; the receiver reproduces
  // it below from the same decomposition facts, so no header is needed.
  struct SB {
    int peer;
    PackBox box;
  };
  struct RB {
    int peer;
    UnpackBox box;
  };
  std::array<std::vector<SB>, 2> sends;
  std::array<std::vector<RB>, 2> recvs;
  auto push_peer = [](std::vector<int>& peers, int r) {
    if (r >= 0 && std::find(peers.begin(), peers.end(), r) == peers.end()) peers.push_back(r);
  };

  // ---- phase 0: meridional + fold ----------------------------------------
  if (nb.south >= 0) sends[0].push_back({nb.south, {h, h, h, nx, false}});
  if (north_link) sends[0].push_back({nb.north, {h + ny - h, h, h, nx, false}});
  if (ex_.top_row_fold_) {
    for (const HaloExchanger::FoldPartner& p : ex_.fold_partners_) {
      int g_lo = nxg - p.col_hi;
      int i_loc = h + (g_lo - ex_.extent_.i0);
      sends[0].push_back({p.rank, {h + ny - h, h, i_loc, p.col_hi - p.col_lo, true}});
    }
  }
  // Receives from each distinct phase-0 peer, boxes in THAT PEER's send
  // order: its "to south" box first, then its "to north" box, then its fold
  // box (fold partnership is symmetric under the column mirror).
  {
    std::vector<int> peers;
    if (north_link) push_peer(peers, nb.north);
    push_peer(peers, nb.south);
    if (ex_.top_row_fold_) {
      for (const HaloExchanger::FoldPartner& p : ex_.fold_partners_) push_peer(peers, p.rank);
    }
    for (int peer : peers) {
      if (north_link && nb.north == peer) {
        // peer's "to south" box: sent iff peer.south == me.
        recvs[0].push_back({peer, {h + ny, h, h, nx, nxt, 1, false}});
      }
      if (nb.south == peer) {
        // peer's "to north" box: sent iff peer.north == me (non-fold).
        recvs[0].push_back({peer, {0, h, h, nx, nxt, 1, false}});
      }
      if (ex_.top_row_fold_) {
        for (const HaloExchanger::FoldPartner& p : ex_.fold_partners_) {
          if (p.rank != peer) continue;
          int ni = p.col_hi - p.col_lo;
          int i_start = h + (nxg - 1 - p.col_lo) - ex_.extent_.i0;
          recvs[0].push_back({peer, {h + ny + 1, h, i_start, ni, -nxt, -1, true}});
        }
      }
    }
  }
  if (nb.south < 0) plan_[0].zeros.push_back({0, h, 0, static_cast<int>(nxt)});
  if (!north_link && !ex_.top_row_fold_) {
    plan_[0].zeros.push_back({h + ny, h, 0, static_cast<int>(nxt)});
  }

  // ---- phase 1: zonal -----------------------------------------------------
  if (nb.west >= 0) sends[1].push_back({nb.west, {0, nyt, h, h, false}});
  if (nb.east >= 0) sends[1].push_back({nb.east, {0, nyt, h + nx - h, h, false}});
  {
    std::vector<int> peers;
    push_peer(peers, nb.east);
    push_peer(peers, nb.west);
    for (int peer : peers) {
      if (nb.east == peer) {
        // peer's "to west" box: sent iff peer.west == me; fills my east ghost.
        recvs[1].push_back({peer, {0, nyt, h + nx, h, nxt, 1, false}});
      }
      if (nb.west == peer) {
        // peer's "to east" box: sent iff peer.east == me; fills my west ghost.
        recvs[1].push_back({peer, {0, nyt, 0, h, nxt, 1, false}});
      }
    }
  }
  if (nb.west < 0) plan_[1].zeros.push_back({0, nyt, 0, h});
  if (nb.east < 0) plan_[1].zeros.push_back({0, nyt, h + nx, h});

  // ---- fold the enumerations into fused ops and register buffers ----------
  for (int phase = 0; phase < 2; ++phase) {
    PhasePlan& plan = plan_[static_cast<std::size_t>(phase)];
    const int tag = group_tag(plan_block_, phase);
    CopyOp copy;
    for (const SB& s : sends[static_cast<std::size_t>(phase)]) {
      if (s.peer == me) {
        copy.pack.push_back(s.box);
        continue;
      }
      auto it = std::find_if(plan.sends.begin(), plan.sends.end(),
                             [&](const SendOp& op) { return op.peer == s.peer; });
      if (it == plan.sends.end()) {
        it = plan.sends.emplace(plan.sends.end());
        it->peer = s.peer;
        it->tag = tag;
      }
      it->boxes.push_back(s.box);
    }
    for (const RB& r : recvs[static_cast<std::size_t>(phase)]) {
      if (r.peer == me) {
        copy.unpack.push_back(r.box);
        continue;
      }
      auto it = std::find_if(plan.recvs.begin(), plan.recvs.end(),
                             [&](const RecvOp& op) { return op.peer == r.peer; });
      if (it == plan.recvs.end()) {
        it = plan.recvs.emplace(plan.recvs.end());
        it->peer = r.peer;
        it->tag = tag;
      }
      it->boxes.push_back(r.box);
    }
    if (!copy.pack.empty() || !copy.unpack.empty()) {
      // A self-send and its matching self-receive come from the same
      // enumeration, so they pair positionally with identical box shapes.
      LICOMK_REQUIRE(copy.pack.size() == copy.unpack.size(),
                     "self-copy pack/unpack box mismatch (plan construction bug)");
      std::size_t staging = 0;
      for (const PackBox& b : copy.pack) staging += box_elements_full(b.nj, b.ni);
      copy.staging.assign(staging, 0.0);
      plan.copies.push_back(std::move(copy));
    }
    for (SendOp& op : plan.sends) {
      for (const PackBox& b : op.boxes) op.payload += box_elements_full(b.nj, b.ni);
      for (SendOp::RingSlot& slot : op.ring) {
        slot.buf.assign(message_doubles(op.payload), 0.0);
        slot.req = ex_.comm_.send_init(slot.buf.data(), slot.buf.size() * sizeof(double),
                                       op.peer, op.tag);
      }
    }
    for (RecvOp& op : plan.recvs) {
      for (const UnpackBox& b : op.boxes) op.payload += box_elements_full(b.nj, b.ni);
      op.buf.assign(message_doubles(op.payload), 0.0);
      op.req =
          ex_.comm_.recv_init(op.buf.data(), op.buf.size() * sizeof(double), op.peer, op.tag);
    }
  }
}

void ExchangeGroup::post_phase(PhasePlan& plan) {
  for (SendOp& op : plan.sends) {
    std::uint64_t msg_bytes = 0;
    if (round_all_participating_) {
      // Registered fast path: reuse the ring slot, waiting only if its
      // previous send is still in flight (the deferred-pool discipline that
      // keeps start() from ever blocking on buffer reuse).
      SendOp::RingSlot& slot = op.ring[static_cast<std::size_t>(op.cursor)];
      if (slot.req.started()) ex_.comm_.wait(slot.req);
      pack_message(op.boxes, slot.buf.data());
      seal_crc(slot.buf.data(), op.payload);
      ex_.comm_.start(slot.req);
      op.cursor ^= 1;
      msg_bytes = slot.buf.size() * sizeof(double);
    } else {
      // Partial round: message sizes depend on which fields participate, so
      // the fixed-size registered requests cannot carry it. Same fused
      // layout, plain nonblocking send. Participation is symmetric across
      // ranks (fields go dirty in lockstep), so the receiver takes the same
      // branch this round and sizes match.
      std::size_t payload = 0;
      for (const PackBox& b : op.boxes) payload += box_elements(b.nj, b.ni);
      std::vector<double> buf(message_doubles(payload));
      pack_message(op.boxes, buf.data());
      seal_crc(buf.data(), payload);
      comm::Request req =
          ex_.comm_.isend(buf.data(), buf.size() * sizeof(double), op.peer, op.tag);
      ex_.comm_.wait(req);  // buffered send: completes immediately
      msg_bytes = buf.size() * sizeof(double);
    }
    ex_.stats_.messages += 1;
    ex_.stats_.bytes += msg_bytes;
    note_message(msg_bytes);
    for (const PackBox& b : op.boxes) {
      if (b.fold) {
        ex_.stats_.fold_messages += 1;
        note_counter("halo.fold_messages", 1);
      }
    }
  }
  if (round_all_participating_) {
    for (RecvOp& op : plan.recvs) ex_.comm_.start(op.req);
  }
}

void ExchangeGroup::complete_phase(PhasePlan& plan) {
  for (CopyOp& op : plan.copies) {
    // The local leg of a peer-is-self "message": identical payload layout,
    // never touches the communicator, never counted as a message.
    pack_message(op.pack, op.staging.data());
    unpack_message(op.unpack, op.staging.data());
    ++self_copies_;
    ex_.stats_.self_copies += 1;
    note_counter("halo.group.self_copies", 1);
  }
  for (const ZeroBox& z : plan.zeros) {
    for (Slot& s : slots_) {
      if (s.participating) ex_.zero_box(s.base, s.nz, z.j0, z.nj, z.i0, z.ni);
    }
  }
  for (RecvOp& op : plan.recvs) {
    if (round_all_participating_) {
      ex_.comm_.wait(op.req);
      check_size(op.req.last_status().bytes, op.buf.size() * sizeof(double), op.peer);
      check_crc(op.buf.data(), op.payload, op.peer);
      unpack_message(op.boxes, op.buf.data());
    } else {
      std::size_t payload = 0;
      for (const UnpackBox& b : op.boxes) payload += box_elements(b.nj, b.ni);
      std::vector<double> buf(message_doubles(payload));
      const std::size_t expected = buf.size() * sizeof(double);
      comm::Status st = ex_.comm_.recv(buf.data(), expected, op.peer, op.tag);
      check_size(st.bytes, expected, op.peer);
      check_crc(buf.data(), payload, op.peer);
      unpack_message(op.boxes, buf.data());
    }
  }
}

void ExchangeGroup::update_per_field() {
  for (Slot& s : slots_) {
    if (s.f2 != nullptr) {
      ex_.update(*s.f2, s.sign);
    } else {
      ex_.update(*s.f3, s.sign, s.method);
    }
  }
}

std::size_t ExchangeGroup::start_round(bool full) {
  n_participating_ = 0;
  for (Slot& s : slots_) {
    s.base = s.f2 != nullptr ? s.f2->view().data() : s.f3->view().data();
    if (full) {
      s.participating = true;
    } else {
      const std::uint64_t alloc_id = s.f2 != nullptr ? s.f2->alloc_id() : s.f3->alloc_id();
      const std::uint64_t version = s.f2 != nullptr ? s.f2->version() : s.f3->version();
      s.participating = !ex_.should_skip(s.base, alloc_id, version);
    }
    if (s.participating) ++n_participating_;
  }
  if (n_participating_ == 0) return 0;
  round_all_participating_ = n_participating_ == slots_.size();
  if (!round_all_participating_) {
    ++partial_exchanges_;
    note_counter("halo.group.partial_exchanges", 1);
  }
  ex_.stats_.exchanges += n_participating_;
  ex_.stats_.equiv_messages +=
      n_participating_ * static_cast<std::uint64_t>(ex_.full_message_count());
  ex_.stats_.batches += 1;
  ex_.stats_.batched_fields += n_participating_;
  note_counter("halo.exchanges", n_participating_);
  return n_participating_;
}

void ExchangeGroup::begin() {
  LICOMK_REQUIRE(phase_ == Phase::Idle,
                 "ExchangeGroup::begin() while an exchange is already in flight");
  if (slots_.empty()) {
    phase_ = Phase::Begun;
    return;
  }
  if (!ex_.batching_) {
    // Ablation fallback: exactly the pre-aggregation per-field pattern —
    // one complete update() per field, in order. Split-phase overlap is NOT
    // emulated here: per-field 2-D and 3-D messages share direction tags, so
    // a full update interleaved between outstanding phase-1 sends would
    // FIFO-match another field's message.
    phase_ = Phase::Begun;
    update_per_field();
    return;
  }
  ensure_plan();
  claim_tags();  // a collision throws before the round records anything
  phase_ = Phase::Begun;
  if (start_round(/*full=*/false) == 0) {
    release_tags();
    return;
  }
  telemetry::ScopedSpan span("halo_group_begin", "halo", {},
                             static_cast<long long>(n_participating_));
  post_phase(plan_[0]);
}

void ExchangeGroup::finish() {
  LICOMK_REQUIRE(phase_ == Phase::Begun, "ExchangeGroup::finish() without a begin()");
  phase_ = Phase::Idle;
  if (slots_.empty() || !ex_.batching_) return;  // fallback completed in begin()
  if (n_participating_ == 0) return;
  // The phase-0 sends were packed from the buffers resolved at begin(); the
  // unpacks below must land in those same buffers.
  for (const Slot& s : slots_) {
    if (!s.participating) continue;
    const double* now = s.f2 != nullptr ? s.f2->view().data() : s.f3->view().data();
    LICOMK_REQUIRE(now == s.base,
                   "ExchangeGroup::finish(): an enrolled field's buffer changed between "
                   "begin() and finish() (moved, swapped, or reallocated)");
  }
  telemetry::ScopedSpan span("halo_group_finish", "halo", {},
                             static_cast<long long>(n_participating_));
  complete_phase(plan_[0]);
  post_phase(plan_[1]);
  complete_phase(plan_[1]);
  release_tags();
}

void ExchangeGroup::exchange() {
  begin();
  finish();
}

void ExchangeGroup::exchange_zonal() {
  LICOMK_REQUIRE(phase_ == Phase::Idle,
                 "ExchangeGroup::exchange_zonal() while an exchange is in flight");
  if (slots_.empty()) return;
  if (!ex_.batching_) {
    // Per-field fallback has no zonal-only primitive; full updates match the
    // pre-aggregation call sites (one full exchange per filter pass).
    update_per_field();
    return;
  }
  ensure_plan();
  start_round(/*full=*/true);
  claim_tags();
  telemetry::ScopedSpan span("halo_group_zonal", "halo", {},
                             static_cast<long long>(slots_.size()));
  post_phase(plan_[1]);
  complete_phase(plan_[1]);
  release_tags();
}

}  // namespace licomk::halo
