// exchange_group.hpp — planned multi-field halo exchange (paper §V-D).
//
// The per-field HaloExchanger sends one message per field per direction; the
// hot phases of a step (barotropic subcycle, tracer loop) exchange many
// fields back to back, so the message COUNT — not the byte volume — becomes
// the bottleneck at scale. An ExchangeGroup enrolls a set of fields once and
// resolves the exchange into a cached plan (the MPI persistent-request idiom:
// MPI_Send_init / MPI_Recv_init at plan build, MPI_Start / MPI_Wait per
// round); each round then only packs, starts and waits:
//
//   * per-peer message fusion — every box headed to the same peer in the
//     same phase travels in ONE message (with px == 2 the west and east
//     zonal strips go to the same rank: one message instead of two):
//
//       message = [ box0: field0 | field1 | ... | box1: field0 | ... | crc? ]
//
//     The box order inside a fused message is canonical — both sides derive
//     it from the decomposition alone, so no header is needed. Each field is
//     packed with its own Halo3DMethod strides; with CRC verification on,
//     one trailing CRC-64 word covers the whole payload.
//   * self-copy elimination — a "message" whose peer is this rank (px == 1
//     zonal periodicity, a fold partner straddling the mirror midpoint)
//     never touches the communicator: it is packed into a staging buffer
//     and unpacked locally through the exact same box kernels.
//   * pre-registered buffers — each message's buffer is sized once and bound
//     to a comm::PersistentRequest; rounds reuse them.
//   * a deferred send-buffer pool — each send op owns a 2-deep ring of
//     (buffer, request) pairs. finish() does NOT wait for sends; the next
//     round waits only the ring slot it is about to refill, so a start()
//     never blocks on buffer reuse.
//
// Ghost values are bit-identical to sequential per-field update() calls
// (asserted in test_exchange_group across layouts, FoldSigns, Halo3DMethods
// and CRC modes): fusion and self-copies only change which wire message
// carries the bytes. Unpacking applies each field's own FoldSign across the
// tripolar seam.
//
// The plan caches geometry and buffer sizes, NOT field addresses: each round
// re-resolves the enrolled fields' buffers, so prognostic rotation (buffer
// swaps between enrolled fields) needs no rebuild. The plan is rebuilt after
// add() (enrollment change), a verify_crc flip (message layout change) or a
// tag_base change on the exchanger; a decomposition change means a new
// HaloExchanger and therefore a new group. Plan-cache traffic is observable
// via plan_builds()/plan_hits() and the process-wide "halo.group.*"
// counters.
//
// Redundancy elimination: fields skipped as unchanged are absent from every
// message of that round (sender and receiver agree because halo exchange is
// symmetric: every rank runs the same rounds on fields dirty in lockstep).
// The registered messages have fixed sizes, so a round where only SOME
// fields participate falls back to plain sends with the same fused layout
// sized to the participating fields ("halo.group.partial_exchanges").
//
// begin()/finish() split a round exactly like begin_update/finish_update
// split a single field: begin packs and posts the meridional + fold sends,
// interior computation overlaps, finish receives and runs the zonal phase.
// The group's tag range is claimed in the exchanger's in-flight registry
// for the round only (begin→finish, or inside exchange_zonal), so groups on
// the same tag block may share an exchanger as long as their rounds do not
// overlap.
//
// exchange_zonal() refreshes only the east/west ghosts of every enrolled
// field. Stencils that read only same-row neighbors between full exchanges —
// the polar filter's smoothing passes — use it to avoid paying for
// meridional + fold traffic they do not read; a final full exchange()
// restores all ghosts, so the model state stays bit-identical to the
// all-full-exchange sequence.
//
// With batching disabled on the underlying exchanger (the paper's Fig. 8
// per-field arm), the group degrades to the pre-aggregation pattern: one
// complete update() per enrolled field at begin() (finish() is a no-op) and
// full per-field updates for exchange_zonal(). Split-phase overlap is not
// emulated — per-field messages share direction tags across fields, so
// interleaving full updates with in-flight phase-1 sends would mismatch.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "halo/halo_exchange.hpp"

namespace licomk::halo {

/// A reusable batch of fields exchanged together. Enroll with add() once
/// (the group holds pointers; field objects must outlive it and stay at the
/// same address — swapping *contents* between fields, as the prognostic
/// rotations do, is fine because the group re-reads each field's buffer
/// pointer every round). Groups whose rounds may be in flight at the same
/// time on one exchanger must use distinct tag_blocks.
class ExchangeGroup {
 public:
  explicit ExchangeGroup(HaloExchanger& exchanger, int tag_block = 0);
  ~ExchangeGroup();
  ExchangeGroup(const ExchangeGroup&) = delete;
  ExchangeGroup& operator=(const ExchangeGroup&) = delete;

  /// Enroll a field. Drops the cached plan (rebuilt lazily at the next
  /// round). Throws while an exchange is in flight.
  void add(BlockField2D& field, FoldSign sign = FoldSign::Symmetric);
  void add(BlockField3D& field, FoldSign sign = FoldSign::Symmetric,
           Halo3DMethod method = Halo3DMethod::TransposeVerticalMajor);

  /// Post the meridional + fold phase: pack, start the sends (waiting only
  /// ring slots still in flight from an earlier round), start the receives.
  /// Interior compute may run until finish(); enrolled fields must not be
  /// written in between. Throws if an exchange is already in flight.
  void begin();
  /// Complete phase 1 (wait receives, verify, unpack), run the zonal phase 2
  /// the same way. Throws if begin() was not called, or if a participating
  /// field's buffer changed since begin().
  void finish();
  /// Full exchange, no overlap: begin(); finish().
  void exchange();

  /// East/west-only refresh of ALL enrolled fields (no redundancy
  /// elimination: versions are neither consulted nor recorded, so the next
  /// full exchange can never be wrongly skipped while meridional ghosts are
  /// stale). Cannot be called while begin() is in flight.
  void exchange_zonal();

  std::size_t size() const { return slots_.size(); }

  /// Plan-cache observability (per group; process-wide totals go to the
  /// "halo.group.*" telemetry counters).
  std::uint64_t plan_builds() const { return plan_builds_; }
  std::uint64_t plan_hits() const { return plan_hits_; }
  std::uint64_t self_copies() const { return self_copies_; }
  std::uint64_t partial_exchanges() const { return partial_exchanges_; }

 private:
  struct Slot {
    BlockField2D* f2 = nullptr;  ///< exactly one of f2/f3 is set
    BlockField3D* f3 = nullptr;
    FoldSign sign = FoldSign::Symmetric;
    Halo3DMethod method = Halo3DMethod::HorizontalMajor;
    int nz = 1;  ///< fixed at enrollment (2-D: 1; 3-D: field.nz())
    // Resolved every round (rotations swap buffers):
    bool participating = false;
    double* base = nullptr;
  };
  enum class Phase { Idle, Begun };

  /// A rectangular source box packed into a message, in sender-local
  /// halo-inclusive coordinates (same parameters as pack_box).
  struct PackBox {
    int j0, nj, i0, ni;
    bool fold = false;  ///< fold-seam box (fold_messages accounting)
  };
  /// A destination box scattered from a message (same parameters as
  /// unpack_box; fold selects the per-field FoldSign scale).
  struct UnpackBox {
    int j0, nj, i0, ni;
    long long dst_sj, dst_si;
    bool fold = false;
  };
  struct ZeroBox {
    int j0, nj, i0, ni;
  };

  /// One fused outbound message: every box this rank sends to `peer` in one
  /// phase, with a 2-deep deferred ring of pre-registered (buffer, request)
  /// pairs so starting a new round never blocks on an earlier round's
  /// buffer.
  struct SendOp {
    int peer = -1;
    int tag = 0;
    std::vector<PackBox> boxes;
    std::size_t payload = 0;  ///< doubles, all slots, CRC word excluded
    struct RingSlot {
      std::vector<double> buf;
      comm::PersistentRequest req;
    };
    std::array<RingSlot, 2> ring;
    int cursor = 0;
  };
  /// One fused inbound message, same canonical box order as the sender.
  struct RecvOp {
    int peer = -1;
    int tag = 0;
    std::vector<UnpackBox> boxes;
    std::size_t payload = 0;
    std::vector<double> buf;
    comm::PersistentRequest req;
  };
  /// A peer-is-self "message": packed into staging and unpacked locally with
  /// the identical payload layout a wire message would have used.
  struct CopyOp {
    std::vector<PackBox> pack;
    std::vector<UnpackBox> unpack;
    std::vector<double> staging;
  };
  struct PhasePlan {
    std::vector<SendOp> sends;
    std::vector<RecvOp> recvs;
    std::vector<CopyOp> copies;
    std::vector<ZeroBox> zeros;
  };

  void add_slot(const Slot& slot);
  void ensure_plan();
  void build_plan();
  void drain_sends();
  /// Effective tag block: local block offset by the exchanger's tenant base.
  int eff_block() const { return ex_.tag_base_ + tag_block_; }
  /// Claim/release this group's tag range in the exchanger's in-flight
  /// registry for one round (hard CommError when another live round
  /// overlaps it).
  void claim_tags();
  void release_tags() noexcept;
  /// Re-read the enrolled fields' buffers; `full` marks every slot as
  /// participating, otherwise the redundancy eliminator decides. Returns the
  /// participating count and records the round's stats.
  std::size_t start_round(bool full);
  /// Per-field ablation fallback (batching off): one update() per field.
  void update_per_field();
  /// Doubles one box contributes for the currently participating slots.
  std::size_t box_elements(int nj, int ni) const;
  /// Doubles one box contributes when every slot participates (plan sizing).
  std::size_t box_elements_full(int nj, int ni) const;
  /// Post one phase: pack + start (or plain-send) every send op, start the
  /// registered receives. Returns without waiting for anything inbound.
  void post_phase(PhasePlan& plan);
  /// Complete one phase: run self copies and zero boxes, wait + verify +
  /// unpack every receive. Deferred sends stay in flight.
  void complete_phase(PhasePlan& plan);
  void pack_message(const std::vector<PackBox>& boxes, double* out);
  void unpack_message(const std::vector<UnpackBox>& boxes, const double* in);
  void seal_crc(double* buf, std::size_t payload) const;
  void check_crc(const double* buf, std::size_t payload, int src) const;
  void check_size(std::size_t got, std::size_t expected, int src) const;
  std::size_t message_doubles(std::size_t payload) const;

  HaloExchanger& ex_;
  int tag_block_;
  std::vector<Slot> slots_;
  Phase phase_ = Phase::Idle;
  std::size_t n_participating_ = 0;
  bool round_all_participating_ = true;
  bool tags_claimed_ = false;

  bool plan_valid_ = false;
  bool plan_crc_ = false;  ///< verify_crc the plan's buffers were sized for
  int plan_block_ = 0;     ///< effective tag block the plan's requests use
  std::array<PhasePlan, 2> plan_;
  std::uint64_t plan_builds_ = 0;
  std::uint64_t plan_hits_ = 0;
  std::uint64_t self_copies_ = 0;
  std::uint64_t partial_exchanges_ = 0;
};

}  // namespace licomk::halo
