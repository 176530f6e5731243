// Tests for the planned multi-field halo exchange (halo::ExchangeGroup):
// bit-identity with sequential per-field update() (the oracle) across
// layouts, FoldSigns, Halo3DMethods and CRC modes with plan reuse, the
// split-phase round, per-field redundancy elimination, the zonal-only
// refresh, CRC protection, lifecycle guards, per-round tag claims and
// tag_base partitioning, the per-field ablation fallback, and model state
// bit-identity grouped vs per-field. The plan cache itself (fusion,
// self-copies, rebuilds, partial rounds, model-owned plans, shrink) is
// covered in test_persistent_group.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "comm/runtime.hpp"
#include "core/model.hpp"
#include "halo/exchange_group.hpp"
#include "halo/halo_exchange.hpp"
#include "halo_group_fixtures.hpp"
#include "resilience/fault_injector.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace lc = licomk::comm;
using namespace halo_test;

namespace {

void run_identity_case(int nx, int ny, int px, int py, bool crc) {
  ld::Decomposition d(nx, ny, px, py);
  lc::Runtime::run(d.nranks(), [&](lc::Communicator& c) {
    lh::HaloExchanger ex_ref(d, c, c.rank());
    lh::HaloExchanger ex_grp(d, c, c.rank());
    ex_ref.set_verify_crc(crc);
    ex_grp.set_verify_crc(crc);
    FieldSet ref(d.block(c.rank()), "ref");
    FieldSet grp(d.block(c.rank()), "grp");
    lh::ExchangeGroup group(ex_grp);
    grp.enroll(group);

    // Round 1: first use builds the plan.
    ref.update_per_field(ex_ref);
    group.exchange();
    grp.expect_identical_to(ref);
    EXPECT_EQ(group.plan_builds(), 1u);
    // The group did the per-field-equivalent work in at most one message
    // per per-field direction (fusion and self-copies only ever remove
    // messages).
    EXPECT_EQ(ex_grp.stats().equiv_messages, ex_ref.stats().messages);
    EXPECT_LE(ex_grp.stats().messages,
              ex_ref.stats().messages / static_cast<std::uint64_t>(kFieldsPerSet));
    EXPECT_EQ(ex_grp.stats().batches, 1u);
    EXPECT_EQ(ex_grp.stats().batched_fields, static_cast<std::uint64_t>(kFieldsPerSet));

    // Round 2: fresh interiors through the CACHED plan must stay identical.
    ref.refill(40);
    grp.refill(40);
    ref.update_per_field(ex_ref);
    group.exchange();
    grp.expect_identical_to(ref);
    EXPECT_EQ(group.plan_builds(), 1u);
    EXPECT_GE(group.plan_hits(), 1u);
  });
}

}  // namespace

class GroupLayouts : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(GroupLayouts, BatchedMatchesPerFieldBitForBit) {
  auto [nx, ny, px, py] = GetParam();
  run_identity_case(nx, ny, px, py, /*crc=*/false);
}

TEST_P(GroupLayouts, BatchedMatchesPerFieldWithCrcOn) {
  auto [nx, ny, px, py] = GetParam();
  run_identity_case(nx, ny, px, py, /*crc=*/true);
}

namespace {
std::string layout_name(const ::testing::TestParamInfo<std::tuple<int, int, int, int>>& info) {
  auto [nx, ny, px, py] = info.param;
  return "g" + std::to_string(nx) + "x" + std::to_string(ny) + "p" + std::to_string(px) + "x" +
         std::to_string(py);
}
}  // namespace

INSTANTIATE_TEST_SUITE_P(Layouts, GroupLayouts,
                         ::testing::Values(std::make_tuple(16, 10, 1, 1),
                                           std::make_tuple(16, 10, 2, 1),
                                           std::make_tuple(16, 10, 4, 2),
                                           std::make_tuple(17, 11, 3, 2),
                                           std::make_tuple(16, 12, 2, 3)),
                         layout_name);

TEST(ExchangeGroup, SplitPhaseMatchesMonolithicExchange) {
  ld::Decomposition d(16, 10, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex_a(d, c, c.rank());
    lh::HaloExchanger ex_b(d, c, c.rank());
    FieldSet a(d.block(c.rank()), "a");
    FieldSet b(d.block(c.rank()), "b");
    lh::ExchangeGroup ga(ex_a);
    lh::ExchangeGroup gb(ex_b);
    a.enroll(ga);
    b.enroll(gb);
    ga.exchange();
    gb.begin();
    // Interior compute would overlap here; the enrolled fields are not
    // touched, so the result must equal the monolithic exchange.
    gb.finish();
    b.expect_identical_to(a);
  });
}

TEST(ExchangeGroup, PerFieldRedundancyEliminationInsideBatch) {
  ld::Decomposition d(16, 10, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, c.rank());
    FieldSet fs(d.block(c.rank()), "fs");
    lh::ExchangeGroup group(ex);
    fs.enroll(group);
    group.exchange();
    const auto after_first = ex.stats().messages;
    EXPECT_GT(after_first, 0u);

    // Nothing dirty: the whole batch collapses to zero messages.
    group.exchange();
    EXPECT_EQ(ex.stats().messages, after_first);
    EXPECT_EQ(ex.stats().skipped, static_cast<std::uint64_t>(kFieldsPerSet));

    // One field dirty: the batch sends again (the same fused messages per
    // peer as a full round) and carries only that field — everyone else is
    // skipped.
    fill_3d(fs.u, 44);
    const auto batched_before = ex.stats().batched_fields;
    group.exchange();
    EXPECT_EQ(ex.stats().messages - after_first, after_first);
    EXPECT_EQ(ex.stats().batched_fields - batched_before, 1u);

    // And the dirty field's ghosts really were refreshed.
    lh::HaloExchanger ex_ref(d, c, c.rank());
    lh::BlockField3D u_ref("u_check", d.block(c.rank()), 3);
    fill_3d(u_ref, 44);
    ex_ref.update(u_ref, lh::FoldSign::Antisymmetric, lh::Halo3DMethod::HorizontalMajor);
    expect_identical_3d(fs.u, u_ref);
  });
}

TEST(ExchangeGroup, ZonalOnlyRefreshesEastWestThenFullRestoresAll) {
  // The polar-filter pattern: intermediate smoothing passes read only
  // east/west neighbors on owned rows, so they pay for a zonal-only batch;
  // the final full exchange restores every ghost, leaving the field exactly
  // as if every pass had used a full exchange.
  ld::Decomposition d(16, 10, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, c.rank());
    lh::HaloExchanger ex_ref(d, c, c.rank());
    FieldSet fs(d.block(c.rank()), "fs");
    FieldSet ref(d.block(c.rank()), "ref");
    lh::ExchangeGroup group(ex);
    fs.enroll(group);
    group.exchange();
    ref.update_per_field(ex_ref);

    // New interiors (a smoothing pass would do this), then zonal-only.
    fill_3d(fs.t, 7);
    fill_3d(ref.t, 7);
    group.exchange_zonal();

    // East/west ghost columns of every enrolled field are current on owned
    // rows; check the 3-D field against a fully exchanged reference.
    ex_ref.update(ref.t, lh::FoldSign::Symmetric, lh::Halo3DMethod::TransposeVerticalMajor);
    expect_zonal_ghosts_identical(fs.t, ref.t);

    // A final full exchange makes the whole state bit-identical again.
    fs.t.mark_dirty();
    group.exchange();
    fs.expect_identical_to(ref);
  });
}

TEST(ExchangeGroup, ZonalOnlyDoesNotPoisonTheSkipMap) {
  // exchange_zonal must neither consult nor record versions: after a
  // zonal-only refresh of a dirty field, the next FULL exchange must still
  // run (meridional ghosts are stale until it does).
  ld::Decomposition d(16, 10, 1, 1);
  lc::Runtime::run(1, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, 0);
    lh::BlockField3D f("f", d.block(0), 3);
    fill_3d(f, 9);
    lh::ExchangeGroup group(ex);
    group.add(f, lh::FoldSign::Symmetric, lh::Halo3DMethod::TransposeVerticalMajor);
    group.exchange_zonal();
    const auto exchanges = ex.stats().exchanges;
    group.exchange();  // must NOT be skipped
    EXPECT_GT(ex.stats().exchanges, exchanges);
    EXPECT_EQ(ex.stats().skipped, 0u);
    // And the field ends fully exchanged.
    lh::HaloExchanger ex_ref(d, c, 0);
    lh::BlockField3D r("r", d.block(0), 3);
    fill_3d(r, 9);
    ex_ref.update(r, lh::FoldSign::Symmetric, lh::Halo3DMethod::TransposeVerticalMajor);
    expect_identical_3d(f, r);
  });
}

TEST(ExchangeGroup, CrcDetectsCorruptionInAggregatedMessage) {
  // Flip bits inside one fused multi-field payload: the single trailing CRC
  // word covers every field's box, so the receiver must throw CommError and
  // count the detection — exactly the per-field semantics. Two ranks, so the
  // zonal links are real messages (a one-rank group only self-copies).
  licomk::telemetry::reset();
  licomk::telemetry::set_enabled(true);
  licomk::resilience::FaultSchedule s;
  s.add({licomk::resilience::FaultSite::CommPayload, licomk::resilience::FaultKind::FlipBits,
         /*rank=*/-1, /*at_op=*/1, /*param=*/3.0});
  licomk::resilience::arm(s);
  ld::Decomposition d(16, 10, 2, 1);
  EXPECT_THROW(lc::Runtime::run(2,
                                [&](lc::Communicator& c) {
                                  lh::HaloExchanger ex(d, c, c.rank());
                                  ex.set_verify_crc(true);
                                  FieldSet fs(d.block(c.rank()), "fs");
                                  lh::ExchangeGroup group(ex);
                                  fs.enroll(group);
                                  group.exchange();
                                }),
               licomk::CommError);
  EXPECT_GE(licomk::resilience::injected_count(), 1u);
  EXPECT_GE(licomk::telemetry::counter_value("resilience.halo_crc_failures"), 1u);
  licomk::resilience::disarm();
  licomk::telemetry::set_enabled(false);
  licomk::telemetry::reset();
}

TEST(ExchangeGroup, LifecycleGuards) {
  ld::Decomposition d(16, 10, 1, 1);
  lc::Runtime::run(1, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, 0);
    lh::BlockField3D f("f", d.block(0), 2);
    fill_3d(f, 1);
    lh::ExchangeGroup group(ex);
    group.add(f, lh::FoldSign::Symmetric, lh::Halo3DMethod::TransposeVerticalMajor);

    EXPECT_THROW(group.finish(), licomk::InvalidArgument);  // nothing begun
    group.begin();
    EXPECT_THROW(group.begin(), licomk::InvalidArgument);           // already in flight
    EXPECT_THROW(group.exchange_zonal(), licomk::InvalidArgument);  // mid-flight
    group.finish();
    EXPECT_THROW(group.finish(), licomk::InvalidArgument);  // double finish

    // Enrolling mid-flight is rejected (it would drop the plan the
    // in-flight round is using).
    lh::BlockField3D g("g", d.block(0), 2);
    fill_3d(g, 2);
    f.mark_dirty();
    group.begin();
    EXPECT_THROW(group.add(g), licomk::InvalidArgument);
    group.finish();
  });
}

TEST(ExchangeGroup, EmptyGroupIsANoOp) {
  ld::Decomposition d(16, 10, 1, 1);
  lc::Runtime::run(1, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, 0);
    lh::ExchangeGroup group(ex);
    group.exchange();
    group.exchange_zonal();
    EXPECT_EQ(ex.stats().messages, 0u);
    EXPECT_EQ(ex.stats().batches, 0u);
    EXPECT_EQ(group.plan_builds(), 0u);
  });
}

TEST(ExchangeGroup, FallbackReproducesPerFieldMessagePattern) {
  // batching off (the ablation baseline): identical values, per-field
  // message counts, zero batches, no plan — the group is a thin loop over
  // update().
  ld::Decomposition d(16, 10, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex_ref(d, c, c.rank());
    lh::HaloExchanger ex_off(d, c, c.rank());
    ex_off.set_batching(false);
    FieldSet ref(d.block(c.rank()), "ref");
    FieldSet off(d.block(c.rank()), "off");
    ref.update_per_field(ex_ref);
    lh::ExchangeGroup group(ex_off);
    off.enroll(group);
    group.exchange();
    off.expect_identical_to(ref);
    EXPECT_EQ(ex_off.stats().messages, ex_ref.stats().messages);
    EXPECT_EQ(ex_off.stats().equiv_messages, ex_ref.stats().messages);
    EXPECT_EQ(ex_off.stats().batches, 0u);
    EXPECT_EQ(group.plan_builds(), 0u);
  });
}

TEST(ExchangeGroup, ConcurrentGroupsWithDistinctTagBlocksDoNotMix) {
  // Two groups in flight at once on the SAME exchanger: tag blocks keep
  // their messages apart even with interleaved begin/finish.
  ld::Decomposition d(16, 10, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, c.rank());
    lh::HaloExchanger ex_ref(d, c, c.rank());
    lh::BlockField3D a("a", d.block(c.rank()), 3);
    lh::BlockField3D b("b", d.block(c.rank()), 4);
    lh::BlockField3D ra("ra", d.block(c.rank()), 3);
    lh::BlockField3D rb("rb", d.block(c.rank()), 4);
    fill_3d(a, 11);
    fill_3d(b, 22);
    fill_3d(ra, 11);
    fill_3d(rb, 22);
    lh::ExchangeGroup ga(ex, /*tag_block=*/0);
    lh::ExchangeGroup gb(ex, /*tag_block=*/1);
    ga.add(a, lh::FoldSign::Antisymmetric, lh::Halo3DMethod::TransposeVerticalMajor);
    gb.add(b, lh::FoldSign::Symmetric, lh::Halo3DMethod::HorizontalMajor);
    ga.begin();
    gb.begin();
    gb.finish();
    ga.finish();
    ex_ref.update(ra, lh::FoldSign::Antisymmetric, lh::Halo3DMethod::TransposeVerticalMajor);
    ex_ref.update(rb, lh::FoldSign::Symmetric, lh::Halo3DMethod::HorizontalMajor);
    expect_identical_3d(a, ra);
    expect_identical_3d(b, rb);
  });
}

TEST(ExchangeGroup, LiveGroupsOnTheSameTagBlockAreAHardError) {
  // Two live rounds sharing a tag block would FIFO-match each other's
  // messages — the in-flight claim registry must reject the second begin()
  // as a CommError before anything is posted, and the surviving group must
  // still complete correctly.
  ld::Decomposition d(16, 10, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, c.rank());
    lh::HaloExchanger ex_ref(d, c, c.rank());
    lh::BlockField3D a("a", d.block(c.rank()), 3);
    lh::BlockField3D b("b", d.block(c.rank()), 3);
    lh::BlockField3D ra("ra", d.block(c.rank()), 3);
    fill_3d(a, 11);
    fill_3d(b, 22);
    fill_3d(ra, 11);
    lh::ExchangeGroup ga(ex, /*tag_block=*/0);
    lh::ExchangeGroup gb(ex, /*tag_block=*/0);
    ga.add(a);
    gb.add(b);
    ga.begin();
    try {
      gb.begin();
      FAIL() << "second begin() on the same live tag block did not throw";
    } catch (const licomk::CommError& e) {
      EXPECT_NE(std::string(e.what()).find("tag collision"), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find("ExchangeGroup"), std::string::npos) << e.what();
    }
    ga.finish();
    ex_ref.update(ra);
    expect_identical_3d(a, ra);
    // The claim died with ga.finish(): a fresh group on block 0 works again.
    lh::BlockField3D a2("a2", d.block(c.rank()), 3);
    lh::BlockField3D ra2("ra2", d.block(c.rank()), 3);
    fill_3d(a2, 33);
    fill_3d(ra2, 33);
    lh::ExchangeGroup gc(ex, /*tag_block=*/0);
    gc.add(a2);
    gc.exchange();
    ex_ref.update(ra2);
    expect_identical_3d(a2, ra2);
  });
}

TEST(ExchangeGroup, PlannedGroupsShareATagBlockRoundByRound) {
  // Tags are claimed per round, not for the plan's lifetime: two groups on
  // one block keep their cached plans and alternate rounds freely — the
  // pattern of the model's per-step groups.
  ld::Decomposition d(16, 10, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, c.rank());
    lh::HaloExchanger ex_ref(d, c, c.rank());
    FieldSet fa(d.block(c.rank()), "fa");
    FieldSet fb(d.block(c.rank()), "fb");
    FieldSet ra(d.block(c.rank()), "ra");
    FieldSet rb(d.block(c.rank()), "rb");
    lh::ExchangeGroup ga(ex, /*tag_block=*/0);
    lh::ExchangeGroup gb(ex, /*tag_block=*/0);
    fa.enroll(ga);
    fb.enroll(gb);
    for (int round = 0; round < 3; ++round) {
      fa.refill(10 * round);
      fb.refill(10 * round + 5);
      ra.refill(10 * round);
      rb.refill(10 * round + 5);
      ga.exchange();
      gb.begin();
      gb.finish();
      ra.update_per_field(ex_ref);
      rb.update_per_field(ex_ref);
      fa.expect_identical_to(ra);
      fb.expect_identical_to(rb);
    }
    EXPECT_EQ(ga.plan_builds(), 1u);
    EXPECT_EQ(gb.plan_builds(), 1u);
    EXPECT_EQ(ga.plan_hits(), 2u);
    EXPECT_EQ(gb.plan_hits(), 2u);
  });
}

TEST(ExchangeGroup, TagBasePartitionsTwoTenantsOnOneCommunicator) {
  // Two exchangers (two "tenants") over the SAME communicator, both using
  // tag_block 0: with distinct tag bases their interleaved batches must not
  // mix. set_tag_base() is refused while a claim is live, and a new base
  // rebuilds the plan's registered requests at the next round.
  ld::Decomposition d(16, 10, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex_a(d, c, c.rank());
    lh::HaloExchanger ex_b(d, c, c.rank());
    lh::HaloExchanger ex_ref(d, c, c.rank());
    ex_b.set_tag_base(4);
    lh::BlockField3D a("a", d.block(c.rank()), 3);
    lh::BlockField3D b("b", d.block(c.rank()), 3);
    lh::BlockField3D ra("ra", d.block(c.rank()), 3);
    lh::BlockField3D rb("rb", d.block(c.rank()), 3);
    fill_3d(a, 11);
    fill_3d(b, 22);
    fill_3d(ra, 11);
    fill_3d(rb, 22);
    lh::ExchangeGroup ga(ex_a, /*tag_block=*/0);
    lh::ExchangeGroup gb(ex_b, /*tag_block=*/0);
    ga.add(a, lh::FoldSign::Antisymmetric);
    gb.add(b, lh::FoldSign::Symmetric);
    ga.begin();
    EXPECT_THROW(ex_a.set_tag_base(8), licomk::Error);  // claim in flight
    gb.begin();
    gb.finish();
    ga.finish();
    ex_a.set_tag_base(8);  // fine again once the claim is released
    ex_ref.update(ra, lh::FoldSign::Antisymmetric);
    ex_ref.update(rb, lh::FoldSign::Symmetric);
    expect_identical_3d(a, ra);
    expect_identical_3d(b, rb);

    fill_3d(a, 33);
    fill_3d(ra, 33);
    ga.exchange();
    EXPECT_EQ(ga.plan_builds(), 2u);
    ex_ref.update(ra, lh::FoldSign::Antisymmetric);
    expect_identical_3d(a, ra);
  });
}

namespace {

namespace core = licomk::core;

void expect_same_prognostic_state(const core::LicomModel& a, const core::LicomModel& b) {
  expect_identical_3d(a.state().t_cur, b.state().t_cur);
  expect_identical_3d(a.state().s_cur, b.state().s_cur);
  expect_identical_3d(a.state().u_cur, b.state().u_cur);
  expect_identical_3d(a.state().v_cur, b.state().v_cur);
  expect_identical_2d(a.state().eta_cur, b.state().eta_cur);
  expect_identical_2d(a.state().ubar_cur, b.state().ubar_cur);
  expect_identical_2d(a.state().vbar_cur, b.state().vbar_cur);
}

}  // namespace

TEST(ExchangeGroup, ModelStateBitIdenticalBatchedVsPerField) {
  // End to end: a model stepped with grouped exchanges must produce the
  // SAME bits as one stepped with per-field exchanges — grouping is a pure
  // communication-layout change. One rank is the self-copy extreme: every
  // "neighbor" is this rank itself (zonal periodic wrap + the fold mirror),
  // so the groups send no wire messages at all where the per-field path
  // pays full self-messages.
  auto run_model = [](bool batched) {
    core::ModelConfig cfg = core::ModelConfig::testing(8);
    cfg.batch_halo_exchange = batched;
    core::LicomModel model(cfg);
    for (int i = 0; i < 3; ++i) model.step();
    return model;
  };
  core::LicomModel a = run_model(true);
  core::LicomModel b = run_model(false);
  expect_same_prognostic_state(a, b);
  const auto& sa = a.exchanger().stats();
  const auto& sb = b.exchanger().stats();
  EXPECT_GT(sa.batches, 0u);
  EXPECT_EQ(sa.messages, 0u);
  EXPECT_GT(sa.self_copies, 0u);
  EXPECT_GT(sb.messages, 0u);
  EXPECT_EQ(sa.equiv_messages, sb.equiv_messages);
}

TEST(ExchangeGroup, ModelStateBitIdenticalBatchedVsPerFieldMultiRank) {
  core::ModelConfig cfg_a = core::ModelConfig::testing(8);
  cfg_a.batch_halo_exchange = true;
  core::ModelConfig cfg_b = cfg_a;
  cfg_b.batch_halo_exchange = false;
  auto global = std::make_shared<licomk::grid::GlobalGrid>(cfg_a.grid, cfg_a.bathymetry_seed);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    core::LicomModel a(cfg_a, global, c);
    core::LicomModel b(cfg_b, global, c);
    for (int i = 0; i < 2; ++i) {
      a.step();
      b.step();
    }
    expect_same_prognostic_state(a, b);
    const auto& sa = a.exchanger().stats();
    EXPECT_LT(sa.messages, b.exchanger().stats().messages);
    EXPECT_GE(static_cast<double>(sa.equiv_messages) / static_cast<double>(sa.messages), 3.0);
    // The subcycle's share of the reduction, measured on both runs: fusion,
    // self-copies, zonal-only substep refreshes and pass-aware filter
    // refreshes. Counts are deterministic, so this is exact.
    double gm =
        c.allreduce_scalar(static_cast<double>(a.subcycle_messages()), lc::ReduceOp::Sum);
    double pm =
        c.allreduce_scalar(static_cast<double>(b.subcycle_messages()), lc::ReduceOp::Sum);
    EXPECT_GT(gm, 0.0);
    EXPECT_GE(pm / gm, 2.0) << "grouped=" << gm << " per-field=" << pm;
  });
}
