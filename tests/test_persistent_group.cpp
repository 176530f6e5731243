// Tests for the persistent side of the planned halo engine
// (halo::ExchangeGroup): the plan built once per enrollment and reused
// round after round — per-peer message fusion, self-copy elimination,
// plan rebuilds on an enrollment change or a CRC flip, the
// partial-participation fallback off the registered requests, the
// model-owned groups planned once per run, and a fresh plan across an
// elastic shrink (redistributed checkpoint) with per-field global CRC
// equality. Every check compares against per-field update() (the oracle).
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "comm/runtime.hpp"
#include "core/model.hpp"
#include "halo/exchange_group.hpp"
#include "halo/halo_exchange.hpp"
#include "halo_group_fixtures.hpp"
#include "resilience/redistribute.hpp"

namespace lc = licomk::comm;
namespace core = licomk::core;
namespace fs = std::filesystem;
using namespace halo_test;

namespace {

/// Every model-owned group planned exactly once and reused afterwards.
void expect_groups_planned_once(const core::LicomModel& m) {
  const auto groups = m.halo_groups();
  ASSERT_FALSE(groups.empty());
  for (std::size_t k = 0; k < groups.size(); ++k) {
    EXPECT_EQ(groups[k]->plan_builds(), 1u) << "group " << k;
    EXPECT_GT(groups[k]->plan_hits(), 0u) << "group " << k;
  }
}

}  // namespace

TEST(PersistentGroup, PerPeerFusionMergesZonalStrips) {
  // px == 2: each rank's west and east neighbor are the SAME rank, so the
  // two zonal strips travel in one fused message — 1 wire message per rank
  // per zonal refresh where per-direction messages would pay 2.
  ld::Decomposition d(16, 10, 2, 1);
  lc::Runtime::run(2, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, c.rank());
    lh::HaloExchanger ex_ref(d, c, c.rank());
    FieldSet grp(d.block(c.rank()), "grp");
    FieldSet ref(d.block(c.rank()), "ref");
    lh::ExchangeGroup group(ex);
    grp.enroll(group);
    group.exchange_zonal();
    EXPECT_EQ(ex.stats().messages, 1u);
    // The merged payload still lands exactly where two messages would have.
    ref.update_per_field(ex_ref);
    expect_zonal_ghosts_identical(grp.t, ref.t);
    expect_zonal_ghosts_identical(grp.u, ref.u);
    // A full exchange stays bit-identical to the per-field oracle.
    grp.refill(7);
    ref.refill(7);
    group.exchange();
    ref.update_per_field(ex_ref);
    grp.expect_identical_to(ref);
  });
}

TEST(PersistentGroup, SelfCopiesEliminateWireMessages) {
  // px == 1: the zonal wrap peer is this rank itself. The plan turns the
  // two self-messages of a zonal refresh into a local pack→staging→unpack
  // copy — zero communicator traffic.
  ld::Decomposition d(16, 10, 1, 2);
  lc::Runtime::run(2, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, c.rank());
    lh::HaloExchanger ex_ref(d, c, c.rank());
    FieldSet grp(d.block(c.rank()), "grp");
    FieldSet ref(d.block(c.rank()), "ref");
    lh::ExchangeGroup group(ex);
    grp.enroll(group);
    group.exchange_zonal();
    EXPECT_EQ(ex.stats().messages, 0u);
    EXPECT_GE(group.self_copies(), 1u);
    EXPECT_EQ(ex.stats().self_copies, group.self_copies());
    grp.refill(9);
    ref.refill(9);
    group.exchange();
    ref.update_per_field(ex_ref);
    grp.expect_identical_to(ref);
  });
}

TEST(PersistentGroup, EnrollmentChangeRebuildsPlan) {
  // The rebuilt plan must size every message for the NEW field set and
  // stay bit-identical.
  ld::Decomposition d(16, 10, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, c.rank());
    lh::HaloExchanger ex_ref(d, c, c.rank());
    lh::BlockField3D a("a", d.block(c.rank()), 3);
    lh::BlockField3D a_ref("a_ref", d.block(c.rank()), 3);
    lh::BlockField3D b("b", d.block(c.rank()), 2);
    lh::BlockField3D b_ref("b_ref", d.block(c.rank()), 2);
    fill_3d(a, 11);
    lh::ExchangeGroup group(ex);
    group.add(a, lh::FoldSign::Symmetric, lh::Halo3DMethod::TransposeVerticalMajor);
    group.exchange();
    EXPECT_EQ(group.plan_builds(), 1u);

    // Enroll a second field: the cached single-field plan is invalid now.
    fill_3d(b, 22);
    fill_3d(b_ref, 22);
    fill_3d(a, 33);
    fill_3d(a_ref, 33);
    group.add(b, lh::FoldSign::Antisymmetric, lh::Halo3DMethod::HorizontalMajor);
    group.exchange();
    EXPECT_EQ(group.plan_builds(), 2u);
    ex_ref.update(a_ref, lh::FoldSign::Symmetric, lh::Halo3DMethod::TransposeVerticalMajor);
    ex_ref.update(b_ref, lh::FoldSign::Antisymmetric, lh::Halo3DMethod::HorizontalMajor);
    expect_identical_3d(a, a_ref);
    expect_identical_3d(b, b_ref);
  });
}

TEST(PersistentGroup, CrcFlipRebuildsPlan) {
  // verify_crc changes the wire layout (one trailing CRC word per message),
  // so flipping it must rebuild the registered buffers, not reuse them.
  ld::Decomposition d(16, 10, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, c.rank());
    lh::HaloExchanger ex_ref(d, c, c.rank());
    FieldSet grp(d.block(c.rank()), "grp");
    FieldSet ref(d.block(c.rank()), "ref");
    lh::ExchangeGroup group(ex);
    grp.enroll(group);
    group.exchange();
    EXPECT_EQ(group.plan_builds(), 1u);
    ex.set_verify_crc(true);
    ex_ref.set_verify_crc(true);
    grp.refill(5);
    ref.refill(5);
    group.exchange();
    ref.update_per_field(ex_ref);
    EXPECT_EQ(group.plan_builds(), 2u);
    grp.expect_identical_to(ref);
  });
}

TEST(PersistentGroup, PartialParticipationFallsBackToPlainSends) {
  // When the redundancy eliminator skips a subset of the enrolled fields the
  // fixed-size registered messages cannot carry the round; the group must
  // fall back to plain sends sized to the participating fields and count the
  // event — and the dirty field's ghosts must still come out right.
  ld::Decomposition d(16, 10, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, c.rank());
    FieldSet grp(d.block(c.rank()), "grp");
    lh::ExchangeGroup group(ex);
    grp.enroll(group);
    group.exchange();
    EXPECT_EQ(group.partial_exchanges(), 0u);

    // Only u goes dirty: a 1-of-5 partial round.
    fill_3d(grp.u, 44);
    group.exchange();
    EXPECT_EQ(group.partial_exchanges(), 1u);

    lh::HaloExchanger ex_ref(d, c, c.rank());
    lh::BlockField3D u_ref("u_check", d.block(c.rank()), 3);
    fill_3d(u_ref, 44);
    ex_ref.update(u_ref, lh::FoldSign::Antisymmetric, lh::Halo3DMethod::HorizontalMajor);
    expect_identical_3d(grp.u, u_ref);

    // Nothing dirty at all: the whole round collapses, no partial counted.
    group.exchange();
    EXPECT_EQ(group.partial_exchanges(), 1u);
  });
}

TEST(PersistentGroup, ModelOwnedGroupsArePlannedOnce) {
  // The model builds one group per hot call site at construction; stepping
  // must reuse each plan, never rebuild it — on one rank and on four.
  core::ModelConfig cfg = core::ModelConfig::testing(8);
  cfg.batch_halo_exchange = true;
  {
    core::LicomModel m(cfg);
    for (int i = 0; i < 3; ++i) m.step();
    expect_groups_planned_once(m);
  }
  auto global = std::make_shared<licomk::grid::GlobalGrid>(cfg.grid, cfg.bathymetry_seed);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    core::LicomModel m(cfg, global, c);
    for (int i = 0; i < 3; ++i) m.step();
    expect_groups_planned_once(m);
  });
}

TEST(PersistentGroup, ShrinkRedistributeRebuildAndGlobalCrcEquality) {
  // Decomposition change across an elastic shrink. A 4-rank model writes a
  // checkpoint; the checkpoint is re-sliced onto a 2-rank layout; two 2-rank
  // models — grouped vs per-field — resume from the SAME redistributed files
  // and step. The grouped model's groups plan fresh for the new
  // decomposition (no stale geometry can survive the shrink: the groups
  // belong to the model), and the per-field GLOBAL CRCs of the two resumed
  // runs must match exactly.
  namespace lr = licomk::resilience;
  const std::string dir = "/tmp/licomk_group_shrink";
  fs::remove_all(dir);
  fs::create_directories(dir);

  core::ModelConfig cfg = core::ModelConfig::testing(8);
  cfg.batch_halo_exchange = true;
  auto global = std::make_shared<licomk::grid::GlobalGrid>(cfg.grid, cfg.bathymetry_seed);

  const std::string pref4 = dir + "/ckpt4";
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    core::LicomModel m(cfg, global, c);
    m.step();
    m.write_restart(pref4);
  });

  ld::Decomposition d4 = core::LicomModel::plan_decomposition(cfg, 4);
  ld::Decomposition d2 = core::LicomModel::plan_decomposition(cfg, 2);
  const std::string pref2 = dir + "/ckpt2";
  auto report = lr::redistribute_checkpoint(pref4, d4, pref2, d2);
  ASSERT_TRUE(report.crcs_match());

  auto resume_and_checkpoint = [&](bool batched, const std::string& out_pref) {
    core::ModelConfig c2 = cfg;
    c2.batch_halo_exchange = batched;
    lc::Runtime::run(2, [&](lc::Communicator& c) {
      core::LicomModel m(c2, global, c);
      m.read_restart(pref2);
      m.step();
      m.step();
      // The post-shrink model's groups planned against the NEW layout and
      // were reused by both steps.
      if (batched) expect_groups_planned_once(m);
      m.write_restart(out_pref);
    });
  };
  resume_and_checkpoint(true, dir + "/after_grouped");
  resume_and_checkpoint(false, dir + "/after_per_field");

  auto ga = lr::assemble_global_state(dir + "/after_grouped", d2);
  auto gb = lr::assemble_global_state(dir + "/after_per_field", d2);
  ASSERT_EQ(ga.field_crcs.size(), gb.field_crcs.size());
  EXPECT_EQ(ga.field_crcs, gb.field_crcs);
  fs::remove_all(dir);
}
