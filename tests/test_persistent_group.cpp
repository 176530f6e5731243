// Tests for the persistent nonblocking multi-field halo engine
// (halo::PersistentGroup): bit-identity with the batched ExchangeGroup path
// across layouts and CRC modes, per-peer message fusion, self-copy
// elimination, plan-cache hit/miss accounting and invalidation (enrollment
// change, CRC flip), the partial-participation fallback, lifecycle guards,
// the per-field ablation fallback, and plan rebuild across an elastic
// shrink (redistributed checkpoint) with per-field global CRC equality.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "comm/runtime.hpp"
#include "core/model.hpp"
#include "halo/exchange_group.hpp"
#include "halo/halo_exchange.hpp"
#include "halo/persistent_group.hpp"
#include "resilience/redistribute.hpp"
#include "util/error.hpp"

namespace lh = licomk::halo;
namespace ld = licomk::decomp;
namespace lc = licomk::comm;
namespace fs = std::filesystem;

namespace {

constexpr int kH = ld::kHaloWidth;

double cell_value(int fld, int k, int j, int i) {
  return 100000.0 * fld + 1000.0 * k + 10.0 * j + 0.001 * i + 1.0;
}

void fill_2d(lh::BlockField2D& f, int fld) {
  const auto& e = f.extent();
  for (int j = 0; j < f.ny(); ++j)
    for (int i = 0; i < f.nx(); ++i)
      f.at(j + kH, i + kH) = cell_value(fld, 0, e.j0 + j, e.i0 + i);
  f.mark_dirty();
}

void fill_3d(lh::BlockField3D& f, int fld) {
  const auto& e = f.extent();
  for (int k = 0; k < f.nz(); ++k)
    for (int j = 0; j < f.ny(); ++j)
      for (int i = 0; i < f.nx(); ++i)
        f.at(k, j + kH, i + kH) = cell_value(fld, k, e.j0 + j, e.i0 + i);
  f.mark_dirty();
}

void expect_identical_2d(const lh::BlockField2D& got, const lh::BlockField2D& want) {
  for (int lj = 0; lj < got.ny_total(); ++lj)
    for (int li = 0; li < got.nx_total(); ++li)
      ASSERT_DOUBLE_EQ(got.at(lj, li), want.at(lj, li)) << "lj=" << lj << " li=" << li;
}

void expect_identical_3d(const lh::BlockField3D& got, const lh::BlockField3D& want) {
  for (int k = 0; k < got.nz(); ++k)
    for (int lj = 0; lj < got.ny_total(); ++lj)
      for (int li = 0; li < got.nx_total(); ++li)
        ASSERT_DOUBLE_EQ(got.at(k, lj, li), want.at(k, lj, li))
            << "k=" << k << " lj=" << lj << " li=" << li;
}

/// Mixed batch: both ranks (2-D/3-D), both fold signs, both 3-D methods,
/// heterogeneous nz — the same shape test_exchange_group uses.
struct FieldSet {
  lh::BlockField2D eta, vbar;
  lh::BlockField3D t, u, s;

  FieldSet(const ld::BlockExtent& e, const std::string& tag)
      : eta("eta_" + tag, e),
        vbar("vbar_" + tag, e),
        t("t_" + tag, e, 4),
        u("u_" + tag, e, 3),
        s("s_" + tag, e, 2) {
    refill();
  }

  void refill(int salt = 0) {
    fill_2d(eta, 1 + salt);
    fill_2d(vbar, 2 + salt);
    fill_3d(t, 3 + salt);
    fill_3d(u, 4 + salt);
    fill_3d(s, 5 + salt);
  }

  void enroll(lh::ExchangeGroup& g) {
    g.add(eta, lh::FoldSign::Symmetric);
    g.add(vbar, lh::FoldSign::Antisymmetric);
    g.add(t, lh::FoldSign::Symmetric, lh::Halo3DMethod::TransposeVerticalMajor);
    g.add(u, lh::FoldSign::Antisymmetric, lh::Halo3DMethod::HorizontalMajor);
    g.add(s, lh::FoldSign::Symmetric, lh::Halo3DMethod::HorizontalMajor);
  }

  void enroll(lh::PersistentGroup& g) {
    g.add(eta, lh::FoldSign::Symmetric);
    g.add(vbar, lh::FoldSign::Antisymmetric);
    g.add(t, lh::FoldSign::Symmetric, lh::Halo3DMethod::TransposeVerticalMajor);
    g.add(u, lh::FoldSign::Antisymmetric, lh::Halo3DMethod::HorizontalMajor);
    g.add(s, lh::FoldSign::Symmetric, lh::Halo3DMethod::HorizontalMajor);
  }

  void expect_identical_to(const FieldSet& ref) {
    expect_identical_2d(eta, ref.eta);
    expect_identical_2d(vbar, ref.vbar);
    expect_identical_3d(t, ref.t);
    expect_identical_3d(u, ref.u);
    expect_identical_3d(s, ref.s);
  }
};

void run_identity_case(int nx, int ny, int px, int py, bool crc) {
  ld::Decomposition d(nx, ny, px, py);
  lc::Runtime::run(d.nranks(), [&](lc::Communicator& c) {
    lh::HaloExchanger ex_bat(d, c, c.rank());
    lh::HaloExchanger ex_per(d, c, c.rank());
    ex_bat.set_verify_crc(crc);
    ex_per.set_verify_crc(crc);
    FieldSet bat(d.block(c.rank()), "bat");
    FieldSet per(d.block(c.rank()), "per");
    lh::ExchangeGroup bgroup(ex_bat);
    lh::PersistentGroup pgroup(ex_per);
    bat.enroll(bgroup);
    per.enroll(pgroup);

    // Round 1: first use builds the plan.
    bgroup.exchange();
    pgroup.exchange();
    per.expect_identical_to(bat);
    EXPECT_EQ(pgroup.plan_builds(), 1u);
    // Fusion + self-copy elimination never send MORE than the batched path.
    EXPECT_LE(ex_per.stats().messages, ex_bat.stats().messages);
    EXPECT_EQ(ex_per.stats().persistent_batches, 1u);
    // Equivalent-message accounting matches: same per-field work retired.
    EXPECT_EQ(ex_per.stats().equiv_messages, ex_bat.stats().equiv_messages);

    // Round 2: fresh interiors through the CACHED plan (the reuse that makes
    // the engine worth having) must stay bit-identical.
    bat.refill(40);
    per.refill(40);
    bgroup.exchange();
    pgroup.exchange();
    per.expect_identical_to(bat);
    EXPECT_EQ(pgroup.plan_builds(), 1u);
    EXPECT_GE(pgroup.plan_hits(), 1u);
  });
}

}  // namespace

class PersistentLayouts : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(PersistentLayouts, PersistentMatchesBatchedBitForBit) {
  auto [nx, ny, px, py] = GetParam();
  run_identity_case(nx, ny, px, py, /*crc=*/false);
}

TEST_P(PersistentLayouts, PersistentMatchesBatchedWithCrcOn) {
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

INSTANTIATE_TEST_SUITE_P(Layouts, PersistentLayouts,
                         ::testing::Values(std::make_tuple(16, 10, 1, 1),
                                           std::make_tuple(16, 10, 2, 1),
                                           std::make_tuple(16, 10, 4, 2),
                                           std::make_tuple(17, 11, 3, 2),
                                           std::make_tuple(16, 12, 2, 3)),
                         layout_name);

TEST(PersistentGroup, PerPeerFusionMergesZonalStrips) {
  // px == 2: each rank's west and east neighbor are the SAME rank, so the
  // two zonal strips travel in one fused message — 1 wire message per rank
  // per zonal refresh where the batched path pays 2.
  ld::Decomposition d(16, 10, 2, 1);
  lc::Runtime::run(2, [&](lc::Communicator& c) {
    lh::HaloExchanger ex_bat(d, c, c.rank());
    lh::HaloExchanger ex_per(d, c, c.rank());
    FieldSet bat(d.block(c.rank()), "bat");
    FieldSet per(d.block(c.rank()), "per");
    lh::ExchangeGroup bgroup(ex_bat);
    lh::PersistentGroup pgroup(ex_per);
    bat.enroll(bgroup);
    per.enroll(pgroup);
    bgroup.exchange_zonal();
    pgroup.exchange_zonal();
    EXPECT_EQ(ex_bat.stats().messages, 2u);
    EXPECT_EQ(ex_per.stats().messages, 1u);
    // The merged payload still lands exactly where two messages would have.
    for (int k = 0; k < per.t.nz(); ++k)
      for (int lj = kH; lj < kH + per.t.ny(); ++lj)
        for (int li = 0; li < per.t.nx_total(); ++li)
          if (li < kH || li >= kH + per.t.nx()) {
            ASSERT_DOUBLE_EQ(per.t.at(k, lj, li), bat.t.at(k, lj, li))
                << "k=" << k << " lj=" << lj << " li=" << li;
          }
    // A full exchange through both engines stays bit-identical.
    bat.refill(7);
    per.refill(7);
    bgroup.exchange();
    pgroup.exchange();
    per.expect_identical_to(bat);
  });
}

TEST(PersistentGroup, SelfCopiesEliminateWireMessages) {
  // px == 1: the zonal wrap peer is this rank itself. The batched path sends
  // 2 self-messages per zonal refresh; the persistent plan turns them into
  // local pack→staging→unpack copies — zero communicator traffic.
  ld::Decomposition d(16, 10, 1, 2);
  lc::Runtime::run(2, [&](lc::Communicator& c) {
    lh::HaloExchanger ex_bat(d, c, c.rank());
    lh::HaloExchanger ex_per(d, c, c.rank());
    FieldSet bat(d.block(c.rank()), "bat");
    FieldSet per(d.block(c.rank()), "per");
    lh::ExchangeGroup bgroup(ex_bat);
    lh::PersistentGroup pgroup(ex_per);
    bat.enroll(bgroup);
    per.enroll(pgroup);
    bgroup.exchange_zonal();
    pgroup.exchange_zonal();
    EXPECT_EQ(ex_bat.stats().messages, 2u);
    EXPECT_EQ(ex_per.stats().messages, 0u);
    EXPECT_GE(pgroup.self_copies(), 1u);
    EXPECT_EQ(ex_per.stats().self_copies, pgroup.self_copies());
    bat.refill(9);
    per.refill(9);
    bgroup.exchange();
    pgroup.exchange();
    per.expect_identical_to(bat);
  });
}

TEST(PersistentGroup, EnrollmentChangeRebuildsPlan) {
  // Satellite: plan-cache invalidation on field enrollment. The rebuilt plan
  // must size every message for the NEW field set and stay bit-identical.
  ld::Decomposition d(16, 10, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex_bat(d, c, c.rank());
    lh::HaloExchanger ex_per(d, c, c.rank());
    lh::BlockField3D a_bat("a_bat", d.block(c.rank()), 3);
    lh::BlockField3D a_per("a_per", d.block(c.rank()), 3);
    lh::BlockField3D b_bat("b_bat", d.block(c.rank()), 2);
    lh::BlockField3D b_per("b_per", d.block(c.rank()), 2);
    fill_3d(a_bat, 11);
    fill_3d(a_per, 11);
    lh::ExchangeGroup bgroup(ex_bat);
    lh::PersistentGroup pgroup(ex_per);
    bgroup.add(a_bat, lh::FoldSign::Symmetric, lh::Halo3DMethod::TransposeVerticalMajor);
    pgroup.add(a_per, lh::FoldSign::Symmetric, lh::Halo3DMethod::TransposeVerticalMajor);
    bgroup.exchange();
    pgroup.exchange();
    EXPECT_EQ(pgroup.plan_builds(), 1u);

    // Enroll a second field: the cached single-field plan is invalid now.
    fill_3d(b_bat, 22);
    fill_3d(b_per, 22);
    fill_3d(a_bat, 33);
    fill_3d(a_per, 33);
    bgroup.add(b_bat, lh::FoldSign::Antisymmetric, lh::Halo3DMethod::HorizontalMajor);
    pgroup.add(b_per, lh::FoldSign::Antisymmetric, lh::Halo3DMethod::HorizontalMajor);
    bgroup.exchange();
    pgroup.exchange();
    EXPECT_EQ(pgroup.plan_builds(), 2u);
    expect_identical_3d(a_per, a_bat);
    expect_identical_3d(b_per, b_bat);
  });
}

TEST(PersistentGroup, CrcFlipRebuildsPlan) {
  // verify_crc changes the wire layout (one trailing CRC word per message),
  // so flipping it must rebuild the registered buffers, not reuse them.
  ld::Decomposition d(16, 10, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, c.rank());
    lh::HaloExchanger ex_ref(d, c, c.rank());
    FieldSet per(d.block(c.rank()), "per");
    FieldSet ref(d.block(c.rank()), "ref");
    lh::PersistentGroup pgroup(ex);
    lh::ExchangeGroup rgroup(ex_ref);
    per.enroll(pgroup);
    ref.enroll(rgroup);
    pgroup.exchange();
    EXPECT_EQ(pgroup.plan_builds(), 1u);
    ex.set_verify_crc(true);
    ex_ref.set_verify_crc(true);
    per.refill(5);
    ref.refill(5);
    pgroup.exchange();
    rgroup.exchange();
    EXPECT_EQ(pgroup.plan_builds(), 2u);
    per.expect_identical_to(ref);
  });
}

TEST(PersistentGroup, PartialParticipationFallsBackToPlainSends) {
  // When the redundancy eliminator skips a subset of the enrolled fields the
  // fixed-size persistent messages cannot carry the round; the group must
  // fall back to plain sends sized to the participating fields and count the
  // event — and the dirty field's ghosts must still come out right.
  ld::Decomposition d(16, 10, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, c.rank());
    FieldSet per(d.block(c.rank()), "per");
    lh::PersistentGroup pgroup(ex);
    per.enroll(pgroup);
    pgroup.exchange();
    EXPECT_EQ(pgroup.partial_exchanges(), 0u);

    // Only u goes dirty: a 1-of-5 partial round.
    fill_3d(per.u, 44);
    pgroup.exchange();
    EXPECT_EQ(pgroup.partial_exchanges(), 1u);

    lh::HaloExchanger ex_ref(d, c, c.rank());
    lh::BlockField3D u_ref("u_check", d.block(c.rank()), 3);
    fill_3d(u_ref, 44);
    ex_ref.update(u_ref, lh::FoldSign::Antisymmetric, lh::Halo3DMethod::HorizontalMajor);
    expect_identical_3d(per.u, u_ref);

    // Nothing dirty at all: the whole round collapses, no partial counted.
    pgroup.exchange();
    EXPECT_EQ(pgroup.partial_exchanges(), 1u);
  });
}

TEST(PersistentGroup, ZonalOnlyThenFullRestoresEverything) {
  ld::Decomposition d(16, 10, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, c.rank());
    lh::HaloExchanger ex_ref(d, c, c.rank());
    FieldSet per(d.block(c.rank()), "per");
    FieldSet ref(d.block(c.rank()), "ref");
    lh::PersistentGroup pgroup(ex);
    lh::ExchangeGroup rgroup(ex_ref);
    per.enroll(pgroup);
    ref.enroll(rgroup);
    pgroup.exchange();
    rgroup.exchange();

    // The polar-filter pattern: new interiors, zonal-only refresh, then a
    // full exchange — must end bit-identical to the batched sequence.
    per.refill(6);
    ref.refill(6);
    pgroup.exchange_zonal();
    rgroup.exchange_zonal();
    per.t.mark_dirty();
    ref.t.mark_dirty();
    pgroup.exchange();
    rgroup.exchange();
    per.expect_identical_to(ref);
  });
}

TEST(PersistentGroup, LifecycleGuards) {
  ld::Decomposition d(16, 10, 1, 1);
  lc::Runtime::run(1, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, 0);
    lh::BlockField3D f("f", d.block(0), 2);
    fill_3d(f, 1);
    lh::PersistentGroup group(ex);
    group.add(f, lh::FoldSign::Symmetric, lh::Halo3DMethod::TransposeVerticalMajor);

    EXPECT_THROW(group.finish(), licomk::InvalidArgument);  // nothing begun
    group.begin();
    EXPECT_THROW(group.begin(), licomk::InvalidArgument);           // already in flight
    EXPECT_THROW(group.exchange_zonal(), licomk::InvalidArgument);  // mid-flight
    group.finish();
    EXPECT_THROW(group.finish(), licomk::InvalidArgument);  // double finish

    // Enrolling mid-flight is rejected (it would invalidate the plan the
    // in-flight exchange is using).
    lh::BlockField3D g("g", d.block(0), 2);
    fill_3d(g, 2);
    f.mark_dirty();
    group.begin();
    EXPECT_THROW(group.add(g), licomk::InvalidArgument);
    group.finish();
  });
}

TEST(PersistentGroup, EmptyGroupIsANoOp) {
  ld::Decomposition d(16, 10, 1, 1);
  lc::Runtime::run(1, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, 0);
    lh::PersistentGroup group(ex);
    group.exchange();
    group.exchange_zonal();
    EXPECT_EQ(ex.stats().messages, 0u);
    EXPECT_EQ(ex.stats().persistent_batches, 0u);
  });
}

TEST(PersistentGroup, BatchingOffDegradesToPerFieldUpdates) {
  // Ablation floor: with batching disabled on the exchanger the persistent
  // group must reproduce the per-field message pattern and values exactly.
  ld::Decomposition d(16, 10, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex_ref(d, c, c.rank());
    lh::HaloExchanger ex_off(d, c, c.rank());
    ex_off.set_batching(false);
    FieldSet ref(d.block(c.rank()), "ref");
    FieldSet off(d.block(c.rank()), "off");
    ex_ref.update(ref.eta, lh::FoldSign::Symmetric);
    ex_ref.update(ref.vbar, lh::FoldSign::Antisymmetric);
    ex_ref.update(ref.t, lh::FoldSign::Symmetric, lh::Halo3DMethod::TransposeVerticalMajor);
    ex_ref.update(ref.u, lh::FoldSign::Antisymmetric, lh::Halo3DMethod::HorizontalMajor);
    ex_ref.update(ref.s, lh::FoldSign::Symmetric, lh::Halo3DMethod::HorizontalMajor);
    lh::PersistentGroup group(ex_off);
    off.enroll(group);
    group.exchange();
    off.expect_identical_to(ref);
    EXPECT_EQ(ex_off.stats().messages, ex_ref.stats().messages);
    EXPECT_EQ(ex_off.stats().batches, 0u);
    EXPECT_EQ(ex_off.stats().persistent_batches, 0u);
    EXPECT_EQ(group.plan_builds(), 0u);  // fallback never builds a plan
  });
}

TEST(PersistentGroup, ShrinkRedistributeRebuildAndGlobalCrcEquality) {
  // Satellite: decomposition change across an elastic shrink. A 4-rank model
  // (persistent engine on) writes a checkpoint; the checkpoint is re-sliced
  // onto a 2-rank layout; two 2-rank models — persistent on vs off — resume
  // from the SAME redistributed files and step. The persistent models build
  // fresh plans for the new decomposition (no stale geometry can survive the
  // shrink: the group belongs to the model), and the per-field GLOBAL CRCs
  // of the two resumed runs must match exactly.
  namespace core = licomk::core;
  namespace lr = licomk::resilience;
  const std::string dir = "/tmp/licomk_persistent_shrink";
  fs::remove_all(dir);
  fs::create_directories(dir);

  core::ModelConfig cfg = core::ModelConfig::testing(8);
  cfg.batch_halo_exchange = true;
  cfg.persistent_halo_exchange = true;
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

  auto resume_and_checkpoint = [&](bool persistent, const std::string& out_pref) {
    core::ModelConfig c2 = cfg;
    c2.persistent_halo_exchange = persistent;
    lc::Runtime::run(2, [&](lc::Communicator& c) {
      core::LicomModel m(c2, global, c);
      m.read_restart(pref2);
      m.step();
      m.step();
      if (persistent) {
        // The post-shrink model's group planned against the NEW layout and
        // was reused by both steps' subcycles.
        ASSERT_NE(m.subcycle_group(), nullptr);
        EXPECT_EQ(m.subcycle_group()->plan_builds(), 1u);
        EXPECT_GT(m.subcycle_group()->plan_hits(), 0u);
      }
      m.write_restart(out_pref);
    });
  };
  resume_and_checkpoint(true, dir + "/after_per");
  resume_and_checkpoint(false, dir + "/after_bat");

  auto ga = lr::assemble_global_state(dir + "/after_per", d2);
  auto gb = lr::assemble_global_state(dir + "/after_bat", d2);
  ASSERT_EQ(ga.field_crcs.size(), gb.field_crcs.size());
  EXPECT_EQ(ga.field_crcs, gb.field_crcs);
  fs::remove_all(dir);
}
