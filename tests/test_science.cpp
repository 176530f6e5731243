// Tests for the science diagnostics: MOC streamfunction, zonal means,
// mixed-layer depth, meridional heat transport.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "comm/runtime.hpp"
#include "core/constants.hpp"
#include "core/model.hpp"
#include "core/science_diagnostics.hpp"
#include "kxx/kxx.hpp"

namespace lc = licomk::core;
namespace lco = licomk::comm;
namespace kxx = licomk::kxx;
constexpr int kH = licomk::decomp::kHaloWidth;

namespace {
struct Fixture {
  lc::ModelConfig cfg;
  std::shared_ptr<licomk::grid::GlobalGrid> global;
  Fixture() {
    cfg = lc::ModelConfig::testing(10);
    cfg.grid.nz = 8;
    global = std::make_shared<licomk::grid::GlobalGrid>(cfg.grid, cfg.bathymetry_seed);
  }
};
}  // namespace

TEST(Science, MocVanishesAtRest) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  Fixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LicomModel m(fx.cfg, fx.global, c);
    auto moc = lc::compute_moc(m.local_grid(), m.state(), c);
    EXPECT_EQ(moc.ny, fx.cfg.grid.ny);
    EXPECT_EQ(moc.nz, fx.cfg.grid.nz);
    EXPECT_DOUBLE_EQ(moc.max_sv, 0.0);
    EXPECT_DOUBLE_EQ(moc.min_sv, 0.0);
    // Surface interface is identically zero by construction.
    for (int j = 0; j < moc.ny; ++j) EXPECT_DOUBLE_EQ(moc.psi(j, 0), 0.0);
  });
}

TEST(Science, MocRespondsToPrescribedNorthwardFlow) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  Fixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LicomModel m(fx.cfg, fx.global, c);
    auto& s = m.state();
    const auto& g = m.local_grid();
    // Uniform northward surface flow.
    for (int j = 0; j < g.ny_total(); ++j)
      for (int i = 0; i < g.nx_total(); ++i)
        if (g.u_active(0, j, i)) s.v_cur.at(0, j, i) = 0.1;
    auto moc = lc::compute_moc(g, s, c);
    // Positive (northward) overturning cell, magnitude ~ v * dx * dz summed
    // zonally: order 1-100 Sv on this grid.
    EXPECT_GT(moc.max_sv, 0.1);
    EXPECT_GE(moc.min_sv, -1e-9);
    // psi grows monotonically downward through the moving layer only.
    int jmid = moc.ny / 2;
    EXPECT_GT(moc.psi(jmid, 1), 0.0);
    EXPECT_NEAR(moc.psi(jmid, 2), moc.psi(jmid, 1), 1e-9);  // flow only in k=0
  });
}

TEST(Science, MocMultiRankMatchesSingleRank) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  Fixture fx;
  std::vector<double> ref;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LicomModel m(fx.cfg, fx.global, c);
    m.run_days(0.5);
    ref = lc::compute_moc(m.local_grid(), m.state(), c).psi_sv;
  });
  lco::Runtime::run(4, [&](lco::Communicator& c) {
    lc::LicomModel m(fx.cfg, fx.global, c);
    m.run_days(0.5);
    auto moc = lc::compute_moc(m.local_grid(), m.state(), c);
    ASSERT_EQ(moc.psi_sv.size(), ref.size());
    for (size_t n = 0; n < ref.size(); ++n) {
      ASSERT_NEAR(moc.psi_sv[n], ref[n], 1e-9 + 1e-9 * std::fabs(ref[n]));
    }
  });
}

TEST(Science, ZonalMeanOfUniformFieldIsThatValue) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  Fixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LicomModel m(fx.cfg, fx.global, c);
    licomk::kxx::fill(m.state().t_cur.view(), 11.5);
    auto zm = lc::zonal_mean_temperature(m.local_grid(), m.state(), c);
    int checked = 0;
    for (int j = 0; j < zm.ny; ++j)
      for (int k = 0; k < zm.nz; ++k)
        if (zm.has_ocean(j, k)) {
          ASSERT_NEAR(zm.at(j, k), 11.5, 1e-12);
          ++checked;
        }
    EXPECT_GT(checked, 50);
  });
}

TEST(Science, ZonalMeanReflectsStratification) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  Fixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LicomModel m(fx.cfg, fx.global, c);
    auto zm = lc::zonal_mean_temperature(m.local_grid(), m.state(), c);
    // The initial stratification: surface warmer than depth, tropics warmer
    // than poles at the surface.
    int j_tropic = zm.ny / 2;
    int j_south = 2;
    ASSERT_TRUE(zm.has_ocean(j_tropic, 0));
    ASSERT_TRUE(zm.has_ocean(j_tropic, zm.nz - 1));
    EXPECT_GT(zm.at(j_tropic, 0), zm.at(j_tropic, zm.nz - 1));
    if (zm.has_ocean(j_south, 0)) {
      EXPECT_GT(zm.at(j_tropic, 0), zm.at(j_south, 0));
    }
  });
}

TEST(Science, MixedLayerDepthTracksPrescribedProfile) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  Fixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LicomModel m(fx.cfg, fx.global, c);
    const auto& g = m.local_grid();
    auto& t = m.state().t_cur;
    // Construct: T = 20 above 100 m, 10 below => MLD interpolates across the
    // first level pair bracketing 100 m.
    for (int k = 0; k < g.nz(); ++k)
      for (int j = 0; j < g.ny_total(); ++j)
        for (int i = 0; i < g.nx_total(); ++i)
          t.at(k, j, i) = g.vertical().depth(k) < 100.0 ? 20.0 : 10.0;
    licomk::halo::BlockField2D mld("mld", g.extent());
    lc::compute_mixed_layer_depth(g, m.state(), mld, 0.5);
    int k_jump = 0;
    while (g.vertical().depth(k_jump) < 100.0) ++k_jump;
    for (int j = kH; j < kH + g.ny(); ++j)
      for (int i = kH; i < kH + g.nx(); ++i) {
        int nlev = g.kmt(j, i);
        if (nlev == 0) {
          ASSERT_DOUBLE_EQ(mld.at(j, i), 0.0);
          continue;
        }
        if (nlev <= k_jump) {
          // Column entirely in the warm layer: fully mixed to the bottom.
          ASSERT_NEAR(mld.at(j, i), g.vertical().interface_depth(nlev), 1e-9);
        } else {
          ASSERT_GE(mld.at(j, i), g.vertical().depth(k_jump - 1) - 1e-9);
          ASSERT_LE(mld.at(j, i), g.vertical().depth(k_jump) + 1e-9);
        }
      }
    double mean = lc::ocean_mean(g, mld, c);
    EXPECT_GT(mean, 0.0);
  });
}

TEST(Science, HeatTransportZeroAtRestAndSignedWithFlow) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  Fixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LicomModel m(fx.cfg, fx.global, c);
    auto rest = lc::meridional_heat_transport_pw(m.local_grid(), m.state(), c);
    for (double v : rest) ASSERT_DOUBLE_EQ(v, 0.0);

    // Northward flow carrying warm water => positive PW.
    const auto& g = m.local_grid();
    for (int j = 0; j < g.ny_total(); ++j)
      for (int i = 0; i < g.nx_total(); ++i)
        if (g.u_active(0, j, i)) m.state().v_cur.at(0, j, i) = 0.05;
    auto moving = lc::meridional_heat_transport_pw(g, m.state(), c);
    double max_pw = 0.0;
    for (double v : moving) max_pw = std::max(max_pw, v);
    EXPECT_GT(max_pw, 0.0);
    // Physically sane order of magnitude (real ocean peaks ~1.5 PW; this is
    // a synthetic prescribed flow, so just bound it loosely).
    EXPECT_LT(max_pw, 1000.0);
  });
}

TEST(Science, SpunUpModelHasOverturningAndHeatTransport) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  Fixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LicomModel m(fx.cfg, fx.global, c);
    m.run_days(2.0);
    auto moc = lc::compute_moc(m.local_grid(), m.state(), c);
    EXPECT_GT(moc.max_sv - moc.min_sv, 0.0);  // wind-driven cells exist
    licomk::halo::BlockField2D mld("mld", m.local_grid().extent());
    lc::compute_mixed_layer_depth(m.local_grid(), m.state(), mld);
    double mean_mld = lc::ocean_mean(m.local_grid(), mld, c);
    EXPECT_GT(mean_mld, 1.0);     // something mixed
    EXPECT_LT(mean_mld, 5500.0);  // not the whole ocean
  });
}
