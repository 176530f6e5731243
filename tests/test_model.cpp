// Integration tests: the full LICOMK++ model stepping on small global grids.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <mutex>

#include "comm/runtime.hpp"
#include "core/model.hpp"
#include "kxx/kxx.hpp"
#include "telemetry/telemetry.hpp"
#include "util/crc64.hpp"
#include "util/sypd.hpp"

namespace lc = licomk::core;
namespace lco = licomk::comm;
namespace kxx = licomk::kxx;

namespace {
lc::ModelConfig small_config() {
  auto cfg = lc::ModelConfig::testing(8);  // 45x27 horizontal
  cfg.grid.nz = 8;
  return cfg;
}
}  // namespace

TEST(Model, RunsTwoDaysStably) {
  kxx::initialize(kxx::config_from_env({kxx::Backend::Serial, 1, false}));
  lc::LicomModel m(small_config());
  m.run_days(2.0);
  auto d = m.diagnostics();
  EXPECT_TRUE(d.finite());
  EXPECT_GT(d.mean_sst, 0.0);
  EXPECT_LT(d.mean_sst, 30.0);
  EXPECT_LT(d.max_speed, 5.0);
  EXPECT_LT(d.max_abs_eta, 10.0);
  EXPECT_GT(d.kinetic_energy, 0.0);  // the wind spun the ocean up
  EXPECT_EQ(m.steps_taken(), 2 * 60);
  EXPECT_GT(m.sypd(), 0.0);
}

TEST(Model, TracerFieldsStayWithinPhysicalBounds) {
  kxx::initialize(kxx::config_from_env({kxx::Backend::Serial, 1, false}));
  lc::LicomModel m(small_config());
  m.run_days(3.0);
  const auto& g = m.local_grid();
  const int h = licomk::decomp::kHaloWidth;
  for (int k = 0; k < g.nz(); ++k)
    for (int j = h; j < h + g.ny(); ++j)
      for (int i = h; i < h + g.nx(); ++i)
        if (g.t_active(k, j, i)) {
          double t = m.state().t_cur.at(k, j, i);
          double s = m.state().s_cur.at(k, j, i);
          ASSERT_GT(t, -3.0) << k << " " << j << " " << i;
          ASSERT_LT(t, 35.0);
          ASSERT_GT(s, 30.0);
          ASSERT_LT(s, 40.0);
        }
}

TEST(Model, NearConservationWithRestoringDisabled) {
  kxx::initialize(kxx::config_from_env({kxx::Backend::Serial, 1, false}));
  auto cfg = small_config();
  cfg.restore_timescale_days = 1.0e9;  // effectively closed system
  lc::LicomModel m(cfg);
  auto d0 = m.diagnostics();
  m.run_days(2.0);
  auto d1 = m.diagnostics();
  // Advection conserves exactly up to the free-surface volume term
  // (DESIGN.md: fixed-thickness surface layer), which scales like
  // max|eta| / depth ~ 1e-3; diffusion and the polar filter conserve.
  EXPECT_NEAR(d1.mean_temp / d0.mean_temp, 1.0, 2e-3);
  EXPECT_NEAR(d1.mean_salt / d0.mean_salt, 1.0, 1e-4);
}

TEST(Model, DeterministicAcrossRuns) {
  kxx::initialize(kxx::config_from_env({kxx::Backend::Serial, 1, false}));
  lc::LicomModel a(small_config());
  lc::LicomModel b(small_config());
  a.run_days(1.0);
  b.run_days(1.0);
  auto da = a.diagnostics();
  auto db = b.diagnostics();
  EXPECT_DOUBLE_EQ(da.mean_sst, db.mean_sst);
  EXPECT_DOUBLE_EQ(da.kinetic_energy, db.kinetic_energy);
  EXPECT_DOUBLE_EQ(da.max_abs_eta, db.max_abs_eta);
}

TEST(Model, MultiRankMatchesSingleRank) {
  kxx::initialize(kxx::config_from_env({kxx::Backend::Serial, 1, false}));
  auto cfg = small_config();
  // Reference run on one rank.
  lc::LicomModel ref(cfg);
  ref.run_days(1.0);
  auto dref = ref.diagnostics();

  auto global = std::make_shared<licomk::grid::GlobalGrid>(cfg.grid, cfg.bathymetry_seed);
  for (int nranks : {2, 4}) {
    lc::GlobalDiagnostics dpar;
    lco::Runtime::run(nranks, [&](lco::Communicator& c) {
      lc::LicomModel m(cfg, global, c);
      m.run_days(1.0);
      auto d = m.diagnostics();
      if (c.rank() == 0) dpar = d;
    });
    // The decomposition changes summation order in a few collectives; physics
    // is identical, so diagnostics agree to tight tolerance.
    EXPECT_NEAR(dpar.mean_sst, dref.mean_sst, 1e-9) << nranks << " ranks";
    EXPECT_NEAR(dpar.kinetic_energy / dref.kinetic_energy, 1.0, 1e-9) << nranks << " ranks";
    EXPECT_NEAR(dpar.max_abs_eta, dref.max_abs_eta, 1e-9) << nranks << " ranks";
    EXPECT_NEAR(dpar.mean_temp, dref.mean_temp, 1e-10) << nranks << " ranks";
  }
}

namespace {

/// Per-field CRC-64 fingerprint of the prognostic state (halo-inclusive:
/// bit-identity must hold for every byte, ghosts included).
struct StateSig {
  std::uint64_t t, s, u, v, eta;
  bool operator==(const StateSig& o) const {
    return t == o.t && s == o.s && u == o.u && v == o.v && eta == o.eta;
  }
};

StateSig state_signature(const lc::LicomModel& m) {
  namespace lu = licomk::util;
  auto c3 = [](const licomk::halo::BlockField3D& f) {
    return lu::crc64(f.view().data(), static_cast<std::size_t>(f.nz()) * f.ny_total() *
                                          f.nx_total() * sizeof(double));
  };
  auto c2 = [](const licomk::halo::BlockField2D& f) {
    return lu::crc64(f.view().data(),
                     static_cast<std::size_t>(f.ny_total()) * f.nx_total() * sizeof(double));
  };
  const auto& s = m.state();
  return StateSig{c3(s.t_cur), c3(s.s_cur), c3(s.u_cur), c3(s.v_cur), c2(s.eta_cur)};
}

}  // namespace

// The ISSUE acceptance gate: the final prognostic state is CRC-64 identical
// per field across LICOMK_PACK_SIZE ∈ {1, 4, 8} and fused vs unfused kernel
// chains — packing and fusion change performance, never a single bit.
TEST(Model, PackFusionCrcMatrixSingleRank) {
  auto run = [](kxx::Backend backend, int nthreads, int pack, bool fuse) {
    kxx::InitConfig kc{backend, nthreads, false};
    kc.pack_size = pack;
    kxx::initialize(kc);
    auto cfg = small_config();
    cfg.fuse_kernels = fuse;
    lc::LicomModel m(cfg);
    m.run_days(0.5);
    return state_signature(m);
  };
  StateSig ref = run(kxx::Backend::Serial, 1, 1, false);  // scalar-unfused
  for (int pack : {1, 4, 8}) {
    for (bool fuse : {false, true}) {
      StateSig sig = run(kxx::Backend::Serial, 1, pack, fuse);
      EXPECT_TRUE(sig == ref) << "serial pack=" << pack << " fuse=" << fuse;
    }
  }
  // Threads backend, fully packed + fused (the perf_smoke gate configuration).
  StateSig thr = run(kxx::Backend::Threads, 4, 8, true);
  EXPECT_TRUE(thr == ref) << "threads pack=8 fused";
  kxx::initialize(kxx::config_from_env({kxx::Backend::Serial, 1, false}));
}

TEST(Model, PackFusionCrcMatrixMultiRank) {
  auto cfg_of = [](bool fuse) {
    auto cfg = small_config();
    cfg.fuse_kernels = fuse;
    return cfg;
  };
  auto global = std::make_shared<licomk::grid::GlobalGrid>(small_config().grid,
                                                           small_config().bathymetry_seed);
  const int nranks = 4;
  auto run = [&](int pack, bool fuse) {
    kxx::InitConfig kc{kxx::Backend::Serial, 1, false};
    kc.pack_size = pack;
    kxx::initialize(kc);
    std::vector<StateSig> sigs(nranks);
    lco::Runtime::run(nranks, [&](lco::Communicator& c) {
      lc::LicomModel m(cfg_of(fuse), global, c);
      m.run_days(0.5);
      sigs[static_cast<std::size_t>(c.rank())] = state_signature(m);
    });
    return sigs;
  };
  // Per-rank equality of every block (halos included) implies global-field
  // equality under any decomposition.
  auto ref = run(1, false);
  for (auto [pack, fuse] : {std::pair<int, bool>{4, true}, {8, true}, {8, false}}) {
    auto sigs = run(pack, fuse);
    for (int r = 0; r < nranks; ++r) {
      EXPECT_TRUE(sigs[static_cast<std::size_t>(r)] == ref[static_cast<std::size_t>(r)])
          << "rank " << r << " pack=" << pack << " fuse=" << fuse;
    }
  }
  kxx::initialize(kxx::config_from_env({kxx::Backend::Serial, 1, false}));
}

TEST(Model, BackendsAgreeOnPhysics) {
  // The same run on Serial vs AthreadSim backends: the registered kernels
  // execute through completely different dispatch paths but must produce the
  // same ocean.
  kxx::initialize(kxx::config_from_env({kxx::Backend::Serial, 1, false}));
  lc::LicomModel serial(small_config());
  serial.run_days(0.5);
  auto ds = serial.diagnostics();

  kxx::initialize({kxx::Backend::AthreadSim, 1, false});
  lc::LicomModel athread(small_config());
  athread.run_days(0.5);
  auto da = athread.diagnostics();
  kxx::initialize(kxx::config_from_env({kxx::Backend::Serial, 1, false}));

  EXPECT_DOUBLE_EQ(ds.mean_sst, da.mean_sst);
  EXPECT_DOUBLE_EQ(ds.kinetic_energy, da.kinetic_energy);
  EXPECT_DOUBLE_EQ(ds.max_abs_eta, da.max_abs_eta);
}

TEST(Model, HaloStrategiesAgree) {
  kxx::initialize(kxx::config_from_env({kxx::Backend::Serial, 1, false}));
  auto cfg = small_config();
  cfg.halo_strategy = lc::HaloStrategy::TransposeVerticalMajor;
  lc::LicomModel transpose(cfg);
  transpose.run_days(0.5);
  cfg.halo_strategy = lc::HaloStrategy::HorizontalMajor;
  lc::LicomModel hmajor(cfg);
  hmajor.run_days(0.5);
  auto dt = transpose.diagnostics();
  auto dh = hmajor.diagnostics();
  EXPECT_DOUBLE_EQ(dt.mean_sst, dh.mean_sst);
  EXPECT_DOUBLE_EQ(dt.kinetic_energy, dh.kinetic_energy);
}

TEST(Model, RedundantHaloEliminationIsTransparent) {
  kxx::initialize(kxx::config_from_env({kxx::Backend::Serial, 1, false}));
  auto cfg = small_config();
  cfg.eliminate_redundant_halo = true;
  lc::LicomModel on(cfg);
  on.run_days(0.5);
  cfg.eliminate_redundant_halo = false;
  lc::LicomModel off(cfg);
  off.run_days(0.5);
  EXPECT_DOUBLE_EQ(on.diagnostics().mean_sst, off.diagnostics().mean_sst);
  // The optimization actually removed exchanges.
  EXPECT_GT(on.exchanger().stats().skipped, 0u);
  EXPECT_EQ(off.exchanger().stats().skipped, 0u);
  EXPECT_LT(on.exchanger().stats().exchanges, off.exchanger().stats().exchanges);
}

TEST(Model, TelemetrySpansCoverTheStepPhases) {
  kxx::initialize(kxx::config_from_env({kxx::Backend::Serial, 1, false}));
  licomk::telemetry::reset();
  licomk::telemetry::set_enabled(true);
  {
    lc::LicomModel m(small_config());
    m.run_days(0.25);
    // SYPD is derived from the rank-local step wall clock (paper §VI-C).
    EXPECT_GT(m.step_wall_seconds(), 0.0);
    double expected = licomk::util::sypd(m.simulated_seconds(), m.step_wall_seconds());
    EXPECT_NEAR(m.sypd(), expected, expected * 1e-9);
  }
  auto paths = licomk::telemetry::path_aggregates();
  auto count_of = [&](const std::string& path) {
    for (const auto& a : paths) {
      if (a.name == path) return a.count;
    }
    return 0LL;
  };
  for (const char* phase :
       {"step", "step/readyt", "step/vmix", "step/readyc", "step/barotr", "step/bclinc",
        "step/tracer", "step/halo_in"}) {
    EXPECT_GT(count_of(phase), 0) << phase;
  }
  licomk::telemetry::set_enabled(false);
  licomk::telemetry::reset();
}

TEST(Model, FullDepthConfigurationRuns) {
  kxx::initialize(kxx::config_from_env({kxx::Backend::Serial, 1, false}));
  // A shrunken 2-km full-depth setup: 244-level physics on a tiny grid.
  auto cfg = lc::ModelConfig::km2_fulldepth();
  cfg.grid = licomk::grid::shrink(cfg.grid, 500);  // 36x23
  cfg.grid.nz = 48;
  cfg.grid.full_depth = true;
  lc::LicomModel m(cfg);
  m.step();
  auto d = m.diagnostics();
  EXPECT_TRUE(d.finite());
  // The Mariana-like trench is resolved: some column reaches > 10 000 m.
  EXPECT_GT(m.global_grid().bathymetry().max_depth(), 10000.0);
}

TEST(Model, RossbyNumberDiagnostics) {
  kxx::initialize(kxx::config_from_env({kxx::Backend::Serial, 1, false}));
  lc::LicomModel m(small_config());
  m.run_days(2.0);
  licomk::halo::BlockField2D ro("ro", m.local_grid().extent());
  lc::compute_rossby_number(m.local_grid(), m.state(), 0, ro);
  auto stats = lc::rossby_statistics(m.local_grid(), ro, m.communicator());
  EXPECT_GT(stats.cells, 0);
  EXPECT_GE(stats.frac_above_half, 0.0);
  EXPECT_LE(stats.frac_above_half, 1.0);
  EXPECT_GE(stats.frac_above_half, stats.frac_above_one);
  EXPECT_GT(stats.rms, 0.0);  // a spun-up ocean has vorticity
  EXPECT_TRUE(std::isfinite(stats.rms));
}

TEST(Model, IdealizedChannelSpinsUpEastwardJet) {
  kxx::initialize(kxx::config_from_env({kxx::Backend::Serial, 1, false}));
  lc::ModelConfig cfg;
  cfg.grid = licomk::grid::spec_idealized_channel(48, 24, 8);
  lc::LicomModel m(cfg);
  m.run_days(4.0);
  auto d = m.diagnostics();
  EXPECT_TRUE(d.finite());
  EXPECT_GT(d.kinetic_energy, 0.0);
  // Westerlies drive a net eastward flow: area-mean surface u > 0.
  const auto& g = m.local_grid();
  const int h = licomk::decomp::kHaloWidth;
  double usum = 0.0;
  long long count = 0;
  for (int j = h; j < h + g.ny(); ++j)
    for (int i = h; i < h + g.nx(); ++i)
      if (g.kmu(j, i) > 0) {
        usum += m.state().u_cur.at(0, j, i);
        ++count;
      }
  ASSERT_GT(count, 0);
  EXPECT_GT(usum / static_cast<double>(count), 0.0);
}

TEST(Model, DailyCopyAndGlobalSypd) {
  kxx::initialize(kxx::config_from_env({kxx::Backend::Serial, 1, false}));
  lc::LicomModel m(small_config());
  EXPECT_TRUE(m.daily_sst().empty());
  m.run_days(1.0);
  // The daily device-to-host copy staged the surface snapshot and was timed
  // (paper §VI-C: SYPD includes the daily memory copies).
  ASSERT_EQ(m.daily_sst().size(),
            static_cast<size_t>(m.local_grid().ny()) * m.local_grid().nx());
  EXPECT_GT(m.step_wall_seconds(), 0.0);
  const int h = licomk::decomp::kHaloWidth;
  EXPECT_DOUBLE_EQ(m.daily_sst()[0], m.state().t_cur.at(0, h, h));
  // Single-rank global SYPD equals the local one.
  EXPECT_DOUBLE_EQ(m.sypd_global(), m.sypd());
}

TEST(Model, GlobalSypdIsRankMaximum) {
  kxx::initialize(kxx::config_from_env({kxx::Backend::Serial, 1, false}));
  auto cfg = small_config();
  auto global = std::make_shared<licomk::grid::GlobalGrid>(cfg.grid, cfg.bathymetry_seed);
  lco::Runtime::run(2, [&](lco::Communicator& c) {
    lc::LicomModel m(cfg, global, c);
    m.run_days(0.25);
    double local = m.sypd();
    double agreed = m.sypd_global();
    // Both ranks get the same global value, bounded by the slowest rank.
    EXPECT_LE(agreed, local * 1.0000001);
    double other = c.allreduce_scalar(agreed, lco::ReduceOp::Max);
    EXPECT_DOUBLE_EQ(other, agreed);
  });
}

TEST(Model, BiharmonicMixingRunsAndConserves) {
  kxx::initialize(kxx::config_from_env({kxx::Backend::Serial, 1, false}));
  auto cfg = small_config();
  cfg.hmix = lc::HMixScheme::Biharmonic;
  cfg.restore_timescale_days = 1.0e9;
  lc::LicomModel m(cfg);
  auto d0 = m.diagnostics();
  m.run_days(1.0);
  auto d1 = m.diagnostics();
  EXPECT_TRUE(d1.finite());
  // Biharmonic is flux-form over two passes: conserves like the Laplacian.
  EXPECT_NEAR(d1.mean_salt / d0.mean_salt, 1.0, 1e-4);
  EXPECT_NEAR(d1.mean_temp / d0.mean_temp, 1.0, 2e-3);
}

TEST(Model, BiharmonicIsMoreScaleSelectiveThanLaplacian) {
  // Seed grid-scale noise in the tracer field, take one step with each
  // operator, and compare how much large-scale signal survives: biharmonic
  // kills 2-grid noise while touching the broad gradient far less.
  kxx::initialize(kxx::config_from_env({kxx::Backend::Serial, 1, false}));
  auto measure = [](lc::HMixScheme scheme) {
    auto cfg = small_config();
    cfg.hmix = scheme;
    lc::LicomModel m(cfg);
    const auto& g = m.local_grid();
    const int h = licomk::decomp::kHaloWidth;
    auto& t = m.state().t_cur;
    for (int j = h; j < h + g.ny(); ++j)
      for (int i = h; i < h + g.nx(); ++i)
        if (g.kmt(j, i) > 0) t.at(0, j, i) += ((i + j) % 2 == 0 ? 0.5 : -0.5);
    t.mark_dirty();
    m.exchanger().update(t);
    double before = 0.0, after = 0.0;
    int count = 0;
    for (int j = h + 1; j < h + g.ny() - 1; ++j)
      for (int i = h; i < h + g.nx(); ++i)
        if (g.kmt(j, i) > 0) {
          before += std::fabs(t.at(0, j, i) - 0.25 * (t.at(0, j, i - 1) + t.at(0, j, i + 1) +
                                                      t.at(0, j - 1, i) + t.at(0, j + 1, i)));
          ++count;
        }
    m.step();
    auto& t2 = m.state().t_cur;
    for (int j = h + 1; j < h + g.ny() - 1; ++j)
      for (int i = h; i < h + g.nx(); ++i)
        if (g.kmt(j, i) > 0)
          after += std::fabs(t2.at(0, j, i) - 0.25 * (t2.at(0, j, i - 1) + t2.at(0, j, i + 1) +
                                                      t2.at(0, j - 1, i) + t2.at(0, j + 1, i)));
    return count > 0 ? after / before : 1.0;
  };
  double lap_resid = measure(lc::HMixScheme::Laplacian);
  double bih_resid = measure(lc::HMixScheme::Biharmonic);
  // Both damp the checkerboard; the test pins the qualitative behaviour.
  EXPECT_LT(bih_resid, 1.0);
  EXPECT_LT(lap_resid, 1.0);
}

TEST(Model, SolarPenetrationWarmsSubsurfaceNotColumn) {
  kxx::initialize(kxx::config_from_env({kxx::Backend::Serial, 1, false}));
  auto cfg = small_config();
  cfg.restore_timescale_days = 1.0e9;  // isolate the shortwave term
  cfg.solar_penetration = true;
  lc::LicomModel with(cfg);
  cfg.solar_penetration = false;
  lc::LicomModel without(cfg);
  with.run_days(1.0);
  without.run_days(1.0);
  auto dw = with.diagnostics();
  auto dwo = without.diagnostics();
  // Redistribution only: the column-integrated heat is unchanged...
  EXPECT_NEAR(dw.mean_temp / dwo.mean_temp, 1.0, 1e-4);
  // ...but the vertical structure differs (subsurface warmed, surface cooled).
  const auto& g = with.local_grid();
  const int h = licomk::decomp::kHaloWidth;
  double dsub = 0.0;
  double dsurf = 0.0;
  int count = 0;
  for (int j = h; j < h + g.ny(); ++j)
    for (int i = h; i < h + g.nx(); ++i)
      if (g.kmt(j, i) > 2) {
        dsurf += with.state().t_cur.at(0, j, i) - without.state().t_cur.at(0, j, i);
        dsub += with.state().t_cur.at(1, j, i) - without.state().t_cur.at(1, j, i);
        ++count;
      }
  ASSERT_GT(count, 0);
  EXPECT_LT(dsurf / count, 0.0);  // surface slightly cooled
  EXPECT_GT(dsub / count, 0.0);   // subsurface warmed
}

// Golden final-state fingerprints. The CRC matrices above only compare paths
// with each other, so a change made consistently in every path would pass
// them; these constants pin the absolute bytes of the prognostic state after
// kGoldenSteps steps. A rewrite that claims bit-identity must reproduce them.
TEST(Model, GoldenStateCrcPinned) {
  constexpr int kGoldenSteps = 6;
  struct Golden {
    const char* name;
    kxx::Backend backend;
    void (*tweak)(lc::ModelConfig&);
    StateSig sig;
  };
  // The default, unfused and AthreadSim paths are bit-identical by design,
  // so they share one fingerprint.
  const StateSig def{0xbbae2f9b800f1617ull, 0xf9c1b9ed1c9d8a39ull, 0x3e48902c45066fecull,
                     0x8103f846dc0fa724ull, 0x831d1913fbbc94fcull};
  const Golden cases[] = {
      {"default", kxx::Backend::Serial, [](lc::ModelConfig&) {}, def},
      {"no_solar",
       kxx::Backend::Serial,
       [](lc::ModelConfig& c) { c.solar_penetration = false; },
       {0x13bf16a441585431ull, 0xdd6400bed6239223ull, 0x73b5f536f308530full,
        0xb0ebc456fda13bd4ull, 0xfd5e74d4885893bfull}},
      {"biharmonic",
       kxx::Backend::Serial,
       [](lc::ModelConfig& c) { c.hmix = lc::HMixScheme::Biharmonic; },
       {0xc3d02df05ab6e8b2ull, 0x3e86503100eca6ffull, 0x6c1fcdcfd7910ec7ull,
        0x4fc5a5d3b2075ccfull, 0x7ab1eb848d8aebd0ull}},
      {"unfused", kxx::Backend::Serial, [](lc::ModelConfig& c) { c.fuse_kernels = false; }, def},
      {"athread", kxx::Backend::AthreadSim, [](lc::ModelConfig&) {}, def},
  };
  for (const Golden& g : cases) {
    kxx::initialize({g.backend, 1, false});
    auto cfg = small_config();
    g.tweak(cfg);
    lc::LicomModel m(cfg);
    for (int n = 0; n < kGoldenSteps; ++n) m.step();
    StateSig sig = state_signature(m);
    EXPECT_TRUE(sig == g.sig) << g.name << std::hex << ": {0x" << sig.t << "ull, 0x" << sig.s
                              << "ull, 0x" << sig.u << "ull, 0x" << sig.v << "ull, 0x"
                              << sig.eta << "ull}";
  }
  kxx::initialize(kxx::config_from_env({kxx::Backend::Serial, 1, false}));
}

// The multi-rank counterpart of GoldenStateCrcPinned: a 2×2 decomposition
// exercises every halo link the one-rank grid never sends (north/south
// neighbours, a tripolar fold between two ranks, zonal peers that are other
// ranks). The per-rank, per-field fingerprints pin the absolute bytes,
// ghosts included, so any change in how halos are delivered shows up here.
TEST(Model, GoldenStateCrcPinnedFourRanks) {
  constexpr int kGoldenSteps = 6;
  kxx::initialize({kxx::Backend::Serial, 1, false});
  const auto cfg = small_config();
  auto global = std::make_shared<licomk::grid::GlobalGrid>(cfg.grid, cfg.bathymetry_seed);
  const StateSig golden[4] = {
      {0x01f09c5ac3ee5310ull, 0x9336398860104446ull, 0x7b48cc113c54d3bcull,
       0x7ccbf279565a1af9ull, 0x67ea188d3c49894eull},
      {0xe4940a60fae481a0ull, 0xd6dafc4c7947431eull, 0xf58e62e1aa2a1af9ull,
       0xc84525b47360faafull, 0x1f07998132a8be38ull},
      {0xedc686b5e99ca70cull, 0x1764093df6267370ull, 0xe3b896f3acc17f52ull,
       0x0478ba881f50b019ull, 0x88cec89b04e16db0ull},
      {0xb234812d14d36d95ull, 0x0f255e5bd6a4e3eaull, 0x11e87746a39c0109ull,
       0x6ba27139c788f5c5ull, 0x4bc283536fe41772ull},
  };
  StateSig sigs[4];
  lco::Runtime::run(4, [&](lco::Communicator& c) {
    lc::LicomModel m(cfg, global, c);
    ASSERT_EQ(m.decomposition().px(), 2);
    ASSERT_EQ(m.decomposition().py(), 2);
    for (int n = 0; n < kGoldenSteps; ++n) m.step();
    sigs[c.rank()] = state_signature(m);
  });
  for (int r = 0; r < 4; ++r) {
    const StateSig& sig = sigs[r];
    EXPECT_TRUE(sig == golden[r]) << "rank " << r << std::hex << ": {0x" << sig.t << "ull, 0x"
                                  << sig.s << "ull, 0x" << sig.u << "ull, 0x" << sig.v
                                  << "ull, 0x" << sig.eta << "ull}";
  }
  kxx::initialize(kxx::config_from_env({kxx::Backend::Serial, 1, false}));
}

// A one-rank model's halo links are all peer-is-self (periodic wrap, fold
// partners on the same block): the group engine turns every one of them into
// a local copy, so stepping delivers nothing through the communicator.
TEST(Model, OneRankStepDeliversNoMessages) {
  kxx::initialize(kxx::config_from_env({kxx::Backend::Serial, 1, false}));
  auto cfg = small_config();
  cfg.batch_halo_exchange = true;  // the per-field ablation does send self-messages
  auto global = std::make_shared<licomk::grid::GlobalGrid>(cfg.grid, cfg.bathymetry_seed);
  lco::World world(1);
  lc::LicomModel m(cfg, global, world.communicator(0));
  m.step();  // the first step also refreshes the initial halos
  const std::uint64_t before = world.total_messages();
  m.step();
  EXPECT_EQ(world.total_messages() - before, 0u);
  EXPECT_EQ(m.exchanger().stats().messages, 0u);
}
