// Tests for the multi-tenant forecast farm (ISSUE 7): copy-on-write shared
// base state, farm-vs-standalone bit identity for unperturbed and perturbed
// scenarios, fair-share preemption with warm-started re-admission, per-tenant
// fault isolation, and the two-instances-in-one-process regression for the
// global-state audit.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "comm/runtime.hpp"
#include "core/model.hpp"
#include "core/restart.hpp"
#include "farm/farm.hpp"
#include "kxx/kxx.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/redistribute.hpp"
#include "telemetry/telemetry.hpp"

namespace lc = licomk::core;
namespace lco = licomk::comm;
namespace lf = licomk::farm;
namespace lr = licomk::resilience;
namespace kxx = licomk::kxx;
namespace tel = licomk::telemetry;
namespace fs = std::filesystem;

namespace {

void init_kxx() { kxx::initialize(kxx::config_from_env({kxx::Backend::Serial, 1, false})); }

lc::ModelConfig small_config() {
  auto cfg = lc::ModelConfig::testing(10);
  cfg.grid.nz = 6;
  return cfg;
}

double days_for_steps(const lc::ModelConfig& cfg, long long steps) {
  return steps * cfg.grid.dt_baroclinic / 86400.0;
}

struct TempDir {
  std::string path;
  explicit TempDir(const char* name) : path(std::string("/tmp/licomk_farm_") + name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

/// Per-field global CRC-64 of `cfg` run standalone for `steps` steps on
/// `nranks` ranks — the reference every farm tenant must reproduce exactly.
std::vector<std::uint64_t> standalone_crcs(const lc::ModelConfig& cfg, int nranks,
                                           long long steps, const std::string& prefix) {
  auto global = std::make_shared<licomk::grid::GlobalGrid>(cfg.grid, cfg.bathymetry_seed);
  lco::Runtime::run(nranks, [&](lco::Communicator& c) {
    lc::LicomModel m(cfg, global, c);
    while (m.steps_taken() < steps) m.step();
    m.write_restart(prefix);
  });
  auto dec = lc::LicomModel::plan_decomposition(cfg, nranks);
  return lr::assemble_global_state(prefix, dec).field_crcs;
}

}  // namespace

TEST(SharedBaseState, CachesOneGridPerSpecAndSeed) {
  lf::SharedBaseState base;
  auto cfg = small_config();
  auto a = base.acquire(cfg.grid, cfg.bathymetry_seed);
  auto b = base.acquire(cfg.grid, cfg.bathymetry_seed);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(base.entries(), 1u);
  EXPECT_EQ(base.acquires(), 2u);
  EXPECT_GT(base.shared_bytes(), 0u);
  EXPECT_EQ(base.shared_bytes(), lf::SharedBaseState::grid_footprint_bytes(*a));

  // A different bathymetry seed is different base state — never shared.
  auto c = base.acquire(cfg.grid, cfg.bathymetry_seed + 1);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(base.entries(), 2u);

  // So is a different spec.
  auto other = cfg.grid;
  other.nz += 1;
  auto d = base.acquire(other, cfg.bathymetry_seed);
  EXPECT_NE(a.get(), d.get());
  EXPECT_EQ(base.entries(), 3u);
}

TEST(SharedBaseState, PerturbationKnobsShareTheSameBase) {
  // The copy-on-write contract: ensemble members differ only in ModelConfig
  // perturbations, which never touch the grid — all members share one grid.
  lf::SharedBaseState base;
  auto cfg = small_config();
  auto a = base.acquire(cfg.grid, cfg.bathymetry_seed);
  auto perturbed = cfg;
  perturbed.wind_stress_scale = 1.1;
  perturbed.sst_target_offset_c = 0.5;
  perturbed.initial_t_perturb_c = 0.01;
  auto b = base.acquire(perturbed.grid, perturbed.bathymetry_seed);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(base.entries(), 1u);
}

TEST(Farm, ScenarioInsideFarmIsBitIdenticalToStandalone) {
  init_kxx();
  TempDir dir("bit_identity");
  auto cfg = small_config();
  const long long steps = 4;

  auto perturbed = cfg;
  perturbed.wind_stress_scale = 1.15;
  perturbed.initial_t_perturb_c = 0.02;

  const auto control_ref = standalone_crcs(cfg, 1, steps, dir.path + "/ref_control");
  const auto windy_ref = standalone_crcs(perturbed, 1, steps, dir.path + "/ref_windy");
  ASSERT_FALSE(control_ref.empty());
  // The perturbation must actually change the trajectory...
  EXPECT_NE(control_ref, windy_ref);

  lf::FarmOptions opts;
  opts.max_concurrent = 2;
  opts.checkpoint_root = dir.path + "/farm";
  lf::ForecastFarm farm(opts);

  lf::ScenarioRequest control;
  control.name = "control";
  control.config = cfg;
  control.days = days_for_steps(cfg, steps);
  lf::ScenarioRequest windy;
  windy.name = "windy";
  windy.config = perturbed;
  windy.days = days_for_steps(perturbed, steps);
  const int ic = farm.submit(std::move(control));
  const int iw = farm.submit(std::move(windy));
  farm.run();

  const auto sc = farm.status(ic);
  const auto sw = farm.status(iw);
  ASSERT_EQ(sc.state, lf::TenantState::Completed) << sc.error;
  ASSERT_EQ(sw.state, lf::TenantState::Completed) << sw.error;
  EXPECT_EQ(sc.steps, steps);
  EXPECT_EQ(sw.steps, steps);
  // ...and running inside the farm — concurrent tenants, shared base state,
  // partitioned tag space — must not change a single bit of either member.
  EXPECT_EQ(sc.final_crcs, control_ref);
  EXPECT_EQ(sw.final_crcs, windy_ref);
  // The two tenants shared one grid.
  EXPECT_EQ(farm.base_state().entries(), 1u);
  EXPECT_GT(farm.base_state().shared_bytes(), 0u);
}

TEST(Farm, PreemptedTenantWarmStartsAndStaysBitIdentical) {
  init_kxx();
  TempDir dir("preempt");
  auto cfg = small_config();
  const long long steps = 6;
  const auto ref = standalone_crcs(cfg, 1, steps, dir.path + "/ref");

  lf::FarmOptions opts;
  opts.max_concurrent = 1;  // force tenant B to wait, so A sees a waiter
  opts.checkpoint_root = dir.path + "/farm";
  lf::ForecastFarm farm(opts);

  lf::ScenarioRequest a;
  a.name = "sliced";
  a.config = cfg;
  a.days = days_for_steps(cfg, steps);
  a.checkpoint_every_steps = 2;
  a.quota_step_cells = 1;  // over quota at the first checkpoint boundary
  lf::ScenarioRequest b;
  b.name = "waiter";
  b.config = cfg;
  b.days = days_for_steps(cfg, steps);
  const int ia = farm.submit(std::move(a));
  const int ib = farm.submit(std::move(b));
  farm.run();

  const auto sa = farm.status(ia);
  const auto sb = farm.status(ib);
  ASSERT_EQ(sa.state, lf::TenantState::Completed) << sa.error;
  ASSERT_EQ(sb.state, lf::TenantState::Completed) << sb.error;
  // A was over quota at step 2 with B waiting: exactly one preemption, a
  // re-admission, and a warm start from the generation-1 checkpoint.
  EXPECT_EQ(sa.preemptions, 1);
  EXPECT_EQ(sa.admissions, 2);
  EXPECT_EQ(sb.admissions, 1);
  EXPECT_EQ(sa.steps, steps);
  // The preempt/warm-start cycle must be invisible in the physics.
  EXPECT_EQ(sa.final_crcs, ref);
  EXPECT_EQ(sb.final_crcs, ref);
}

TEST(Farm, InjectedTenantFaultRecoversWithoutDisturbingOthers) {
  init_kxx();
  TempDir dir("isolation");
  auto cfg = small_config();
  const long long steps = 4;
  const auto ref1 = standalone_crcs(cfg, 1, steps, dir.path + "/ref1");
  const auto ref2 = standalone_crcs(cfg, 2, steps, dir.path + "/ref2");

  lf::FarmOptions opts;
  opts.max_concurrent = 3;
  opts.checkpoint_root = dir.path + "/farm";
  lf::ForecastFarm farm(opts);

  // The faulty tenant runs on 2 ranks and its schedule crashes a rank on an
  // early delivery of the first attempt; the per-tenant supervisor retries.
  lf::ScenarioRequest faulty;
  faulty.name = "faulty";
  faulty.config = cfg;
  faulty.days = days_for_steps(cfg, steps);
  faulty.nranks = 2;
  faulty.max_retries = 3;
  faulty.faults = lr::FaultSchedule::parse("comm.deliver * 3 crash\n");
  lf::ScenarioRequest healthy1;
  healthy1.name = "healthy1";
  healthy1.config = cfg;
  healthy1.days = days_for_steps(cfg, steps);
  lf::ScenarioRequest healthy2;
  healthy2.name = "healthy2";
  healthy2.config = cfg;
  healthy2.days = days_for_steps(cfg, steps);

  const int i_faulty = farm.submit(std::move(faulty));
  const int i_h1 = farm.submit(std::move(healthy1));
  const int i_h2 = farm.submit(std::move(healthy2));
  farm.run();

  const auto sf = farm.status(i_faulty);
  const auto s1 = farm.status(i_h1);
  const auto s2 = farm.status(i_h2);
  ASSERT_EQ(sf.state, lf::TenantState::Completed) << sf.error;
  ASSERT_EQ(s1.state, lf::TenantState::Completed) << s1.error;
  ASSERT_EQ(s2.state, lf::TenantState::Completed) << s2.error;
  // The fault fired inside the faulty tenant's domain and was survived...
  EXPECT_GE(sf.attempts, 2);
  EXPECT_EQ(sf.final_crcs, ref2);
  // ...while the healthy tenants never saw a fault (their comm traffic would
  // have matched the schedule's op index had the domain not scoped it) and
  // their final states are bit-identical to fault-free standalone runs.
  EXPECT_EQ(s1.attempts, 1);
  EXPECT_EQ(s2.attempts, 1);
  EXPECT_EQ(s1.final_crcs, ref1);
  EXPECT_EQ(s2.final_crcs, ref1);
}

TEST(Farm, TwoConcurrentInstancesInOneProcessStayIndependent) {
  // The global-state audit regression (satellite 1): two model instances in
  // one process, stepped concurrently from plain threads, must produce the
  // same bits as the same two runs executed sequentially. Shared process
  // state — telemetry funnels, halo skip maps keyed per exchanger, the fault
  // injector's op counters — must not couple them.
  init_kxx();
  TempDir dir("two_instances");
  auto cfg = small_config();
  const long long steps = 3;
  auto perturbed = cfg;
  perturbed.sst_target_offset_c = 0.7;

  const auto ref_a = standalone_crcs(cfg, 1, steps, dir.path + "/seq_a");
  const auto ref_b = standalone_crcs(perturbed, 1, steps, dir.path + "/seq_b");

  std::thread ta([&] {
    auto crcs = standalone_crcs(cfg, 1, steps, dir.path + "/par_a");
    EXPECT_EQ(crcs, ref_a);
  });
  std::thread tb([&] {
    auto crcs = standalone_crcs(perturbed, 1, steps, dir.path + "/par_b");
    EXPECT_EQ(crcs, ref_b);
  });
  ta.join();
  tb.join();

  // Same drill through the convenience constructor (the historical trap: it
  // used to hand every model ONE shared static world, so concurrent
  // instances FIFO-matched each other's fold/wrap self-messages — t/s CRCs
  // diverged nondeterministically). Each model must own a private world.
  auto convenience_crcs = [&](const lc::ModelConfig& c, const std::string& prefix) {
    lc::LicomModel m(c);
    for (long long s = 0; s < steps; ++s) m.step();
    m.write_restart(prefix);
    return lr::assemble_global_state(prefix, lc::LicomModel::plan_decomposition(c, 1))
        .field_crcs;
  };
  std::thread tc([&] {
    EXPECT_EQ(convenience_crcs(cfg, dir.path + "/conv_a"), ref_a);
  });
  std::thread td([&] {
    EXPECT_EQ(convenience_crcs(perturbed, dir.path + "/conv_b"), ref_b);
  });
  tc.join();
  td.join();
}

TEST(Farm, PerTenantTelemetryIsNamespaced) {
  init_kxx();
  TempDir dir("telemetry");
  tel::reset();
  tel::set_enabled(true);
  auto cfg = small_config();
  const long long steps = 2;

  lf::FarmOptions opts;
  opts.max_concurrent = 2;
  opts.checkpoint_root = dir.path + "/farm";
  lf::ForecastFarm farm(opts);
  for (const char* name : {"m0", "m1"}) {
    lf::ScenarioRequest r;
    r.name = name;
    r.config = cfg;
    r.days = days_for_steps(cfg, steps);
    farm.submit(std::move(r));
  }
  farm.run();
  tel::set_enabled(false);

  for (const char* name : {"m0", "m1"}) {
    const std::string ns = std::string("farm.tenant.") + name + ".";
    EXPECT_EQ(tel::gauge(ns + "state"),
              static_cast<double>(lf::TenantState::Completed));
    EXPECT_EQ(tel::gauge(ns + "steps"), static_cast<double>(steps));
    EXPECT_EQ(tel::gauge(ns + "admissions"), 1.0);
    // The model's own gauges went out under the tenant namespace too.
    EXPECT_EQ(tel::gauge(ns + "model.steps"), static_cast<double>(steps));
    EXPECT_GT(tel::gauge(ns + "model.sypd"), 0.0);
  }
  EXPECT_GT(tel::gauge("farm.base_state.shared_bytes"), 0.0);
  EXPECT_EQ(tel::counter_value("farm.completions"), 2u);
  EXPECT_EQ(tel::counter_value("farm.admissions"), 2u);
  tel::reset();
}

TEST(Farm, FailedTenantKeepsSupervisorForensics) {
  // The regression: when a tenant's supervisor gave up permanently, the farm
  // only recorded the exception string — the escalation history (attempts,
  // failures, shrinks) vanished with the thrown-away report. A Failed tenant
  // must keep its forensics via Supervisor::last_report.
  init_kxx();
  TempDir dir("failed_forensics");
  auto cfg = small_config();

  lf::FarmOptions opts;
  opts.checkpoint_root = dir.path + "/farm";
  lf::ForecastFarm farm(opts);

  lf::ScenarioRequest doomed;
  doomed.name = "doomed";
  doomed.config = cfg;
  doomed.days = days_for_steps(cfg, 4);
  doomed.max_retries = 1;
  doomed.max_shrinks = 0;
  // Two ranks: a one-rank model's halo links are local copies that never
  // reach comm.deliver, so the crash needs a real peer to send to.
  doomed.nranks = 2;
  // Rank 0 permanently dead: refires on every relaunch, no escape.
  doomed.faults = lr::FaultSchedule::parse("comm.deliver 0 1 crash+\n");
  const int idx = farm.submit(std::move(doomed));
  farm.run();

  const auto st = farm.status(idx);
  ASSERT_EQ(st.state, lf::TenantState::Failed);
  EXPECT_FALSE(st.error.empty());
  EXPECT_EQ(st.attempts, 2);  // initial + 1 retry, preserved past the give-up
  EXPECT_EQ(st.shrinks, 0);
  EXPECT_EQ(st.steps, 0);
}

TEST(Farm, TagBlockSpacingNarrowerThanTheModelIsRefused) {
  // Tenants' halo tag bases are tag_blocks_per_tenant apart; a spacing below
  // the model's own block count would let neighbouring tenants' groups share
  // tags, so the farm refuses it at construction.
  TempDir dir("tag_blocks");
  lf::FarmOptions opts;
  opts.checkpoint_root = dir.path + "/farm";
  opts.tag_blocks_per_tenant = lc::kHaloTagBlocks - 1;
  EXPECT_THROW(lf::ForecastFarm{opts}, licomk::InvalidArgument);
  opts.tag_blocks_per_tenant = lc::kHaloTagBlocks;
  EXPECT_NO_THROW(lf::ForecastFarm{opts});
}

TEST(Farm, TenantGrowsBackWhenCapacityReturns) {
  // End-to-end elasticity through the farm: a tenant loses a rank, shrinks,
  // and — when its capacity probe reports the rank back at a checkpoint
  // boundary — grows back to full size and still completes bit-identical to
  // an uninterrupted standalone run at that size.
  init_kxx();
  TempDir dir("growback");
  auto cfg = small_config();
  const long long steps = 6;
  const auto ref2 = standalone_crcs(cfg, 2, steps, dir.path + "/ref2");

  lf::FarmOptions opts;
  opts.checkpoint_root = dir.path + "/farm";
  lf::ForecastFarm farm(opts);

  // Probe called by rank 0 at checkpoint boundaries while shrunk: the first
  // probe still sees the degraded machine, later ones see the rank returned.
  auto probes = std::make_shared<std::atomic<int>>(0);
  lf::ScenarioRequest r;
  r.name = "elastic";
  r.config = cfg;
  r.days = days_for_steps(cfg, steps);
  r.nranks = 2;
  r.checkpoint_every_steps = 2;
  r.max_retries = 0;
  r.max_shrinks = 1;
  r.grow_back = true;
  r.capacity_probe = [probes] { return probes->fetch_add(1) < 1 ? 1 : 2; };
  // Rank 1 crashes once, on its first delivery of the first attempt.
  r.faults = lr::FaultSchedule::parse("comm.deliver 1 1 crash\n");
  const int idx = farm.submit(std::move(r));
  farm.run();

  const auto st = farm.status(idx);
  ASSERT_EQ(st.state, lf::TenantState::Completed) << st.error;
  EXPECT_EQ(st.attempts, 3);  // 2 ranks (dies), 1 rank (shrunk), 2 ranks again
  EXPECT_EQ(st.shrinks, 1);
  EXPECT_EQ(st.growbacks, 1);
  EXPECT_EQ(st.redistributions, 1);  // the grow-back re-slice (shrink was cold)
  EXPECT_EQ(st.steps, steps);
  EXPECT_EQ(st.final_crcs, ref2);
}

TEST(Farm, RejectsBadRequests) {
  TempDir dir("bad_requests");
  lf::FarmOptions opts;
  opts.checkpoint_root = dir.path + "/farm";
  lf::ForecastFarm farm(opts);

  lf::ScenarioRequest r;
  r.config = small_config();
  r.name = "has/slash";
  EXPECT_THROW(farm.submit(r), licomk::InvalidArgument);
  r.name = "";
  EXPECT_THROW(farm.submit(r), licomk::InvalidArgument);
  r.name = "quota_without_cadence";
  r.quota_step_cells = 10;
  EXPECT_THROW(farm.submit(r), licomk::InvalidArgument);
  r.quota_step_cells = 0;
  r.name = "ok";
  farm.submit(r);
  EXPECT_THROW(farm.submit(r), licomk::InvalidArgument);  // duplicate name
  EXPECT_EQ(farm.status(0).state, lf::TenantState::Queued);
  EXPECT_EQ(farm.status(0).name, "ok");
  EXPECT_THROW(farm.status(1), licomk::InvalidArgument);
}
