// farm_run — the multi-tenant forecast-farm smoke (ci/farm_smoke.sh).
//
// A 4-member perturbed-wind ensemble on one ForecastFarm: tenant w0 is the
// unperturbed control, tenant wi runs with wind_stress_scale = 1 + 0.05·i
// (plus a small initial temperature perturbation so members diverge from step
// one). Three phases, all gated:
//
//   1. Sequential baselines — every member standalone through its own
//      supervisor-free run; records per-field global CRC-64s of the final
//      prognostic state and the total wall time.
//   2. Farm runs — the ensemble through a max_concurrent=1 farm (identical
//      supervised, checkpointing leases, one at a time) and then a
//      max_concurrent=2 farm. Gates: every tenant Completed, every tenant's
//      final CRCs IDENTICAL to its standalone baseline (the farm is a
//      scheduler, not a model change — perturbed and unperturbed members
//      alike), exactly one GlobalGrid behind all four members
//      (shared_bytes > 0), per-tenant gauges present, and the concurrent
//      farm within 1/0.9 of the sequential farm's wall time (concurrency
//      must not tax throughput by more than 10%).
//   3. Fault isolation — a fresh farm re-runs the ensemble with a crash
//      fault scoped to tenant w1's fault domain. Gates: w1 retries (≥ 2
//      attempts) and still completes bit-identically; the other tenants see
//      exactly 1 attempt and unchanged CRCs.
//
// Usage: farm_run [--out metrics.json] [--dir ckptroot]
// Exit code 0 = all expectations held; 1 = any failed.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "comm/runtime.hpp"
#include "core/model.hpp"
#include "core/state.hpp"
#include "farm/farm.hpp"
#include "kxx/kxx.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/redistribute.hpp"
#include "telemetry/telemetry.hpp"

namespace lc = licomk::core;
namespace lco = licomk::comm;
namespace lr = licomk::resilience;
namespace lf = licomk::farm;
namespace kxx = licomk::kxx;
namespace tel = licomk::telemetry;

namespace {

constexpr int kMembers = 4;
constexpr long long kSteps = 6;
constexpr long long kCadence = 2;

lc::ModelConfig member_config(int i) {
  auto cfg = lc::ModelConfig::testing(10);
  cfg.grid.nz = 6;
  cfg.wind_stress_scale = 1.0 + 0.05 * i;        // w0 is the control
  cfg.initial_t_perturb_c = i == 0 ? 0.0 : 0.01 * i;
  return cfg;
}

double days_for_steps(const lc::ModelConfig& cfg, long long steps) {
  return static_cast<double>(steps) * cfg.grid.dt_baroclinic / 86400.0;
}

/// Standalone reference: run `steps` on `nranks`, return the final state's
/// per-field global CRC-64s.
std::vector<std::uint64_t> standalone_crcs(const lc::ModelConfig& cfg, int nranks,
                                           long long steps, const std::string& prefix) {
  lco::Runtime::run(nranks, [&](lco::Communicator& c) {
    auto global = std::make_shared<licomk::grid::GlobalGrid>(cfg.grid, cfg.bathymetry_seed);
    lc::LicomModel m(cfg, global, c);
    for (long long s = 0; s < steps; ++s) m.step();
    m.write_restart(prefix);
  });
  return lr::assemble_global_state(prefix, lc::LicomModel::plan_decomposition(cfg, nranks))
      .field_crcs;
}

struct Check {
  bool ok = true;
  void expect(bool cond, const std::string& what) {
    if (!cond) {
      ok = false;
      std::fprintf(stderr, "FARM FAIL: %s\n", what.c_str());
    }
  }
};

lf::ScenarioRequest member_request(int i, const std::string& ckpt_root) {
  (void)ckpt_root;
  lf::ScenarioRequest req;
  req.name = std::string("w").append(std::to_string(i));
  req.config = member_config(i);
  req.days = days_for_steps(req.config, kSteps);
  req.nranks = 1;
  req.checkpoint_every_steps = kCadence;
  return req;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "farm_metrics.json";
  std::string root = "/tmp/licomk_farm_run";
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--out") == 0 && a + 1 < argc) {
      out_path = argv[++a];
    } else if (std::strcmp(argv[a], "--dir") == 0 && a + 1 < argc) {
      root = argv[++a];
    } else {
      std::fprintf(stderr, "usage: farm_run [--out metrics.json] [--dir ckptroot]\n");
      return 2;
    }
  }
  kxx::initialize(kxx::config_from_env({kxx::Backend::Serial, 1, false}));
  tel::set_enabled(true);
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  Check check;

  // --- phase 1: sequential baselines ---------------------------------------
  std::printf("farm: sequential baselines (%d members, %lld steps each)\n", kMembers, kSteps);
  std::vector<std::vector<std::uint64_t>> baseline(kMembers);
  const double seq_t0 = tel::now_seconds();
  for (int i = 0; i < kMembers; ++i) {
    baseline[i] = standalone_crcs(member_config(i), 1, kSteps, root + "/seq_w" + std::to_string(i));
  }
  const double seq_wall = tel::now_seconds() - seq_t0;
  for (int i = 1; i < kMembers; ++i) {
    check.expect(baseline[i] != baseline[0],
                 "perturbed member w" + std::to_string(i) + " diverged from the control");
  }

  // --- phase 2: the farm ensemble ------------------------------------------
  // Throughput is farm-vs-farm: a max_concurrent=1 farm runs the identical
  // supervised, checkpointing leases one at a time, so the ratio isolates
  // what CONCURRENCY costs (scheduling, shared telemetry/comm funnels) from
  // what the resilience machinery costs either way.
  std::printf("farm: sequential farm (max_concurrent=1)\n");
  lf::FarmOptions sopts;
  sopts.max_concurrent = 1;
  sopts.checkpoint_root = root + "/farm_seq";
  lf::ForecastFarm farm_seq(sopts);
  for (int i = 0; i < kMembers; ++i) farm_seq.submit(member_request(i, root));
  const double sf_t0 = tel::now_seconds();
  farm_seq.run();
  const double seq_farm_wall = tel::now_seconds() - sf_t0;
  for (int i = 0; i < kMembers; ++i) {
    check.expect(farm_seq.status(i).state == lf::TenantState::Completed,
                 farm_seq.status(i).name + " completed in the sequential farm");
  }

  std::printf("farm: ensemble run (max_concurrent=2)\n");
  lf::FarmOptions opts;
  opts.max_concurrent = 2;
  opts.checkpoint_root = root + "/farm";
  lf::ForecastFarm farm(opts);
  for (int i = 0; i < kMembers; ++i) farm.submit(member_request(i, root));
  const double farm_t0 = tel::now_seconds();
  farm.run();
  const double farm_wall = tel::now_seconds() - farm_t0;

  for (int i = 0; i < kMembers; ++i) {
    const lf::TenantStatus st = farm.status(i);
    check.expect(st.state == lf::TenantState::Completed,
                 st.name + " completed (got " + lf::to_string(st.state) +
                     (st.error.empty() ? "" : ": " + st.error) + ")");
    check.expect(st.final_crcs == baseline[i],
                 st.name + " final state bit-identical to its standalone baseline");
    check.expect(st.steps == kSteps, st.name + " ran the full horizon");
    check.expect(tel::gauge("farm.tenant." + st.name + ".sypd") > 0.0,
                 st.name + " published a namespaced sypd gauge");
  }
  check.expect(farm.base_state().entries() == 1,
               "all members share ONE GlobalGrid (copy-on-write base state)");
  check.expect(farm.base_state().shared_bytes() > 0, "farm.base_state.shared_bytes > 0");
  const double ratio = farm_wall > 0.0 ? seq_farm_wall / farm_wall : 0.0;
  check.expect(ratio >= 0.9, "concurrent farm throughput >= 0.9x sequential farm (got " +
                                 std::to_string(ratio) + "x)");
  std::printf("farm: standalone %.3fs, seq farm %.3fs, conc farm %.3fs (%.2fx)\n", seq_wall,
              seq_farm_wall, farm_wall, ratio);

  // --- phase 3: scoped fault isolation -------------------------------------
  std::printf("farm: fault-isolation run (crash scoped to w1)\n");
  const std::vector<std::uint64_t> faulty_baseline =
      standalone_crcs(member_config(1), 2, kSteps, root + "/seq_w1_r2");
  lf::FarmOptions fopts;
  fopts.max_concurrent = 2;
  fopts.checkpoint_root = root + "/farm_fault";
  lf::ForecastFarm farm2(fopts);
  for (int i = 0; i < kMembers; ++i) {
    lf::ScenarioRequest req = member_request(i, root);
    if (i == 1) {
      req.nranks = 2;  // two ranks so the scoped schedule has deliveries to hit
      req.faults = lr::FaultSchedule::parse("comm.deliver * 3 crash\n");
    }
    farm2.submit(req);
  }
  farm2.run();
  for (int i = 0; i < kMembers; ++i) {
    const lf::TenantStatus st = farm2.status(i);
    check.expect(st.state == lf::TenantState::Completed,
                 st.name + " completed under scoped fault (got " + lf::to_string(st.state) +
                     (st.error.empty() ? "" : ": " + st.error) + ")");
    if (i == 1) {
      check.expect(st.attempts >= 2, "w1 recovered from its injected crash (attempts >= 2)");
      check.expect(st.final_crcs == faulty_baseline,
                   "w1 recovered bit-identically to its fault-free 2-rank baseline");
    } else {
      check.expect(st.attempts == 1,
                   st.name + " never saw w1's fault (exactly 1 attempt, got " +
                       std::to_string(st.attempts) + ")");
      check.expect(st.final_crcs == baseline[i],
                   st.name + " CRCs unchanged by the sibling tenant's fault");
    }
  }

  tel::set_gauge("farm.ensemble.members", static_cast<double>(kMembers));
  tel::set_gauge("farm.ensemble.standalone_wall_s", seq_wall);
  tel::set_gauge("farm.ensemble.seq_wall_s", seq_farm_wall);
  tel::set_gauge("farm.ensemble.farm_wall_s", farm_wall);
  tel::set_gauge("farm.ensemble.throughput_ratio", ratio);
  tel::set_gauge("farm.ensemble.bit_identical", check.ok ? 1.0 : 0.0);
  tel::write_metrics_json(out_path);
  std::printf("farm: wrote %s\n", out_path.c_str());
  std::printf("farm: %s\n", check.ok ? "PASS" : "FAIL");
  return check.ok ? 0 : 1;
}
