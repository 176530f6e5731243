// soak_run — deterministic fault-injection soak for the resilience subsystem.
//
// Four drills, selected with --scenario (ci/resilience_soak.sh runs all):
//
// default — the transient-fault drill on 2 ranks: derive a fault schedule
// from a fixed seed with three TRANSIENT faults — one communication message
// drop, one DMA transfer error, one torn checkpoint — then let the run
// supervisor ride them out and prove the recovered run is bit-for-bit
// identical to a fault-free twin. Two ranks, because a one-rank model's halo
// links are local copies that never reach the communicator. Placement is
// deterministic by construction:
//   * comm drop — a fault-free probe run first records rank 0's cumulative
//     delivery count at every step boundary, so the drop lands
//     (seed-jittered) in the middle of step 6 of attempt 1: after the
//     generation-1 checkpoint, so recovery restores rather than cold-starts.
//   * torn checkpoint — the restart.write hook is keyed on the generation
//     id, so "generation 2" (written at step 8 of attempt 2) is targeted
//     directly; the file is silently truncated after its atomic rename.
//   * DMA error — rank 0's body stages a slab of the temperature field
//     through a swsim::DmaEngine before every step (the LDM staging a real
//     CPE pipeline performs), so DMA op N == "start of the Nth executed
//     step" across attempts. The fault is placed at the start of a
//     seed-chosen step in 9..11 of attempt 2: after the torn generation 2
//     is the newest on disk, so recovery must CRC-reject it and fall back
//     to generation 1.
// Expected: 3 attempts, 2 restores (both from gen 1), one dropped
// generation, and a final state identical to the fault-free run.
//
// rankloss — the elastic-shrink drill: a PERSISTENT crash (the '+' schedule
// form) kills rank 1 of a 2-rank run on every delivery past the generation-1
// checkpoint — the model of a permanently dead node that dies again on every
// relaunch. With the same-size retry budget exhausted, the supervisor must
// shrink to 1 rank, re-slice generation 1 onto the new decomposition
// (per-field global CRC-64 equality enforced end-to-end), resume from the
// redistributed state and finish. The final state's per-field global CRCs
// are exported to metrics.json as counters "soak.final_crc.<field>".
//
// detect — the silent-corruption drill on 2 ranks with halo CRC verification
// on (model.verify_halo_crc): a comm.payload bit-flip corrupts the very
// first halo message (detected as CommError by the receiver's CRC check,
// counted in resilience.halo_crc_failures), and an ldm inflate blows up a
// CPE's LDM arena mid-run (typed LdmOverflowError through rank 0's
// athread_spawn, counted in resilience.ldm_overflows). Both must be detected loudly,
// recovered by the supervisor, and the final state must be bit-identical to
// the fault-free twin — never a hang, never silent corruption.
//
// Usage: soak_run [--scenario default|rankloss|detect|growback] [--seed N] [--steps N]
//                 [--out metrics.json] [--dir ckptdir]
// Exit code 0 = all expectations held; 1 = any failed.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/runtime.hpp"
#include "core/model.hpp"
#include "core/restart.hpp"
#include "core/state.hpp"
#include "grid/grid.hpp"
#include "kxx/kxx.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/redistribute.hpp"
#include "resilience/supervisor.hpp"
#include "swsim/athread.hpp"
#include "swsim/dma.hpp"
#include "telemetry/telemetry.hpp"

namespace lc = licomk::core;
namespace lco = licomk::comm;
namespace lr = licomk::resilience;
namespace kxx = licomk::kxx;
namespace sw = licomk::swsim;
namespace tel = licomk::telemetry;

namespace {

lc::ModelConfig soak_config() {
  auto cfg = lc::ModelConfig::testing(10);
  cfg.grid.nz = 6;
  return cfg;
}

/// Ranks of the default and detect drills (the smallest count whose halo
/// links cross the communicator).
constexpr int kSoakRanks = 2;

/// Fault-free probe: reference diagnostics plus rank 0's cumulative
/// delivery counts. Armed with a never-firing sentinel so the injector's
/// per-rank op counters tick exactly as they will in the real run.
struct Probe {
  std::vector<std::uint64_t> comm_after_step;  ///< rank-0 deliveries after step s (1-based s)
  lc::GlobalDiagnostics reference{};
};

Probe probe_run(const lc::ModelConfig& cfg, long long target_steps) {
  Probe p;
  lr::FaultSchedule sentinel;
  sentinel.add({lr::FaultSite::CommDeliver, lr::FaultKind::CrashRank, 0,
                std::numeric_limits<std::uint64_t>::max(), 0.0});
  lr::arm(sentinel);
  auto global = std::make_shared<licomk::grid::GlobalGrid>(cfg.grid, cfg.bathymetry_seed);
  lco::Runtime::run(kSoakRanks, [&](lco::Communicator& c) {
    lc::LicomModel m(cfg, global, c);
    for (long long s = 1; s <= target_steps; ++s) {
      m.step();
      if (c.rank() == 0) p.comm_after_step.push_back(lr::op_count(lr::FaultSite::CommDeliver, 0));
    }
    auto d = m.diagnostics();
    if (c.rank() == 0) p.reference = d;
  });
  lr::disarm();
  return p;
}

/// Seed-jittered op index inside the middle half of step `s` (1-based).
std::uint64_t mid_step_op(const std::vector<std::uint64_t>& cum, long long s, lr::SplitMix64& rng) {
  const std::uint64_t lo = cum[static_cast<size_t>(s) - 2];
  const std::uint64_t hi = cum[static_cast<size_t>(s) - 1];
  const std::uint64_t width = hi - lo;
  return rng.range(lo + width / 4, lo + (3 * width) / 4);
}

struct Check {
  bool ok = true;
  void expect(bool cond, const std::string& what) {
    if (!cond) {
      ok = false;
      std::fprintf(stderr, "SOAK FAIL: %s\n", what.c_str());
    }
  }
};

void ldm_stage_kernel(void* /*argp*/) {
  void* p = sw::ldm_malloc(2048);
  sw::ldm_free(p);
}

int finish(Check& check, const std::string& out_path) {
  tel::set_gauge("soak.bit_identical", check.ok ? 1.0 : 0.0);
  tel::write_metrics_json(out_path);
  std::printf("soak: wrote %s\n", out_path.c_str());
  std::printf("soak: %s\n", check.ok ? "PASS" : "FAIL");
  return check.ok ? 0 : 1;
}

// --- default: three transient faults, bit-identical recovery ---------------

int run_default(std::uint64_t seed, long long target_steps, const std::string& out_path,
                const std::string& ckpt_dir) {
  const long long cadence = 4;
  const long long drop_step = 6;  // attempt 1 dies here, after the gen-1 checkpoint
  if (target_steps < 3 * cadence) {
    std::fprintf(stderr, "--steps must be at least %lld\n", 3 * cadence);
    return 2;
  }
  const auto cfg = soak_config();

  std::printf("soak: probing fault-free run (%lld steps, seed %llu)\n", target_steps,
              static_cast<unsigned long long>(seed));
  const Probe probe = probe_run(cfg, target_steps);

  // Rank 0's body below stages one DMA slab before every step, so the DMA op
  // counter equals "executed steps so far + 1" at each step start. Attempt 1
  // executes drop_step starts before dying; attempt 2 resumes at cadence+1.
  lr::SplitMix64 rng(seed);
  const long long dma_step = 9 + static_cast<long long>(rng.range(0, 2));  // model step 9..11
  const std::uint64_t dma_op = static_cast<std::uint64_t>(drop_step + (dma_step - cadence));
  lr::FaultSchedule schedule;
  schedule.add({lr::FaultSite::CommDeliver, lr::FaultKind::DropMessage, 0,
                mid_step_op(probe.comm_after_step, drop_step, rng), 0.0});
  schedule.add({lr::FaultSite::RestartWrite, lr::FaultKind::TornWrite, -1, 2, 0.5});
  schedule.add({lr::FaultSite::DmaTransfer, lr::FaultKind::DmaError, -1, dma_op, 0.0});
  std::printf("soak: armed schedule (DMA fault at start of step %lld)\n%s", dma_step,
              schedule.to_string().c_str());
  lr::arm(schedule);

  std::filesystem::remove_all(ckpt_dir);
  lr::SupervisorOptions opts;
  opts.nranks = kSoakRanks;
  opts.checkpoint_dir = ckpt_dir;
  opts.checkpoint_every_steps = cadence;
  opts.keep_generations = 8;
  opts.max_retries = 4;
  lr::Supervisor supervisor(opts);
  lc::GlobalDiagnostics healed{};
  std::vector<double> ldm_slab(256, 0.0);
  const auto report = supervisor.run(cfg, [&](lc::LicomModel& m) {
    licomk::swsim::DmaEngine dma;
    const bool stager = m.communicator().rank() == 0;
    while (m.steps_taken() < target_steps) {
      // Stage a slab of the temperature field into "LDM" the way the CPE
      // pipeline would; this is the hook site for the injected DMA error.
      if (stager) {
        dma.get(ldm_slab.data(), m.state().t_cur.view().data(),
                ldm_slab.size() * sizeof(double));
      }
      m.step();
    }
    auto d = m.diagnostics();
    if (stager) healed = d;
  });
  lr::disarm();

  std::printf("soak: %d attempts, %d recoveries\n", report.attempts, report.recoveries);
  for (const auto& f : report.failures) std::printf("soak: survived failure: %s\n", f.c_str());
  for (const auto& f : lr::fired_log()) std::printf("soak: injected: %s\n", f.c_str());

  Check check;
  check.expect(lr::injected_count() == 3,
               "expected exactly 3 injected faults, got " + std::to_string(lr::injected_count()));
  check.expect(report.attempts == 3, "expected 3 attempts, got " + std::to_string(report.attempts));
  check.expect(report.recoveries == 2,
               "expected 2 checkpoint recoveries, got " + std::to_string(report.recoveries));
  check.expect(report.last_restored_generation.has_value() && *report.last_restored_generation == 1,
               "expected both restores to come from generation 1");
  check.expect(report.shrinks == 0, "transient faults must never trigger a shrink");
  check.expect(tel::counter_value("resilience.dropped_generations") >= 1,
               "expected the torn generation 2 to be dropped during discovery");
  check.expect(tel::counter_value("resilience.retries") >= 2, "expected >= 2 relaunches");
  check.expect(tel::counter_value("resilience.faults_detected") >= 1,
               "expected the poisoned World to be detected");
  check.expect(
      healed.mean_sst == probe.reference.mean_sst &&
          healed.kinetic_energy == probe.reference.kinetic_energy &&
          healed.max_abs_eta == probe.reference.max_abs_eta,
      "recovered run is NOT bit-identical to the fault-free twin");

  tel::set_gauge("soak.attempts", static_cast<double>(report.attempts));
  tel::set_gauge("soak.recoveries", static_cast<double>(report.recoveries));
  return finish(check, out_path);
}

// --- rankloss: permanent rank death -> shrink-to-survive --------------------

int run_rankloss(std::uint64_t seed, long long target_steps, const std::string& out_path,
                 const std::string& ckpt_dir) {
  (void)seed;
  const long long cadence = 4;
  if (target_steps < 2 * cadence) {
    std::fprintf(stderr, "--steps must be at least %lld\n", 2 * cadence);
    return 2;
  }
  const auto cfg = soak_config();

  // Probe: 2-rank fault-free run armed with a never-firing sentinel so the
  // injector's per-rank op counters tick. Rank 1 samples its own delivery
  // count right after the generation-1 checkpoint (end of step `cadence`);
  // the permanent crash is placed one delivery later, so generation 1 is
  // always on disk before rank 1 starts dying.
  lr::FaultSchedule sentinel;
  sentinel.add({lr::FaultSite::CommDeliver, lr::FaultKind::CrashRank, 0,
                std::numeric_limits<std::uint64_t>::max(), 0.0});
  lr::arm(sentinel);
  std::uint64_t ops_at_gen1 = 0;
  {
    auto global = std::make_shared<licomk::grid::GlobalGrid>(cfg.grid, cfg.bathymetry_seed);
    lco::Runtime::run(2, [&](lco::Communicator& c) {
      lc::LicomModel m(cfg, global, c);
      while (m.steps_taken() < cadence) m.step();
      if (c.rank() == 1) ops_at_gen1 = lr::op_count(lr::FaultSite::CommDeliver, 1);
    });
  }
  std::printf("soak: rank 1 delivery count at generation-1 checkpoint: %llu\n",
              static_cast<unsigned long long>(ops_at_gen1));

  lr::FaultSchedule schedule;
  schedule.add({lr::FaultSite::CommDeliver, lr::FaultKind::CrashRank, /*rank=*/1,
                ops_at_gen1 + 1, 0.0, /*persistent=*/true});
  std::printf("soak: armed schedule (permanent rank-1 loss)\n%s", schedule.to_string().c_str());
  lr::arm(schedule);

  std::filesystem::remove_all(ckpt_dir);
  lr::SupervisorOptions opts;
  opts.nranks = 2;
  opts.checkpoint_dir = ckpt_dir;
  opts.checkpoint_every_steps = cadence;
  opts.keep_generations = 8;
  opts.max_retries = 1;
  opts.max_shrinks = 1;
  lr::Supervisor supervisor(opts);
  lc::GlobalDiagnostics healed{};
  long long final_steps = 0;
  const std::string final_prefix = ckpt_dir + std::string("/final");
  const auto report = supervisor.run(cfg, [&](lc::LicomModel& m) {
    while (m.steps_taken() < target_steps) m.step();
    m.write_restart(final_prefix);
    auto d = m.diagnostics();
    if (m.communicator().rank() == 0) {
      healed = d;
      final_steps = m.steps_taken();
    }
  });
  lr::disarm();

  std::printf("soak: %d attempts, %d recoveries, %d shrinks, final nranks %d\n", report.attempts,
              report.recoveries, report.shrinks, report.final_nranks);
  for (const auto& f : report.failures) std::printf("soak: survived failure: %s\n", f.c_str());

  Check check;
  check.expect(report.attempts == 3,
               "expected 3 attempts (2 at 2 ranks, 1 shrunk), got " +
                   std::to_string(report.attempts));
  check.expect(report.shrinks == 1, "expected exactly 1 shrink, got " +
                                        std::to_string(report.shrinks));
  check.expect(report.final_nranks == 1,
               "expected the survivor to run on 1 rank, got " +
                   std::to_string(report.final_nranks));
  check.expect(report.recoveries == 2, "expected 2 restores (same-size + redistributed), got " +
                                           std::to_string(report.recoveries));
  check.expect(final_steps == target_steps,
               "shrunk run did not reach the target step count");
  check.expect(report.redistributions.size() == 1, "expected exactly 1 redistribution");
  bool redist_ok = !report.redistributions.empty() && report.redistributions[0].crcs_match();
  check.expect(redist_ok, "redistribution did not preserve per-field global CRCs");
  check.expect(tel::counter_value("resilience.shrinks") == 1,
               "resilience.shrinks counter must be exactly 1");
  check.expect(tel::counter_value("resilience.redistributed_bytes") > 0,
               "resilience.redistributed_bytes counter must be > 0");
  check.expect(healed.kinetic_energy > 0.0, "final state looks unevolved (KE == 0)");

  // Export the final state's per-field global CRC-64 so the CI gate pins the
  // exact end state of the shrink-and-resume chain.
  try {
    auto final_dec = lc::LicomModel::plan_decomposition(cfg, report.final_nranks);
    auto final_state = lr::assemble_global_state(final_prefix, final_dec);
    const auto& names = lc::prognostic_field_names();
    for (size_t f = 0; f < names.size(); ++f) {
      tel::counter("soak.final_crc." + names[f]).set(final_state.field_crcs[f]);
      check.expect(final_state.field_crcs[f] != 0, "final CRC of " + names[f] + " is zero");
    }
    check.expect(final_state.info.steps == target_steps,
                 "final checkpoint step count mismatch");
  } catch (const std::exception& e) {
    check.expect(false, std::string("failed to assemble final state: ") + e.what());
  }

  tel::set_gauge("soak.attempts", static_cast<double>(report.attempts));
  tel::set_gauge("soak.recoveries", static_cast<double>(report.recoveries));
  tel::set_gauge("soak.shrinks", static_cast<double>(report.shrinks));
  tel::set_gauge("soak.final_nranks", static_cast<double>(report.final_nranks));
  tel::set_gauge("soak.redistribution_crc_match", redist_ok ? 1.0 : 0.0);
  return finish(check, out_path);
}

// --- growback: shrink under rank loss, then re-expand when capacity returns -

int run_growback(std::uint64_t seed, long long target_steps, const std::string& out_path,
                 const std::string& ckpt_dir) {
  (void)seed;
  const long long cadence = 4;
  if (target_steps < 5 * cadence) {
    std::fprintf(stderr, "--steps must be at least %lld\n", 5 * cadence);
    return 2;
  }
  auto cfg = soak_config();
  // The full elasticity loop runs on the ocean-aware weighted decomposition,
  // so this drill also exports the decomp.weighted.* imbalance gauges.
  cfg.weighted_decomposition = true;

  // Uninterrupted 4-rank twin: the CRC reference the healed run must hit.
  std::printf("soak: running uninterrupted 4-rank twin (%lld steps)\n", target_steps);
  const std::string twin_prefix = ckpt_dir + std::string("_twin/final");
  std::filesystem::remove_all(ckpt_dir + std::string("_twin"));
  std::filesystem::create_directories(ckpt_dir + std::string("_twin"));
  {
    auto global = std::make_shared<licomk::grid::GlobalGrid>(cfg.grid, cfg.bathymetry_seed);
    lco::Runtime::run(4, [&](lco::Communicator& c) {
      lc::LicomModel m(cfg, global, c);
      while (m.steps_taken() < target_steps) m.step();
      m.write_restart(twin_prefix);
    });
  }
  const auto twin =
      lr::assemble_global_state(twin_prefix, lc::LicomModel::plan_decomposition(cfg, 4));

  // Calibration: 4-rank fault-free probe armed with a never-firing sentinel
  // so per-rank delivery counters tick; ranks 2 and 3 sample their counts at
  // the generation-1 boundary. Their permanent crashes land one delivery
  // later, so generation 1 is always on disk before the dying starts.
  lr::FaultSchedule sentinel;
  sentinel.add({lr::FaultSite::CommDeliver, lr::FaultKind::CrashRank, 0,
                std::numeric_limits<std::uint64_t>::max(), 0.0});
  lr::arm(sentinel);
  std::uint64_t ops2 = 0, ops3 = 0;
  {
    auto global = std::make_shared<licomk::grid::GlobalGrid>(cfg.grid, cfg.bathymetry_seed);
    lco::Runtime::run(4, [&](lco::Communicator& c) {
      lc::LicomModel m(cfg, global, c);
      while (m.steps_taken() < cadence) m.step();
      if (c.rank() == 2) ops2 = lr::op_count(lr::FaultSite::CommDeliver, 2);
      if (c.rank() == 3) ops3 = lr::op_count(lr::FaultSite::CommDeliver, 3);
    });
  }

  // Ranks 2 AND 3 die permanently (rank 3 alone would stabilize at 3 ranks):
  // the supervisor must walk 4 -> 3 -> 2 before finding a healthy layout.
  lr::FaultSchedule schedule;
  schedule.add({lr::FaultSite::CommDeliver, lr::FaultKind::CrashRank, 2, ops2 + 1, 0.0,
                /*persistent=*/true});
  schedule.add({lr::FaultSite::CommDeliver, lr::FaultKind::CrashRank, 3, ops3 + 1, 0.0,
                /*persistent=*/true});
  std::printf("soak: armed schedule (permanent loss of ranks 2 and 3)\n%s",
              schedule.to_string().c_str());
  lr::arm(schedule);

  // The "scheduler": 2 ranks available while the machine is degraded; the
  // rank body repairs the machine mid-run (disarm + capacity back to 4).
  std::atomic<int> capacity{2};

  std::filesystem::remove_all(ckpt_dir);
  lr::SupervisorOptions opts;
  opts.nranks = 4;
  opts.checkpoint_dir = ckpt_dir;
  opts.checkpoint_every_steps = cadence;
  opts.keep_generations = 8;
  opts.max_retries = 1;
  opts.max_shrinks = 2;
  opts.grow_back = true;
  opts.capacity_probe = [&capacity] { return capacity.load(); };
  lr::Supervisor supervisor(opts);
  long long final_steps = 0;
  int final_size = 0;
  const std::string final_prefix = ckpt_dir + std::string("/final");
  const auto report = supervisor.run(cfg, [&](lc::LicomModel& m) {
    while (m.steps_taken() < target_steps) {
      m.step();
      // Once the shrunk run is past 3 cadences, the dead ranks "come back":
      // the fault schedule is cleared and the probe starts reporting 4.
      if (m.communicator().size() == 2 && m.communicator().rank() == 0 &&
          m.steps_taken() >= 3 * cadence) {
        lr::disarm();
        capacity.store(4);
      }
    }
    m.write_restart(final_prefix);
    if (m.communicator().rank() == 0) {
      final_steps = m.steps_taken();
      final_size = m.communicator().size();
    }
  });
  lr::disarm();

  std::printf("soak: %d attempts, %d recoveries, %d shrinks, %d growbacks, final nranks %d\n",
              report.attempts, report.recoveries, report.shrinks, report.growbacks,
              report.final_nranks);
  for (const auto& f : report.failures) std::printf("soak: survived failure: %s\n", f.c_str());

  Check check;
  check.expect(report.attempts == 6,
               "expected 6 attempts (2@4, 2@3, grow-signal@2, 1@4), got " +
                   std::to_string(report.attempts));
  check.expect(report.shrinks == 2,
               "expected the shrink chain 4 -> 3 -> 2, got " + std::to_string(report.shrinks));
  check.expect(report.growbacks == 1,
               "expected exactly 1 grow-back, got " + std::to_string(report.growbacks));
  check.expect(report.final_nranks == 4 && final_size == 4,
               "expected the healed run to finish at full size (4 ranks)");
  check.expect(final_steps == target_steps, "healed run did not reach the target step count");
  bool redists_ok = report.redistributions.size() == 3;
  for (const auto& rr : report.redistributions) redists_ok = redists_ok && rr.crcs_match();
  check.expect(redists_ok,
               "expected 3 CRC-proved redistributions (shrink1, shrink2, grow1), got " +
                   std::to_string(report.redistributions.size()));
  check.expect(tel::counter_value("resilience.growbacks") == 1,
               "resilience.growbacks counter must be exactly 1");
  check.expect(tel::counter_value("resilience.shrinks") == 2,
               "resilience.shrinks counter must be exactly 2");
  check.expect(report.backoff_wall_s == 0.0,
               "no backoff was configured, yet backoff wall time accrued");

  // The elasticity gate: per-field global CRC-64 of the healed run's final
  // state must equal the uninterrupted 4-rank twin's, bit for bit.
  bool crc_match = false;
  try {
    auto final_state =
        lr::assemble_global_state(final_prefix, lc::LicomModel::plan_decomposition(cfg, 4));
    crc_match = final_state.field_crcs == twin.field_crcs;
    const auto& names = lc::prognostic_field_names();
    for (size_t f = 0; f < names.size(); ++f) {
      tel::counter("soak.final_crc." + names[f]).set(final_state.field_crcs[f]);
      check.expect(final_state.field_crcs[f] != 0, "final CRC of " + names[f] + " is zero");
    }
    check.expect(final_state.info.steps == target_steps,
                 "final checkpoint step count mismatch");
  } catch (const std::exception& e) {
    check.expect(false, std::string("failed to assemble final state: ") + e.what());
  }
  check.expect(crc_match,
               "healed run is NOT bit-identical to the uninterrupted 4-rank twin");

  tel::set_gauge("soak.attempts", static_cast<double>(report.attempts));
  tel::set_gauge("soak.recoveries", static_cast<double>(report.recoveries));
  tel::set_gauge("soak.shrinks", static_cast<double>(report.shrinks));
  tel::set_gauge("soak.growbacks", static_cast<double>(report.growbacks));
  tel::set_gauge("soak.final_nranks", static_cast<double>(report.final_nranks));
  tel::set_gauge("soak.final_crc_match", crc_match ? 1.0 : 0.0);
  return finish(check, out_path);
}

// --- detect: silent corruption made loud ------------------------------------

int run_detect(std::uint64_t seed, long long target_steps, const std::string& out_path,
               const std::string& ckpt_dir) {
  (void)seed;
  const long long cadence = 4;
  if (target_steps < 2 * cadence) {
    std::fprintf(stderr, "--steps must be at least %lld\n", 2 * cadence);
    return 2;
  }
  auto cfg = soak_config();
  cfg.verify_halo_crc = true;  // opt-in per-message halo CRC append/verify

  std::printf("soak: probing fault-free run (%lld steps)\n", target_steps);
  const Probe probe = probe_run(cfg, target_steps);

  sw::reset_default_core_group();
  sw::athread_init();

  // Fault 1: flip 3 bits in the very first user-tagged (halo) message —
  // attempt 1 dies inside model construction with a CRC-detected CommError.
  // Fault 2: inflate CPE 0's ldm_malloc during the staging spawn before step
  // cadence+1 of attempt 2 (the body spawns once per executed step, so the
  // per-CPE op counter equals executed steps + 1) — after the generation-1
  // checkpoint, so attempt 3 restores instead of cold-starting.
  lr::FaultSchedule schedule;
  schedule.add({lr::FaultSite::CommPayload, lr::FaultKind::FlipBits, -1, 1, 3.0});
  schedule.add({lr::FaultSite::LdmMalloc, lr::FaultKind::InflateAlloc, /*rank=*/0,
                static_cast<std::uint64_t>(cadence + 1), 0.0});
  std::printf("soak: armed schedule (halo bit-flip + LDM overflow)\n%s",
              schedule.to_string().c_str());
  lr::arm(schedule);

  std::filesystem::remove_all(ckpt_dir);
  lr::SupervisorOptions opts;
  opts.nranks = kSoakRanks;
  opts.checkpoint_dir = ckpt_dir;
  opts.checkpoint_every_steps = cadence;
  opts.keep_generations = 8;
  opts.max_retries = 3;
  lr::Supervisor supervisor(opts);
  lc::GlobalDiagnostics healed{};
  const auto report = supervisor.run(cfg, [&](lc::LicomModel& m) {
    const bool stager = m.communicator().rank() == 0;
    while (m.steps_taken() < target_steps) {
      // Stage scratch through every CPE's LDM the way a kernel launch would;
      // this is the hook site for the injected allocation inflation. One
      // rank drives the simulated core group, so its op counters stay
      // "executed steps + 1".
      if (stager) {
        sw::athread_spawn(&ldm_stage_kernel, nullptr);
        sw::athread_join();
      }
      m.step();
    }
    auto d = m.diagnostics();
    if (stager) healed = d;
  });
  lr::disarm();

  std::printf("soak: %d attempts, %d recoveries\n", report.attempts, report.recoveries);
  for (const auto& f : report.failures) std::printf("soak: survived failure: %s\n", f.c_str());
  for (const auto& f : lr::fired_log()) std::printf("soak: injected: %s\n", f.c_str());

  Check check;
  check.expect(lr::injected_count() == 2,
               "expected exactly 2 injected faults, got " + std::to_string(lr::injected_count()));
  check.expect(report.attempts == 3, "expected 3 attempts, got " + std::to_string(report.attempts));
  check.expect(report.recoveries == 1,
               "expected 1 restore (cold start after ctor kill, then gen-1), got " +
                   std::to_string(report.recoveries));
  check.expect(report.last_restored_generation.has_value() && *report.last_restored_generation == 1,
               "expected the restore to come from generation 1");
  check.expect(tel::counter_value("resilience.halo_crc_failures") >= 1,
               "halo corruption was not detected by the message CRC");
  check.expect(tel::counter_value("resilience.ldm_overflows") >= 1,
               "LDM inflation did not surface as a typed overflow");
  check.expect(report.failures.size() >= 2 &&
                   report.failures[0].find("CRC") != std::string::npos,
               "attempt 1 should have died on a halo CRC mismatch");
  check.expect(report.failures.size() >= 2 &&
                   report.failures[1].find("LDM overflow") != std::string::npos,
               "attempt 2 should have died on an LDM overflow");
  check.expect(
      healed.mean_sst == probe.reference.mean_sst &&
          healed.kinetic_energy == probe.reference.kinetic_energy &&
          healed.max_abs_eta == probe.reference.max_abs_eta,
      "recovered run is NOT bit-identical to the fault-free twin");

  tel::set_gauge("soak.attempts", static_cast<double>(report.attempts));
  tel::set_gauge("soak.recoveries", static_cast<double>(report.recoveries));
  return finish(check, out_path);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 20260805;
  long long target_steps = 24;
  std::string out_path = "soak_metrics.json";
  std::string ckpt_dir = "/tmp/licomk_soak_ckpt";
  std::string scenario = "default";
  for (int a = 1; a < argc; ++a) {
    auto next = [&](const char* flag) -> const char* {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++a];
    };
    if (!std::strcmp(argv[a], "--seed")) {
      seed = std::strtoull(next("--seed"), nullptr, 10);
    } else if (!std::strcmp(argv[a], "--steps")) {
      target_steps = std::atoll(next("--steps"));
    } else if (!std::strcmp(argv[a], "--out")) {
      out_path = next("--out");
    } else if (!std::strcmp(argv[a], "--dir")) {
      ckpt_dir = next("--dir");
    } else if (!std::strcmp(argv[a], "--scenario")) {
      scenario = next("--scenario");
    } else {
      std::fprintf(stderr,
                   "usage: soak_run [--scenario default|rankloss|detect|growback] [--seed N] [--steps N] "
                   "[--out metrics.json] [--dir ckptdir]\n");
      return 2;
    }
  }

  // LDM staging stays off: the default/detect schedules calibrate DmaTransfer
  // and per-CPE LdmMalloc op counters against the rank bodies' explicit hook
  // sites (one DMA slab per step, one staging spawn per step). Kernel-issued
  // staging traffic would tick the same counters and fire the faults at
  // uncalibrated points (before the generation-1 checkpoint exists).
  kxx::initialize({kxx::Backend::AthreadSim, 1, false, kxx::LdmStagingMode::Direct});
  tel::set_enabled(true);

  if (scenario == "default") return run_default(seed, target_steps, out_path, ckpt_dir);
  if (scenario == "rankloss") return run_rankloss(seed, target_steps, out_path, ckpt_dir);
  if (scenario == "detect") return run_detect(seed, target_steps, out_path, ckpt_dir);
  if (scenario == "growback") return run_growback(seed, target_steps, out_path, ckpt_dir);
  std::fprintf(stderr, "unknown scenario '%s' (default|rankloss|detect|growback)\n", scenario.c_str());
  return 2;
}
