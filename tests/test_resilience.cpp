// Tests for the resilience subsystem: deterministic fault injection,
// self-checking checkpoint generations, and the auto-recovering supervisor.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "comm/runtime.hpp"
#include "core/model.hpp"
#include "core/restart.hpp"
#include "kxx/kxx.hpp"
#include "decomp/decomposition.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/redistribute.hpp"
#include "resilience/supervisor.hpp"
#include "swsim/dma.hpp"
#include "telemetry/telemetry.hpp"

namespace lc = licomk::core;
namespace lco = licomk::comm;
namespace lr = licomk::resilience;
namespace kxx = licomk::kxx;
namespace fs = std::filesystem;

namespace {

lc::ModelConfig small_config() {
  auto cfg = lc::ModelConfig::testing(10);
  cfg.grid.nz = 6;
  return cfg;
}

struct TempDir {
  std::string path;
  explicit TempDir(const char* name) : path(std::string("/tmp/licomk_resilience_") + name) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

struct Disarmed {
  ~Disarmed() { lr::disarm(); }
};

namespace ld = licomk::decomp;

/// Deterministic, exactly-representable cell value: digits encode (field, k,
/// global j, global i), so any misplaced cell is visible and bit-exact.
double synth_value(int field, int k, int gj, int gi) {
  return field * 1e6 + k * 1e4 + gj * 100 + gi;
}

/// Write one checkpoint generation for every rank of `dec` straight through
/// the raw writer: interiors from synth_value, halos poisoned with -1e9 so a
/// redistribution that leaks ghost cells into owned data cannot pass.
void write_synth_generation(const std::string& prefix, const ld::Decomposition& dec, int nz,
                            const lc::RestartInfo& info) {
  constexpr int h = ld::kHaloWidth;
  for (int r = 0; r < dec.nranks(); ++r) {
    const ld::BlockExtent be = dec.block(r);
    const int snx = be.nx() + 2 * h, sny = be.ny() + 2 * h;
    lc::RestartFileInfo header;
    header.info = info;
    header.nx = be.nx();
    header.ny = be.ny();
    header.nz = nz;
    header.i0 = be.i0;
    header.j0 = be.j0;
    std::vector<std::vector<double>> f3(
        8, std::vector<double>(static_cast<size_t>(nz) * sny * snx, -1e9));
    std::vector<std::vector<double>> f2(6, std::vector<double>(static_cast<size_t>(sny) * snx,
                                                               -1e9));
    for (int f = 0; f < 8; ++f) {
      for (int k = 0; k < nz; ++k) {
        for (int j = 0; j < be.ny(); ++j) {
          for (int i = 0; i < be.nx(); ++i) {
            f3[static_cast<size_t>(f)][(static_cast<size_t>(k) * sny + j + h) * snx + i + h] =
                synth_value(f, k, be.j0 + j, be.i0 + i);
          }
        }
      }
    }
    for (int f = 0; f < 6; ++f) {
      for (int j = 0; j < be.ny(); ++j) {
        for (int i = 0; i < be.nx(); ++i) {
          f2[static_cast<size_t>(f)][static_cast<size_t>(j + h) * snx + i + h] =
            synth_value(8 + f, 0, be.j0 + j, be.i0 + i);
        }
      }
    }
    lc::write_restart_raw(lc::restart_rank_path(prefix, r), header, f3, f2);
  }
}

}  // namespace

TEST(FaultSchedule, ParsesAndRoundTrips) {
  auto s = lr::FaultSchedule::parse(R"(
# a comment
comm.deliver * 120 drop
comm.deliver 1 64 crash
comm.deliver * 10 delay 2.5
dma * 4096 error
restart.write * 3 torn 0.5
restart.write 0 2 crash-write
io.write * 1 torn 0.25
)");
  ASSERT_EQ(s.events().size(), 7u);
  EXPECT_EQ(s.events()[0].kind, lr::FaultKind::DropMessage);
  EXPECT_EQ(s.events()[0].rank, -1);
  EXPECT_EQ(s.events()[0].at_op, 120u);
  EXPECT_EQ(s.events()[1].rank, 1);
  EXPECT_DOUBLE_EQ(s.events()[2].param, 2.5);
  EXPECT_EQ(s.events()[3].site, lr::FaultSite::DmaTransfer);
  EXPECT_EQ(s.events()[5].kind, lr::FaultKind::CrashWrite);
  // to_string -> parse is the identity on the event list.
  auto re = lr::FaultSchedule::parse(s.to_string());
  ASSERT_EQ(re.events().size(), s.events().size());
  for (size_t n = 0; n < s.events().size(); ++n) {
    EXPECT_EQ(re.events()[n].site, s.events()[n].site) << n;
    EXPECT_EQ(re.events()[n].kind, s.events()[n].kind) << n;
    EXPECT_EQ(re.events()[n].rank, s.events()[n].rank) << n;
    EXPECT_EQ(re.events()[n].at_op, s.events()[n].at_op) << n;
    EXPECT_DOUBLE_EQ(re.events()[n].param, s.events()[n].param) << n;
  }
  EXPECT_THROW(lr::FaultSchedule::parse("comm.deliver *"), licomk::InvalidArgument);
  EXPECT_THROW(lr::FaultSchedule::parse("warp.core 0 1 breach"), licomk::InvalidArgument);
}

TEST(FaultSchedule, ParsesPersistentEventsAndNewSites) {
  auto s = lr::FaultSchedule::parse(R"(
comm.deliver 1 64 crash+        # permanent rank loss
comm.payload * 7 flip 3
ldm 5 2 inflate
)");
  ASSERT_EQ(s.events().size(), 3u);
  EXPECT_TRUE(s.events()[0].persistent);
  EXPECT_EQ(s.events()[0].kind, lr::FaultKind::CrashRank);
  EXPECT_FALSE(s.events()[1].persistent);
  EXPECT_EQ(s.events()[1].site, lr::FaultSite::CommPayload);
  EXPECT_EQ(s.events()[1].kind, lr::FaultKind::FlipBits);
  EXPECT_DOUBLE_EQ(s.events()[1].param, 3.0);
  EXPECT_EQ(s.events()[2].site, lr::FaultSite::LdmMalloc);
  EXPECT_EQ(s.events()[2].kind, lr::FaultKind::InflateAlloc);
  EXPECT_EQ(s.events()[2].rank, 5);
  // The '+' marker survives the to_string -> parse round trip.
  auto re = lr::FaultSchedule::parse(s.to_string());
  ASSERT_EQ(re.events().size(), 3u);
  EXPECT_TRUE(re.events()[0].persistent);
  EXPECT_FALSE(re.events()[1].persistent);
}

TEST(FaultSchedule, SplitMix64IsDeterministic) {
  lr::SplitMix64 a(42), b(42);
  for (int n = 0; n < 100; ++n) EXPECT_EQ(a.next(), b.next());
  lr::SplitMix64 c(42);
  for (int n = 0; n < 1000; ++n) {
    auto v = c.range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(FaultInjector, FiresEachEventExactlyOnceAtItsOp) {
  Disarmed guard;
  lr::FaultSchedule s;
  s.add({lr::FaultSite::DmaTransfer, lr::FaultKind::DmaError, -1, 3, 0.0});
  lr::arm(s);
  licomk::swsim::DmaEngine dma;
  double host[4] = {1, 2, 3, 4}, ldm[4] = {};
  dma.get(ldm, host, sizeof(host));  // op 1
  dma.put(host, ldm, sizeof(host));  // op 2
  EXPECT_THROW(dma.get(ldm, host, sizeof(host)), licomk::ResourceError);  // op 3
  EXPECT_NO_THROW(dma.get(ldm, host, sizeof(host)));  // op 4: fired already
  EXPECT_EQ(lr::injected_count(), 1u);
  ASSERT_EQ(lr::fired_log().size(), 1u);
  EXPECT_NE(lr::fired_log()[0].find("dma"), std::string::npos);
  // Re-arming replays the same sequence from scratch.
  lr::arm(s);
  dma.get(ldm, host, sizeof(host));
  dma.get(ldm, host, sizeof(host));
  EXPECT_THROW(dma.get(ldm, host, sizeof(host)), licomk::ResourceError);
}

TEST(FaultInjector, DroppedMessagePoisonsTheWorld) {
  Disarmed guard;
  lr::FaultSchedule s;
  s.add({lr::FaultSite::CommDeliver, lr::FaultKind::DropMessage, -1, 1, 0.0});
  lr::arm(s);
  lco::World world(2);
  auto c0 = world.communicator(0);
  auto c1 = world.communicator(1);
  double x = 7.0;
  c0.send(&x, sizeof(x), 1, 1);  // swallowed by the injector
  EXPECT_TRUE(world.poisoned());
  double got = 0.0;
  EXPECT_THROW(c1.recv(&got, sizeof(got), 0, 1), licomk::CommError);
  EXPECT_EQ(lr::injected_count(), 1u);
}

TEST(FaultInjector, CrashWriteLeavesOnlyStagingFile) {
  Disarmed guard;
  kxx::initialize({kxx::Backend::Serial, 1, false});
  TempDir dir("crashwrite");
  lr::CheckpointManager ckpt(dir.path, 3);
  lc::LicomModel m(small_config());
  m.step();
  lr::FaultSchedule s;
  s.add({lr::FaultSite::RestartWrite, lr::FaultKind::CrashWrite, -1, /*at_op=*/2, 0.0});
  lr::arm(s);
  ckpt.write(m, 1);  // survives: schedule targets generation 2
  EXPECT_THROW(ckpt.write(m, 2), lr::InjectedFault);
  std::string final_path = lc::restart_rank_path(ckpt.generation_prefix(2), 0);
  EXPECT_FALSE(fs::exists(final_path));
  EXPECT_TRUE(fs::exists(final_path + ".tmp"));
  // Discovery ignores the staging file and the missing generation.
  auto newest = ckpt.newest_verified_generation(1);
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(*newest, 1u);
}

TEST(Checkpoint, KeepsLastKGenerationsAndVerifiesNewest) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  TempDir dir("lastk");
  lr::CheckpointManager ckpt(dir.path, 2);
  lc::LicomModel m(small_config());
  for (std::uint64_t gen = 1; gen <= 5; ++gen) {
    m.step();
    ckpt.write(m, gen);
  }
  auto gens = ckpt.generations_on_disk();
  ASSERT_EQ(gens.size(), 2u);  // GC keeps the newest K
  EXPECT_EQ(gens[0], 4u);
  EXPECT_EQ(gens[1], 5u);
  auto newest = ckpt.newest_verified_generation(1);
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(*newest, 5u);
}

TEST(Checkpoint, FallsBackPastCorruptGeneration) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  licomk::telemetry::reset();
  licomk::telemetry::set_enabled(true);
  TempDir dir("fallback");
  lr::CheckpointManager ckpt(dir.path, 3);
  lc::LicomModel m(small_config());
  for (std::uint64_t gen = 1; gen <= 3; ++gen) {
    m.step();
    ckpt.write(m, gen);
  }
  // Tear the newest generation's file: CRC must reject it and discovery must
  // fall back to generation 2.
  lr::tear_file(lc::restart_rank_path(ckpt.generation_prefix(3), 0), 0.5);
  auto newest = ckpt.newest_verified_generation(1);
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(*newest, 2u);
  EXPECT_GE(licomk::telemetry::counter_value("resilience.crc_failures"), 1u);
  EXPECT_GE(licomk::telemetry::counter_value("resilience.dropped_generations"), 1u);
  // Restoring the fallback generation works and restores its step count.
  lc::LicomModel fresh(small_config());
  ckpt.restore(fresh, *newest);
  EXPECT_EQ(fresh.steps_taken(), 2);
  licomk::telemetry::set_enabled(false);
  licomk::telemetry::reset();
}

TEST(Checkpoint, InstallWritesOnCadence) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  TempDir dir("cadence");
  lr::CheckpointManager ckpt(dir.path, 10);
  lc::LicomModel m(small_config());
  ckpt.install(m, 3);
  for (int n = 0; n < 7; ++n) m.step();
  auto gens = ckpt.generations_on_disk();
  ASSERT_EQ(gens.size(), 2u);  // after steps 3 and 6
  EXPECT_EQ(gens[0], 1u);
  EXPECT_EQ(gens[1], 2u);
}

TEST(Redistribute, RoundTripAcrossLayoutsIsBitIdentical) {
  // A -> B -> A over a sweep of layout pairs on the tripolar 36x21 test grid,
  // including layouts that split the north fold row across several blocks.
  // Each global cell is owned exactly once, so the round trip must reproduce
  // the source assembly bit-for-bit (and CRC-for-CRC).
  const int nz = 4;
  const lc::RestartInfo info{86400.0, 7, 2.25};
  struct Pair {
    int apx, apy, bpx, bpy;
  };
  const std::vector<Pair> pairs = {{3, 2, 2, 2}, {2, 2, 1, 1}, {2, 3, 3, 1}, {1, 1, 3, 2}};
  for (const Pair& p : pairs) {
    SCOPED_TRACE("A=" + std::to_string(p.apx) + "x" + std::to_string(p.apy) +
                 " B=" + std::to_string(p.bpx) + "x" + std::to_string(p.bpy));
    TempDir dir("redist");
    ld::Decomposition A(36, 21, p.apx, p.apy, true, true);
    ld::Decomposition B(36, 21, p.bpx, p.bpy, true, true);
    const std::string prefA = dir.path + "/a/ckpt.gen7";
    const std::string prefB = dir.path + "/b/ckpt.gen7";
    const std::string prefA2 = dir.path + "/a2/ckpt.gen7";
    fs::create_directories(dir.path + "/a");
    write_synth_generation(prefA, A, nz, info);

    auto ab = lr::redistribute_checkpoint(prefA, A, prefB, B, 7);
    EXPECT_TRUE(ab.crcs_match());
    EXPECT_EQ(ab.src_nranks, A.nranks());
    EXPECT_EQ(ab.dst_nranks, B.nranks());
    EXPECT_EQ(ab.info.steps, info.steps);
    EXPECT_DOUBLE_EQ(ab.info.sim_seconds, info.sim_seconds);
    EXPECT_DOUBLE_EQ(ab.info.step_wall_s, info.step_wall_s);
    EXPECT_GT(ab.bytes_written, 0u);
    ASSERT_EQ(ab.field_names.size(), 14u);
    EXPECT_EQ(ab.field_names.front(), "u_old");

    auto ba = lr::redistribute_checkpoint(prefB, B, prefA2, A, 7);
    EXPECT_TRUE(ba.crcs_match());
    // The re-slice is lossless end-to-end: B's global CRCs equal A's.
    EXPECT_EQ(ba.src_crcs, ab.src_crcs);

    auto ga = lr::assemble_global_state(prefA, A);
    auto ga2 = lr::assemble_global_state(prefA2, A);
    EXPECT_EQ(ga.field_crcs, ga2.field_crcs);
    ASSERT_EQ(ga.fields3.size(), ga2.fields3.size());
    for (size_t f = 0; f < ga.fields3.size(); ++f) ASSERT_EQ(ga.fields3[f], ga2.fields3[f]) << f;
    for (size_t f = 0; f < ga.fields2.size(); ++f) ASSERT_EQ(ga.fields2[f], ga2.fields2[f]) << f;
    // Spot-check placement against the synthesis formula.
    EXPECT_DOUBLE_EQ(ga2.fields3[3][(2 * 21 + 20) * 36 + 35], synth_value(3, 2, 20, 35));
    EXPECT_DOUBLE_EQ(ga2.fields2[5][10 * 36 + 17], synth_value(13, 0, 10, 17));
  }
}

TEST(Redistribute, RejectsFilesFromForeignDecomposition) {
  TempDir dir("redist_foreign");
  fs::create_directories(dir.path);
  const std::string pref = dir.path + "/ckpt.gen1";
  ld::Decomposition A(36, 21, 3, 2, true, true);
  write_synth_generation(pref, A, 3, {0.0, 1, 0.0});
  // Same rank count, different layout: block shapes disagree -> hard error,
  // never a silently misassembled state.
  ld::Decomposition wrong(36, 21, 2, 3, true, true);
  EXPECT_THROW(lr::assemble_global_state(pref, wrong), licomk::Error);
}

TEST(Checkpoint, ShapeAwareDiscoverySkipsForeignLayouts) {
  TempDir dir("shape_aware");
  lr::CheckpointManager ckpt(dir.path, 10);
  ld::Decomposition two(36, 21, 2, 1, true, true);
  ld::Decomposition one(36, 21, 1, 1, true, true);
  // Generation 3 written under 2 ranks, generation 5 under 1 rank — the mixed
  // directory an elastic shrink leaves behind.
  write_synth_generation(ckpt.generation_prefix(3), two, 3, {0.0, 6, 0.0});
  write_synth_generation(ckpt.generation_prefix(5), one, 3, {0.0, 10, 0.0});
  auto for_two = ckpt.newest_verified_generation(two);
  ASSERT_TRUE(for_two.has_value());
  EXPECT_EQ(*for_two, 3u);  // gen 5 is intact but shaped for 1 rank
  auto for_one = ckpt.newest_verified_generation(one);
  ASSERT_TRUE(for_one.has_value());
  EXPECT_EQ(*for_one, 5u);
  // The shape-blind variant keeps its old meaning: newest intact per count.
  auto blind = ckpt.newest_verified_generation(1);
  ASSERT_TRUE(blind.has_value());
  EXPECT_EQ(*blind, 5u);
}

TEST(Supervisor, RecoversFromInjectedCrashBitIdentically) {
  Disarmed guard;
  kxx::initialize({kxx::Backend::Serial, 1, false});
  licomk::telemetry::reset();
  licomk::telemetry::set_enabled(true);
  const long long target_steps = 12;
  auto body = [target_steps](lc::LicomModel& m) {
    while (m.steps_taken() < target_steps) m.step();
  };

  // Fault-free twin for the bit-identical comparison.
  TempDir ref_dir("sup_ref");
  lr::SupervisorOptions ref_opts;
  ref_opts.nranks = 2;
  ref_opts.checkpoint_dir = ref_dir.path;
  ref_opts.checkpoint_every_steps = 4;
  lr::Supervisor ref_sup(ref_opts);
  auto ref_report = ref_sup.run(small_config(), body);
  EXPECT_EQ(ref_report.attempts, 1);
  EXPECT_EQ(ref_report.recoveries, 0);

  // Measure deliveries per step so the crash can be placed mid-run. Two
  // ranks, because a one-rank model's halo links are all local copies and
  // never reach World::deliver. The probe is armed with a sentinel that
  // never fires, so the per-rank op counters tick exactly as in the real run.
  lr::FaultSchedule sentinel;
  sentinel.add({lr::FaultSite::CommDeliver, lr::FaultKind::CrashRank, 0,
                std::numeric_limits<std::uint64_t>::max(), 0.0});
  lr::arm(sentinel);
  std::uint64_t construction_ops = 0, per_step_ops = 0;
  {
    auto global = std::make_shared<licomk::grid::GlobalGrid>(small_config().grid,
                                                             small_config().bathymetry_seed);
    lco::Runtime::run(2, [&](lco::Communicator& c) {
      lc::LicomModel m(small_config(), global, c);
      const std::uint64_t after_construction = lr::op_count(lr::FaultSite::CommDeliver, 0);
      m.step();
      if (c.rank() == 0) {
        construction_ops = after_construction;
        per_step_ops = lr::op_count(lr::FaultSite::CommDeliver, 0) - after_construction;
      }
    });
  }
  lr::disarm();
  ASSERT_GT(per_step_ops, 0u);

  // Crash in the middle of step 7 of the first attempt: after the step-4
  // checkpoint (generation 1), before the step-8 one.
  lr::FaultSchedule s;
  s.add({lr::FaultSite::CommDeliver, lr::FaultKind::CrashRank, 0,
         construction_ops + per_step_ops * 6 + per_step_ops / 2, 0.0});
  lr::arm(s);

  TempDir dir("sup_crash");
  lr::SupervisorOptions opts;
  opts.nranks = 2;
  opts.checkpoint_dir = dir.path;
  opts.checkpoint_every_steps = 4;
  opts.max_retries = 3;
  lr::Supervisor sup(opts);
  lc::GlobalDiagnostics healed;
  auto report = sup.run(small_config(), [&](lc::LicomModel& m) {
    body(m);
    auto d = m.diagnostics();
    if (m.communicator().rank() == 0) healed = d;
  });
  EXPECT_EQ(report.attempts, 2);
  EXPECT_EQ(report.recoveries, 1);
  ASSERT_TRUE(report.last_restored_generation.has_value());
  EXPECT_EQ(*report.last_restored_generation, 1u);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NE(report.failures[0].find("injected crash"), std::string::npos);
  EXPECT_EQ(lr::injected_count(), 1u);
  EXPECT_GE(licomk::telemetry::counter_value("resilience.retries"), 1u);
  EXPECT_GE(licomk::telemetry::counter_value("resilience.faults_injected"), 1u);

  // The recovered run ends bit-identical to the fault-free twin.
  lc::GlobalDiagnostics reference;
  lr::disarm();
  auto cfg = small_config();
  auto global = std::make_shared<licomk::grid::GlobalGrid>(cfg.grid, cfg.bathymetry_seed);
  lco::Runtime::run(2, [&](lco::Communicator& c) {
    lc::LicomModel m(cfg, global, c);
    body(m);
    auto d = m.diagnostics();
    if (c.rank() == 0) reference = d;
  });
  EXPECT_DOUBLE_EQ(healed.mean_sst, reference.mean_sst);
  EXPECT_DOUBLE_EQ(healed.kinetic_energy, reference.kinetic_energy);
  EXPECT_DOUBLE_EQ(healed.max_abs_eta, reference.max_abs_eta);
  licomk::telemetry::set_enabled(false);
  licomk::telemetry::reset();
}

TEST(Supervisor, ExhaustedRetriesRethrowTheLastError) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  TempDir dir("sup_exhaust");
  lr::SupervisorOptions opts;
  opts.nranks = 1;
  opts.checkpoint_dir = dir.path;
  opts.max_retries = 2;
  lr::Supervisor sup(opts);
  int calls = 0;
  EXPECT_THROW(sup.run(small_config(),
                       [&](lc::LicomModel&) {
                         ++calls;
                         throw licomk::ResourceError("always fails");
                       }),
               licomk::ResourceError);
  EXPECT_EQ(calls, 3);  // initial attempt + 2 retries
}

TEST(Supervisor, PermanentRankLossShrinksExactlyOnceAndFinishes) {
  Disarmed guard;
  kxx::initialize({kxx::Backend::Serial, 1, false});
  licomk::telemetry::reset();
  licomk::telemetry::set_enabled(true);
  // Rank 1 is permanently dead: its very first delivery crashes, and the
  // persistent event refires on every relaunch. No checkpoint ever completes,
  // so the shrink cold-starts at the smaller size.
  lr::FaultSchedule s;
  s.add({lr::FaultSite::CommDeliver, lr::FaultKind::CrashRank, /*rank=*/1, /*at_op=*/1, 0.0,
         /*persistent=*/true});
  lr::arm(s);

  TempDir dir("sup_shrink_cold");
  lr::SupervisorOptions opts;
  opts.nranks = 2;
  opts.checkpoint_dir = dir.path;
  opts.checkpoint_every_steps = 2;
  opts.max_retries = 1;
  opts.max_shrinks = 1;
  lr::Supervisor sup(opts);
  long long final_steps = 0;
  auto report = sup.run(small_config(), [&](lc::LicomModel& m) {
    while (m.steps_taken() < 4) m.step();
    if (m.communicator().rank() == 0) final_steps = m.steps_taken();
  });
  EXPECT_EQ(report.attempts, 3);  // 2 at 2 ranks, then 1 at 1 rank
  EXPECT_EQ(report.shrinks, 1);
  EXPECT_EQ(report.final_nranks, 1);
  ASSERT_EQ(report.attempt_nranks.size(), 3u);
  EXPECT_EQ(report.attempt_nranks[0], 2);
  EXPECT_EQ(report.attempt_nranks[1], 2);
  EXPECT_EQ(report.attempt_nranks[2], 1);
  EXPECT_EQ(report.recoveries, 0);  // nothing to restore: rank 1 died at once
  EXPECT_TRUE(report.redistributions.empty());
  EXPECT_EQ(final_steps, 4);
  EXPECT_EQ(licomk::telemetry::counter_value("resilience.shrinks"), 1u);
  licomk::telemetry::set_enabled(false);
  licomk::telemetry::reset();
}

TEST(Supervisor, ShrinkRedistributesCheckpointAndResumes) {
  Disarmed guard;
  kxx::initialize({kxx::Backend::Serial, 1, false});
  licomk::telemetry::reset();
  licomk::telemetry::set_enabled(true);
  const long long target_steps = 8;
  auto cfg = small_config();

  // Probe run (armed with a sentinel that never fires, so op counters tick):
  // measure rank 1's delivery count once the step-2 checkpoint (generation 1)
  // exists, to place the permanent crash just after it.
  lr::FaultSchedule sentinel;
  sentinel.add({lr::FaultSite::CommDeliver, lr::FaultKind::CrashRank, 0,
                std::numeric_limits<std::uint64_t>::max(), 0.0});
  lr::arm(sentinel);
  std::uint64_t ops_at_gen1 = 0;
  {
    auto global = std::make_shared<licomk::grid::GlobalGrid>(cfg.grid, cfg.bathymetry_seed);
    lco::Runtime::run(2, [&](lco::Communicator& c) {
      lc::LicomModel m(cfg, global, c);
      m.step();
      m.step();
      if (c.rank() == 1) ops_at_gen1 = lr::op_count(lr::FaultSite::CommDeliver, 1);
    });
  }
  ASSERT_GT(ops_at_gen1, 0u);

  // Rank 1 dies permanently in step 3 — after generation 1 was checkpointed.
  lr::FaultSchedule s;
  s.add({lr::FaultSite::CommDeliver, lr::FaultKind::CrashRank, 1, ops_at_gen1 + 1, 0.0,
         /*persistent=*/true});
  lr::arm(s);

  TempDir dir("sup_shrink_redist");
  lr::SupervisorOptions opts;
  opts.nranks = 2;
  opts.checkpoint_dir = dir.path;
  opts.checkpoint_every_steps = 2;
  opts.max_retries = 1;
  opts.max_shrinks = 1;
  lr::Supervisor sup(opts);
  long long final_steps = 0;
  lc::GlobalDiagnostics healed;
  auto report = sup.run(cfg, [&](lc::LicomModel& m) {
    while (m.steps_taken() < target_steps) m.step();
    auto d = m.diagnostics();
    if (m.communicator().rank() == 0) {
      final_steps = m.steps_taken();
      healed = d;
    }
  });
  // Attempt 1 (2 ranks) dies in step 3; attempt 2 (2 ranks) restores gen 1
  // and dies again (persistent event); retries exhausted -> shrink to 1 rank,
  // re-slice generation 1, resume from the redistributed state and finish.
  EXPECT_EQ(report.attempts, 3);
  EXPECT_EQ(report.shrinks, 1);
  EXPECT_EQ(report.final_nranks, 1);
  EXPECT_EQ(report.recoveries, 2);
  ASSERT_TRUE(report.last_restored_generation.has_value());
  EXPECT_EQ(*report.last_restored_generation, 1u);
  ASSERT_EQ(report.redistributions.size(), 1u);
  const lr::RedistributeReport& rr = report.redistributions[0];
  EXPECT_TRUE(rr.crcs_match());
  EXPECT_EQ(rr.generation, 1u);
  EXPECT_EQ(rr.src_nranks, 2);
  EXPECT_EQ(rr.dst_nranks, 1);
  EXPECT_EQ(rr.info.steps, 2);
  EXPECT_EQ(final_steps, target_steps);
  EXPECT_GT(healed.kinetic_energy, 0.0);
  EXPECT_EQ(licomk::telemetry::counter_value("resilience.shrinks"), 1u);
  EXPECT_GT(licomk::telemetry::counter_value("resilience.redistributed_bytes"), 0u);
  // The redistributed generation lives under the shrink subdirectory and
  // still verifies per-rank on disk.
  EXPECT_TRUE(
      lc::verify_restart(lc::restart_rank_path(dir.path + "/shrink1/ckpt.gen1", 0)).has_value());
  licomk::telemetry::set_enabled(false);
  licomk::telemetry::reset();
}

TEST(Redistribute, WeightedLayoutsRoundTripBitIdentically) {
  // A weighted (non-uniform boundary) source re-sliced onto a uniform layout,
  // then onto a SMALLER weighted layout, and back: every hop must preserve the
  // per-field global CRCs, because weighted blocks are still a tensor-product
  // partition — each global cell owned exactly once.
  const int nz = 4;
  const lc::RestartInfo info{43200.0, 5, 1.5};
  TempDir dir("redist_weighted");
  ld::Decomposition W(36, 21, {0, 5, 16, 36}, {0, 9, 21}, true, true);   // 3x2 weighted
  ld::Decomposition U(36, 21, 2, 2, true, true);                         // uniform
  ld::Decomposition S(36, 21, {0, 11, 36}, {0, 21}, true, true);         // 2x1 weighted
  ASSERT_TRUE(ld::layout_feasible(W));
  ASSERT_TRUE(ld::layout_feasible(S));

  const std::string prefW = dir.path + "/w/ckpt.gen5";
  const std::string prefU = dir.path + "/u/ckpt.gen5";
  const std::string prefS = dir.path + "/s/ckpt.gen5";
  const std::string prefW2 = dir.path + "/w2/ckpt.gen5";
  fs::create_directories(dir.path + "/w");
  write_synth_generation(prefW, W, nz, info);

  auto wu = lr::redistribute_checkpoint(prefW, W, prefU, U, 5);
  EXPECT_TRUE(wu.crcs_match());
  EXPECT_EQ(wu.src_nranks, 6);
  EXPECT_EQ(wu.dst_nranks, 4);
  auto us = lr::redistribute_checkpoint(prefU, U, prefS, S, 5);
  EXPECT_TRUE(us.crcs_match());
  EXPECT_EQ(us.src_crcs, wu.src_crcs);
  auto sw = lr::redistribute_checkpoint(prefS, S, prefW2, W, 5);
  EXPECT_TRUE(sw.crcs_match());
  EXPECT_EQ(sw.src_crcs, wu.src_crcs);

  auto ga = lr::assemble_global_state(prefW, W);
  auto ga2 = lr::assemble_global_state(prefW2, W);
  EXPECT_EQ(ga.field_crcs, ga2.field_crcs);
  for (size_t f = 0; f < ga.fields3.size(); ++f) ASSERT_EQ(ga.fields3[f], ga2.fields3[f]) << f;
  for (size_t f = 0; f < ga.fields2.size(); ++f) ASSERT_EQ(ga.fields2[f], ga2.fields2[f]) << f;
  EXPECT_EQ(ga2.info.steps, info.steps);
}

TEST(Supervisor, GiveUpPreservesReport) {
  // The regression: run() used to throw away its SupervisorReport when
  // retries and shrinks were exhausted, so a permanently failed run had no
  // forensics — only the final exception. last_report() must survive the
  // give-up rethrow with the full escalation history.
  kxx::initialize({kxx::Backend::Serial, 1, false});
  TempDir dir("sup_giveup_report");
  lr::SupervisorOptions opts;
  opts.nranks = 1;
  opts.checkpoint_dir = dir.path;
  opts.max_retries = 1;
  opts.max_shrinks = 0;
  lr::Supervisor sup(opts);
  EXPECT_FALSE(sup.last_report().has_value());  // nullopt before any run
  EXPECT_THROW(sup.run(small_config(),
                       [](lc::LicomModel&) {
                         throw licomk::ResourceError("node on fire");
                       }),
               licomk::ResourceError);
  ASSERT_TRUE(sup.last_report().has_value());
  const lr::SupervisorReport& r = *sup.last_report();
  EXPECT_EQ(r.attempts, 2);  // initial + 1 retry
  ASSERT_EQ(r.failures.size(), 2u);
  EXPECT_NE(r.failures[0].find("node on fire"), std::string::npos);
  ASSERT_EQ(r.attempt_nranks.size(), 2u);
  EXPECT_EQ(r.final_nranks, 1);

  // A subsequent successful run replaces the stale failure report.
  auto ok = sup.run(small_config(), [](lc::LicomModel& m) { m.step(); });
  ASSERT_TRUE(sup.last_report().has_value());
  EXPECT_EQ(sup.last_report()->attempts, ok.attempts);
  EXPECT_TRUE(sup.last_report()->failures.empty());
}

TEST(Supervisor, ShrinkRelaunchesWithoutBackoffSleep) {
  // The regression: the relaunch after a shrink still slept the (escalated)
  // backoff, even though a fresh smaller layout is a brand-new run, not a
  // same-size retry of a suspected transient. backoff_wall_s must stay flat
  // across a shrink.
  Disarmed guard;
  kxx::initialize({kxx::Backend::Serial, 1, false});
  // Rank 1 permanently dead from its first delivery; no checkpoint completes.
  lr::FaultSchedule s;
  s.add({lr::FaultSite::CommDeliver, lr::FaultKind::CrashRank, 1, 1, 0.0, /*persistent=*/true});
  lr::arm(s);

  TempDir dir("sup_shrink_nosleep");
  lr::SupervisorOptions opts;
  opts.nranks = 2;
  opts.checkpoint_dir = dir.path;
  opts.checkpoint_every_steps = 2;
  opts.max_retries = 0;  // first failure at a size escalates immediately
  opts.max_shrinks = 1;
  opts.backoff_initial_s = 0.2;  // would be visible wall time if slept
  lr::Supervisor sup(opts);
  auto report = sup.run(small_config(), [](lc::LicomModel& m) {
    while (m.steps_taken() < 4) m.step();
  });
  EXPECT_EQ(report.attempts, 2);  // 1 at 2 ranks, shrink, 1 at 1 rank
  EXPECT_EQ(report.shrinks, 1);
  EXPECT_EQ(report.final_nranks, 1);
  // Both relaunches in this run cross a shrink — no retry at constant size
  // ever happened, so not a single backoff sleep may have been taken.
  EXPECT_DOUBLE_EQ(report.backoff_wall_s, 0.0);
}

TEST(Supervisor, GrowsBackWhenCapacityReturns) {
  // The full elastic loop: 2 ranks -> rank 1 dies -> shrink to 1 -> the
  // capacity probe reports the rank back mid-run -> all ranks leave together
  // at a checkpoint boundary -> the newest verified generation is re-sliced
  // onto 2 ranks under grow1/ (CRC-proved) -> the run finishes at full size.
  Disarmed guard;
  kxx::initialize({kxx::Backend::Serial, 1, false});
  licomk::telemetry::reset();
  licomk::telemetry::set_enabled(true);
  const long long target_steps = 8;
  // Rank 1 crashes on its first delivery of the first attempt only.
  lr::FaultSchedule s;
  s.add({lr::FaultSite::CommDeliver, lr::FaultKind::CrashRank, 1, 1, 0.0});
  lr::arm(s);

  std::atomic<int> capacity{1};  // the lost rank has not come back yet
  TempDir dir("sup_growback");
  lr::SupervisorOptions opts;
  opts.nranks = 2;
  opts.checkpoint_dir = dir.path;
  opts.checkpoint_every_steps = 2;
  opts.max_retries = 0;
  opts.max_shrinks = 1;
  opts.grow_back = true;
  opts.capacity_probe = [&capacity] { return capacity.load(); };
  lr::Supervisor sup(opts);
  long long final_steps = 0;
  int final_size = 0;
  auto report = sup.run(small_config(), [&](lc::LicomModel& m) {
    while (m.steps_taken() < target_steps) {
      m.step();
      // Halfway through the shrunk attempt the "scheduler" returns the rank.
      if (m.communicator().size() == 1 && m.steps_taken() >= 4) capacity.store(2);
    }
    if (m.communicator().rank() == 0) {
      final_steps = m.steps_taken();
      final_size = m.communicator().size();
    }
  });
  // Attempt 1 @2 dies cold; shrink -> attempt 2 @1 runs until the boundary
  // after capacity returns, leaves via the allreduced grow-back signal;
  // attempt 3 @2 restores the re-sliced generation and completes.
  EXPECT_EQ(report.attempts, 3);
  ASSERT_EQ(report.attempt_nranks.size(), 3u);
  EXPECT_EQ(report.attempt_nranks[0], 2);
  EXPECT_EQ(report.attempt_nranks[1], 1);
  EXPECT_EQ(report.attempt_nranks[2], 2);
  EXPECT_EQ(report.shrinks, 1);
  EXPECT_EQ(report.growbacks, 1);
  EXPECT_EQ(report.final_nranks, 2);
  EXPECT_EQ(final_size, 2);
  EXPECT_EQ(final_steps, target_steps);
  // The shrink had no checkpoint to carry (rank 1 died at once); the grow
  // re-sliced one: 1 -> 2 ranks, per-field CRC equality enforced.
  ASSERT_EQ(report.redistributions.size(), 1u);
  const lr::RedistributeReport& rr = report.redistributions[0];
  EXPECT_TRUE(rr.crcs_match());
  EXPECT_EQ(rr.src_nranks, 1);
  EXPECT_EQ(rr.dst_nranks, 2);
  ASSERT_TRUE(report.last_restored_generation.has_value());
  // The re-sliced generation lives under grow1/ and verifies on disk.
  EXPECT_TRUE(lc::verify_restart(
                  lc::restart_rank_path(dir.path + "/grow1/ckpt.gen" +
                                            std::to_string(rr.generation),
                                        0))
                  .has_value());
  EXPECT_EQ(licomk::telemetry::counter_value("resilience.growbacks"), 1u);
  EXPECT_EQ(licomk::telemetry::counter_value("resilience.shrinks"), 1u);
  // No backoff: the one failure shrank immediately, the grow-back relaunch
  // is not a failure at all.
  EXPECT_DOUBLE_EQ(report.backoff_wall_s, 0.0);
  licomk::telemetry::set_enabled(false);
  licomk::telemetry::reset();
}

TEST(Supervisor, GrowBackNeverExceedsConfiguredSizeOrInfeasibleLayouts) {
  // The probe may report MORE capacity than the run ever had (another tenant
  // left); the supervisor must clamp to its configured nranks. With the probe
  // reporting plenty from the start and no failure at all, the first attempt
  // launches directly at the configured size and no grow-back is counted.
  kxx::initialize({kxx::Backend::Serial, 1, false});
  TempDir dir("sup_grow_clamp");
  lr::SupervisorOptions opts;
  opts.nranks = 2;
  opts.checkpoint_dir = dir.path;
  opts.checkpoint_every_steps = 2;
  opts.grow_back = true;
  opts.capacity_probe = [] { return 64; };
  lr::Supervisor sup(opts);
  auto report = sup.run(small_config(), [](lc::LicomModel& m) {
    while (m.steps_taken() < 4) m.step();
  });
  EXPECT_EQ(report.attempts, 1);
  EXPECT_EQ(report.growbacks, 0);
  EXPECT_EQ(report.final_nranks, 2);
}

TEST(FaultInjector, DomainScopedSchedulesOnlyFireInTheirDomain) {
  // The forecast farm gives every tenant its own fault domain: a schedule
  // armed via arm_scoped(domain, ...) must count ops and fire ONLY on
  // threads whose thread fault domain matches, leaving the global domain
  // and sibling domains untouched.
  using lr::fault_hooks::CommAction;
  Disarmed guard;
  lr::set_thread_fault_domain(-1);
  lr::FaultSchedule s = lr::FaultSchedule::parse("comm.deliver * 2 drop\n");
  lr::arm_scoped(/*domain=*/7, s);
  const std::uint64_t fired0 = lr::injected_count();

  // Global domain (-1): the event never matches, ops count globally.
  EXPECT_EQ(lr::fault_hooks::on_comm_deliver(0), CommAction::None);
  EXPECT_EQ(lr::fault_hooks::on_comm_deliver(0), CommAction::None);
  EXPECT_EQ(lr::op_count(lr::FaultSite::CommDeliver, 0), 2u);
  EXPECT_EQ(lr::op_count(lr::FaultSite::CommDeliver, 0, 7), 0u);

  // A sibling domain: its private counters advance, still no fire.
  lr::set_thread_fault_domain(8);
  EXPECT_EQ(lr::fault_hooks::on_comm_deliver(0), CommAction::None);
  EXPECT_EQ(lr::fault_hooks::on_comm_deliver(0), CommAction::None);
  EXPECT_EQ(lr::op_count(lr::FaultSite::CommDeliver, 0, 8), 2u);
  EXPECT_EQ(lr::injected_count(), fired0);

  // The owning domain: fires at ITS private op 2, independent of the six
  // deliveries other domains already counted.
  lr::set_thread_fault_domain(7);
  EXPECT_EQ(lr::fault_hooks::on_comm_deliver(0), CommAction::None);
  EXPECT_EQ(lr::fault_hooks::on_comm_deliver(0), CommAction::Drop);
  EXPECT_EQ(lr::op_count(lr::FaultSite::CommDeliver, 0, 7), 2u);
  EXPECT_EQ(lr::injected_count(), fired0 + 1);

  // arm_scoped replaces and resets only that domain: re-arming replays the
  // same sequence from scratch.
  lr::arm_scoped(7, s);
  EXPECT_EQ(lr::op_count(lr::FaultSite::CommDeliver, 0, 7), 0u);
  EXPECT_EQ(lr::fault_hooks::on_comm_deliver(0), CommAction::None);
  EXPECT_EQ(lr::fault_hooks::on_comm_deliver(0), CommAction::Drop);

  // disarm_domain removes the domain's events; the same deliveries that
  // just fired now pass clean.
  lr::disarm_domain(7);
  EXPECT_EQ(lr::fault_hooks::on_comm_deliver(0), CommAction::None);
  EXPECT_EQ(lr::fault_hooks::on_comm_deliver(0), CommAction::None);
  lr::set_thread_fault_domain(-1);
}

TEST(Checkpoint, ConcurrentReadOnlyWarmStartsShareAGeneration) {
  // Two farm tenants warm-starting from the SAME verified generation while
  // a writer keeps laying down newer generations (and garbage-collecting
  // old ones): both readers must restore bit-identically and the shared
  // generation must survive the writer's keep window.
  kxx::initialize({kxx::Backend::Serial, 1, false});
  TempDir dir("concread");
  const lc::ModelConfig cfg = small_config();
  const std::uint64_t shared_gen = 3;

  {
    lr::CheckpointManager writer(dir.path, /*keep_generations=*/4);
    lc::LicomModel seed(cfg);
    for (std::uint64_t g = 1; g <= shared_gen; ++g) {
      seed.step();
      writer.write(seed, g);
    }
  }

  // Restore the shared generation, advance two steps, CRC the result.
  auto crcs_after = [&](const std::string& tag) {
    lr::CheckpointManager reader(dir.path, 4);
    lc::LicomModel m(cfg);
    reader.restore(m, shared_gen);
    m.step();
    m.step();
    const std::string prefix = dir.path + "/out_" + tag;
    m.write_restart(prefix);
    return lr::assemble_global_state(prefix, lc::LicomModel::plan_decomposition(cfg, 1))
        .field_crcs;
  };
  const std::vector<std::uint64_t> ref = crcs_after("ref");

  // Concurrent phase: two readers + one writer. keep=4 with generations
  // 4..5 appended keeps {2,3,4,5} — generation 3 stays on disk throughout.
  std::vector<std::uint64_t> got_a, got_b;
  std::thread ta([&] { got_a = crcs_after("a"); });
  std::thread tb([&] { got_b = crcs_after("b"); });
  {
    lr::CheckpointManager writer(dir.path, 4);
    lc::LicomModel m(cfg);
    writer.restore(m, shared_gen);
    for (std::uint64_t g = shared_gen + 1; g <= shared_gen + 2; ++g) {
      m.step();
      writer.write(m, g);
    }
  }
  ta.join();
  tb.join();

  EXPECT_EQ(got_a, ref);
  EXPECT_EQ(got_b, ref);
  // Discovery from a fresh manager sees the writer's newest generation and
  // the shared one still verifies.
  lr::CheckpointManager probe(dir.path, 4);
  auto newest = probe.newest_verified_generation(1);
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(*newest, shared_gen + 2);
  EXPECT_TRUE(
      lc::verify_restart(lc::restart_rank_path(probe.generation_prefix(shared_gen), 0))
          .has_value());
}
