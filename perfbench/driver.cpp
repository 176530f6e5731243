// driver.cpp — the compiled half of the benchmark (run.py is the other).
//
//   perfbench_driver <mode> <out_dir> key=value ...
//
// run.py derives every key=value from the workload name and --seed; this
// program only executes them and writes raw measurements to
// <out_dir>/raw_<mode>.json. All statistics are computed in run.py.
//
// Modes:
//   e2e    — repeated set-up, then the untraced timed loop (end-to-end
//            numbers), peak RSS, then one traced batch whose final-state CRC
//            must equal the untraced one.
//   layers — set-up under benchmark spans, a short untraced loop (baseline
//            of telemetry.overhead_frac), the traced loop with the program's
//            telemetry on, and the allreduce probe; also writes the program
//            telemetry (metrics + Chrome trace) and the benchmark spans.
//   probe  — STREAM-style triad of the host; run in its own process so its
//            arrays never touch the model runs' RSS or timings.
//
// The program is driven only through its stable public entry points:
// GlobalGrid, LicomModel (+ plan_decomposition), HaloExchanger::stats(),
// comm::Runtime/Communicator, CheckpointManager, ForecastFarm/TenantStatus,
// swsim::default_core_group().stats() and the telemetry readers.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/runtime.hpp"
#include "core/model.hpp"
#include "decomp/load_balance.hpp"
#include "farm/farm.hpp"
#include "grid/grid.hpp"
#include "kxx/kxx.hpp"
#include "resilience/checkpoint.hpp"
#include "spans.hpp"
#include "swsim/athread.hpp"
#include "telemetry/telemetry.hpp"
#include "util/crc64.hpp"
#include "util/json.hpp"

namespace fs = std::filesystem;
using namespace licomk;
using perfbench::Span;
using perfbench::SpanRecorder;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Parameters (every one is passed explicitly by run.py; none has a default,
// so a typo or a missing key fails loudly instead of changing the workload).

class Params {
 public:
  Params(int argc, char** argv, int first) {
    for (int a = first; a < argc; ++a) {
      const std::string arg = argv[a];
      const auto eq = arg.find('=');
      if (eq == std::string::npos) throw std::invalid_argument("expected key=value: " + arg);
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  const std::string& str(const std::string& key) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) throw std::invalid_argument("missing parameter " + key);
    return it->second;
  }
  double num(const std::string& key) const { return std::stod(str(key)); }
  long long integer(const std::string& key) const { return std::stoll(str(key)); }
  std::vector<double> list(const std::string& key) const {
    std::vector<double> out;
    std::stringstream ss(str(key));
    for (std::string item; std::getline(ss, item, ',');) out.push_back(std::stod(item));
    return out;
  }

 private:
  std::map<std::string, std::string> kv_;
};

struct Workload {
  std::string name;
  std::string kind;  ///< "model" or "farm"
  int nranks = 1;
  kxx::InitConfig kxx_config;
  core::ModelConfig cfg;
  long long batch_steps = 0;   ///< the fixed simulated span of one batch
  long long warmup_steps = 0;  ///< leading steps of a batch left out of the samples
  int setup_reps = 0;
  double seconds = 0.0;         ///< untraced timed loop
  double traced_seconds = 0.0;  ///< traced loop (layers mode)
  // farm only
  std::vector<double> member_wind, member_sst;
  int max_concurrent = 0;
  long long checkpoint_every = 0;
  long long quota_steps = 0;
  std::string checkpoint_root;
};

Workload make_workload(const Params& p) {
  Workload w;
  w.name = p.str("workload");
  w.kind = p.str("kind");
  w.nranks = static_cast<int>(p.integer("nranks"));
  w.kxx_config.backend = kxx::backend_from_name(p.str("backend"));
  w.kxx_config.num_threads = 1;
  w.kxx_config.ldm_staging = kxx::ldm_staging_mode_from_name(p.str("ldm_staging"));
  w.cfg.grid = grid::shrink(grid::spec_coarse100km(), static_cast<int>(p.integer("shrink")));
  w.cfg.grid.nz = static_cast<int>(p.integer("nz"));
  w.cfg.bathymetry_seed = static_cast<unsigned>(p.integer("bathymetry_seed"));
  w.cfg.initial_t_perturb_c = p.num("initial_t_perturb_c");
  w.cfg.wind_stress_scale = p.num("wind_stress_scale");
  w.cfg.sst_target_offset_c = p.num("sst_target_offset_c");
  w.batch_steps = p.integer("batch_steps");
  w.warmup_steps = p.integer("warmup_steps");
  w.setup_reps = static_cast<int>(p.integer("setup_reps"));
  w.seconds = p.num("seconds");
  w.traced_seconds = p.num("traced_seconds");
  if (w.kind == "farm") {
    w.member_wind = p.list("member_wind");
    w.member_sst = p.list("member_sst");
    if (w.member_wind.size() != w.member_sst.size() || w.member_wind.empty()) {
      throw std::invalid_argument("member_wind and member_sst must be equal, non-empty lists");
    }
    w.max_concurrent = static_cast<int>(p.integer("max_concurrent"));
    w.checkpoint_every = p.integer("checkpoint_every");
    w.quota_steps = p.integer("quota_steps");
    w.checkpoint_root = p.str("checkpoint_root");
  } else if (w.kind != "model") {
    throw std::invalid_argument("unknown kind " + w.kind);
  }
  if (w.batch_steps <= w.warmup_steps || w.setup_reps < 1) {
    throw std::invalid_argument("need batch_steps > warmup_steps and setup_reps >= 1");
  }
  return w;
}

core::ModelConfig member_config(const Workload& w, std::size_t m) {
  core::ModelConfig c = w.cfg;
  c.wind_stress_scale = w.member_wind[m];
  c.sst_target_offset_c = w.member_sst[m];
  return c;
}

// ---------------------------------------------------------------------------
// Output checks.

/// CRC-64 of the interior of every prognostic field, in checkpoint order.
std::uint64_t state_crc(const core::LicomModel& m) {
  util::Crc64 crc;
  for (const halo::BlockField3D* f : core::prognostic_fields3(m.state())) {
    for (int k = 0; k < f->nz(); ++k) {
      for (int j = 0; j < f->ny(); ++j) {
        crc.update(&f->interior(k, j, 0), sizeof(double) * static_cast<std::size_t>(f->nx()));
      }
    }
  }
  for (const halo::BlockField2D* f : core::prognostic_fields2(m.state())) {
    for (int j = 0; j < f->ny(); ++j) {
      crc.update(&f->interior(j, 0), sizeof(double) * static_cast<std::size_t>(f->nx()));
    }
  }
  return crc.value();
}

std::uint64_t combine_crcs(const std::vector<std::uint64_t>& crcs) {
  return crcs.empty() ? 0 : util::crc64(crcs.data(), crcs.size() * sizeof(std::uint64_t));
}

// Physical bounds of a sane state for this configuration: SST in the range of
// sea water, free surface well within the tens of metres no ocean reaches.
constexpr double kMinSst = -3.0;
constexpr double kMaxSst = 40.0;
constexpr double kMaxAbsEta = 20.0;

bool healthy(const core::GlobalDiagnostics& d) {
  return d.finite() && d.min_sst >= kMinSst && d.max_sst <= kMaxSst &&
         d.max_abs_eta <= kMaxAbsEta;
}

// ---------------------------------------------------------------------------
// Per-layer counts, taken as differences around the step loop.

struct Counts {
  // per rank (summed over ranks by the caller)
  std::uint64_t halo_msgs = 0, halo_bytes = 0, halo_equiv = 0, halo_self_copies = 0,
                halo_skipped = 0, subcycle_msgs = 0;
  // process-wide (taken by rank 0 between barriers)
  std::uint64_t comm_msgs = 0, comm_bytes = 0, lanes_active = 0, lanes_masked = 0,
                dma_bytes = 0, dma_transfers = 0, spawns = 0, fallbacks = 0;
};

Counts global_snapshot() {
  Counts c;
  c.comm_msgs = telemetry::counter_value("comm.messages");
  c.comm_bytes = telemetry::counter_value("comm.bytes");
  c.lanes_active = static_cast<std::uint64_t>(kxx::pack_lanes_active());
  c.lanes_masked = static_cast<std::uint64_t>(kxx::pack_lanes_masked());
  const swsim::CoreGroupStats s = swsim::default_core_group().stats();
  c.dma_bytes = s.dma.total_bytes();
  c.dma_transfers = s.dma.sync_transfers + s.dma.async_transfers;
  c.spawns = s.spawns;
  c.fallbacks = static_cast<std::uint64_t>(kxx::athread_fallback_count());
  return c;
}

Counts global_delta(const Counts& a, const Counts& b) {
  Counts d;
  d.comm_msgs = b.comm_msgs - a.comm_msgs;
  d.comm_bytes = b.comm_bytes - a.comm_bytes;
  d.lanes_active = b.lanes_active - a.lanes_active;
  d.lanes_masked = b.lanes_masked - a.lanes_masked;
  d.dma_bytes = b.dma_bytes - a.dma_bytes;
  d.dma_transfers = b.dma_transfers - a.dma_transfers;
  d.spawns = b.spawns - a.spawns;
  d.fallbacks = b.fallbacks - a.fallbacks;
  return d;
}

// ---------------------------------------------------------------------------
// Batches: one fixed simulated span run to completion on a fresh model.

struct BatchResult {
  long long steps_attempted = 0;
  long long steps_failed = 0;
  double sim_s = 0.0;             ///< simulated seconds of the timed steps
  double wall_s = 0.0;            ///< slowest rank's wall over the timed steps / run()
  std::vector<double> step_ms;    ///< per timed step (slowest rank), or per member
  std::uint64_t crc = 0;
  std::string error;
  core::GlobalDiagnostics diag;
  Counts counts;
  // farm only
  std::vector<farm::TenantStatus> tenants;
  long long ckpt_checked = 0, ckpt_failed = 0;
  std::vector<double> ckpt_generation_bytes;
};

BatchResult run_model_batch(const Workload& w, const std::shared_ptr<const grid::GlobalGrid>& g,
                            bool traced) {
  const int n = w.nranks;
  BatchResult out;
  out.steps_attempted = w.batch_steps;
  std::vector<std::vector<double>> rank_ms(static_cast<std::size_t>(n));
  std::vector<double> rank_wall(static_cast<std::size_t>(n), 0.0);
  std::vector<std::uint64_t> rank_crc(static_cast<std::size_t>(n), 0);
  std::vector<Counts> rank_counts(static_cast<std::size_t>(n));
  Counts before, after;
  try {
    Span batch("bench.batch");
    const std::uint64_t batch_id = SpanRecorder::instance().current();
    comm::Runtime::run(n, [&](comm::Communicator& c) {
      const auto r = static_cast<std::size_t>(c.rank());
      Span rank_span("bench.rank", batch_id);
      core::LicomModel m(w.cfg, g, c);
      if (traced) {
        c.barrier();
        if (r == 0) before = global_snapshot();
        c.barrier();
      }
      const halo::HaloStats h0 = m.exchanger().stats();
      const std::uint64_t sub0 = m.subcycle_messages();
      double sim_timed0 = m.simulated_seconds();
      auto& ms = rank_ms[r];
      ms.reserve(static_cast<std::size_t>(w.batch_steps));
      for (long long s = 0; s < w.batch_steps; ++s) {
        if (s == w.warmup_steps) sim_timed0 = m.simulated_seconds();
        const auto t0 = Clock::now();
        {
          Span step_span("core.step");
          m.step();
        }
        const double dt = seconds_since(t0);
        if (s >= w.warmup_steps) {
          ms.push_back(dt * 1e3);
          rank_wall[r] += dt;
        }
      }
      const halo::HaloStats& h1 = m.exchanger().stats();
      Counts& rc = rank_counts[r];
      rc.halo_msgs = h1.messages - h0.messages;
      rc.halo_bytes = h1.bytes - h0.bytes;
      rc.halo_equiv = h1.equiv_messages - h0.equiv_messages;
      rc.halo_self_copies = h1.self_copies - h0.self_copies;
      rc.halo_skipped = h1.skipped - h0.skipped;
      rc.subcycle_msgs = m.subcycle_messages() - sub0;
      if (traced) {
        c.barrier();
        if (r == 0) after = global_snapshot();
        c.barrier();
      }
      const core::GlobalDiagnostics d = m.diagnostics();  // collective
      rank_crc[r] = state_crc(m);
      if (r == 0) {
        out.diag = d;
        out.sim_s = m.simulated_seconds() - sim_timed0;
      }
    });
  } catch (const std::exception& e) {
    out.error = e.what();
    out.steps_failed = w.batch_steps;
    return out;
  }
  if (!healthy(out.diag)) out.steps_failed = w.batch_steps;
  const std::size_t timed = rank_ms[0].size();
  out.step_ms.assign(timed, 0.0);
  for (const auto& ms : rank_ms) {
    for (std::size_t s = 0; s < timed; ++s) out.step_ms[s] = std::max(out.step_ms[s], ms[s]);
  }
  out.wall_s = *std::max_element(rank_wall.begin(), rank_wall.end());
  out.crc = combine_crcs(rank_crc);
  out.counts = global_delta(before, after);
  for (const Counts& rc : rank_counts) {
    out.counts.halo_msgs += rc.halo_msgs;
    out.counts.halo_bytes += rc.halo_bytes;
    out.counts.halo_equiv += rc.halo_equiv;
    out.counts.halo_self_copies += rc.halo_self_copies;
    out.counts.halo_skipped += rc.halo_skipped;
    out.counts.subcycle_msgs += rc.subcycle_msgs;
  }
  return out;
}

/// Warm-start probe: restore `mgr`'s newest verified generation into a fresh
/// member model through the public CheckpointManager::restore (the farm's own
/// warm starts go through LicomModel::read_restart, which has no span).
void restore_probe(const resilience::CheckpointManager& mgr, const core::ModelConfig& cfg,
                   const std::shared_ptr<const grid::GlobalGrid>& g, std::uint64_t parent) {
  const auto gen = mgr.newest_verified_generation(1);
  if (!gen) return;
  comm::Runtime::run(1, [&](comm::Communicator& c) {
    core::LicomModel model(cfg, g, c);
    Span s("resilience.restore", parent);
    mgr.restore(model, *gen);
  });
}

BatchResult run_farm_batch(const Workload& w, const std::shared_ptr<const grid::GlobalGrid>& g,
                           bool traced) {
  BatchResult out;
  const fs::path root = w.checkpoint_root;
  fs::remove_all(root);  // a stale generation would turn a cold start into a warm one
  const std::size_t members = w.member_wind.size();
  out.steps_attempted = static_cast<long long>(members) * w.batch_steps;
  try {
    Span batch("bench.batch");
    const std::uint64_t batch_id = SpanRecorder::instance().current();
    farm::FarmOptions fo;
    fo.max_concurrent = w.max_concurrent;
    fo.checkpoint_root = root.string();
    farm::ForecastFarm f(fo);
    const std::uint64_t cells = static_cast<std::uint64_t>(w.cfg.grid.nx) *
                                static_cast<std::uint64_t>(w.cfg.grid.ny) *
                                static_cast<std::uint64_t>(w.cfg.grid.nz);
    for (std::size_t m = 0; m < members; ++m) {
      farm::ScenarioRequest req;
      req.name = "m" + std::to_string(m);
      req.config = member_config(w, m);
      req.days = static_cast<double>(w.batch_steps) * w.cfg.grid.dt_baroclinic / 86400.0;
      req.nranks = 1;
      req.checkpoint_every_steps = w.checkpoint_every;
      req.quota_step_cells = static_cast<std::uint64_t>(w.quota_steps) * cells;
      f.submit(std::move(req));
    }
    const Counts before = global_snapshot();
    const auto t0 = Clock::now();
    {
      Span run_span("farm.run");
      f.run();
    }
    out.wall_s = seconds_since(t0);
    out.counts = global_delta(before, global_snapshot());

    std::vector<std::uint64_t> crcs;
    out.tenants = f.statuses();
    for (const farm::TenantStatus& s : out.tenants) {
      crcs.insert(crcs.end(), s.final_crcs.begin(), s.final_crcs.end());
      if (s.state == farm::TenantState::Completed && !s.final_crcs.empty()) {
        out.sim_s += static_cast<double>(s.steps) * w.cfg.grid.dt_baroclinic;
        if (s.steps > 0) out.step_ms.push_back(1e3 * s.run_wall_s / static_cast<double>(s.steps));
      } else {
        out.steps_failed += w.batch_steps;
      }
      // Every generation the tenant kept must verify; one newer than the
      // newest verified generation did not.
      resilience::CheckpointManager mgr((root / s.name).string());
      if (traced) {
        restore_probe(mgr, member_config(w, static_cast<std::size_t>(s.index)), g, batch_id);
      }
      const auto gens = mgr.generations_on_disk();
      const auto good = mgr.newest_verified_generation(1);
      for (const std::uint64_t gen : gens) {
        out.ckpt_checked += 1;
        if (!good || gen > *good) {
          out.ckpt_failed += 1;
          continue;
        }
        // Members run on one rank, so a generation is one rank file.
        out.ckpt_generation_bytes.push_back(
            static_cast<double>(fs::file_size(mgr.generation_prefix(gen) + ".rank0.lrs")));
      }
    }
    out.crc = combine_crcs(crcs);
  } catch (const std::exception& e) {
    out.error = e.what();
    out.steps_failed = out.steps_attempted;
  }
  fs::remove_all(root);
  return out;
}

BatchResult run_batch(const Workload& w, const std::shared_ptr<const grid::GlobalGrid>& g,
                      bool traced) {
  return w.kind == "farm" ? run_farm_batch(w, g, traced) : run_model_batch(w, g, traced);
}

/// Batches back to back until `seconds` have passed (at least one).
std::vector<BatchResult> timed_loop(const Workload& w,
                                    const std::shared_ptr<const grid::GlobalGrid>& g,
                                    double seconds, bool traced) {
  std::vector<BatchResult> out;
  const auto t0 = Clock::now();
  do {
    out.push_back(run_batch(w, g, traced));
  } while (seconds_since(t0) < seconds);
  return out;
}

// ---------------------------------------------------------------------------
// Set-up: GlobalGrid + decomposition plan + a model on every rank (every
// member for the farm), up to the point where every model is ready to step.

double setup_once(const Workload& w) {
  Span setup("bench.setup");
  const std::uint64_t setup_id = SpanRecorder::instance().current();
  const auto t0 = Clock::now();
  std::shared_ptr<const grid::GlobalGrid> g;
  {
    Span s("grid.build");
    g = std::make_shared<const grid::GlobalGrid>(w.cfg.grid, w.cfg.bathymetry_seed);
  }
  {
    Span s("decomp.plan");
    const decomp::Decomposition d = core::LicomModel::plan_decomposition(w.cfg, w.nranks);
    if (d.nranks() != w.nranks) throw std::logic_error("plan has the wrong rank count");
  }
  double ready_s = 0.0;
  const std::size_t models = w.kind == "farm" ? w.member_wind.size() : 1;
  for (std::size_t m = 0; m < models; ++m) {
    const core::ModelConfig cfg = w.kind == "farm" ? member_config(w, m) : w.cfg;
    comm::Runtime::run(w.nranks, [&](comm::Communicator& c) {
      Span s("core.model_init", setup_id);
      core::LicomModel model(cfg, g, c);
      c.barrier();
      if (c.rank() == 0) ready_s = seconds_since(t0);
    });
  }
  return ready_s;
}

std::vector<double> setup_samples(const Workload& w) {
  std::vector<double> s;
  for (int r = 0; r < w.setup_reps; ++r) s.push_back(setup_once(w));
  return s;
}

/// max/mean sea points per block of the workload's decomposition.
double census_imbalance(const Workload& w, const grid::GlobalGrid& g) {
  const decomp::Decomposition d = core::LicomModel::plan_decomposition(w.cfg, w.nranks);
  std::vector<long long> census;
  for (int r = 0; r < d.nranks(); ++r) {
    const decomp::BlockExtent b = d.block(r);
    long long sea = 0;
    for (int j = b.j0; j < b.j1; ++j) {
      for (int i = b.i0; i < b.i1; ++i) sea += g.bathymetry().is_ocean(j, i) ? 1 : 0;
    }
    census.push_back(sea);
  }
  return decomp::LoadBalancePlan::imbalance(census);
}

/// Per-call wall time of a one-double allreduce on a 4-rank world (rank 0).
std::vector<double> allreduce_probe() {
  constexpr int kRanks = 4, kWarmup = 200, kCalls = 2000;
  std::vector<double> us;
  us.reserve(kCalls);
  Span probe("bench.allreduce_probe");
  const std::uint64_t probe_id = SpanRecorder::instance().current();
  comm::Runtime::run(kRanks, [&](comm::Communicator& c) {
    double v = 1.0;
    for (int i = 0; i < kWarmup; ++i) v = c.allreduce_scalar(v, comm::ReduceOp::Sum) / kRanks;
    for (int i = 0; i < kCalls; ++i) {
      const auto t0 = Clock::now();
      {
        Span s("comm.allreduce", probe_id);
        v = c.allreduce_scalar(v, comm::ReduceOp::Sum) / kRanks;
      }
      if (c.rank() == 0) us.push_back(seconds_since(t0) * 1e6);
    }
    if (v != 1.0) throw std::logic_error("allreduce probe returned a wrong sum");
  });
  return us;
}

// ---------------------------------------------------------------------------
// JSON output.

class Json {
 public:
  Json& key(const std::string& k) {
    sep();
    os_ << '"' << util::json_escape(k) << "\": ";
    fresh_ = true;
    return *this;
  }
  Json& num(double v) { return raw(util::json_number(v)); }
  Json& integer(long long v) { return raw(std::to_string(v)); }
  Json& boolean(bool v) { return raw(v ? "true" : "false"); }
  Json& str(const std::string& v) { return raw('"' + util::json_escape(v) + '"'); }
  Json& hex(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return str(buf);
  }
  Json& nums(const std::vector<double>& v) {
    open('[');
    for (double x : v) num(x);
    return close(']');
  }
  Json& open(char c) {
    sep();
    os_ << c;
    fresh_ = true;
    return *this;
  }
  Json& close(char c) {
    os_ << c;
    fresh_ = false;
    return *this;
  }
  std::string text() const { return os_.str() + "\n"; }

 private:
  Json& raw(const std::string& s) {
    sep();
    os_ << s;
    fresh_ = false;
    return *this;
  }
  void sep() {
    if (!fresh_) os_ << ", ";
    fresh_ = true;
  }
  std::ostringstream os_;
  bool fresh_ = true;
};

void write_batches(Json& j, const std::vector<BatchResult>& batches) {
  j.open('[');
  for (const BatchResult& b : batches) {
    j.open('{');
    j.key("steps_attempted").integer(b.steps_attempted);
    j.key("steps_failed").integer(b.steps_failed);
    j.key("sim_s").num(b.sim_s);
    j.key("wall_s").num(b.wall_s);
    j.key("step_ms").nums(b.step_ms);
    j.key("crc").hex(b.crc);
    j.key("error").str(b.error);
    j.key("diag").open('{');
    j.key("finite").boolean(b.diag.finite());
    j.key("min_sst").num(b.diag.min_sst);
    j.key("max_sst").num(b.diag.max_sst);
    j.key("max_abs_eta").num(b.diag.max_abs_eta);
    j.close('}');
    const Counts& c = b.counts;
    j.key("counts").open('{');
    j.key("halo_msgs").integer(static_cast<long long>(c.halo_msgs));
    j.key("halo_bytes").integer(static_cast<long long>(c.halo_bytes));
    j.key("halo_equiv").integer(static_cast<long long>(c.halo_equiv));
    j.key("halo_self_copies").integer(static_cast<long long>(c.halo_self_copies));
    j.key("halo_skipped").integer(static_cast<long long>(c.halo_skipped));
    j.key("subcycle_msgs").integer(static_cast<long long>(c.subcycle_msgs));
    j.key("comm_msgs").integer(static_cast<long long>(c.comm_msgs));
    j.key("comm_bytes").integer(static_cast<long long>(c.comm_bytes));
    j.key("lanes_active").integer(static_cast<long long>(c.lanes_active));
    j.key("lanes_masked").integer(static_cast<long long>(c.lanes_masked));
    j.key("dma_bytes").integer(static_cast<long long>(c.dma_bytes));
    j.key("dma_transfers").integer(static_cast<long long>(c.dma_transfers));
    j.key("spawns").integer(static_cast<long long>(c.spawns));
    j.key("fallbacks").integer(static_cast<long long>(c.fallbacks));
    j.close('}');
    j.key("tenants").open('[');
    for (const farm::TenantStatus& t : b.tenants) {
      j.open('{');
      j.key("name").str(t.name);
      j.key("state").str(farm::to_string(t.state));
      j.key("error").str(t.error);
      j.key("steps").integer(t.steps);
      j.key("target").integer(t.target_steps);
      j.key("admissions").integer(t.admissions);
      j.key("preemptions").integer(t.preemptions);
      j.key("queue_wait_s").num(t.queue_wait_s);
      j.key("run_wall_s").num(t.run_wall_s);
      j.key("sypd").num(t.sypd);
      j.key("final_crcs").integer(static_cast<long long>(t.final_crcs.size()));
      j.close('}');
    }
    j.close(']');
    j.key("ckpt_checked").integer(b.ckpt_checked);
    j.key("ckpt_failed").integer(b.ckpt_failed);
    j.key("ckpt_generation_bytes").nums(b.ckpt_generation_bytes);
    j.close('}');
  }
  j.close(']');
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// ---------------------------------------------------------------------------
// Modes.

int run_e2e(const Workload& w, const fs::path& out_dir) {
  const std::vector<double> setup = setup_samples(w);
  const auto g = std::make_shared<const grid::GlobalGrid>(w.cfg.grid, w.cfg.bathymetry_seed);
  const std::vector<BatchResult> untraced = timed_loop(w, g, w.seconds, false);
  const double rss = peak_rss_mb();  // before anything traced runs in this process
  telemetry::set_enabled(true);
  const BatchResult traced = run_batch(w, g, true);
  telemetry::set_enabled(false);

  Json j;
  j.open('{');
  j.key("mode").str("e2e");
  j.key("workload").str(w.name);
  j.key("nranks").integer(w.nranks);
  j.key("setup_s").nums(setup);
  j.key("peak_rss_mb").num(rss);
  j.key("untraced");
  write_batches(j, untraced);
  j.key("traced");
  write_batches(j, {traced});
  j.close('}');
  write_file(out_dir / "raw_e2e.json", j.text());
  return 0;
}

int run_layers(const Workload& w, const fs::path& out_dir) {
  SpanRecorder& spans = SpanRecorder::instance();
  spans.set_enabled(true);
  const std::vector<double> setup = setup_samples(w);
  const auto g = std::make_shared<const grid::GlobalGrid>(w.cfg.grid, w.cfg.bathymetry_seed);
  spans.set_enabled(false);
  const std::vector<BatchResult> untraced = timed_loop(w, g, w.seconds, false);

  telemetry::reset();
  telemetry::set_enabled(true);
  spans.set_enabled(true);
  std::vector<BatchResult> traced;
  {
    Span loop("bench.traced_loop");
    traced = timed_loop(w, g, w.traced_seconds, true);
  }
  const swsim::CoreGroupStats sw = swsim::default_core_group().stats();
  telemetry::write_metrics_json((out_dir / "program_metrics.json").string());
  telemetry::write_trace_json((out_dir / "program_trace.json").string());
  telemetry::set_enabled(false);
  const std::vector<double> allreduce_us = allreduce_probe();
  spans.set_enabled(false);
  spans.write_chrome_trace((out_dir / "bench_trace.json").string());

  Json j;
  j.open('{');
  j.key("mode").str("layers");
  j.key("workload").str(w.name);
  j.key("nranks").integer(w.nranks);
  j.key("setup_s").nums(setup);
  j.key("census_imbalance").num(census_imbalance(w, *g));
  j.key("ldm_high_water_bytes").integer(static_cast<long long>(sw.ldm_high_water));
  j.key("allreduce_us").nums(allreduce_us);
  j.key("untraced");
  write_batches(j, untraced);
  j.key("traced");
  write_batches(j, traced);
  j.close('}');
  write_file(out_dir / "raw_layers.json", j.text());
  return 0;
}

/// STREAM triad a = b + s*c; each array is 4× the last-level cache.
int run_probe(const fs::path& out_dir) {
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = 32L << 20;  // unknown: assume a 32 MiB last-level cache
  const std::size_t n = static_cast<std::size_t>(4 * llc) / sizeof(double);
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  constexpr int kReps = 5;
  double best_s = 1e30;
  for (int rep = 0; rep < kReps; ++rep) {
    const double s = 0.5 + rep;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    best_s = std::min(best_s, seconds_since(t0));
    if (a[n / 2] != 1.0 + s * 2.0) throw std::logic_error("triad produced a wrong value");
  }
  Json j;
  j.open('{');
  j.key("mode").str("probe");
  j.key("stream_gbs").num(3.0 * sizeof(double) * static_cast<double>(n) / best_s / 1e9);
  j.key("array_mb").num(static_cast<double>(n * sizeof(double)) / (1 << 20));
  j.key("llc_mb").num(static_cast<double>(llc) / (1 << 20));
  j.close('}');
  write_file(out_dir / "raw_probe.json", j.text());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: %s e2e|layers|probe <out_dir> key=value...\n", argv[0]);
    return 2;
  }
  try {
    const std::string mode = argv[1];
    const fs::path out_dir = argv[2];
    fs::create_directories(out_dir);
    if (mode == "probe") return run_probe(out_dir);
    const Params params(argc, argv, 3);
    const Workload w = make_workload(params);
    kxx::initialize(w.kxx_config);
    telemetry::set_enabled(false);  // kxx::initialize honours LICOMK_TELEMETRY; we do not
    if (mode == "e2e") return run_e2e(w, out_dir);
    if (mode == "layers") return run_layers(w, out_dir);
    std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
