// halo_batching_smoke — the CI driver behind ci/check_halo_batching.py.
//
// Runs the same small 4-rank model in one of two communication modes, with
// per-message CRC verification ON, and writes telemetry metrics.json carrying
// the halo message accounting:
//
//   batched   planned multi-field exchanges (the model-owned ExchangeGroups)
//   perfield  the per-field ablation baseline (the paper's Fig. 8 arm)
//
// Gauges (all-rank totals):
//   halo_smoke.messages           point-to-point messages actually sent
//   halo_smoke.equiv_messages     messages the per-field pattern would have sent
//   halo_smoke.batches            aggregated batch exchanges
//   halo_smoke.batched_fields     field exchanges carried inside batches
//   halo_smoke.skipped            exchanges elided as redundant
//   halo_smoke.subcycle_messages  messages attributed to the barotropic subcycle
//   halo_smoke.subcycle_equiv     per-field-equivalent subcycle work
//   halo.group.plan_builds / plan_hits / self_copies /
//   partial_exchanges             plan-cache + self-copy accounting
//   counters["resilience.halo_crc_failures"]  must be 0 (clean links)
// Labels:
//   halo_smoke.state_crc          order-independent fingerprint of the final
//                                 prognostic interiors (XOR of per-rank CRC-64s)
//                                 — equal across both modes or the run is wrong
//
// The CI gate (ci/check_halo_batching.py) asserts the batched run's message
// reduction against the per-field run, a subcycle message ceiling, plan-cache
// reuse, identical state CRCs, and zero CRC failures in both modes.
//
// Usage: halo_batching_smoke [mode=batched|perfield] [outdir=.] [steps=2]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

#include "comm/runtime.hpp"
#include "core/model.hpp"
#include "halo/halo_exchange.hpp"
#include "kxx/kxx.hpp"
#include "telemetry/telemetry.hpp"
#include "util/crc64.hpp"

using namespace licomk;

namespace {

/// CRC-64 of this rank's prognostic interiors in a fixed traversal order.
/// XORing the per-rank values gives a global fingerprint independent of rank
/// completion order — the cross-mode equality check in check_halo_batching.py.
std::uint64_t interior_state_crc(const core::LicomModel& m) {
  const int h = decomp::kHaloWidth;
  const core::OceanState& st = m.state();
  util::Crc64 crc;
  auto add2 = [&](const halo::BlockField2D& f) {
    for (int j = 0; j < f.ny(); ++j)
      for (int i = 0; i < f.nx(); ++i) {
        double v = f.at(j + h, i + h);
        crc.update(&v, sizeof(v));
      }
  };
  auto add3 = [&](const halo::BlockField3D& f) {
    for (int k = 0; k < f.nz(); ++k)
      for (int j = 0; j < f.ny(); ++j)
        for (int i = 0; i < f.nx(); ++i) {
          double v = f.at(k, j + h, i + h);
          crc.update(&v, sizeof(v));
        }
  };
  add3(st.t_cur);
  add3(st.s_cur);
  add3(st.u_cur);
  add3(st.v_cur);
  add2(st.eta_cur);
  add2(st.ubar_cur);
  add2(st.vbar_cur);
  return crc.value();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "batched";
  const std::string outdir = argc > 2 ? argv[2] : ".";
  const int steps = argc > 3 ? std::atoi(argv[3]) : 2;
  if (mode != "batched" && mode != "perfield") {
    std::fprintf(stderr, "usage: halo_batching_smoke [batched|perfield] [outdir] [steps]\n");
    return 2;
  }

  kxx::initialize({kxx::Backend::Serial, 0, false});
  telemetry::set_enabled(true);
  telemetry::reset();
  telemetry::set_label("halo_smoke.mode", mode);

  core::ModelConfig cfg = core::ModelConfig::testing(8);
  cfg.batch_halo_exchange = (mode == "batched");
  cfg.verify_halo_crc = true;  // every message CRC-checked end to end

  constexpr int kRanks = 4;
  auto global = std::make_shared<grid::GlobalGrid>(cfg.grid, cfg.bathymetry_seed);

  halo::HaloStats total;
  std::uint64_t subcycle_msgs = 0;
  std::uint64_t subcycle_equiv = 0;
  std::uint64_t plan_builds = 0;
  std::uint64_t plan_hits = 0;
  std::uint64_t partials = 0;
  std::uint64_t state_crc = 0;
  std::mutex total_mutex;
  comm::Runtime::run(kRanks, [&](comm::Communicator& c) {
    core::LicomModel model(cfg, global, c);
    for (int s = 0; s < steps; ++s) model.step();
    const halo::HaloStats& hs = model.exchanger().stats();
    const std::uint64_t crc = interior_state_crc(model);
    std::lock_guard<std::mutex> lock(total_mutex);
    total.exchanges += hs.exchanges;
    total.skipped += hs.skipped;
    total.messages += hs.messages;
    total.bytes += hs.bytes;
    total.equiv_messages += hs.equiv_messages;
    total.batches += hs.batches;
    total.batched_fields += hs.batched_fields;
    total.self_copies += hs.self_copies;
    subcycle_msgs += model.subcycle_messages();
    subcycle_equiv += model.subcycle_equiv_messages();
    for (const halo::ExchangeGroup* g : model.halo_groups()) {
      plan_builds += g->plan_builds();
      plan_hits += g->plan_hits();
      partials += g->partial_exchanges();
    }
    state_crc ^= crc;
  });

  telemetry::set_gauge("halo_smoke.messages", static_cast<double>(total.messages));
  telemetry::set_gauge("halo_smoke.equiv_messages", static_cast<double>(total.equiv_messages));
  telemetry::set_gauge("halo_smoke.batches", static_cast<double>(total.batches));
  telemetry::set_gauge("halo_smoke.batched_fields", static_cast<double>(total.batched_fields));
  telemetry::set_gauge("halo_smoke.skipped", static_cast<double>(total.skipped));
  telemetry::set_gauge("halo_smoke.bytes", static_cast<double>(total.bytes));
  telemetry::set_gauge("halo_smoke.subcycle_messages", static_cast<double>(subcycle_msgs));
  telemetry::set_gauge("halo_smoke.subcycle_equiv", static_cast<double>(subcycle_equiv));
  telemetry::set_gauge("halo.group.plan_builds", static_cast<double>(plan_builds));
  telemetry::set_gauge("halo.group.plan_hits", static_cast<double>(plan_hits));
  telemetry::set_gauge("halo.group.self_copies", static_cast<double>(total.self_copies));
  telemetry::set_gauge("halo.group.partial_exchanges", static_cast<double>(partials));
  {
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(state_crc));
    telemetry::set_label("halo_smoke.state_crc", hex);
  }
  telemetry::write_metrics_json(outdir + "/metrics.json");

  const double reduction = total.messages > 0
                               ? static_cast<double>(total.equiv_messages) /
                                     static_cast<double>(total.messages)
                               : 0.0;
  std::printf("halo_batching_smoke: mode=%s ranks=%d steps=%d\n", mode.c_str(), kRanks, steps);
  std::printf("  messages       : %llu\n", static_cast<unsigned long long>(total.messages));
  std::printf("  equiv messages : %llu (per-field pattern)\n",
              static_cast<unsigned long long>(total.equiv_messages));
  std::printf("  batches        : %llu carrying %llu field exchanges\n",
              static_cast<unsigned long long>(total.batches),
              static_cast<unsigned long long>(total.batched_fields));
  std::printf("  subcycle msgs  : %llu (equiv %llu)\n",
              static_cast<unsigned long long>(subcycle_msgs),
              static_cast<unsigned long long>(subcycle_equiv));
  if (mode == "batched") {
    std::printf("  groups         : plans %llu built / %llu hit, %llu self-copies, "
                "%llu partial rounds\n",
                static_cast<unsigned long long>(plan_builds),
                static_cast<unsigned long long>(plan_hits),
                static_cast<unsigned long long>(total.self_copies),
                static_cast<unsigned long long>(partials));
  }
  std::printf("  reduction      : %.2fx\n", reduction);
  std::printf("  state crc      : %016llx\n", static_cast<unsigned long long>(state_crc));
  std::printf("  metrics        : %s/metrics.json\n", outdir.c_str());
  return 0;
}
