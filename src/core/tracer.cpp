#include "core/tracer.hpp"

#include <cmath>

#include "core/constants.hpp"
#include "core/dynamics.hpp"
#include "core/field_ref.hpp"
#include "core/forcing.hpp"
#include "kxx/kxx.hpp"

namespace licomk::core {
namespace trc {

/// Flux-form Laplacian horizontal diffusion added onto the advected field.
/// No-flux across land faces by construction (face conductance zero).
struct HDiffK {
  CI2 kmt;
  CF2 dxt, dyt, dxu, dyu, area;
  CF3 q;     ///< pre-step tracer (diffusion operates on time level n)
  F3 q_acc;  ///< advected field, incremented in place
  const double* dz = nullptr;
  double dt_ah = 0.0;  ///< dt * A_h
  long long seam_j = -2;  ///< closed fold seam (see LocalGrid::seam_row)

  /// LDM staging footprint: q carries the ±1 horizontal diffusion stencil.
  /// q_acc is read-modify-write (below-bottom cells are skipped, so inout —
  /// not out — preserves their values through the round trip).
  void kxx_access(kxx::AccessSpec& a) const {
    a.in(q).halo(1, 1, 1).halo(2, 1, 1);
    a.inout(q_acc);
  }

  void operator()(long long k, long long j, long long i) const {
    if (k >= kmt(j, i)) return;
    auto cond_e = [&](long long jj, long long ii) {
      if (k >= kmt(jj, ii) || k >= kmt(jj, ii + 1)) return 0.0;
      return dyu(jj, ii) * dz[k] / dxt(jj, ii);
    };
    auto cond_n = [&](long long jj, long long ii) {
      if (jj == seam_j || k >= kmt(jj, ii) || k >= kmt(jj + 1, ii)) return 0.0;
      return dxu(jj, ii) * dz[k] / dyt(jj, ii);
    };
    double div = cond_e(j, i) * (q(k, j, i + 1) - q(k, j, i)) -
                 cond_e(j, i - 1) * (q(k, j, i) - q(k, j, i - 1)) +
                 cond_n(j, i) * (q(k, j + 1, i) - q(k, j, i)) -
                 cond_n(j - 1, i) * (q(k, j, i) - q(k, j - 1, i));
    q_acc(k, j, i) += dt_ah * div / (area(j, i) * dz[k]);
  }
};

/// Fused Laplacian diffusion of BOTH tracers in one sweep: the face
/// conductances cond_e/cond_n depend only on geometry and k, so computing
/// them once and applying them to t and s halves the metric/mask traffic the
/// unfused per-tracer dispatches pay twice. Each tracer's increment is
/// textually HDiffK's expression — bit-identical to two HDiffK passes.
struct FusedHDiffPairK {
  CI2 kmt;
  CF2 dxt, dyt, dxu, dyu, area;
  CF3 qa, qb;      ///< pre-step tracers (time level n): t, s
  F3 qa_acc, qb_acc;  ///< advected fields, incremented in place
  const double* dz = nullptr;
  double dt_ah = 0.0;
  long long seam_j = -2;

  void kxx_access(kxx::AccessSpec& a) const {
    a.in(qa).halo(1, 1, 1).halo(2, 1, 1);
    a.in(qb).halo(1, 1, 1).halo(2, 1, 1);
    a.inout(qa_acc);
    a.inout(qb_acc);
  }

  void operator()(long long k, long long j, long long i) const {
    if (k >= kmt(j, i)) return;
    auto cond_e = [&](long long jj, long long ii) {
      if (k >= kmt(jj, ii) || k >= kmt(jj, ii + 1)) return 0.0;
      return dyu(jj, ii) * dz[k] / dxt(jj, ii);
    };
    auto cond_n = [&](long long jj, long long ii) {
      if (jj == seam_j || k >= kmt(jj, ii) || k >= kmt(jj + 1, ii)) return 0.0;
      return dxu(jj, ii) * dz[k] / dyt(jj, ii);
    };
    double ce = cond_e(j, i);
    double cw = cond_e(j, i - 1);
    double cn = cond_n(j, i);
    double cs = cond_n(j - 1, i);
    double div_a = ce * (qa(k, j, i + 1) - qa(k, j, i)) -
                   cw * (qa(k, j, i) - qa(k, j, i - 1)) +
                   cn * (qa(k, j + 1, i) - qa(k, j, i)) -
                   cs * (qa(k, j, i) - qa(k, j - 1, i));
    qa_acc(k, j, i) += dt_ah * div_a / (area(j, i) * dz[k]);
    double div_b = ce * (qb(k, j, i + 1) - qb(k, j, i)) -
                   cw * (qb(k, j, i) - qb(k, j, i - 1)) +
                   cn * (qb(k, j + 1, i) - qb(k, j, i)) -
                   cs * (qb(k, j, i) - qb(k, j - 1, i));
    qb_acc(k, j, i) += dt_ah * div_b / (area(j, i) * dz[k]);
  }

  /// Packed form, dispatched on the plain i-tail mask (no LevelsRef). With a
  /// full tail every lane address — including the ±1 stencil neighbors — is
  /// inside the dense allocation, so all loads are unmasked; the scalar body
  /// also reads every neighbor and multiplies by a zero conductance at
  /// land/below-bottom faces, so dead lanes compute the same discarded
  /// products. Partial-column masking reduces to blended conductances plus
  /// an `act`-masked read-modify-write store; partial tails (at most one
  /// pack per row) fall back to the scalar body per live lane.
  template <int N>
  void pack_op(long long k, long long j, long long i0, const kxx::Mask<N>& tail) const {
    using P = kxx::Pack<double, N>;
    if (!tail.all()) {
      for (int l = 0; l < N; ++l)
        if (tail[l]) (*this)(k, j, i0 + l);
      return;
    }
    kxx::Mask<N> act, me, mw, mn, ms;
    for (int l = 0; l < N; ++l) {
      const long long i = i0 + l;
      const bool c = k < kmt(j, i);
      act.m[l] = c;
      me.m[l] = c && k < kmt(j, i + 1);
      mw.m[l] = c && k < kmt(j, i - 1);
      mn.m[l] = c && j != seam_j && k < kmt(j + 1, i);
      ms.m[l] = c && (j - 1) != seam_j && k < kmt(j - 1, i);
    }
    if (act.none()) return;
    const double dzk = dz[k];
    const P ce = kxx::blend(
        me, kxx::pack_load<N>(dyu.ptr(j, i0)) * dzk / kxx::pack_load<N>(dxt.ptr(j, i0)), 0.0);
    const P cw = kxx::blend(
        mw, kxx::pack_load<N>(dyu.ptr(j, i0 - 1)) * dzk / kxx::pack_load<N>(dxt.ptr(j, i0 - 1)),
        0.0);
    const P cn = kxx::blend(
        mn, kxx::pack_load<N>(dxu.ptr(j, i0)) * dzk / kxx::pack_load<N>(dyt.ptr(j, i0)), 0.0);
    const P cs = kxx::blend(
        ms, kxx::pack_load<N>(dxu.ptr(j - 1, i0)) * dzk / kxx::pack_load<N>(dyt.ptr(j - 1, i0)),
        0.0);
    const P denom = kxx::pack_load<N>(area.ptr(j, i0)) * dzk;

    const P qa_c = kxx::pack_load<N>(qa.ptr(k, j, i0));
    const P qa_e = kxx::pack_load<N>(qa.ptr(k, j, i0 + 1));
    const P qa_w = kxx::pack_load<N>(qa.ptr(k, j, i0 - 1));
    const P qa_n = kxx::pack_load<N>(qa.ptr(k, j + 1, i0));
    const P qa_s = kxx::pack_load<N>(qa.ptr(k, j - 1, i0));
    const P div_a = ce * (qa_e - qa_c) - cw * (qa_c - qa_w) + cn * (qa_n - qa_c) -
                    cs * (qa_c - qa_s);
    const P acc_a = kxx::pack_load<N>(qa_acc.ptr(k, j, i0));
    kxx::pack_store<N>(act, qa_acc.ptr(k, j, i0), acc_a + dt_ah * div_a / denom);

    const P qb_c = kxx::pack_load<N>(qb.ptr(k, j, i0));
    const P qb_e = kxx::pack_load<N>(qb.ptr(k, j, i0 + 1));
    const P qb_w = kxx::pack_load<N>(qb.ptr(k, j, i0 - 1));
    const P qb_n = kxx::pack_load<N>(qb.ptr(k, j + 1, i0));
    const P qb_s = kxx::pack_load<N>(qb.ptr(k, j - 1, i0));
    const P div_b = ce * (qb_e - qb_c) - cw * (qb_c - qb_w) + cn * (qb_n - qb_c) -
                    cs * (qb_c - qb_s);
    const P acc_b = kxx::pack_load<N>(qb_acc.ptr(k, j, i0));
    kxx::pack_store<N>(act, qb_acc.ptr(k, j, i0), acc_b + dt_ah * div_b / denom);
  }
};

/// First pass of the biharmonic operator: the flux-form Laplacian of q as a
/// FIELD (not an increment). The second pass reuses HDiffK on this field
/// with a negative coefficient: dq/dt = -A4 * lap(lap(q)). Two ghost layers
/// make the whole ∇⁴ stencil computable without an extra halo exchange:
/// this pass runs on interior + 1 ring, the second on the interior.
struct LapFieldK {
  CI2 kmt;
  CF2 dxt, dyt, dxu, dyu, area;
  CF3 q;
  F3 lap;
  const double* dz = nullptr;
  long long seam_j = -2;

  void operator()(long long k, long long j, long long i) const {
    if (k >= kmt(j, i)) {
      lap(k, j, i) = 0.0;
      return;
    }
    auto cond_e = [&](long long jj, long long ii) {
      if (k >= kmt(jj, ii) || k >= kmt(jj, ii + 1)) return 0.0;
      return dyu(jj, ii) * dz[k] / dxt(jj, ii);
    };
    auto cond_n = [&](long long jj, long long ii) {
      if (jj == seam_j || k >= kmt(jj, ii) || k >= kmt(jj + 1, ii)) return 0.0;
      return dxu(jj, ii) * dz[k] / dyt(jj, ii);
    };
    double div = cond_e(j, i) * (q(k, j, i + 1) - q(k, j, i)) -
                 cond_e(j, i - 1) * (q(k, j, i) - q(k, j, i - 1)) +
                 cond_n(j, i) * (q(k, j + 1, i) - q(k, j, i)) -
                 cond_n(j - 1, i) * (q(k, j, i) - q(k, j - 1, i));
    lap(k, j, i) = div / (area(j, i) * dz[k]);
  }
};

/// Column finisher for both tracers in one pass: penetrating shortwave (T),
/// surface restoring, and implicit vertical diffusion. T and S share
/// kappa_t, so the climatological forcing is evaluated and the tridiagonal
/// matrix factored once per column and applied to both right-hand sides.
struct TracerColumnPairK {
  CI2 kmt;
  CF2 lon, lat;
  CF3 kappa_t, t_old, s_old;
  F3 t, s;  ///< advected+diffused fields, solved in place
  const double* dz = nullptr;
  const double* zc = nullptr;
  /// Jerlov shortwave_fraction at the nz+1 interface depths, or nullptr
  /// when shortwave penetration is off.
  const double* sw_frac = nullptr;
  double dt = 0.0;
  double restore_rate = 0.0;  ///< 1/s
  double day_of_year = 0.0;
  /// Heat-flux ensemble perturbation: offset on the SST restoring target
  /// (the restoring term IS the surface heat flux; shortwave is
  /// redistributive over the column, so this is the effective flux knob).
  double sst_offset_c = 0.0;

  void operator()(long long j, long long i) const {
    int nlev = kmt(j, i);
    if (nlev == 0) return;
    double ct[kMaxLevels];
    double cs[kMaxLevels];
    double kf[kMaxLevels];
    for (int k = 0; k < nlev; ++k) {
      ct[k] = t(k, j, i);
      cs[k] = s(k, j, i);
      kf[k] = kappa_t(k, j, i);
    }
    SurfaceForcing f = climatological_forcing(lon(j, i), lat(j, i), day_of_year);

    if (sw_frac != nullptr) {
      // Penetrating shortwave: the Jerlov profile deposits heat through the
      // upper ocean. The column-integrated surface balance (longwave/latent
      // cooling vs insolation) is already folded into the restoring target,
      // so the whole flux is withdrawn from the top cell again — the term is
      // purely redistributive (column heat change is exactly zero) but warms
      // the subsurface, the physical effect the profile exists to capture.
      double q0 = f.shortwave / (kRho0 * kCp);  // K m / s
      for (int k = 0; k < nlev; ++k) {
        double absorbed = sw_frac[k] - sw_frac[k + 1];
        if (k == nlev - 1) absorbed += sw_frac[nlev];  // bottom absorbs rest
        ct[k] += dt * q0 * absorbed / dz[k];
      }
      ct[0] -= dt * q0 / dz[0];
    }

    // Surface restoring enters as an explicit source in the top cell.
    ct[0] += dt * restore_rate * (f.sst_target + sst_offset_c - t_old(0, j, i));
    cs[0] += dt * restore_rate * (f.sss_target - s_old(0, j, i));
    VerticalFactors lu;
    lu.factor(nlev, dt, kf, dz, zc);
    lu.solve(ct, cs);
    for (int k = 0; k < nlev; ++k) {
      t(k, j, i) = ct[k];
      s(k, j, i) = cs[k];
    }
  }
};

}  // namespace trc
}  // namespace licomk::core

KXX_REGISTER_FOR_3D(trc_hdiff, licomk::core::trc::HDiffK);
KXX_REGISTER_FOR_3D(trc_hdiff_pair, licomk::core::trc::FusedHDiffPairK);
KXX_REGISTER_FOR_3D(trc_lap_field, licomk::core::trc::LapFieldK);
KXX_REGISTER_FOR_2D(trc_column, licomk::core::trc::TracerColumnPairK);

namespace licomk::core {

void tracer_step(const LocalGrid& g, const ModelConfig& cfg, OceanState& state,
                 AdvectionWorkspace& ws, TracerAdvScratch& scratch,
                 halo::ExchangeGroup& q_td_group, double day_of_year) {
  const int h = decomp::kHaloWidth;
  const double dt = cfg.grid.dt_tracer;
  // Global representative spacing (decomposition-independent physics).
  const auto& gh = g.global().h();
  const double dx_mean = gh.dx_t(gh.ny() / 2, gh.nx() / 2);
  const double ah = cfg.effective_diffusivity(dx_mean);
  const double restore_rate = 1.0 / (cfg.restore_timescale_days * 86400.0);

  const bool fuse_adv =
      cfg.fuse_kernels && kxx::default_backend() != kxx::Backend::AthreadSim;
  compute_volume_fluxes(g, state.u_cur, state.v_cur, ws, cfg.gm_kappa, &state.rho);
  advect_tracer_pair(g, dt, state.t_cur, state.s_cur, ws, scratch, q_td_group, state.t_new,
                     state.s_new, fuse_adv);

  // Single-plane tiles for the staged trc_hdiff dispatches (see dynamics.cpp).
  kxx::MDRangePolicy3 interior3({0, h, h}, {g.nz(), h + g.ny(), h + g.nx()}, {1, 4, 64});
  kxx::MDRangePolicy2 interior2({h, h}, {h + g.ny(), h + g.nx()});

  const long long seam = g.seam_row() >= 0 ? g.seam_row() : -2;
  const double a4 = cfg.effective_biharmonic(dx_mean);

  // Fused t+s Laplacian diffusion: one sweep computes the face conductances
  // once for both tracers (bit-identical to the per-tracer HDiffK passes).
  // AthreadSim keeps the unfused dispatches — its LDM-staging pipeline is
  // built around the registered per-kernel labels. The biharmonic path also
  // stays unfused: both tracers round-trip through the shared ws.hmix_lap
  // scratch field, so their Laplacian passes cannot overlap.
  const bool fuse = cfg.fuse_kernels && cfg.hmix == HMixScheme::Laplacian &&
                    kxx::default_backend() != kxx::Backend::AthreadSim;
  if (fuse) {
    trc::FusedHDiffPairK hp{cref(g.kmt_view()), cref(g.dxt_view()), cref(g.dyt_view()),
                            cref(g.dxu_view()), cref(g.dyu_view()), cref(g.area_view()),
                            cref(state.t_cur),  cref(state.s_cur),
                            mref(state.t_new),  mref(state.s_new),
                            g.vertical().thicknesses().data(), dt * ah, seam};
    kxx::parallel_for_packed("trc_hdiff_pair", interior3, hp);
    // Elided: the second pass's re-reads of the 2-D metrics/mask (5 doubles +
    // 3 kmt probes per face pair, counted as the five metric planes).
    kxx::note_fusion_views_elided(5LL * g.ny() * g.nx() *
                                  static_cast<long long>(sizeof(double)));
  }

  if (!fuse) {
    for (int which = 0; which < 2; ++which) {
      const halo::BlockField3D& q_cur = which == 0 ? state.t_cur : state.s_cur;
      halo::BlockField3D& q_new = which == 0 ? state.t_new : state.s_new;
      if (cfg.hmix == HMixScheme::Laplacian) {
        trc::HDiffK hd{cref(g.kmt_view()), cref(g.dxt_view()), cref(g.dyt_view()),
                       cref(g.dxu_view()), cref(g.dyu_view()), cref(g.area_view()),
                       cref(q_cur),        mref(q_new),        g.vertical().thicknesses().data(),
                       dt * ah,            seam};
        kxx::parallel_for("trc_hdiff", interior3, hd);
      } else {
        // Biharmonic: lap(q) over interior + 1 ring, then -A4 * lap(lap(q)).
        kxx::MDRangePolicy3 ring1({0, 1, 1}, {g.nz(), g.ny_total() - 1, g.nx_total() - 1});
        trc::LapFieldK lf{cref(g.kmt_view()), cref(g.dxt_view()), cref(g.dyt_view()),
                          cref(g.dxu_view()), cref(g.dyu_view()), cref(g.area_view()),
                          cref(q_cur),        mref(ws.hmix_lap),
                          g.vertical().thicknesses().data(), seam};
        kxx::parallel_for("trc_lap_field", ring1, lf);
        trc::HDiffK bh{cref(g.kmt_view()), cref(g.dxt_view()), cref(g.dyt_view()),
                       cref(g.dxu_view()), cref(g.dyu_view()), cref(g.area_view()),
                       cref(ws.hmix_lap),  mref(q_new),        g.vertical().thicknesses().data(),
                       -dt * a4,           seam};
        kxx::parallel_for("trc_hdiff", interior3, bh);
      }
    }
  }

  // The shortwave absorption profile depends only on the interface depths:
  // tabulate it once per step instead of twice per level in every column.
  LICOMK_REQUIRE(g.nz() <= kMaxLevels, "column deeper than kMaxLevels");
  double sw_frac[kMaxLevels + 1];
  const double* iface = g.vertical().interfaces().data();
  for (int k = 0; k <= g.nz(); ++k) sw_frac[k] = shortwave_fraction(iface[k]);

  trc::TracerColumnPairK tc{cref(g.kmt_view()),
                            cref(g.lon_view()),
                            cref(g.lat_view()),
                            cref(state.kappa_t),
                            cref(state.t_cur),
                            cref(state.s_cur),
                            mref(state.t_new),
                            mref(state.s_new),
                            g.vertical().thicknesses().data(),
                            g.vertical().centers().data(),
                            cfg.solar_penetration ? sw_frac : nullptr,
                            dt,
                            restore_rate,
                            day_of_year,
                            cfg.sst_target_offset_c};
  kxx::parallel_for("trc_column", interior2, tc);
  state.t_new.mark_dirty();
  state.s_new.mark_dirty();
}

}  // namespace licomk::core
