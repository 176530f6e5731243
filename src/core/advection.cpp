#include "core/advection.hpp"

#include <algorithm>
#include <cmath>

#include "kxx/kxx.hpp"

namespace licomk::core {
namespace adv {

/// Shared geometry handed to every advection functor.
struct Geo {
  CI2 kmt;
  CF2 area, dyu, dxu;
  const double* dz = nullptr;  ///< nz layer thicknesses
  int nz = 0;
  long long seam_j = -2;  ///< row whose north face is the (closed) fold seam

  bool active(long long k, long long j, long long i) const { return k < kmt(j, i); }
};

/// Stage 1a: volume flux through the EAST face of T cell (j,i).
/// B-grid: the face is bounded by corners (j-1,i) and (j,i).
struct FluxEast {
  Geo g;
  CF3 u;
  F3 fe;
  /// LDM staging footprint: u is read with a j-1 stencil; fe is written at
  /// every dispatched index. Geometry (2-D masks/metrics) stays unstaged.
  void kxx_access(kxx::AccessSpec& a) const {
    a.in(u).halo(1, 1, 0);
    a.out(fe);
  }
  void operator()(long long k, long long j, long long i) const {
    double flux = 0.0;
    if (g.active(k, j, i) && g.active(k, j, i + 1)) {
      double uf = 0.5 * (u(k, j, i) + u(k, j - 1, i));
      flux = uf * g.dyu(j, i) * g.dz[k];
    }
    fe(k, j, i) = flux;
  }
};

/// Stage 1b: volume flux through the NORTH face of T cell (j,i)
/// (corners (j,i-1) and (j,i)).
struct FluxNorth {
  Geo g;
  CF3 v;
  F3 fn;
  /// LDM staging footprint: v is read with an i-1 stencil; fn is written at
  /// every dispatched index.
  void kxx_access(kxx::AccessSpec& a) const {
    a.in(v).halo(2, 1, 0);
    a.out(fn);
  }
  void operator()(long long k, long long j, long long i) const {
    double flux = 0.0;
    if (j != g.seam_j && g.active(k, j, i) && g.active(k, j + 1, i)) {
      double vf = 0.5 * (v(k, j, i) + v(k, j, i - 1));
      flux = vf * g.dxu(j, i) * g.dz[k];
    }
    fn(k, j, i) = flux;
  }
};

/// Stage 1b': Gent–McWilliams bolus fluxes added onto a horizontal face
/// column. The eddy-induced streamfunction psi(k) = kappa * S(k) lives at
/// the face's vertical interfaces (psi = 0 at surface and wherever either
/// neighbor column ends, so the face-column bolus transport integrates to
/// exactly zero: pure overturning). S is the isopycnal slope, tapered to
/// |S| <= s_max and zeroed under weak/unstable stratification.
struct GmBolus {
  Geo g;
  CF3 rho;
  F3 flux;            ///< flux_e (dir=0) or flux_n (dir=1), incremented
  CF2 len;            ///< face length: dyu for east faces, dxu for north
  const double* zc = nullptr;
  double kappa = 0.0;
  int dir = 0;        ///< 0: east face (i, i+1), 1: north face (j, j+1)
  long long seam_j = -2;

  static constexpr double kSlopeMax = 2.0e-3;
  static constexpr double kMinStrat = 1.0e-6;  ///< kg/m^3 per meter

  void operator()(long long j, long long i) const {
    const long long j2 = dir == 1 ? j + 1 : j;
    const long long i2 = dir == 0 ? i + 1 : i;
    if (dir == 1 && j == seam_j) return;
    const int nlev = std::min(g.kmt(j, i), g.kmt(j2, i2));
    if (nlev < 2) return;
    // Center-to-center spacing across the face (area / face length).
    const double dist =
        dir == 0 ? g.area(j, i) / g.dyu(j, i) : g.area(j, i) / g.dxu(j, i);
    double psi_above = 0.0;  // psi at the top interface of cell k
    for (int k = 0; k < nlev; ++k) {
      // psi at the BOTTOM interface of cell k (interface k+1).
      double psi_below = 0.0;
      if (k + 1 < nlev) {
        double drho_dx = 0.5 *
                         ((rho(k, j2, i2) + rho(k + 1, j2, i2)) -
                          (rho(k, j, i) + rho(k + 1, j, i))) /
                         dist;
        // z upward: density must decrease upward for a stable column.
        double drho_dz = 0.25 *
                         ((rho(k, j, i) + rho(k, j2, i2)) -
                          (rho(k + 1, j, i) + rho(k + 1, j2, i2))) /
                         (zc[k + 1] - zc[k]);
        if (drho_dz < -kMinStrat) {
          double slope = -drho_dx / drho_dz;
          slope = std::clamp(slope, -kSlopeMax, kSlopeMax);
          psi_below = kappa * slope;
        }
      }
      // u* dz = -(psi_top - psi_bottom); volume flux = u* dz * face_length.
      flux(k, j, i) += (psi_below - psi_above) * len(j, i);
      psi_above = psi_below;
    }
  }
};

/// Stage 1c: vertical volume flux from discrete continuity, integrated from
/// the bottom of each column upward. w(k) = flux through the TOP of cell k,
/// positive upward. Runs per column (2-D dispatch).
struct WContinuity {
  Geo g;
  CF3 fe, fn;
  F3 w;
  void operator()(long long j, long long i) const {
    const int nlev = g.kmt(j, i);
    for (int k = 0; k < g.nz; ++k) w(k, j, i) = 0.0;
    double below = 0.0;  // flux through the bottom of cell k
    for (int k = nlev - 1; k >= 0; --k) {
      double divh = fe(k, j, i) - fe(k, j, i - 1) + fn(k, j, i) - fn(k, j - 1, i);
      double top = below - divh;
      w(k, j, i) = top;
      below = top;
    }
  }
};

/// Donor-cell (upwind) tracer flux through a face with volume flux `vol`,
/// `q_from` on the negative side and `q_to` on the positive side.
inline double upwind_flux(double vol, double q_from, double q_to) {
  return vol > 0.0 ? vol * q_from : vol * q_to;
}

/// Stage 2a: low-order provisional field q_td (monotone donor-cell update).
struct LowOrder {
  Geo g;
  CF3 q, fe, fn, w;
  F3 qtd;
  double dt;
  void operator()(long long k, long long j, long long i) const {
    if (!g.active(k, j, i)) {
      qtd(k, j, i) = q(k, j, i);
      return;
    }
    auto lo_e = [&](long long jj, long long ii) {
      return upwind_flux(fe(k, jj, ii), q(k, jj, ii), q(k, jj, ii + 1));
    };
    auto lo_n = [&](long long jj, long long ii) {
      return upwind_flux(fn(k, jj, ii), q(k, jj, ii), q(k, jj + 1, ii));
    };
    // Vertical: flux through the top of cell kk moves tracer from cell kk
    // (when upward) to cell kk-1. The surface face (kk == 0) is closed to
    // tracer transport (free-surface volume change handles it).
    auto lo_t = [&](long long kk) {
      if (kk <= 0 || kk >= g.kmt(j, i)) return 0.0;
      return upwind_flux(w(kk, j, i), q(kk, j, i), q(kk - 1, j, i));
    };
    double vol = g.area(j, i) * g.dz[k];
    double div = lo_e(j, i) - lo_e(j, i - 1) + lo_n(j, i) - lo_n(j - 1, i) + lo_t(k) - lo_t(k + 1);
    // Free-surface consistency: the surface cell's volume change (w through
    // the closed tracer lid, absorbed by eta) enters in advective form, so a
    // uniform tracer stays exactly uniform under divergent flow and the
    // donor-cell predictor keeps its maximum principle. The tracer budget
    // then closes up to the physical dt*q*w_surface free-surface term.
    if (k == 0) div += q(0, j, i) * w(0, j, i);
    qtd(k, j, i) = q(k, j, i) - dt * div / vol;
  }
};

/// Stage 2a (fused pair): both tracers' monotone predictors in one sweep —
/// the volume fluxes fe/fn/w and the cell volume are loaded once and feed
/// both donor-cell updates, eliding the second LowOrder pass's full re-read
/// of the three flux fields. Each tracer's update is textually LowOrder's
/// expression, so the result is bit-identical to two LowOrder dispatches.
struct FusedLowOrderPair {
  Geo g;
  CF3 qa, qb, fe, fn, w;
  F3 qa_td, qb_td;
  double dt;

  void operator()(long long k, long long j, long long i) const {
    if (!g.active(k, j, i)) {
      qa_td(k, j, i) = qa(k, j, i);
      qb_td(k, j, i) = qb(k, j, i);
      return;
    }
    auto lo_e = [&](const CF3& q, long long jj, long long ii) {
      return upwind_flux(fe(k, jj, ii), q(k, jj, ii), q(k, jj, ii + 1));
    };
    auto lo_n = [&](const CF3& q, long long jj, long long ii) {
      return upwind_flux(fn(k, jj, ii), q(k, jj, ii), q(k, jj + 1, ii));
    };
    auto lo_t = [&](const CF3& q, long long kk) {
      if (kk <= 0 || kk >= g.kmt(j, i)) return 0.0;
      return upwind_flux(w(kk, j, i), q(kk, j, i), q(kk - 1, j, i));
    };
    double vol = g.area(j, i) * g.dz[k];
    double div_a = lo_e(qa, j, i) - lo_e(qa, j, i - 1) + lo_n(qa, j, i) - lo_n(qa, j - 1, i) +
                   lo_t(qa, k) - lo_t(qa, k + 1);
    if (k == 0) div_a += qa(0, j, i) * w(0, j, i);
    qa_td(k, j, i) = qa(k, j, i) - dt * div_a / vol;
    double div_b = lo_e(qb, j, i) - lo_e(qb, j, i - 1) + lo_n(qb, j, i) - lo_n(qb, j - 1, i) +
                   lo_t(qb, k) - lo_t(qb, k + 1);
    if (k == 0) div_b += qb(0, j, i) * w(0, j, i);
    qb_td(k, j, i) = qb(k, j, i) - dt * div_b / vol;
  }

  /// Packed form. No LevelsRef at the dispatch: inactive cells still write
  /// the passthrough qtd = q, exactly as the scalar early-out does. The
  /// horizontal flux/tracer neighborhoods load as Packs; the upwind selects
  /// and the guarded vertical faces stay lane-scalar (data-dependent
  /// branches), reading their lanes out of the loaded packs.
  template <int N>
  void pack_op(long long k, long long j, long long i0, const kxx::Mask<N>& tail) const {
    using P = kxx::Pack<double, N>;
    kxx::Mask<N> act;
    for (int l = 0; l < N; ++l) act.set(l, tail[l] && g.active(k, j, i0 + l));

    const P qa_c = kxx::pack_load<N>(tail, qa.ptr(k, j, i0));
    const P qb_c = kxx::pack_load<N>(tail, qb.ptr(k, j, i0));
    if (act.none()) {
      kxx::pack_store<N>(tail, qa_td.ptr(k, j, i0), qa_c);
      kxx::pack_store<N>(tail, qb_td.ptr(k, j, i0), qb_c);
      return;
    }
    const P fe_c = kxx::pack_load<N>(act, fe.ptr(k, j, i0));
    const P fe_w = kxx::pack_load<N>(act, fe.ptr(k, j, i0 - 1));
    const P fn_c = kxx::pack_load<N>(act, fn.ptr(k, j, i0));
    const P fn_s = kxx::pack_load<N>(act, fn.ptr(k, j - 1, i0));
    const P qa_e = kxx::pack_load<N>(act, qa.ptr(k, j, i0 + 1));
    const P qa_w = kxx::pack_load<N>(act, qa.ptr(k, j, i0 - 1));
    const P qa_n = kxx::pack_load<N>(act, qa.ptr(k, j + 1, i0));
    const P qa_s = kxx::pack_load<N>(act, qa.ptr(k, j - 1, i0));
    const P qb_e = kxx::pack_load<N>(act, qb.ptr(k, j, i0 + 1));
    const P qb_w = kxx::pack_load<N>(act, qb.ptr(k, j, i0 - 1));
    const P qb_n = kxx::pack_load<N>(act, qb.ptr(k, j + 1, i0));
    const P qb_s = kxx::pack_load<N>(act, qb.ptr(k, j - 1, i0));
    const P area_p = kxx::pack_load<N>(act, g.area.ptr(j, i0));

    // Horizontal donor-cell fluxes as Pack selects: both candidate products
    // are the scalar path's own expressions, the blend keeps the one the
    // scalar branch would have taken — per-lane results identical. The
    // upwind mask comes from the face flux sign, not the activity mask, so
    // dead lanes just compute garbage that the final blend discards.
    auto upw = [](const P& vol, const P& q_from, const P& q_to) {
      return kxx::blend(vol > 0.0, vol * q_from, vol * q_to);
    };
    P div_a = upw(fe_c, qa_c, qa_e) - upw(fe_w, qa_w, qa_c) + upw(fn_c, qa_c, qa_n) -
              upw(fn_s, qa_s, qa_c);
    P div_b = upw(fe_c, qb_c, qb_e) - upw(fe_w, qb_w, qb_c) + upw(fn_c, qb_c, qb_n) -
              upw(fn_s, qb_s, qb_c);
    // Vertical faces stay lane-scalar: each lane's own column depth guards
    // the w/q reads at kk-1 and kk+1.
    for (int l = 0; l < N; ++l) {
      if (!act[l]) continue;
      const long long i = i0 + l;
      auto lo_t = [&](const CF3& q, long long kk) {
        if (kk <= 0 || kk >= g.kmt(j, i)) return 0.0;
        return upwind_flux(w(kk, j, i), q(kk, j, i), q(kk - 1, j, i));
      };
      div_a[l] = div_a[l] + lo_t(qa, k) - lo_t(qa, k + 1);
      div_b[l] = div_b[l] + lo_t(qb, k) - lo_t(qb, k + 1);
    }
    if (k == 0) {
      const P w0 = kxx::pack_load<N>(act, w.ptr(0, j, i0));
      div_a += qa_c * w0;
      div_b += qb_c * w0;
    }
    const P vol_p = area_p * g.dz[k];
    const P qa_o = kxx::blend(act, qa_c - dt * div_a / vol_p, qa_c);
    const P qb_o = kxx::blend(act, qb_c - dt * div_b / vol_p, qb_c);
    kxx::pack_store<N>(tail, qa_td.ptr(k, j, i0), qa_o);
    kxx::pack_store<N>(tail, qb_td.ptr(k, j, i0), qb_o);
  }
};

/// Stage 2b: anti-diffusive fluxes A = F_centered - F_upwind, per face
/// family. Faces touching land carry zero volume flux, so A vanishes there
/// without extra masking.
struct AntiDiffEast {
  Geo g;
  CF3 q, fe;
  F3 ae;
  void operator()(long long k, long long j, long long i) const {
    double vol = fe(k, j, i);
    ae(k, j, i) = vol * 0.5 * (q(k, j, i) + q(k, j, i + 1)) -
                  upwind_flux(vol, q(k, j, i), q(k, j, i + 1));
  }
};

struct AntiDiffNorth {
  Geo g;
  CF3 q, fn;
  F3 an;
  void operator()(long long k, long long j, long long i) const {
    double vol = fn(k, j, i);
    an(k, j, i) = vol * 0.5 * (q(k, j, i) + q(k, j + 1, i)) -
                  upwind_flux(vol, q(k, j, i), q(k, j + 1, i));
  }
};

struct AntiDiffTop {
  Geo g;
  CF3 q, w;
  F3 at;
  void operator()(long long k, long long j, long long i) const {
    if (k <= 0 || k >= g.kmt(j, i)) {
      at(k, j, i) = 0.0;
      return;
    }
    double vol = w(k, j, i);
    at(k, j, i) = vol * 0.5 * (q(k, j, i) + q(k - 1, j, i)) -
                  upwind_flux(vol, q(k, j, i), q(k - 1, j, i));
  }
};

/// Stage 3 (after the q_td halo update): Zalesak limiter factors per cell.
struct RFactors {
  Geo g;
  CF3 q, qtd, ae, an, at;
  F3 rp, rm;
  double dt;
  void operator()(long long k, long long j, long long i) const {
    if (!g.active(k, j, i)) {
      rp(k, j, i) = 0.0;
      rm(k, j, i) = 0.0;
      return;
    }
    double qmax = std::max(q(k, j, i), qtd(k, j, i));
    double qmin = std::min(q(k, j, i), qtd(k, j, i));
    auto consider = [&](long long kk, long long jj, long long ii) {
      if (kk >= 0 && kk < g.nz && g.active(kk, jj, ii)) {
        qmax = std::max({qmax, q(kk, jj, ii), qtd(kk, jj, ii)});
        qmin = std::min({qmin, q(kk, jj, ii), qtd(kk, jj, ii)});
      }
    };
    consider(k, j, i - 1);
    consider(k, j, i + 1);
    consider(k, j - 1, i);
    consider(k, j + 1, i);
    consider(k - 1, j, i);
    consider(k + 1, j, i);

    // Incoming (P+) and outgoing (P-) anti-diffusive mass for this cell.
    double a_e = ae(k, j, i);              // out east (if > 0)
    double a_w = ae(k, j, i - 1);          // in from west (if > 0)
    double a_n = an(k, j, i);              // out north
    double a_s = an(k, j - 1, i);          // in from south
    double a_t_face = at(k, j, i);         // out the top (if > 0)
    double a_b = k + 1 < g.nz ? at(k + 1, j, i) : 0.0;  // in from below (if > 0)
    double p_plus = dt * (std::max(a_w, 0.0) - std::min(a_e, 0.0) + std::max(a_s, 0.0) -
                          std::min(a_n, 0.0) + std::max(a_b, 0.0) - std::min(a_t_face, 0.0));
    double p_minus = dt * (std::max(a_e, 0.0) - std::min(a_w, 0.0) + std::max(a_n, 0.0) -
                           std::min(a_s, 0.0) + std::max(a_t_face, 0.0) - std::min(a_b, 0.0));
    double vol = g.area(j, i) * g.dz[k];
    double q_plus = (qmax - qtd(k, j, i)) * vol;
    double q_minus = (qtd(k, j, i) - qmin) * vol;
    rp(k, j, i) = p_plus > 0.0 ? std::min(1.0, q_plus / p_plus) : 0.0;
    rm(k, j, i) = p_minus > 0.0 ? std::min(1.0, q_minus / p_minus) : 0.0;
  }
};

/// Stage 4: apply limited anti-diffusive fluxes.
struct Correct {
  Geo g;
  CF3 q, qtd, ae, an, at, rp, rm;
  F3 qout;
  double dt;

  double limited_e(long long k, long long j, long long i) const {
    double a = ae(k, j, i);
    double c = a >= 0.0 ? std::min(rp(k, j, i + 1), rm(k, j, i))
                        : std::min(rp(k, j, i), rm(k, j, i + 1));
    return c * a;
  }
  double limited_n(long long k, long long j, long long i) const {
    double a = an(k, j, i);
    double c = a >= 0.0 ? std::min(rp(k, j + 1, i), rm(k, j, i))
                        : std::min(rp(k, j, i), rm(k, j + 1, i));
    return c * a;
  }
  double limited_t(long long k, long long j, long long i) const {
    if (k <= 0 || k >= g.kmt(j, i)) return 0.0;
    double a = at(k, j, i);  // positive = upward = into cell k-1
    double c = a >= 0.0 ? std::min(rp(k - 1, j, i), rm(k, j, i))
                        : std::min(rp(k, j, i), rm(k - 1, j, i));
    return c * a;
  }

  void operator()(long long k, long long j, long long i) const {
    if (!g.active(k, j, i)) {
      qout(k, j, i) = q(k, j, i);
      return;
    }
    double vol = g.area(j, i) * g.dz[k];
    double div = limited_e(k, j, i) - limited_e(k, j, i - 1) + limited_n(k, j, i) -
                 limited_n(k, j - 1, i) + limited_t(k, j, i) - limited_t(k + 1, j, i);
    qout(k, j, i) = qtd(k, j, i) - dt * div / vol;
  }
};

}  // namespace adv
}  // namespace licomk::core

KXX_REGISTER_FOR_3D(adv_flux_east, licomk::core::adv::FluxEast);
KXX_REGISTER_FOR_3D(adv_flux_north, licomk::core::adv::FluxNorth);
KXX_REGISTER_FOR_2D(adv_w_continuity, licomk::core::adv::WContinuity);
KXX_REGISTER_FOR_2D(adv_gm_bolus, licomk::core::adv::GmBolus);
KXX_REGISTER_FOR_3D(adv_low_order, licomk::core::adv::LowOrder);
KXX_REGISTER_FOR_3D(adv_low_order_pair, licomk::core::adv::FusedLowOrderPair);
KXX_REGISTER_FOR_3D(adv_anti_east, licomk::core::adv::AntiDiffEast);
KXX_REGISTER_FOR_3D(adv_anti_north, licomk::core::adv::AntiDiffNorth);
KXX_REGISTER_FOR_3D(adv_anti_top, licomk::core::adv::AntiDiffTop);
KXX_REGISTER_FOR_3D(adv_r_factors, licomk::core::adv::RFactors);
KXX_REGISTER_FOR_3D(adv_correct, licomk::core::adv::Correct);

namespace licomk::core {

namespace {

adv::Geo make_geo(const LocalGrid& g) {
  adv::Geo geo;
  geo.kmt = cref(g.kmt_view());
  geo.area = cref(g.area_view());
  geo.dyu = cref(g.dyu_view());
  geo.dxu = cref(g.dxu_view());
  geo.dz = g.vertical().thicknesses().data();
  geo.nz = g.nz();
  geo.seam_j = g.seam_row() >= 0 ? g.seam_row() : -2;
  return geo;
}

kxx::MDRangePolicy3 cells3(const LocalGrid& g, int margin) {
  // Cells [margin, n_total - margin) in both horizontal directions, all k.
  return kxx::MDRangePolicy3({0, margin, margin},
                             {g.nz(), g.ny_total() - margin, g.nx_total() - margin});
}

}  // namespace

AdvectionWorkspace::AdvectionWorkspace(const LocalGrid& g)
    : flux_e("adv_flux_e", g.extent(), g.nz()),
      flux_n("adv_flux_n", g.extent(), g.nz()),
      w_top("adv_w_top", g.extent(), g.nz()),
      a_e("adv_a_e", g.extent(), g.nz()),
      a_n("adv_a_n", g.extent(), g.nz()),
      a_t("adv_a_t", g.extent(), g.nz()),
      q_td("adv_q_td", g.extent(), g.nz()),
      r_plus("adv_r_plus", g.extent(), g.nz()),
      r_minus("adv_r_minus", g.extent(), g.nz()),
      hmix_lap("hmix_lap", g.extent(), g.nz()) {}

void compute_volume_fluxes(const LocalGrid& g, const halo::BlockField3D& u,
                           const halo::BlockField3D& v, AdvectionWorkspace& ws,
                           double gm_kappa, const halo::BlockField3D* rho) {
  adv::Geo geo = make_geo(g);
  const int nyt = g.ny_total();
  const int nxt = g.nx_total();

  adv::FluxEast fe{geo, cref(u), mref(ws.flux_e)};
  // Single-plane tiles: small LDM slabs and > 64 tiles even on test grids,
  // so the AthreadSim double-buffered prefetch has a next tile to fetch.
  kxx::parallel_for("adv_flux_east",
                    kxx::MDRangePolicy3({0, 1, 0}, {g.nz(), nyt, nxt - 1}, {1, 4, 64}), fe);
  adv::FluxNorth fn{geo, cref(v), mref(ws.flux_n)};
  kxx::parallel_for("adv_flux_north",
                    kxx::MDRangePolicy3({0, 0, 1}, {g.nz(), nyt - 1, nxt}, {1, 4, 64}), fn);

  if (gm_kappa > 0.0 && rho != nullptr) {
    adv::GmBolus ge{geo, cref(*rho), mref(ws.flux_e), cref(g.dyu_view()),
                    g.vertical().centers().data(), gm_kappa, 0, geo.seam_j};
    kxx::parallel_for("adv_gm_bolus_e", kxx::MDRangePolicy2({1, 0}, {nyt, nxt - 1}), ge);
    adv::GmBolus gn{geo, cref(*rho), mref(ws.flux_n), cref(g.dxu_view()),
                    g.vertical().centers().data(), gm_kappa, 1, geo.seam_j};
    kxx::parallel_for("adv_gm_bolus_n", kxx::MDRangePolicy2({0, 1}, {nyt - 1, nxt}), gn);
  }

  adv::WContinuity wc{geo, cref(ws.flux_e), cref(ws.flux_n), mref(ws.w_top)};
  kxx::parallel_for("adv_w_continuity", kxx::MDRangePolicy2({1, 1}, {nyt - 1, nxt - 1}), wc);
  ws.flux_e.mark_dirty();
  ws.flux_n.mark_dirty();
  ws.w_top.mark_dirty();
}

void advect_tracer_fct(const LocalGrid& g, double dt, const halo::BlockField3D& q,
                       AdvectionWorkspace& ws, halo::HaloExchanger& exchanger,
                       halo::BlockField3D& q_out) {
  adv::Geo geo = make_geo(g);
  const int h = decomp::kHaloWidth;
  const int nyt = g.ny_total();
  const int nxt = g.nx_total();

  // Stage 2: monotone predictor on interior + 1 ring, anti-diffusive fluxes
  // over the full face-valid regions (the limiter reads them one ring out).
  adv::LowOrder lo{geo, cref(q), cref(ws.flux_e), cref(ws.flux_n), cref(ws.w_top),
                   mref(ws.q_td), dt};
  kxx::parallel_for("adv_low_order", cells3(g, 1), lo);
  ws.q_td.mark_dirty();

  // The limiter needs q_td at the neighbors of ring-1 cells: one halo update
  // (this mid-kernel exchange is why advection dominates the halo budget).
  // Split-phase (§V-D overlap): the anti-diffusive fluxes do not read q_td,
  // so they compute while the q_td boundary messages are in flight.
  auto pending = exchanger.begin_update(ws.q_td);

  adv::AntiDiffEast ade{geo, cref(q), cref(ws.flux_e), mref(ws.a_e)};
  kxx::parallel_for("adv_anti_east", kxx::MDRangePolicy3({0, 1, 0}, {g.nz(), nyt, nxt - 1}),
                    ade);
  adv::AntiDiffNorth adn{geo, cref(q), cref(ws.flux_n), mref(ws.a_n)};
  kxx::parallel_for("adv_anti_north", kxx::MDRangePolicy3({0, 0, 1}, {g.nz(), nyt - 1, nxt}),
                    adn);
  adv::AntiDiffTop adt{geo, cref(q), cref(ws.w_top), mref(ws.a_t)};
  kxx::parallel_for("adv_anti_top", cells3(g, 1), adt);

  exchanger.finish_update(pending);

  // Stage 3: limiter factors on interior + 1 ring.
  adv::RFactors rf{geo,          cref(q),        cref(ws.q_td), cref(ws.a_e), cref(ws.a_n),
                   cref(ws.a_t), mref(ws.r_plus), mref(ws.r_minus), dt};
  kxx::parallel_for("adv_r_factors", cells3(g, 1), rf);

  // Stage 4: corrected update on the interior.
  adv::Correct cr{geo,          cref(q),          cref(ws.q_td),   cref(ws.a_e), cref(ws.a_n),
                  cref(ws.a_t), cref(ws.r_plus),  cref(ws.r_minus), mref(q_out),  dt};
  kxx::parallel_for("adv_correct",
                    kxx::MDRangePolicy3({0, h, h}, {g.nz(), nyt - h, nxt - h}), cr);
  q_out.mark_dirty();
}

TracerAdvScratch::TracerAdvScratch(const LocalGrid& g)
    : q_td("adv_q_td_b", g.extent(), g.nz()),
      a_e("adv_a_e_b", g.extent(), g.nz()),
      a_n("adv_a_n_b", g.extent(), g.nz()),
      a_t("adv_a_t_b", g.extent(), g.nz()),
      r_plus("adv_r_plus_b", g.extent(), g.nz()),
      r_minus("adv_r_minus_b", g.extent(), g.nz()) {}

void advect_tracer_pair(const LocalGrid& g, double dt, const halo::BlockField3D& qa,
                        const halo::BlockField3D& qb, AdvectionWorkspace& ws,
                        TracerAdvScratch& scratch, halo::ExchangeGroup& q_td_group,
                        halo::BlockField3D& qa_out, halo::BlockField3D& qb_out,
                        bool fuse_low_order) {
  adv::Geo geo = make_geo(g);
  const int h = decomp::kHaloWidth;
  const int nyt = g.ny_total();
  const int nxt = g.nx_total();

  // Monotone predictors for both tracers before any communication, so the
  // whole aggregated q_td exchange overlaps both tracers' flux kernels.
  if (fuse_low_order) {
    // Fused + packed: one sweep shares the fe/fn/w loads between both
    // tracers' donor-cell updates (bit-identical to the two passes below).
    adv::FusedLowOrderPair lo{geo,           cref(qa),       cref(qb),
                              cref(ws.flux_e), cref(ws.flux_n), cref(ws.w_top),
                              mref(ws.q_td), mref(scratch.q_td), dt};
    kxx::parallel_for_packed("adv_low_order_pair", cells3(g, 1), lo);
    // Elided: the second predictor's re-reads of the three flux fields.
    kxx::note_fusion_views_elided(3LL * g.nz() * (g.ny_total() - 2) * (g.nx_total() - 2) *
                                  static_cast<long long>(sizeof(double)));
  } else {
    adv::LowOrder lo_a{geo, cref(qa), cref(ws.flux_e), cref(ws.flux_n), cref(ws.w_top),
                       mref(ws.q_td), dt};
    kxx::parallel_for("adv_low_order", cells3(g, 1), lo_a);
    adv::LowOrder lo_b{geo, cref(qb), cref(ws.flux_e), cref(ws.flux_n), cref(ws.w_top),
                       mref(scratch.q_td), dt};
    kxx::parallel_for("adv_low_order", cells3(g, 1), lo_b);
  }
  ws.q_td.mark_dirty();
  scratch.q_td.mark_dirty();

  // One grouped exchange for both provisional fields — the busiest per-field
  // traffic of the step collapses to one message per peer per phase.
  q_td_group.begin();

  adv::AntiDiffEast ade_a{geo, cref(qa), cref(ws.flux_e), mref(ws.a_e)};
  kxx::parallel_for("adv_anti_east", kxx::MDRangePolicy3({0, 1, 0}, {g.nz(), nyt, nxt - 1}),
                    ade_a);
  adv::AntiDiffNorth adn_a{geo, cref(qa), cref(ws.flux_n), mref(ws.a_n)};
  kxx::parallel_for("adv_anti_north", kxx::MDRangePolicy3({0, 0, 1}, {g.nz(), nyt - 1, nxt}),
                    adn_a);
  adv::AntiDiffTop adt_a{geo, cref(qa), cref(ws.w_top), mref(ws.a_t)};
  kxx::parallel_for("adv_anti_top", cells3(g, 1), adt_a);

  adv::AntiDiffEast ade_b{geo, cref(qb), cref(ws.flux_e), mref(scratch.a_e)};
  kxx::parallel_for("adv_anti_east", kxx::MDRangePolicy3({0, 1, 0}, {g.nz(), nyt, nxt - 1}),
                    ade_b);
  adv::AntiDiffNorth adn_b{geo, cref(qb), cref(ws.flux_n), mref(scratch.a_n)};
  kxx::parallel_for("adv_anti_north", kxx::MDRangePolicy3({0, 0, 1}, {g.nz(), nyt - 1, nxt}),
                    adn_b);
  adv::AntiDiffTop adt_b{geo, cref(qb), cref(ws.w_top), mref(scratch.a_t)};
  kxx::parallel_for("adv_anti_top", cells3(g, 1), adt_b);

  q_td_group.finish();

  adv::RFactors rf_a{geo,          cref(qa),        cref(ws.q_td), cref(ws.a_e), cref(ws.a_n),
                     cref(ws.a_t), mref(ws.r_plus), mref(ws.r_minus), dt};
  kxx::parallel_for("adv_r_factors", cells3(g, 1), rf_a);
  adv::RFactors rf_b{geo, cref(qb), cref(scratch.q_td), cref(scratch.a_e), cref(scratch.a_n),
                     cref(scratch.a_t), mref(scratch.r_plus), mref(scratch.r_minus), dt};
  kxx::parallel_for("adv_r_factors", cells3(g, 1), rf_b);

  adv::Correct cr_a{geo,          cref(qa),         cref(ws.q_td),   cref(ws.a_e), cref(ws.a_n),
                    cref(ws.a_t), cref(ws.r_plus),  cref(ws.r_minus), mref(qa_out), dt};
  kxx::parallel_for("adv_correct",
                    kxx::MDRangePolicy3({0, h, h}, {g.nz(), nyt - h, nxt - h}), cr_a);
  qa_out.mark_dirty();
  adv::Correct cr_b{geo, cref(qb), cref(scratch.q_td), cref(scratch.a_e), cref(scratch.a_n),
                    cref(scratch.a_t), cref(scratch.r_plus), cref(scratch.r_minus),
                    mref(qb_out), dt};
  kxx::parallel_for("adv_correct",
                    kxx::MDRangePolicy3({0, h, h}, {g.nz(), nyt - h, nxt - h}), cr_b);
  qb_out.mark_dirty();
}

}  // namespace licomk::core
