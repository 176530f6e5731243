// dynamics.hpp — the dynamical-core kernels of LICOMK++.
//
// The per-step structure mirrors LICOM (readyt → readyc → barotr → bclinc;
// §V-A): density and hydrostatic pressure, explicit momentum tendencies,
// the split-explicit barotropic sub-cycle (leapfrog + Robert–Asselin), and
// the baroclinic velocity update with semi-implicit Coriolis and implicit
// vertical viscosity, re-anchored to the barotropic depth mean.
#pragma once

#include "core/model_config.hpp"
#include "core/polar_filter.hpp"
#include "core/state.hpp"
#include "halo/halo_exchange.hpp"

namespace licomk::core {

/// readyt 1: density anomaly from the EOS (masked land untouched).
void compute_density(const LocalGrid& g, bool linear_eos, const halo::BlockField3D& t,
                     const halo::BlockField3D& s, halo::BlockField3D& rho);

/// readyt 2: hydrostatic pressure / rho0 (m^2/s^2) including the free-surface
/// contribution g*eta.
void compute_pressure(const LocalGrid& g, const halo::BlockField3D& rho,
                      const halo::BlockField2D& eta, halo::BlockField3D& pressure);

/// readyc: explicit momentum tendencies at U corners — baroclinic pressure
/// gradient, centered horizontal advection, Laplacian viscosity, wind stress
/// in the top layer, linear bottom drag in the deepest active layer.
/// Coriolis is NOT included (handled semi-implicitly in the updates).
void compute_momentum_tendencies(const LocalGrid& g, const ModelConfig& cfg,
                                 const OceanState& state, double day_of_year,
                                 halo::BlockField3D& fu, halo::BlockField3D& fv);

/// Vertical mean of a U-corner field weighted by layer thickness (2-D out).
void vertical_mean(const LocalGrid& g, const halo::BlockField3D& x3, halo::BlockField2D& out);

/// Fused readyt: density and the hydrostatic pressure integral in ONE column
/// sweep — ρ(k) stays in registers while the integral accumulates, eliding
/// the pressure kernel's full re-read of the rho View. Packed (SIMD) over i
/// when the pack width allows. Bit-identical to compute_density +
/// compute_pressure (DESIGN.md §12).
void compute_density_pressure_fused(const LocalGrid& g, bool linear_eos,
                                    const halo::BlockField3D& t, const halo::BlockField3D& s,
                                    halo::BlockField3D& rho, const halo::BlockField2D& eta,
                                    halo::BlockField3D& pressure);

/// Fused readyc: momentum tendencies and BOTH dz-weighted vertical means in
/// one column sweep — gu/gv accumulate into the means from registers, eliding
/// the two vertical_mean re-reads of fu/fv. Packed over i. Bit-identical to
/// compute_momentum_tendencies + 2× vertical_mean.
void compute_tendency_means_fused(const LocalGrid& g, const ModelConfig& cfg,
                                  const OceanState& state, double day_of_year,
                                  halo::BlockField3D& fu, halo::BlockField3D& fv,
                                  halo::BlockField2D& gu_bar, halo::BlockField2D& gv_bar);

/// barotr: run the barotropic sub-cycle for one baroclinic step. Uses the
/// depth-mean of (fu, fv) as steady forcing, leapfrogs (eta, ubar, vbar) with
/// Asselin filtering, per-substep 2-D halo updates, and the polar zonal
/// filter (external gravity waves at the fold rows exceed the explicit CFL
/// limit without it), and returns the sub-cycle-averaged barotropic velocity
/// in (ubar_avg, vbar_avg).
///
/// `subcycle_group` must enroll exactly (eta_cur, ubar_cur, vbar_cur) with
/// FoldSigns (Symmetric, Antisymmetric, Antisymmetric); every substep
/// exchange runs through its cached plan. When the filter is active the main
/// per-substep exchange is zonal-only (the filter's closing full exchange
/// rebuilds every ghost before anything reads meridional/fold halos).
void run_barotropic(const LocalGrid& g, const ModelConfig& cfg, OceanState& state,
                    const PolarFilter& filter, const halo::BlockField2D& gu_bar,
                    const halo::BlockField2D& gv_bar, halo::BlockField2D& ubar_avg,
                    halo::BlockField2D& vbar_avg, halo::ExchangeGroup& subcycle_group);

/// bclinc: leapfrog the baroclinic velocity with semi-implicit Coriolis,
/// implicit vertical viscosity, barotropic re-anchoring to (ubar_avg,
/// vbar_avg), and the Asselin filter on the central level. Writes u_new/v_new
/// and filters u_cur/v_cur in place. Halos of the new fields are NOT updated.
void baroclinic_update(const LocalGrid& g, const ModelConfig& cfg, OceanState& state,
                       const halo::BlockField2D& ubar_avg, const halo::BlockField2D& vbar_avg);

/// Columns never exceed this (Table III tops out at 244 levels); column
/// functors use fixed-size scratch so they stay trivially copyable and fit
/// the CPE LDM model.
inline constexpr int kMaxLevels = 256;

/// Thomas factorisation of one column's implicit vertical mixing matrix
/// (I - dt * d/dz kappa d/dz), zero-flux boundaries. The matrix depends only
/// on kappa and the grid, so columns whose tracers (T and S) or velocity
/// components (u and v) share a diffusivity factor it once and apply it to
/// every right-hand side.
struct VerticalFactors {
  int nlev = 0;
  double m[kMaxLevels];  ///< forward-sweep multipliers (m[0] unused)
  double b[kMaxLevels];  ///< eliminated diagonal
  double c[kMaxLevels];  ///< super-diagonal

  /// `kappa_face[k]` sits below cell k; `dz[k]` are thicknesses; `zc[k]`
  /// cell centers.
  void factor(int n, double dt, const double* kappa_face, const double* dz, const double* zc);
  /// Solve in place: x is the right-hand side on input, the solution on
  /// output. The two-argument form sweeps both columns in one pass; each
  /// result is bit-identical to its own single solve.
  void solve(double* x) const;
  void solve(double* x, double* y) const;
};

/// Factor and solve for a single right-hand side. Exposed for unit tests.
void implicit_vertical_solve(int nlev, double dt, const double* kappa_face, const double* dz,
                             const double* zc, double* x);

}  // namespace licomk::core
