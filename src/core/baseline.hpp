// baseline.hpp — a deliberately legacy-style reference implementation.
//
// The paper benchmarks LICOMK++ against the original Fortran LICOM3 (Fig. 7)
// and against the unoptimized port ("original version", Fig. 8). This module
// provides the same role for this reproduction: the two-step shape-preserving
// advection written the way the legacy code is — one monolithic routine of
// plain nested loops, no portability layer, no kernel structure, temporaries
// allocated on the fly. It is the reference implementation of the kxx pair
// pipeline (advect_tracer_pair), which must reproduce it bit for bit on each
// tracer at every pack width (asserted in test_advection), so any timing
// difference in bench_fig7_portability is pure programming-model
// overhead/benefit.
#pragma once

#include "core/advection.hpp"

namespace licomk::core {

/// Advect one tracer `q` (valid halo) through the fluxes in `ws` over `dt`
/// seconds, writing `q_out` on the interior (its halo is NOT updated), with
/// the mid-routine q_td halo update through `exchanger` — the contract of
/// one tracer of advect_tracer_pair, implemented as monolithic loops.
void baseline_advect_tracer(const LocalGrid& g, double dt, const halo::BlockField3D& q,
                            AdvectionWorkspace& ws, halo::HaloExchanger& exchanger,
                            halo::BlockField3D& q_out);

/// Same contract as compute_volume_fluxes (without GM), monolithic loops.
void baseline_volume_fluxes(const LocalGrid& g, const halo::BlockField3D& u,
                            const halo::BlockField3D& v, AdvectionWorkspace& ws);

}  // namespace licomk::core
