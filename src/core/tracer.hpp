// tracer.hpp — the tracer sub-step (temperature and salinity).
//
// Per baroclinic step: face volume fluxes from the updated velocity, the
// two-step shape-preserving advection (advection.hpp), explicit flux-form
// horizontal diffusion, implicit vertical diffusion with the Canuto (or
// Richardson) diffusivity, and surface restoring toward the analytic
// climatology. Tracers march forward in time (the FCT monotonicity guarantee
// is a single-step property), while the dynamics leapfrogs — a standard
// split also used by LICOM's predecessors.
#pragma once

#include "core/advection.hpp"
#include "core/model_config.hpp"
#include "core/state.hpp"
#include "halo/exchange_group.hpp"

namespace licomk::core {

/// Advance t_new/s_new from t_cur/s_cur over cfg.grid.dt_tracer. Performs the
/// in-advection halo updates — temperature and salinity advect together
/// through advect_tracer_pair, so their provisional-field exchanges travel
/// through `q_td_group` (enrolling ws.q_td and scratch.q_td) as one fused
/// message per peer; the new fields' halos are NOT updated (the model
/// driver exchanges after rotation).
void tracer_step(const LocalGrid& g, const ModelConfig& cfg, OceanState& state,
                 AdvectionWorkspace& ws, TracerAdvScratch& scratch,
                 halo::ExchangeGroup& q_td_group, double day_of_year);

}  // namespace licomk::core
