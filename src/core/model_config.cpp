#include "core/model_config.hpp"

#include <cstdlib>
#include <sstream>

#include "util/error.hpp"

namespace licomk::core {

ModelConfig ModelConfig::coarse100km() {
  ModelConfig c;
  c.grid = grid::spec_coarse100km();
  return c;
}

ModelConfig ModelConfig::eddy10km() {
  ModelConfig c;
  c.grid = grid::spec_eddy10km();
  return c;
}

ModelConfig ModelConfig::km2_fulldepth() {
  ModelConfig c;
  c.grid = grid::spec_km2_fulldepth();
  return c;
}

ModelConfig ModelConfig::km1() {
  ModelConfig c;
  c.grid = grid::spec_km1();
  return c;
}

namespace {
/// CI ablation override: "0"/"off"/"false" forces the flag off, "1"/"on"/
/// "true" forces it on, unset/other leaves the default. Lets the halo test
/// matrix (ci/halo_matrix.sh) run every model-based suite under each
/// batching × persistence combination without per-test plumbing.
bool env_flag_or(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  std::string s(v);
  if (s == "0" || s == "off" || s == "false") return false;
  if (s == "1" || s == "on" || s == "true") return true;
  return fallback;
}
}  // namespace

ModelConfig ModelConfig::testing(int factor) {
  ModelConfig c;
  c.grid = grid::shrink(grid::spec_coarse100km(), factor);
  c.grid.nz = 12;
  c.batch_halo_exchange = env_flag_or("LICOMK_BATCH_HALO", c.batch_halo_exchange);
  c.fuse_kernels = env_flag_or("LICOMK_FUSE", c.fuse_kernels);
  c.weighted_decomposition =
      env_flag_or("LICOMK_WEIGHTED_DECOMP", c.weighted_decomposition);
  return c;
}

ModelConfig ModelConfig::from_config(const util::Config& cfg) {
  ModelConfig c;
  std::string base = cfg.get_string_or("model.grid", "coarse100km");
  if (base == "coarse100km") {
    c.grid = grid::spec_coarse100km();
  } else if (base == "eddy10km") {
    c.grid = grid::spec_eddy10km();
  } else if (base == "km2") {
    c.grid = grid::spec_km2_fulldepth();
  } else if (base == "km1") {
    c.grid = grid::spec_km1();
  } else {
    throw ConfigError("unknown model.grid: " + base);
  }
  int factor = static_cast<int>(cfg.get_int_or("model.shrink", 1));
  if (factor > 1) c.grid = grid::shrink(c.grid, factor);
  if (cfg.has("model.nz")) c.grid.nz = static_cast<int>(cfg.get_int("model.nz"));

  std::string vmix = cfg.get_string_or("model.vmix", "canuto");
  if (vmix == "canuto") {
    c.vmix = VMixScheme::Canuto;
  } else if (vmix == "richardson") {
    c.vmix = VMixScheme::Richardson;
  } else {
    throw ConfigError("unknown model.vmix: " + vmix);
  }
  std::string hmix = cfg.get_string_or("model.hmix", "laplacian");
  if (hmix == "laplacian") {
    c.hmix = HMixScheme::Laplacian;
  } else if (hmix == "biharmonic") {
    c.hmix = HMixScheme::Biharmonic;
  } else {
    throw ConfigError("unknown model.hmix: " + hmix);
  }
  c.biharmonic_coeff = cfg.get_double_or("model.biharmonic_coeff", 0.0);
  c.solar_penetration = cfg.get_bool_or("model.solar_penetration", true);
  c.gm_kappa = cfg.get_double_or("model.gm_kappa", 0.0);
  c.canuto_load_balance = cfg.get_bool_or("model.canuto_load_balance", true);
  c.linear_eos = cfg.get_bool_or("model.linear_eos", false);
  c.horizontal_viscosity = cfg.get_double_or("model.horizontal_viscosity", 0.0);
  c.horizontal_diffusivity = cfg.get_double_or("model.horizontal_diffusivity", 0.0);
  c.asselin_coeff = cfg.get_double_or("model.asselin_coeff", 0.1);
  c.restore_timescale_days = cfg.get_double_or("model.restore_days", 30.0);
  c.bathymetry_seed = static_cast<unsigned>(cfg.get_int_or("model.seed", 42));
  std::string halo = cfg.get_string_or("model.halo3d", "transpose");
  if (halo == "transpose") {
    c.halo_strategy = HaloStrategy::TransposeVerticalMajor;
  } else if (halo == "horizontal") {
    c.halo_strategy = HaloStrategy::HorizontalMajor;
  } else {
    throw ConfigError("unknown model.halo3d: " + halo);
  }
  c.eliminate_redundant_halo = cfg.get_bool_or("model.eliminate_redundant_halo", true);
  c.batch_halo_exchange = cfg.get_bool_or("model.batch_halo_exchange", true);
  c.verify_halo_crc = cfg.get_bool_or("model.verify_halo_crc", false);
  c.fuse_kernels = cfg.get_bool_or("model.fuse_kernels", true);
  c.weighted_decomposition = cfg.get_bool_or("model.weighted_decomposition", false);
  c.fp32_barotropic = cfg.get_bool_or("model.fp32_barotropic", false);
  c.wind_stress_scale = cfg.get_double_or("model.wind_stress_scale", 1.0);
  c.sst_target_offset_c = cfg.get_double_or("model.sst_target_offset_c", 0.0);
  c.initial_t_perturb_c = cfg.get_double_or("model.initial_t_perturb_c", 0.0);
  c.halo_tag_base = static_cast<int>(cfg.get_int_or("model.halo_tag_base", 0));
  c.telemetry_namespace = cfg.get_string_or("model.telemetry_namespace", "");
  return c;
}

std::string ModelConfig::describe() const {
  std::ostringstream os;
  os << grid.name << " " << grid.nx << "x" << grid.ny << "x" << grid.nz << " dt="
     << grid.dt_barotropic << "/" << grid.dt_baroclinic << "/" << grid.dt_tracer << "s vmix="
     << (vmix == VMixScheme::Canuto ? "canuto" : "richardson")
     << (canuto_load_balance ? "+lb" : "") << " halo3d="
     << (halo_strategy == HaloStrategy::TransposeVerticalMajor ? "transpose" : "horizontal")
     << (verify_halo_crc ? " halo-crc" : "") << (batch_halo_exchange ? "" : " no-halo-batch")
     << (fuse_kernels ? "" : " no-fusion")
     << (weighted_decomposition ? " weighted-decomp" : "")
     << (fp32_barotropic ? " fp32-barotr" : "");
  if (wind_stress_scale != 1.0) os << " wind-scale=" << wind_stress_scale;
  if (sst_target_offset_c != 0.0) os << " sst-offset=" << sst_target_offset_c;
  if (initial_t_perturb_c != 0.0) os << " t0-perturb=" << initial_t_perturb_c;
  if (halo_tag_base != 0) os << " tag-base=" << halo_tag_base;
  return os.str();
}

}  // namespace licomk::core
