#include "core/polar_filter.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace licomk::core {

namespace {
constexpr int kMaxPasses = 12;
constexpr int kH = decomp::kHaloWidth;
}  // namespace

namespace {
/// Passes for a global row: ratio of the threshold-row spacing to this row's
/// minimum spacing, scaled by `strength`. Pure function of the global grid,
/// so every rank derives the same global pass schedule — the apply() loop
/// count must be uniform or the pairwise halo updates inside it mismatch.
int passes_for_global_row(const grid::HorizontalGrid& h, int gj, double threshold_lat,
                          double strength) {
  double lat = h.lat_t(gj, 0);
  if (std::fabs(lat) <= threshold_lat) return 0;
  double dx_row = 1e30;
  for (int i = 0; i < h.nx(); ++i) dx_row = std::min(dx_row, h.dx_u(gj, i));
  double dx_thr = grid::kEarthRadius * std::cos(threshold_lat * grid::kPi / 180.0) *
                  (2.0 * grid::kPi / h.nx());
  double ratio = dx_thr / std::max(dx_row, 1.0);
  if (ratio <= 1.0) return 0;
  return std::min(kMaxPasses, static_cast<int>(std::ceil(strength * ratio)));
}
}  // namespace

PolarFilter::PolarFilter(const LocalGrid& grid, double threshold_lat, double strength)
    : grid_(grid) {
  LICOMK_REQUIRE(threshold_lat > 0.0 && threshold_lat < 90.0, "bad filter threshold");
  passes_.assign(static_cast<size_t>(grid_.ny_total()), 0);
  const auto& h = grid_.global().h();
  // Loop bound: the GLOBAL maximum, identical on every rank.
  for (int gj = 0; gj < h.ny(); ++gj) {
    max_passes_ = std::max(max_passes_, passes_for_global_row(h, gj, threshold_lat, strength));
  }
  // Per-local-row schedule for the rows this rank owns.
  const auto& e = grid_.extent();
  for (int lj = kH; lj < kH + grid_.ny(); ++lj) {
    int gj = e.j0 + (lj - kH);
    passes_[static_cast<size_t>(lj)] = passes_for_global_row(h, gj, threshold_lat, strength);
    local_max_passes_ = std::max(local_max_passes_, passes_[static_cast<size_t>(lj)]);
  }
}

void PolarFilter::smooth_rows_2d(halo::BlockField2D& f, int pass, bool conservative) const {
  const int nx = grid_.nx();
  for (int j = kH; j < kH + grid_.ny(); ++j) {
    if (passes_[static_cast<size_t>(j)] <= pass) continue;
    // Compute fluxes from the pre-pass values, then apply: classic 1-2-1.
    static thread_local std::vector<double> flux;
    flux.assign(static_cast<size_t>(nx) + 1, 0.0);
    for (int i = kH - 1; i < kH + nx; ++i) {
      // Flux through the east face of cell i (land faces closed).
      if (grid_.kmt(j, i) == 0 || grid_.kmt(j, i + 1) == 0) continue;
      double conduct = conservative
                           ? 0.125 * (grid_.area_t(j, i) + grid_.area_t(j, i + 1))
                           : 0.25;
      flux[static_cast<size_t>(i - (kH - 1))] = conduct * (f.at(j, i + 1) - f.at(j, i));
    }
    for (int i = kH; i < kH + nx; ++i) {
      if (grid_.kmt(j, i) == 0) continue;
      double div = flux[static_cast<size_t>(i - kH + 1)] - flux[static_cast<size_t>(i - kH)];
      f.at(j, i) += conservative ? div / grid_.area_t(j, i) : div;
    }
  }
}

void PolarFilter::smooth_rows_3d(halo::BlockField3D& f, int pass, bool conservative) const {
  const int nx = grid_.nx();
  for (int j = kH; j < kH + grid_.ny(); ++j) {
    if (passes_[static_cast<size_t>(j)] <= pass) continue;
    for (int k = 0; k < f.nz(); ++k) {
      static thread_local std::vector<double> flux;
      flux.assign(static_cast<size_t>(nx) + 1, 0.0);
      for (int i = kH - 1; i < kH + nx; ++i) {
        if (k >= grid_.kmt(j, i) || k >= grid_.kmt(j, i + 1)) continue;
        double conduct = conservative
                             ? 0.125 * (grid_.area_t(j, i) + grid_.area_t(j, i + 1))
                             : 0.25;
        flux[static_cast<size_t>(i - (kH - 1))] = conduct * (f.at(k, j, i + 1) - f.at(k, j, i));
      }
      for (int i = kH; i < kH + nx; ++i) {
        if (k >= grid_.kmt(j, i)) continue;
        double div = flux[static_cast<size_t>(i - kH + 1)] - flux[static_cast<size_t>(i - kH)];
        f.at(k, j, i) += conservative ? div / grid_.area_t(j, i) : div;
      }
    }
  }
}

void PolarFilter::apply(halo::BlockField2D& f, halo::HaloExchanger& exchanger,
                        halo::FoldSign sign, bool conservative) const {
  if (max_passes_ == 0) return;
  for (int pass = 0; pass < max_passes_; ++pass) {
    smooth_rows_2d(f, pass, conservative);
    f.mark_dirty();
    exchanger.update(f, sign);
  }
}

void PolarFilter::apply(halo::BlockField3D& f, halo::HaloExchanger& exchanger,
                        halo::FoldSign sign, bool conservative) const {
  if (max_passes_ == 0) return;
  for (int pass = 0; pass < max_passes_; ++pass) {
    smooth_rows_3d(f, pass, conservative);
    f.mark_dirty();
    exchanger.update(f, sign);
  }
}

void PolarFilter::apply(const std::vector<FilteredField>& fields,
                        halo::ExchangeGroup& group) const {
  if (max_passes_ == 0 || fields.empty()) return;
  for (int pass = 0; pass < max_passes_; ++pass) {
    for (const FilteredField& f : fields) {
      if (f.f2 != nullptr) {
        smooth_rows_2d(*f.f2, pass, f.conservative);
        f.f2->mark_dirty();
      } else {
        smooth_rows_3d(*f.f3, pass, f.conservative);
        f.f3->mark_dirty();
      }
    }
    if (pass + 1 < max_passes_) {
      // A zonal refresh at pass p only matters if somebody on this row band
      // smooths at pass p+1. `passes_for_global_row` is a pure function of
      // the global row, and east/west partners own the same rows, so the
      // skip decision is symmetric across every pairwise zonal exchange.
      if (local_max_passes_ > pass + 1) group.exchange_zonal();
    } else {
      group.exchange();
    }
  }
}

}  // namespace licomk::core
