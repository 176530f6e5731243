// Field fixtures shared by the halo group suites (test_exchange_group,
// test_persistent_group): a distinct value per (field, k, j, i), bitwise
// comparisons against the per-field oracle, and the mixed five-field set
// every group test enrolls.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "decomp/decomposition.hpp"
#include "halo/exchange_group.hpp"
#include "halo/halo_exchange.hpp"

namespace lh = licomk::halo;
namespace ld = licomk::decomp;

namespace halo_test {

constexpr int kH = ld::kHaloWidth;

/// Distinct value per (field, k, j, i) so cross-field unpack mixups cannot
/// cancel out.
inline double cell_value(int fld, int k, int j, int i) {
  return 100000.0 * fld + 1000.0 * k + 10.0 * j + 0.001 * i + 1.0;
}

inline void fill_2d(lh::BlockField2D& f, int fld) {
  const auto& e = f.extent();
  for (int j = 0; j < f.ny(); ++j)
    for (int i = 0; i < f.nx(); ++i)
      f.at(j + kH, i + kH) = cell_value(fld, 0, e.j0 + j, e.i0 + i);
  f.mark_dirty();
}

inline void fill_3d(lh::BlockField3D& f, int fld) {
  const auto& e = f.extent();
  for (int k = 0; k < f.nz(); ++k)
    for (int j = 0; j < f.ny(); ++j)
      for (int i = 0; i < f.nx(); ++i)
        f.at(k, j + kH, i + kH) = cell_value(fld, k, e.j0 + j, e.i0 + i);
  f.mark_dirty();
}

inline void expect_identical_2d(const lh::BlockField2D& got, const lh::BlockField2D& want) {
  for (int lj = 0; lj < got.ny_total(); ++lj)
    for (int li = 0; li < got.nx_total(); ++li)
      ASSERT_DOUBLE_EQ(got.at(lj, li), want.at(lj, li)) << "lj=" << lj << " li=" << li;
}

inline void expect_identical_3d(const lh::BlockField3D& got, const lh::BlockField3D& want) {
  for (int k = 0; k < got.nz(); ++k)
    for (int lj = 0; lj < got.ny_total(); ++lj)
      for (int li = 0; li < got.nx_total(); ++li)
        ASSERT_DOUBLE_EQ(got.at(k, lj, li), want.at(k, lj, li))
            << "k=" << k << " lj=" << lj << " li=" << li;
}

/// East/west ghost columns on owned rows — what a zonal-only refresh updates.
inline void expect_zonal_ghosts_identical(const lh::BlockField3D& got,
                                          const lh::BlockField3D& want) {
  for (int k = 0; k < got.nz(); ++k)
    for (int lj = kH; lj < kH + got.ny(); ++lj)
      for (int li = 0; li < got.nx_total(); ++li)
        if (li < kH || li >= kH + got.nx()) {
          ASSERT_DOUBLE_EQ(got.at(k, lj, li), want.at(k, lj, li))
              << "k=" << k << " lj=" << lj << " li=" << li;
        }
}

/// The mixed batch the group suites enroll: both ranks (2-D/3-D), both
/// fold signs, both 3-D methods, heterogeneous nz.
struct FieldSet {
  lh::BlockField2D eta, vbar;
  lh::BlockField3D t, u, s;

  FieldSet(const ld::BlockExtent& e, const std::string& tag)
      : eta("eta_" + tag, e),
        vbar("vbar_" + tag, e),
        t("t_" + tag, e, 4),
        u("u_" + tag, e, 3),
        s("s_" + tag, e, 2) {
    refill();
  }

  void refill(int salt = 0) {
    fill_2d(eta, 1 + salt);
    fill_2d(vbar, 2 + salt);
    fill_3d(t, 3 + salt);
    fill_3d(u, 4 + salt);
    fill_3d(s, 5 + salt);
  }

  void enroll(lh::ExchangeGroup& g) {
    g.add(eta, lh::FoldSign::Symmetric);
    g.add(vbar, lh::FoldSign::Antisymmetric);
    g.add(t, lh::FoldSign::Symmetric, lh::Halo3DMethod::TransposeVerticalMajor);
    g.add(u, lh::FoldSign::Antisymmetric, lh::Halo3DMethod::HorizontalMajor);
    g.add(s, lh::FoldSign::Symmetric, lh::Halo3DMethod::HorizontalMajor);
  }

  /// The reference: the same exchanges, one field at a time.
  void update_per_field(lh::HaloExchanger& ex) {
    ex.update(eta, lh::FoldSign::Symmetric);
    ex.update(vbar, lh::FoldSign::Antisymmetric);
    ex.update(t, lh::FoldSign::Symmetric, lh::Halo3DMethod::TransposeVerticalMajor);
    ex.update(u, lh::FoldSign::Antisymmetric, lh::Halo3DMethod::HorizontalMajor);
    ex.update(s, lh::FoldSign::Symmetric, lh::Halo3DMethod::HorizontalMajor);
  }

  void expect_identical_to(const FieldSet& ref) {
    expect_identical_2d(eta, ref.eta);
    expect_identical_2d(vbar, ref.vbar);
    expect_identical_3d(t, ref.t);
    expect_identical_3d(u, ref.u);
    expect_identical_3d(s, ref.s);
  }
};

constexpr int kFieldsPerSet = 5;

}  // namespace halo_test
