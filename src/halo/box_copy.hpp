// box_copy.hpp — the strided 3-D box-copy kernel underlying every halo
// pack, unpack, and Fig. 5 transpose.
//
// dst[a,b,c] = scale * src[a,b,c] over iteration extents (n0, n1, n2) with
// independent signed strides on both sides. It is registered once for the
// Athread backend (in halo_exchange.cpp), so the whole halo engine needs a
// single KXX_REGISTER_FOR_3D.
#pragma once

#include "kxx/kxx.hpp"

namespace licomk::halo::detail {

struct BoxCopy {
  const double* src = nullptr;
  double* dst = nullptr;
  long long n0 = 1, n1 = 1, n2 = 1;
  long long ss0 = 0, ss1 = 0, ss2 = 0;
  long long ds0 = 0, ds1 = 0, ds2 = 0;
  double scale = 1.0;

  void operator()(long long a, long long b, long long c) const {
    dst[a * ds0 + b * ds1 + c * ds2] = scale * src[a * ss0 + b * ss1 + c * ss2];
  }
};

/// Dispatch a BoxCopy over its full (n0, n1, n2) iteration space. Tiles are
/// whole c-rows of up to 64 elements, 4 rows deep, one a-plane at a time.
inline void box_copy(const BoxCopy& op) {
  kxx::parallel_for("halo_box_copy",
                    kxx::MDRangePolicy3({0, 0, 0}, {op.n0, op.n1, op.n2}, {1, 4, 64}), op);
}

}  // namespace licomk::halo::detail
