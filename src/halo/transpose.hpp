// transpose.hpp — halo-strip transposes between horizontal-major and
// vertical-major ordering (paper Fig. 5).
//
// A halo strip is logically (nk, nj, ni): nk vertical levels of an nj × ni
// horizontal patch. The model stores fields horizontal-major (k slowest);
// 3-D halo messages are assembled vertical-major (k fastest) so the growing
// vertical dimension stays contiguous — the optimization that removes the
// 3-D halo update bottleneck. These helpers expose the two transposes as
// standalone operators for the Fig. 5 ablation bench.
#pragma once

#include "halo/box_copy.hpp"

namespace licomk::halo {

/// Horizontal-major (k, j, i) → vertical-major (j, i, k). Fig. 5a: applied to
/// the real halo before the 3-D exchange.
inline void transpose_h2v(const double* src, double* dst, long long nk, long long nj,
                          long long ni) {
  detail::BoxCopy op;
  op.src = src;
  op.dst = dst;
  op.n0 = nk;
  op.n1 = nj;
  op.n2 = ni;
  op.ss0 = nj * ni;  // iterate (k, j, i) over the h-major source
  op.ss1 = ni;
  op.ss2 = 1;
  op.ds0 = 1;        // scatter k-fastest into the v-major destination
  op.ds1 = ni * nk;
  op.ds2 = nk;
  detail::box_copy(op);
}

/// Vertical-major (j, i, k) → horizontal-major (k, j, i). Fig. 5b: applied to
/// the ghost halo after the 3-D exchange.
inline void transpose_v2h(const double* src, double* dst, long long nk, long long nj,
                          long long ni) {
  detail::BoxCopy op;
  op.src = src;
  op.dst = dst;
  op.n0 = nk;
  op.n1 = nj;
  op.n2 = ni;
  op.ss0 = 1;
  op.ss1 = ni * nk;
  op.ss2 = nk;
  op.ds0 = nj * ni;
  op.ds1 = ni;
  op.ds2 = 1;
  detail::box_copy(op);
}

}  // namespace licomk::halo
