// Tensor-product kernels for nodal spectral elements: apply a 1D operator
// along one axis of an np^dim nodal array, apply the 2:1 half-interval
// operators along every axis of a face or volume block (the mortar), and
// index helpers for faces of the tensor grid. Axis 0 is the fastest-running
// index. The kernels are templated on the scalar type, so the double and
// float solvers run the same loops.
#pragma once

#include <algorithm>
#include <array>
#include <vector>

namespace esamr::sfem {

constexpr int ipow(int b, int e) {
  int r = 1;
  for (int i = 0; i < e; ++i) r *= b;
  return r;
}

/// out = (A along `axis`) applied to u; u and out are np^dim arrays and must
/// not alias. A is np x np, row-major (row = output node).
template <typename Real>
void apply_axis(int dim, int np, int axis, const Real* a, const Real* u, Real* out) {
  const int stride = ipow(np, axis);
  const int total = ipow(np, dim);
  for (int base = 0; base < total; ++base) {
    if ((base / stride) % np != 0) continue;
    for (int k = 0; k < np; ++k) {
      Real acc = 0;
      const Real* arow = a + k * np;
      for (int j = 0; j < np; ++j) acc += arow[j] * u[base + j * stride];
      out[base + k * stride] = acc;
    }
  }
}

/// The mortar operator: apply ops[(bits >> k) & 1] along every axis k of an
/// np^dim block in place, axis 0 first. `ops` is a pair of half-interval
/// operators (Basis1d::interp_half, interp_half_t or project_half); a face
/// block has dim = Dim - 1 and `bits` selects its subface. `tmp` is np^dim
/// scratch.
template <typename Real>
void apply_half(int dim, int np, const std::vector<Real>* ops, int bits, Real* data, Real* tmp) {
  const int total = ipow(np, dim);
  for (int k = 0; k < dim; ++k) {
    apply_axis(dim, np, k, ops[(bits >> k) & 1].data(), data, tmp);
    std::copy_n(tmp, total, data);
  }
}

/// Volume index of the node with per-axis indices idx[0..dim).
inline int node_index(int dim, int np, const std::array<int, 3>& idx) {
  int r = idx[0];
  if (dim > 1) r += np * idx[1];
  if (dim > 2) r += np * np * idx[2];
  return r;
}

/// The tangential axes of face f (normal axis f/2), ascending.
inline std::array<int, 2> face_tangents(int dim, int f) {
  std::array<int, 2> t{-1, -1};
  int k = 0;
  for (int a = 0; a < dim; ++a) {
    if (a != f / 2) t[static_cast<std::size_t>(k++)] = a;
  }
  return t;
}

}  // namespace esamr::sfem
