// Geometric maps from tree reference coordinates to physical space. The
// forest itself is purely topological; these diffeomorphisms are used only
// by the discretization layer and for visualization (paper §II-D).
#pragma once

#include <array>
#include <functional>

#include "forest/connectivity.h"

namespace esamr::sfem {

template <int Dim>
using GeomFn = std::function<std::array<double, 3>(int tree, std::array<double, Dim> ref)>;

/// Determinant and inverse of a Dim x Dim Jacobian stored as
/// jm[d * Dim + a] = dx_d / dref_a; writes inv[a * Dim + d] = dref_a / dx_d
/// and returns det.
template <int Dim>
double invert_jacobian(const double* jm, double* inv) {
  if constexpr (Dim == 2) {
    const double det = jm[0] * jm[3] - jm[1] * jm[2];
    inv[0] = jm[3] / det;
    inv[1] = -jm[1] / det;
    inv[2] = -jm[2] / det;
    inv[3] = jm[0] / det;
    return det;
  } else {
    const double a00 = jm[0], a01 = jm[1], a02 = jm[2];
    const double a10 = jm[3], a11 = jm[4], a12 = jm[5];
    const double a20 = jm[6], a21 = jm[7], a22 = jm[8];
    const double det = a00 * (a11 * a22 - a12 * a21) - a01 * (a10 * a22 - a12 * a20) +
                       a02 * (a10 * a21 - a11 * a20);
    inv[0] = (a11 * a22 - a12 * a21) / det;
    inv[1] = (a02 * a21 - a01 * a22) / det;
    inv[2] = (a01 * a12 - a02 * a11) / det;
    inv[3] = (a12 * a20 - a10 * a22) / det;
    inv[4] = (a00 * a22 - a02 * a20) / det;
    inv[5] = (a02 * a10 - a00 * a12) / det;
    inv[6] = (a10 * a21 - a11 * a20) / det;
    inv[7] = (a01 * a20 - a00 * a21) / det;
    inv[8] = (a00 * a11 - a01 * a10) / det;
    return det;
  }
}

/// Tri/bi-linear interpolation of the macro-mesh vertex coordinates (exact
/// for brick-type meshes; the fallback for anything else).
template <int Dim>
GeomFn<Dim> vertex_map(const forest::Connectivity<Dim>& conn);

/// Smooth equiangular cubed-sphere map for the 24-tree spherical shell of
/// Connectivity<3>::shell() (paper §III-B): six caps of four patches each,
/// local axes (u, v, radial). Radii match the shell() macro vertices.
GeomFn<3> shell_map(double inner_radius = 0.55, double outer_radius = 1.0);

/// Smooth annulus map for Connectivity<2>::ring(ntrees): x = angular,
/// y = radial.
GeomFn<2> annulus_map(int ntrees, double inner_radius = 0.55, double outer_radius = 1.0);

}  // namespace esamr::sfem
