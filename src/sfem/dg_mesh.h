// DgMesh: the element/face view of a 2:1-balanced forest used by the
// discontinuous Galerkin solvers (mangll reproduction, paper §II-E).
//
// For every local element face it records the neighbor configuration:
//   * boundary — physical domain boundary,
//   * same     — one equal-size neighbor,
//   * coarse   — the neighbor is one level coarser (this face is one of the
//                2^(Dim-1) subfaces of the neighbor's face),
//   * fine     — 2^(Dim-1) half-size neighbors across this face,
// together with a face-node alignment map that absorbs the relative rotation
// of inter-tree connections (paper Fig. 3), so the flux kernels are
// orientation-agnostic. Geometry (coordinates, metric terms, face normals)
// is sampled at the tensor LGL nodes of each element and differentiated
// spectrally. The mesh also carries what both dG solvers share: the face
// tables of the reference element, the halo exchange, and (below) the
// low-storage RK stepper.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>

#include "forest/ghost.h"
#include "sfem/geometry.h"
#include "sfem/lgl.h"
#include "sfem/tensor.h"

namespace esamr::sfem {

template <int Dim>
struct DgMesh {
  static constexpr int nfaces = 2 * Dim;
  static constexpr int nsub = 1 << (Dim - 1);  ///< subfaces per face

  enum class FaceKind : std::uint8_t { boundary, same, coarse, fine };

  struct FaceSide {
    FaceKind kind = FaceKind::boundary;
    /// Neighbor element indices: slot 0 for same/coarse; all nsub slots for
    /// fine (indexed by subface bits over my ascending tangential axes).
    std::array<std::int32_t, nsub> nbr{};
    std::array<std::uint8_t, nsub> nbr_ghost{};
    std::int8_t nbr_face = -1;  ///< the neighbor's face id in its own frame
    /// Alignment: my face node q corresponds to the neighbor's face node
    /// node_map[q] (grids of equal resolution: full faces for same, the
    /// subface pairing for coarse/fine). Identity within a tree.
    std::vector<std::int32_t> node_map;
    /// coarse only: my position within the neighbor's face, as bits over my
    /// ascending tangential axes.
    std::uint8_t half_bits = 0;
  };

  int degree = 0;
  int np = 0;   ///< nodes per direction
  int npf = 0;  ///< nodes per face, np^(Dim-1)
  int nv = 0;   ///< nodes per element, np^Dim
  std::int64_t n_local = 0;
  Basis1d basis;

  std::vector<FaceSide> faces;  ///< n_local * nfaces

  // Face tables of the reference element.
  /// Volume indices of the nodes of face f, in face enumeration: tangential
  /// axes ascending, lower axis fastest (npf each).
  std::array<std::vector<int>, nfaces> face_nodes;
  std::vector<double> face_weights;  ///< npf tensor LGL weights over the tangentials

  // Per-element geometry at the tensor nodes.
  std::vector<double> coords;   ///< n_local*nv*3 physical positions
  std::vector<double> jdet;     ///< n_local*nv det(dx/dref)
  std::vector<double> jinv;     ///< n_local*nv*Dim*Dim, (a,d) entry = d ref_a / d x_d
  std::vector<double> mass;     ///< n_local*nv diagonal mass: detJ * tensor weight
  // Per-face geometry at my face nodes.
  std::vector<double> fnormal;  ///< n_local*nfaces*npf*3 outward unit normals
  std::vector<double> fsj;      ///< n_local*nfaces*npf surface Jacobians
  std::vector<double> hmin;     ///< n_local: shortest physical edge (dt estimates)

  const forest::Forest<Dim>* forest = nullptr;
  const forest::GhostLayer<Dim>* ghost = nullptr;

  static DgMesh build(const forest::Forest<Dim>& f, const forest::GhostLayer<Dim>& g, int degree,
                      const GeomFn<Dim>& geom);

  const FaceSide& face(std::int64_t elem, int f) const {
    return faces[static_cast<std::size_t>(elem * nfaces + f)];
  }

  /// Exchange per-element nodal fields (`per_elem` values each, n_local
  /// blocks in SFC order) into the ghost halo (one block per ghost element).
  template <typename Real = double>
  std::vector<Real> exchange(std::span<const std::type_identity_t<Real>> fields,
                             int per_elem) const {
    const auto block = static_cast<std::size_t>(per_elem);
    std::vector<Real> mirror(ghost->mirrors.size() * block);
    for (std::size_t m = 0; m < ghost->mirrors.size(); ++m) {
      std::copy_n(fields.data() + static_cast<std::size_t>(ghost->mirrors[m].local_index) * block,
                  block, mirror.data() + m * block);
    }
    return ghost->template exchange<Real>(forest->comm(), mirror, per_elem);
  }
};

/// One step of the five-stage fourth-order 2N-storage Runge-Kutta scheme of
/// Carpenter & Kennedy (1994); `rhs(q, k)` writes dq/dt into k. The
/// coefficients and dt are rounded to Real.
template <typename Real, typename Rhs>
void lsrk54_step(std::vector<Real>& q, double dt, const Rhs& rhs) {
  static constexpr double a[5] = {0.0, -567301805773.0 / 1357537059087.0,
                                  -2404267990393.0 / 2016746695238.0,
                                  -3550918686646.0 / 2091501179385.0,
                                  -1275806237668.0 / 842570457699.0};
  static constexpr double b[5] = {
      1432997174477.0 / 9575080441755.0, 5161836677717.0 / 13612068292357.0,
      1720146321549.0 / 2090206949498.0, 3134564353537.0 / 4481467310338.0,
      2277821191437.0 / 14882151754819.0};
  std::vector<Real> res(q.size(), Real(0)), k(q.size());
  const Real rdt = static_cast<Real>(dt);
  for (int stage = 0; stage < 5; ++stage) {
    rhs(q, k);
    const Real as = static_cast<Real>(a[stage]), bs = static_cast<Real>(b[stage]);
    for (std::size_t i = 0; i < q.size(); ++i) {
      res[i] = as * res[i] + rdt * k[i];
      q[i] += bs * res[i];
    }
  }
}

extern template struct DgMesh<2>;
extern template struct DgMesh<3>;

}  // namespace esamr::sfem
