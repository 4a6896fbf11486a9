// Recursive topological iterate (Isaac et al., "Recursive Algorithms for
// Distributed Forests of Octrees", the p4est_iterate scheme): one top-down
// recursion per macro entity over the sorted local + ghost leaves that visits
// every node point of the local leaves exactly once, with its full adjacency,
// and no point search.
//
// The recursion walks topological entities: a tree volume, a macro face
// (two trees), a macro edge (3D) or a macro corner (every tree sharing it).
// Each entity carries one "side" per adjacent octant: the same-size octant
// touching the entity, in its own tree's frame, plus the range of known leaves
// overlapping it. A side whose range is a single leaf containing its octant is
// a leaf side; an entity with at least one non-leaf side splits into its
// 3^k half-size sub-entities (k = entity dimension: children, interior faces,
// edges and the center), and every sub-entity's sides are the children of the
// parent sides that touch it. A corner entity descends each side to the leaf
// touching the point. Leaf sides keep their leaf across the descent, which is
// how a hanging point finds its big side: the coarse leaf appears as a touch
// for which the point is not a corner, and the axes along which the point is
// interior to that leaf name the constraining face or edge.
//
// Sides of an entity shared by several trees are related by per-side lattice
// maps from the entity's reference frame (the first side's tree), built from
// the Connectivity face transforms and edge/corner incidences.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "forest/ghost.h"

namespace esamr::forest {

/// One leaf touching a node point, in one tree frame.
template <int Dim>
struct CornerTouch {
  std::int32_t tree;               ///< frame the leaf and the point are expressed in
  std::array<std::int32_t, 3> pt;  ///< the node point in that frame
  LeafRef<Dim> leaf;               ///< touching leaf: octant, owner, local/ghost index
  /// Lowest quadrant of `pt` the leaf occupies: bit a set iff the leaf lies on
  /// the low side of the point along axis a.
  std::int8_t quadrant;
  bool corner;  ///< `pt` is a corner of the leaf (false: the point hangs on it)

  /// Corner id of `pt` in the leaf (meaningful iff `corner`).
  int corner_id() const {
    int c = 0;
    for (int a = 0; a < Dim; ++a) {
      if (pt[static_cast<std::size_t>(a)] != leaf.oct.coord(a)) c |= 1 << a;
    }
    return c;
  }
  /// Axes along which `pt` lies strictly inside the leaf: the leaf's
  /// constraining face (Dim - 1 axes) or edge (one axis) for a hanging point.
  int interior_axes() const {
    int m = 0;
    for (int a = 0; a < Dim; ++a) {
      const std::int32_t rel = pt[static_cast<std::size_t>(a)] - leaf.oct.coord(a);
      if (rel != 0 && rel != leaf.oct.size()) m |= 1 << a;
    }
    return m;
  }
};

template <int Dim>
class CornerIterator {
 public:
  using Oct = Octant<Dim>;
  using Touches = std::span<const CornerTouch<Dim>>;
  /// Called once per visited node point with its deduplicated touches: one
  /// per (frame, leaf) pair, every tree frame of the point included.
  using Visit = std::function<void(Touches)>;

  CornerIterator(const Forest<Dim>& forest, const GhostLayer<Dim>& ghost);

  /// Visit every node point that is a corner of an active local leaf, once.
  /// `active` is indexed by local element (SFC order); empty means all local
  /// leaves. Subtrees holding no active leaf are pruned.
  void for_each(std::span<const std::uint8_t> active, const Visit& visit);

  /// Visit only the node point `pt` of tree `tree`, if it is a corner of a
  /// local leaf (the recursion follows the entities whose closure holds the
  /// point). Returns whether it was visited.
  bool at_point(int tree, const std::array<std::int32_t, 3>& pt, const Visit& visit);

 private:
  using Point = std::array<std::int64_t, 3>;
  /// Lattice map from an entity's reference frame into a side's frame:
  /// q[j] = sign[j] * p[src[j]] + off[j] (sign 0 pins q[j] to off[j]).
  struct Map {
    std::array<std::int8_t, 3> src{0, 1, 2};
    std::array<std::int8_t, 3> sign{1, 1, 1};
    std::array<std::int64_t, 3> off{0, 0, 0};
    Point apply(const Point& p) const {
      Point q{0, 0, 0};
      for (std::size_t j = 0; j < Dim; ++j) {
        q[j] = sign[j] * p[static_cast<std::size_t>(src[j])] + off[j];
      }
      return q;
    }
  };
  struct Side {
    Oct oct;              ///< octant adjacent to the entity, in `tree`'s frame
    std::int32_t tree;
    std::uint32_t lo, hi;  ///< leaves of dir_[tree] overlapping `oct`
    std::int32_t map;      ///< index into maps_
  };

  void run();
  /// Recurse into the entity with sides stack_[b, e). `checked`: the caller
  /// already knows it holds an active leaf and (with extent) a non-leaf side.
  void entity(const Point& lo, std::int64_t h, int span, std::size_t b, std::size_t e,
              bool checked);
  void corner(const Point& p, std::size_t b, std::size_t e);
  bool is_leaf(const Side& s) const {
    return s.hi - s.lo == 1 &&
           dir_[static_cast<std::size_t>(s.tree)][s.lo].oct.level <= s.oct.level;
  }
  /// Narrow `s` to the leaves inside child `cid` of its octant.
  void narrow(Side& s, int cid) const;
  /// Split a non-leaf side's range by child: child c holds leaves
  /// [out[c], out[c + 1]). Returns the mask of children that are not a
  /// single leaf.
  int split_bounds(const Side& s, std::uint32_t* out) const;
  bool holds_point(const Point& lo, std::int64_t h, int span, std::size_t b, std::size_t e) const;

  const Connectivity<Dim>& conn_;
  int me_;
  std::vector<std::vector<LeafRef<Dim>>> dir_;
  /// Per tree: prefix counts (over dir_ order) of local leaves, and of active
  /// local leaves for the current for_each.
  std::vector<std::vector<std::uint32_t>> local_, active_;
  const std::vector<std::vector<std::uint32_t>>* count_ = nullptr;
  std::span<const std::uint8_t> mask_;
  std::vector<Map> maps_;
  std::vector<Side> stack_;
  /// Per split entity and side: child bounds, then the masks of non-leaf and
  /// of active children.
  std::vector<std::uint32_t> bounds_;
  std::vector<CornerTouch<Dim>> touches_;
  std::vector<std::uint32_t> touch_pos_;  ///< directory position of each touch's leaf
  const Visit* visit_ = nullptr;
  bool point_mode_ = false;
  std::int32_t pt_tree_ = -1;
  Point pt_{};
  bool visited_ = false;
};

extern template class CornerIterator<2>;
extern template class CornerIterator<3>;

}  // namespace esamr::forest
