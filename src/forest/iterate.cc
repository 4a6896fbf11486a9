#include "forest/iterate.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace esamr::forest {

namespace {

/// Transverse axes of a 3D edge along `axis`, in increasing order (the
/// z-order convention of octant.h).
std::array<int, 2> transverse(int axis) {
  return axis == 0 ? std::array<int, 2>{1, 2}
                   : (axis == 1 ? std::array<int, 2>{0, 2} : std::array<int, 2>{0, 1});
}

}  // namespace

template <int Dim>
CornerIterator<Dim>::CornerIterator(const Forest<Dim>& forest, const GhostLayer<Dim>& ghost)
    : conn_(forest.conn()), me_(forest.comm().rank()), dir_(build_leaf_directory(forest, ghost)) {
  local_.resize(dir_.size());
  for (std::size_t t = 0; t < dir_.size(); ++t) {
    auto& c = local_[t];
    c.assign(dir_[t].size() + 1, 0);
    for (std::size_t i = 0; i < dir_[t].size(); ++i) {
      c[i + 1] = c[i] + (dir_[t][i].owner == me_ ? 1u : 0u);
    }
  }
  maps_.emplace_back();  // 0: identity
}

template <int Dim>
void CornerIterator<Dim>::for_each(std::span<const std::uint8_t> active, const Visit& visit) {
  count_ = &local_;
  mask_ = active;
  if (!active.empty()) {
    active_.resize(dir_.size());
    for (std::size_t t = 0; t < dir_.size(); ++t) {
      auto& c = active_[t];
      c.assign(dir_[t].size() + 1, 0);
      for (std::size_t i = 0; i < dir_[t].size(); ++i) {
        const LeafRef<Dim>& l = dir_[t][i];
        c[i + 1] = c[i] + (l.owner == me_ && active[static_cast<std::size_t>(l.index)] ? 1u : 0u);
      }
    }
    count_ = &active_;
  }
  visit_ = &visit;
  point_mode_ = false;
  run();
}

template <int Dim>
bool CornerIterator<Dim>::at_point(int tree, const std::array<std::int32_t, 3>& pt,
                                   const Visit& visit) {
  count_ = &local_;
  mask_ = {};
  visit_ = &visit;
  point_mode_ = true;
  pt_tree_ = tree;
  pt_ = {pt[0], pt[1], pt[2]};
  visited_ = false;
  run();
  point_mode_ = false;
  return visited_;
}

// Every macro entity once: each tree's volume, then the faces, edges and
// corners for which this tree holds the lowest (tree, index) incidence.
template <int Dim>
void CornerIterator<Dim>::run() {
  using T = Topo<Dim>;
  constexpr std::int64_t r = Oct::root_len;
  constexpr int full = (1 << Dim) - 1;
  maps_.resize(1);
  stack_.clear();
  const auto root_side = [&](int t, std::int32_t map) {
    return Side{Oct::root(), t, 0,
                static_cast<std::uint32_t>(dir_[static_cast<std::size_t>(t)].size()), map};
  };
  for (int t = 0; t < conn_.num_trees(); ++t) {
    stack_.push_back(root_side(t, 0));
    entity(Point{0, 0, 0}, r, full, 0, 1, false);
    stack_.clear();

    for (int f = 0; f < T::num_faces; ++f) {
      const auto& fc = conn_.face_connection(t, f);
      if (fc.tree >= 0 && std::pair(fc.tree, fc.face) < std::pair(t, f)) continue;
      stack_.push_back(root_side(t, 0));
      if (fc.tree >= 0) {
        Map m;
        for (int j = 0; j < 3; ++j) {
          m.src[static_cast<std::size_t>(j)] = fc.xform.perm[static_cast<std::size_t>(j)];
          m.sign[static_cast<std::size_t>(j)] = fc.xform.sign[static_cast<std::size_t>(j)];
          m.off[static_cast<std::size_t>(j)] = fc.xform.off[static_cast<std::size_t>(j)];
        }
        maps_.push_back(m);
        stack_.push_back(root_side(fc.tree, static_cast<std::int32_t>(maps_.size() - 1)));
      }
      Point lo{0, 0, 0};
      lo[static_cast<std::size_t>(f / 2)] = (f % 2) ? r : 0;
      entity(lo, r, full & ~(1 << (f / 2)), 0, stack_.size(), false);
      stack_.clear();
      maps_.resize(1);
    }

    if constexpr (Dim == 3) {
      for (int e = 0; e < T::num_edges; ++e) {
        const auto conns = conn_.edge_connections(t, e);
        if (std::any_of(conns.begin(), conns.end(), [&](const auto& c) {
              return std::pair(c.tree, c.edge) < std::pair(t, e);
            })) {
          continue;
        }
        const int axis = T::edge_axis[e];
        stack_.push_back(root_side(t, 0));
        for (const auto& c : conns) {
          const int axis2 = T::edge_axis[c.edge];
          const auto tr2 = transverse(axis2);
          Map m;
          m.src[static_cast<std::size_t>(axis2)] = static_cast<std::int8_t>(axis);
          m.sign[static_cast<std::size_t>(axis2)] = c.flip ? -1 : 1;
          m.off[static_cast<std::size_t>(axis2)] = c.flip ? r : 0;
          for (int i = 0; i < 2; ++i) {
            m.sign[static_cast<std::size_t>(tr2[static_cast<std::size_t>(i)])] = 0;
            m.off[static_cast<std::size_t>(tr2[static_cast<std::size_t>(i)])] =
                ((c.edge >> i) & 1) ? r : 0;
          }
          maps_.push_back(m);
          stack_.push_back(root_side(c.tree, static_cast<std::int32_t>(maps_.size() - 1)));
        }
        const auto tr = transverse(axis);
        Point lo{0, 0, 0};
        for (int i = 0; i < 2; ++i) {
          lo[static_cast<std::size_t>(tr[static_cast<std::size_t>(i)])] = ((e >> i) & 1) ? r : 0;
        }
        entity(lo, r, 1 << axis, 0, stack_.size(), false);
        stack_.clear();
        maps_.resize(1);
      }
    }

    for (int c = 0; c < T::num_corners; ++c) {
      const auto conns = conn_.corner_connections(t, c);
      if (std::any_of(conns.begin(), conns.end(), [&](const auto& cc) {
            return std::pair(cc.tree, cc.corner) < std::pair(t, c);
          })) {
        continue;
      }
      stack_.push_back(root_side(t, 0));
      for (const auto& cc : conns) {
        Map m;
        for (int a = 0; a < Dim; ++a) {
          m.sign[static_cast<std::size_t>(a)] = 0;
          m.off[static_cast<std::size_t>(a)] = ((cc.corner >> a) & 1) ? r : 0;
        }
        maps_.push_back(m);
        stack_.push_back(root_side(cc.tree, static_cast<std::int32_t>(maps_.size() - 1)));
      }
      Point lo{0, 0, 0};
      for (int a = 0; a < Dim; ++a) lo[static_cast<std::size_t>(a)] = ((c >> a) & 1) ? r : 0;
      entity(lo, r, 0, 0, stack_.size(), false);
      stack_.clear();
      maps_.resize(1);
    }
  }
}

namespace {

/// Child id of leaf `o` at the level whose octant size is `hc`.
template <int Dim>
int child_at(const Octant<Dim>& o, std::int32_t hc) {
  int c = ((o.x & hc) ? 1 : 0) | ((o.y & hc) ? 2 : 0);
  if constexpr (Dim == 3) c |= (o.z & hc) ? 4 : 0;
  return c;
}

}  // namespace

template <int Dim>
void CornerIterator<Dim>::narrow(Side& s, int cid) const {
  const Oct child = s.oct.child(cid);
  if (s.hi > s.lo && !is_leaf(s)) {
    // Leaves are strict descendants of s.oct in SFC order, so their child ids
    // at the child level are non-decreasing: two partition points.
    const std::int32_t hc = child.size();
    const auto& v = dir_[static_cast<std::size_t>(s.tree)];
    const auto first = v.begin() + s.lo;
    const auto last = v.begin() + s.hi;
    const auto a = std::partition_point(
        first, last, [&](const LeafRef<Dim>& l) { return child_at(l.oct, hc) < cid; });
    const auto b = std::partition_point(
        a, last, [&](const LeafRef<Dim>& l) { return child_at(l.oct, hc) == cid; });
    s.lo = static_cast<std::uint32_t>(a - v.begin());
    s.hi = static_cast<std::uint32_t>(b - v.begin());
  }
  s.oct = child;
}

template <int Dim>
int CornerIterator<Dim>::split_bounds(const Side& s, std::uint32_t* out) const {
  constexpr int nc = Topo<Dim>::num_children;
  const auto& v = dir_[static_cast<std::size_t>(s.tree)];
  const std::int32_t hc = s.oct.size() / 2;
  const auto level = static_cast<std::int8_t>(s.oct.level + 1);
  out[0] = s.lo;
  out[nc] = s.hi;
  if (s.hi - s.lo <= 16) {
    std::uint32_t i = s.lo;
    for (int c = 1; c < nc; ++c) {
      while (i < s.hi && child_at(v[i].oct, hc) < c) ++i;
      out[c] = i;
    }
  } else {
    for (int c = 1; c < nc; ++c) {
      out[c] = static_cast<std::uint32_t>(
          std::partition_point(v.begin() + out[c - 1], v.begin() + s.hi,
                               [&](const LeafRef<Dim>& l) { return child_at(l.oct, hc) < c; }) -
          v.begin());
    }
  }
  int deep = 0;
  for (int c = 0; c < nc; ++c) {
    const std::uint32_t n = out[c + 1] - out[c];
    if (n > 1 || (n == 1 && v[out[c]].oct.level > level)) deep |= 1 << c;
  }
  return deep;
}

template <int Dim>
bool CornerIterator<Dim>::holds_point(const Point& lo, std::int64_t h, int span, std::size_t b,
                                      std::size_t e) const {
  Point hi = lo;
  for (int a = 0; a < Dim; ++a) {
    if ((span >> a) & 1) hi[static_cast<std::size_t>(a)] += h;
  }
  for (std::size_t i = b; i < e; ++i) {
    if (stack_[i].tree != pt_tree_) continue;
    const Map& m = maps_[static_cast<std::size_t>(stack_[i].map)];
    const Point p = m.apply(lo), q = m.apply(hi);
    bool in = true;
    for (int a = 0; a < Dim && in; ++a) {
      const auto sa = static_cast<std::size_t>(a);
      in = std::min(p[sa], q[sa]) <= pt_[sa] && pt_[sa] <= std::max(p[sa], q[sa]);
    }
    if (in) return true;
  }
  return false;
}

template <int Dim>
void CornerIterator<Dim>::entity(const Point& lo, std::int64_t h, int span, std::size_t b,
                                 std::size_t e, bool checked) {
  if (!checked) {
    bool active = false, split = span == 0;
    for (std::size_t i = b; i < e; ++i) {
      const Side& s = stack_[i];
      const auto& cnt = (*count_)[static_cast<std::size_t>(s.tree)];
      active = active || cnt[s.hi] > cnt[s.lo];
      split = split || (s.hi > s.lo && !is_leaf(s));
    }
    // No active leaf, or every side is one leaf: no wanted node point inside.
    if (!active || !split) return;
  }
  if (point_mode_ && !holds_point(lo, h, span, b, e)) return;
  if (span == 0) {
    corner(lo, b, e);
    return;
  }
  // Per side, computed once for all sub-entities: the child ranges, the mask
  // of children that are not a single leaf, and the mask of children holding
  // an active leaf.
  constexpr int nc = Topo<Dim>::num_children;
  constexpr int nb = nc + 3;
  constexpr int all = (1 << nc) - 1;
  const std::size_t bb = bounds_.size();
  bounds_.resize(bb + (e - b) * nb);
  int any_deep = 0;
  for (std::size_t i = b; i < e; ++i) {
    const Side& s = stack_[i];
    const auto& cnt = (*count_)[static_cast<std::size_t>(s.tree)];
    std::uint32_t* bd = &bounds_[bb + (i - b) * nb];
    if (s.hi > s.lo && !is_leaf(s)) {
      const int deep = split_bounds(s, bd);
      // When every leaf of the side is active, so is every non-empty child.
      const bool all_active = cnt[s.hi] - cnt[s.lo] == s.hi - s.lo;
      int act = 0;
      for (int c = 0; c < nc; ++c) {
        if (all_active ? bd[c + 1] > bd[c] : cnt[bd[c + 1]] > cnt[bd[c]]) act |= 1 << c;
      }
      bd[nc + 1] = static_cast<std::uint32_t>(deep);
      bd[nc + 2] = static_cast<std::uint32_t>(act);
      any_deep |= deep;
    } else {
      bd[nc + 1] = 0;
      bd[nc + 2] = cnt[s.hi] > cnt[s.lo] ? all : 0;
    }
  }
  // Children of a side whose closed box holds the piece [p, q] (side frame):
  // per axis, the low half, the high half, or both at the midpoint.
  constexpr std::array<int, 3> high_half =
      Dim == 2 ? std::array<int, 3>{0xA, 0xC, 0} : std::array<int, 3>{0xAA, 0xCC, 0xF0};
  const auto touching = [&](const Side& s, const Point& lo2, const Point& hi2) {
    Point p = lo2, q = hi2;
    if (s.map != 0) {
      const Map& m = maps_[static_cast<std::size_t>(s.map)];
      p = m.apply(lo2);
      q = m.apply(hi2);
    }
    int kids = all;
    for (int a = 0; a < Dim; ++a) {
      const auto sa = static_cast<std::size_t>(a);
      const std::int64_t mid = s.oct.coord(a) + s.oct.size() / 2;
      kids &= (std::max(p[sa], q[sa]) <= mid ? ~high_half[sa] : 0) |
              (std::min(p[sa], q[sa]) >= mid ? high_half[sa] : 0);
    }
    return kids;
  };
  const std::int64_t h2 = h / 2;
  // Sub-entities: for every sub-span (axes the piece extends along) and every
  // half along those axes; the remaining span axes sit at the midpoint. A
  // piece needs an active child side to hold a wanted node point, and a piece
  // with extent also a non-leaf child side — so when no child is deeper than
  // a leaf only the center (sub-span 0) is left.
  for (int sub = any_deep != 0 ? span : 0;; sub = (sub - 1) & span) {
    for (int half = 0;; half = (half - sub) & sub) {  // subsets of `sub`, ascending
      Point lo2 = lo;
      for (int a = 0; a < Dim; ++a) {
        if (!((span >> a) & 1)) continue;
        if (!((sub >> a) & 1) || ((half >> a) & 1)) lo2[static_cast<std::size_t>(a)] += h2;
      }
      Point hi2 = lo2;
      for (int a = 0; a < Dim; ++a) {
        if ((sub >> a) & 1) hi2[static_cast<std::size_t>(a)] += h2;
      }
      bool deep = sub == 0, active = false;
      for (std::size_t i = b; i < e; ++i) {
        const int kids = touching(stack_[i], lo2, hi2);
        const std::uint32_t* bd = &bounds_[bb + (i - b) * nb];
        deep = deep || (kids & static_cast<int>(bd[nc + 1])) != 0;
        active = active || (kids & static_cast<int>(bd[nc + 2])) != 0;
      }
      if (deep && active) {
        const std::size_t cb = stack_.size();
        for (std::size_t i = b; i < e; ++i) {
          const Side s = stack_[i];
          const std::uint32_t* bd = &bounds_[bb + (i - b) * nb];
          const bool whole = s.hi == s.lo || is_leaf(s);
          for (int k = touching(s, lo2, hi2); k != 0; k &= k - 1) {
            const int cid = std::countr_zero(static_cast<unsigned>(k));
            Side c = s;
            c.oct = s.oct.child(cid);
            if (!whole) {
              c.lo = bd[cid];
              c.hi = bd[cid + 1];
            }
            stack_.push_back(c);
          }
        }
        entity(lo2, h2, sub, cb, stack_.size(), true);
        stack_.resize(cb);
      }
      if (half == sub) break;
    }
    if (sub == 0) break;
  }
  bounds_.resize(bb);
}

template <int Dim>
void CornerIterator<Dim>::corner(const Point& p, std::size_t b, std::size_t e) {
  touches_.clear();
  touch_pos_.clear();
  bool missing = false;
  for (std::size_t i = b; i < e; ++i) {
    Side s = stack_[i];
    const Point q = s.map == 0 ? p : maps_[static_cast<std::size_t>(s.map)].apply(p);
    int quad = 0, cid = 0;
    for (int a = 0; a < Dim; ++a) {
      if (s.oct.coord(a) < q[static_cast<std::size_t>(a)]) {
        quad |= 1 << a;
        cid |= 1 << a;  // the child touching the point sits at the same corner
      }
    }
    while (s.hi > s.lo && !is_leaf(s)) narrow(s, cid);
    if (s.hi == s.lo) {
      missing = true;
      continue;
    }
    CornerTouch<Dim> tc{s.tree,
                        {static_cast<std::int32_t>(q[0]), static_cast<std::int32_t>(q[1]),
                         static_cast<std::int32_t>(q[2])},
                        dir_[static_cast<std::size_t>(s.tree)][s.lo],
                        static_cast<std::int8_t>(quad),
                        false};
    tc.corner = tc.interior_axes() == 0;
    bool dup = false;
    for (std::size_t x = 0; x < touches_.size() && !dup; ++x) {
      CornerTouch<Dim>& tx = touches_[x];
      if (touch_pos_[x] == s.lo && tx.tree == tc.tree && tx.pt == tc.pt) {
        tx.quadrant = std::min(tx.quadrant, tc.quadrant);
        dup = true;
      }
    }
    if (!dup) {
      touches_.push_back(tc);
      touch_pos_.push_back(s.lo);
    }
  }
  bool wanted = false;
  for (const auto& tc : touches_) {
    wanted = wanted || (tc.corner && tc.leaf.owner == me_ &&
                        (mask_.empty() || mask_[static_cast<std::size_t>(tc.leaf.index)]));
  }
  if (!wanted) return;
  visited_ = true;
  if (missing) throw std::runtime_error("iterate: touching leaf not in local+ghost storage");
  (*visit_)(Touches(touches_.data(), touches_.size()));
}

template class CornerIterator<2>;
template class CornerIterator<3>;

}  // namespace esamr::forest
