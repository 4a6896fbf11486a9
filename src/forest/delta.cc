#include "forest/delta.h"

#include <algorithm>
#include <cstdlib>

#include "forest/forest.h"

namespace esamr::forest {

bool incremental_enabled() {
  const char* v = std::getenv("ESAMR_INCR");
  return v == nullptr || v[0] != '0';
}

namespace {

/// Sort + dedup + keep-outermost on one tree's region list. Sorted SFC order
/// puts an ancestor immediately before its descendants, so one backward memo
/// suffices to drop contained octants; the survivors are mutually disjoint
/// (two octants of one tree overlap only by containment).
template <int Dim>
void normalize_tree(std::vector<Octant<Dim>>& v) {
  if (v.empty()) return;
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  std::vector<Octant<Dim>> out;
  out.reserve(v.size());
  for (const auto& o : v) {
    if (!out.empty() && out.back().contains(o)) continue;
    out.push_back(o);
  }
  v = std::move(out);
}

}  // namespace

template <int Dim>
void DeltaSet<Dim>::normalize() {
  if (normalized_) return;
  for (auto& v : regions) normalize_tree<Dim>(v);
  normalized_ = true;
}

template <int Dim>
std::int64_t DeltaSet<Dim>::count() {
  normalize();
  std::int64_t n = 0;
  for (const auto& v : regions) n += static_cast<std::int64_t>(v.size());
  return n;
}

template <int Dim>
DeltaSet<Dim> DeltaSet<Dim>::replicated(par::Comm& comm) const {
  std::vector<OctMsg> flat;
  for (std::size_t t = 0; t < regions.size(); ++t) {
    for (const Oct& o : regions[t]) {
      flat.push_back(OctMsg{static_cast<std::int32_t>(t), o.x, o.y, Dim == 3 ? o.z : 0,
                            o.level});
    }
  }
  DeltaSet out(static_cast<int>(regions.size()));
  for (const auto& from : comm.allgatherv(flat)) {
    for (const OctMsg& m : from) {
      Oct o;
      o.x = m.x;
      o.y = m.y;
      if constexpr (Dim == 3) o.z = m.z;
      o.level = static_cast<std::int8_t>(m.level);
      out.regions[static_cast<std::size_t>(m.tree)].push_back(o);
    }
  }
  out.normalized_ = false;
  out.normalize();
  out.overflow = comm.allreduce(static_cast<int>(overflow), par::ReduceOp::logical_or) != 0;
  return out;
}

template <int Dim>
std::vector<std::vector<Octant<Dim>>> DeltaSet<Dim>::closure(const Connectivity<Dim>& conn,
                                                             int rings) {
  normalize();
  // O(1)-octants-per-region cover: the r-ring ball of an octant d (side
  // (2r+1)*s) is covered by the grid-aligned cells of side S = 2^j * s,
  // j = ceil(log2(r+1)) - 1, that its bounding box intersects — at most 4
  // per axis, so <= 4^Dim octants per region and a linear inflation of at
  // most ~(4S)/((2r+1)s) < 1.3. The cover is a SUPERSET of the true ball —
  // sufficient for every consumer, all of which use the closure as an
  // overlaps_any invalidation filter. Cells outside the root are mapped by
  // conn.exterior_images, which is exact for a single-axis (macro-face)
  // exit at any distance but pins multi-axis (edge/corner) exits to the
  // touching cell — only position-correct one cell out. A cover cell that
  // exits diagonally is therefore first promoted to its size-2S ancestor,
  // which is guaranteed at most one cell out per axis (2S >= (r+1)*s bounds
  // the exit distance). Regions too coarse for that ancestor to exist take
  // the exact frontier-BFS ring expansion below instead.
  int k = 0;
  while ((1 << k) < rings + 1) ++k;
  const int j = k > 0 ? k - 1 : 0;
  std::vector<std::vector<Oct>> out(regions.size());
  std::vector<std::vector<Oct>> multi(regions.size());
  bool have_multi = false;
  for (std::size_t t = 0; t < regions.size(); ++t) {
    for (const Oct& o : regions[t]) {
      if (o.level < k) {
        multi[t].push_back(o);
        have_multi = true;
        continue;
      }
      const std::int32_t s = o.size();
      const std::int32_t S = s << j;
      std::array<std::int32_t, 3> lo{0, 0, 0};
      std::array<std::int32_t, 3> hi{0, 0, 0};
      for (int a = 0; a < Dim; ++a) {
        lo[static_cast<std::size_t>(a)] = (o.coord(a) - rings * s) & ~(S - 1);
        hi[static_cast<std::size_t>(a)] = o.coord(a) + (rings + 1) * s;
      }
      for (std::int32_t cz = lo[2]; cz <= (Dim == 3 ? hi[2] - 1 : 0); cz += S) {
        for (std::int32_t cy = lo[1]; cy < hi[1]; cy += S) {
          for (std::int32_t cx = lo[0]; cx < hi[0]; cx += S) {
            Oct n;
            n.level = static_cast<std::int8_t>(o.level - j);
            n.x = cx;
            n.y = cy;
            if constexpr (Dim == 3) n.z = cz;
            if (n.inside_root()) {
              out[t].push_back(n);
              continue;
            }
            int out_axes = 0;
            bool deep = false;
            for (int a = 0; a < Dim; ++a) {
              if (n.coord(a) < 0 || n.coord(a) + S > Oct::root_len) {
                ++out_axes;
                if (n.coord(a) < -S || n.coord(a) > Oct::root_len) deep = true;
              }
            }
            if (out_axes >= 2 && deep) {
              // Diagonal exit: promote to the one-cell-out coarse ancestor.
              const std::int32_t S2 = s << k;
              n.level = static_cast<std::int8_t>(o.level - k);
              for (int a = 0; a < Dim; ++a) n.set_coord(a, n.coord(a) & ~(S2 - 1));
            }
            for (const auto& [t2, img] : conn.exterior_images(static_cast<int>(t), n)) {
              out[static_cast<std::size_t>(t2)].push_back(img);
            }
          }
        }
      }
    }
  }

  if (have_multi) {
    // Frontier BFS: ring r's cells are insulation neighbors of ring r-1's,
    // so expanding only the newly visited cells (instead of the whole
    // accumulated ball every ring) covers the identical region in O(ball)
    // instead of O(ball * rings) work. visited holds exact cells (mixed
    // sizes never dedup each other); the final normalize keeps outermost.
    const std::size_t nt = regions.size();
    std::vector<std::vector<Oct>> frontier = std::move(multi);
    for (std::size_t t = 0; t < nt; ++t) {
      std::sort(frontier[t].begin(), frontier[t].end());
      frontier[t].erase(std::unique(frontier[t].begin(), frontier[t].end()), frontier[t].end());
    }
    std::vector<std::vector<Oct>> visited = frontier;
    for (int r = 0; r < rings; ++r) {
      std::vector<std::vector<Oct>> cand(nt);
      bool any = false;
      for (std::size_t t = 0; t < nt; ++t) {
        for (const Oct& o : frontier[t]) {
          for (int code = 0; code < Oct::num_insulation; ++code) {
            if (code == Oct::center_code) continue;
            const Oct n = o.insulation_neighbor(code);
            if (n.inside_root()) {
              cand[t].push_back(n);
            } else {
              for (const auto& [t2, img] : conn.exterior_images(static_cast<int>(t), n)) {
                cand[static_cast<std::size_t>(t2)].push_back(img);
              }
            }
          }
        }
      }
      for (std::size_t t = 0; t < nt; ++t) {
        auto& c = cand[t];
        std::sort(c.begin(), c.end());
        c.erase(std::unique(c.begin(), c.end()), c.end());
        std::vector<Oct> fresh;
        std::set_difference(c.begin(), c.end(), visited[t].begin(), visited[t].end(),
                            std::back_inserter(fresh));
        if (!fresh.empty()) {
          any = true;
          const auto mid = visited[t].insert(visited[t].end(), fresh.begin(), fresh.end());
          std::inplace_merge(visited[t].begin(), visited[t].begin() + (mid - visited[t].begin()),
                             visited[t].end());
        }
        frontier[t] = std::move(fresh);
      }
      if (!any) break;
    }
    for (std::size_t t = 0; t < nt; ++t) {
      out[t].insert(out[t].end(), visited[t].begin(), visited[t].end());
    }
  }
  for (auto& v : out) normalize_tree<Dim>(v);
  return out;
}

template <int Dim>
bool DeltaSet<Dim>::overlaps_any(const std::vector<Oct>& sorted_disjoint, const Oct& o) {
  const auto [lo, hi] = overlapping_range<Dim>(sorted_disjoint, o);
  return lo < hi;
}

template <int Dim>
bool DeltaSet<Dim>::ball_overlaps(const Connectivity<Dim>& conn, int tree, const Oct& o,
                                  int rings) {
  normalize();
  const auto h = static_cast<std::int64_t>(o.size());
  std::array<std::int64_t, 3> blo{0, 0, 0};
  std::array<std::int64_t, 3> bhi{1, 1, 1};
  bool exits = false;
  for (int a = 0; a < Dim; ++a) {
    blo[static_cast<std::size_t>(a)] = static_cast<std::int64_t>(o.coord(a)) - rings * h;
    bhi[static_cast<std::size_t>(a)] = static_cast<std::int64_t>(o.coord(a)) + (rings + 1) * h;
    if (blo[static_cast<std::size_t>(a)] < 0 ||
        bhi[static_cast<std::size_t>(a)] > Oct::root_len) {
      exits = true;
    }
  }
  // In-root part: closed-box test against this tree's regions. Linear scan —
  // the region count is bounded by the incremental-adapt delta threshold, so
  // the list is short by construction.
  for (const Oct& d : regions[static_cast<std::size_t>(tree)]) {
    bool hit = true;
    for (int a = 0; a < Dim; ++a) {
      const auto dc = static_cast<std::int64_t>(d.coord(a));
      if (dc > bhi[static_cast<std::size_t>(a)] ||
          blo[static_cast<std::size_t>(a)] > dc + d.size()) {
        hit = false;
        break;
      }
    }
    if (hit) return true;
  }
  if (!exits) return false;
  // Exterior part: cover the off-root slice with the same coarse aligned
  // cells closure() uses (size 2^j * h, at most one cell out per axis after
  // the deep-diagonal promotion to 2^k * h), map each through
  // conn.exterior_images and test the image against the target tree.
  int k = 0;
  while ((1 << k) < rings + 1) ++k;
  const int j = k > 0 ? k - 1 : 0;
  if (o.level < k) return true;  // no coverable ancestor: conservatively stale
  const std::int64_t S = h << j;
  std::array<std::int64_t, 3> clo{0, 0, 0};
  for (int a = 0; a < Dim; ++a) {
    clo[static_cast<std::size_t>(a)] = blo[static_cast<std::size_t>(a)] & ~(S - 1);
  }
  for (std::int64_t cz = clo[2]; cz <= (Dim == 3 ? bhi[2] - 1 : 0); cz += S) {
    for (std::int64_t cy = clo[1]; cy < bhi[1]; cy += S) {
      for (std::int64_t cx = clo[0]; cx < bhi[0]; cx += S) {
        Oct n;
        n.level = static_cast<std::int8_t>(o.level - j);
        n.x = static_cast<std::int32_t>(cx);
        n.y = static_cast<std::int32_t>(cy);
        if constexpr (Dim == 3) n.z = static_cast<std::int32_t>(cz);
        if (n.inside_root()) continue;  // interior handled by the box scan
        int out_axes = 0;
        bool deep = false;
        for (int a = 0; a < Dim; ++a) {
          if (n.coord(a) < 0 || n.coord(a) + S > Oct::root_len) {
            ++out_axes;
            if (n.coord(a) < -S || n.coord(a) > Oct::root_len) deep = true;
          }
        }
        if (out_axes >= 2 && deep) {
          const std::int64_t S2 = h << k;
          n.level = static_cast<std::int8_t>(o.level - k);
          for (int a = 0; a < Dim; ++a) {
            n.set_coord(a, static_cast<std::int32_t>(n.coord(a) & ~(S2 - 1)));
          }
        }
        for (const auto& [t2, img] : conn.exterior_images(tree, n)) {
          if (overlaps_any(regions[static_cast<std::size_t>(t2)], img)) return true;
        }
      }
    }
  }
  return false;
}

template <int Dim>
bool DeltaSet<Dim>::contains_point(int tree, const std::array<std::int32_t, 3>& pt) const {
  // pt lies in the closed region of octant d iff one of the up-to-2^Dim
  // finest-level cells adjacent to pt is contained in d; each cell's
  // containing octant in a sorted disjoint list, if any, is its predecessor
  // in SFC order.
  const auto& v = regions[static_cast<std::size_t>(tree)];
  if (v.empty()) return false;
  for (int q = 0; q < Topo<Dim>::num_corners; ++q) {
    Oct cell;
    cell.level = Oct::max_level;
    bool ok = true;
    for (int a = 0; a < Dim; ++a) {
      const std::int32_t c = pt[static_cast<std::size_t>(a)] - (((q >> a) & 1) ? 1 : 0);
      if (c < 0 || c >= Oct::root_len) ok = false;
      cell.set_coord(a, c);
    }
    if (!ok) continue;
    const auto it = std::upper_bound(v.begin(), v.end(), cell);
    if (it != v.begin() && std::prev(it)->contains(cell)) return true;
  }
  return false;
}

template struct DeltaSet<2>;
template struct DeltaSet<3>;

}  // namespace esamr::forest
