// Tests for the recursive topological iterate (forest/iterate.h): every node
// point of the local leaves is visited exactly once, with exactly the touching
// leaves a brute-force point search over the local + ghost leaf directory
// finds — across tree faces, edges and corners — and every hanging point
// names the same big side and constraining face or edge.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "forest/iterate.h"

using namespace esamr::forest;
namespace par = esamr::par;

namespace {

using Pt = std::array<std::int32_t, 3>;
using Frame = std::pair<int, Pt>;
/// (tree, point, leaf octant coordinates + level, owner, quadrant, corner)
using TouchRow = std::tuple<int, Pt, std::array<std::int32_t, 4>, int, int, bool>;

template <int Dim>
std::array<std::int32_t, 4> oct_row(const Octant<Dim>& o) {
  return {o.x, o.y, o.z, o.level};
}

/// Brute force: the touches of node point (t, p) by a point search in the
/// sorted leaf directory, one search per frame and quadrant; sets `key` to the
/// lowest frame.
template <int Dim>
std::vector<TouchRow> brute_touches(const Connectivity<Dim>& conn,
                                    const std::vector<std::vector<LeafRef<Dim>>>& dir, int t,
                                    const Pt& p, Frame& key) {
  std::vector<Frame> frames{{t, p}};
  for (const auto& im : conn.point_images(t, p)) frames.push_back(im);
  key = *std::min_element(frames.begin(), frames.end());
  std::map<std::tuple<int, Pt, std::array<std::int32_t, 4>>, TouchRow> rows;
  for (const auto& [ft, fp] : frames) {
    for (int q = 0; q < Topo<Dim>::num_corners; ++q) {
      Octant<Dim> cell;
      cell.level = Octant<Dim>::max_level;
      bool ok = true;
      for (int a = 0; a < Dim; ++a) {
        const std::int32_t c = fp[static_cast<std::size_t>(a)] - ((q >> a) & 1);
        ok = ok && c >= 0 && c < Octant<Dim>::root_len;
        cell.set_coord(a, c);
      }
      if (!ok) continue;
      const auto& v = dir[static_cast<std::size_t>(ft)];
      const auto it = std::upper_bound(
          v.begin(), v.end(), cell,
          [](const Octant<Dim>& a, const LeafRef<Dim>& b) { return a < b.oct; });
      EXPECT_NE(it, v.begin());
      if (it == v.begin()) continue;
      const LeafRef<Dim>& l = *(it - 1);
      EXPECT_TRUE(l.oct.contains(cell));
      bool corner = true;
      for (int a = 0; a < Dim; ++a) {
        const std::int32_t rel = fp[static_cast<std::size_t>(a)] - l.oct.coord(a);
        corner = corner && (rel == 0 || rel == l.oct.size());
      }
      const auto id = std::make_tuple(ft, fp, oct_row(l.oct));
      if (!rows.contains(id)) {
        rows.emplace(id, TouchRow{ft, fp, oct_row(l.oct), l.owner, q, corner});
      }
    }
  }
  std::vector<TouchRow> out;
  for (const auto& [id, row] : rows) out.push_back(row);
  return out;
}

template <int Dim>
std::vector<TouchRow> rows_of(typename CornerIterator<Dim>::Touches touches, Frame& key) {
  std::vector<TouchRow> out;
  key = Frame{touches[0].tree, touches[0].pt};
  for (const auto& tc : touches) {
    key = std::min(key, Frame{tc.tree, tc.pt});
    out.emplace_back(tc.tree, tc.pt, oct_row(tc.leaf.oct), tc.leaf.owner, tc.quadrant, tc.corner);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Hanging entities named by a touch list: (big leaf tree, leaf, interior axes
/// and the entity's lower corner in that frame).
template <int Dim>
std::set<std::tuple<int, std::array<std::int32_t, 4>, int, Pt>> hanging_of(
    const std::vector<TouchRow>& rows) {
  std::set<std::tuple<int, std::array<std::int32_t, 4>, int, Pt>> out;
  for (const auto& [t, p, o, owner, q, corner] : rows) {
    if (corner) continue;
    const std::int32_t h = Octant<Dim>::root_len >> o[3];
    int axes = 0;
    Pt lo = p;
    for (int a = 0; a < Dim; ++a) {
      const std::int32_t rel = p[static_cast<std::size_t>(a)] - o[static_cast<std::size_t>(a)];
      if (rel != 0 && rel != h) {
        axes |= 1 << a;
        lo[static_cast<std::size_t>(a)] = o[static_cast<std::size_t>(a)];
      }
    }
    EXPECT_NE(axes, 0);
    EXPECT_NE(axes, (1 << Dim) - 1);
    out.emplace(t, o, axes, lo);
  }
  return out;
}

/// Full check of CornerIterator on one rank: for_each over all local leaves,
/// for_each restricted to every third local leaf, and at_point on a sample.
template <int Dim>
void check_iterate(const Forest<Dim>& f) {
  const auto g = GhostLayer<Dim>::build(f);
  const auto dir = build_leaf_directory(f, g);
  // Brute-force node set: every corner of every local leaf, by lowest frame.
  std::map<Frame, std::vector<TouchRow>> brute;
  std::vector<std::vector<Frame>> corner_keys;  // per local element
  f.for_each_local([&](int t, const Octant<Dim>& o) {
    auto& ks = corner_keys.emplace_back();
    for (int c = 0; c < Topo<Dim>::num_corners; ++c) {
      Frame key;
      auto rows = brute_touches(f.conn(), dir, t, o.corner_point(c), key);
      std::sort(rows.begin(), rows.end());
      ks.push_back(key);
      brute.emplace(key, std::move(rows));
    }
  });

  CornerIterator<Dim> it(f, g);
  std::map<Frame, int> visits;
  std::map<Frame, std::vector<TouchRow>> seen;
  it.for_each({}, [&](typename CornerIterator<Dim>::Touches touches) {
    Frame key;
    auto rows = rows_of<Dim>(touches, key);
    ++visits[key];
    seen[key] = std::move(rows);
  });
  EXPECT_EQ(visits.size(), brute.size());
  std::set<std::tuple<int, std::array<std::int32_t, 4>, int, Pt>> hang_brute, hang_seen;
  for (const auto& [key, rows] : brute) {
    ASSERT_EQ(visits[key], 1) << "node (" << key.first << ", " << key.second[0] << ", "
                              << key.second[1] << ", " << key.second[2] << ") visit count";
    EXPECT_EQ(seen[key], rows) << "touches differ at tree " << key.first;
    const auto hb = hanging_of<Dim>(rows);
    const auto hs = hanging_of<Dim>(seen[key]);
    hang_brute.insert(hb.begin(), hb.end());
    hang_seen.insert(hs.begin(), hs.end());
  }
  EXPECT_EQ(hang_seen, hang_brute);

  // Restricted: exactly the corners of the active leaves, once each.
  std::vector<std::uint8_t> active(corner_keys.size(), 0);
  std::set<Frame> want;
  for (std::size_t i = 0; i < active.size(); i += 3) {
    active[i] = 1;
    want.insert(corner_keys[i].begin(), corner_keys[i].end());
  }
  std::map<Frame, int> rvisits;
  it.for_each(active, [&](typename CornerIterator<Dim>::Touches touches) {
    Frame key;
    rows_of<Dim>(touches, key);
    ++rvisits[key];
  });
  EXPECT_EQ(rvisits.size(), want.size());
  for (const Frame& k : want) EXPECT_EQ(rvisits[k], 1);

  // Point-restricted: the requested point alone, with the full touch set.
  std::size_t n = 0;
  for (const auto& [key, rows] : brute) {
    if (n++ % 7 != 0) continue;
    int calls = 0;
    const auto visit = [&](typename CornerIterator<Dim>::Touches touches) {
      Frame k2;
      EXPECT_EQ(rows_of<Dim>(touches, k2), rows);
      EXPECT_EQ(k2, key);
      ++calls;
    };
    const bool hit = it.at_point(key.first, key.second, visit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(calls, 1);
  }
}

bool mark(int t, std::uint64_t key, unsigned salt, int mod) {
  return ((key * 0x9e3779b97f4a7c15ull + static_cast<unsigned>(t) * 77ull + salt) >> 17) %
             static_cast<unsigned>(mod) == 0;
}

}  // namespace

class IterateRanks : public ::testing::TestWithParam<int> {};

TEST_P(IterateRanks, Moebius2D) {
  par::run(GetParam(), [](par::Comm& c) {
    const auto conn = Connectivity<2>::moebius(5);
    auto f = Forest<2>::new_uniform(c, &conn, 2);
    f.refine(5, true,
             [](int t, const Octant<2>& o) { return o.level < 5 && mark(t, o.key(), 3, 3); });
    f.balance();
    f.partition();
    check_iterate(f);
  });
}

TEST_P(IterateRanks, RotcubesFractal3D) {
  par::run(GetParam(), [](par::Comm& c) {
    const auto conn = Connectivity<3>::rotcubes();
    auto f = Forest<3>::new_uniform(c, &conn, 1);
    for (int l = 1; l < 4; ++l) {
      f.refine(l + 1, false, [&](int, const Octant<3>& o) {
        const int id = o.child_id();
        return o.level == l && (id == 0 || id == 3 || id == 5 || id == 6);
      });
    }
    f.balance();
    f.partition();
    check_iterate(f);
  });
}

TEST_P(IterateRanks, Shell3D) {
  par::run(GetParam(), [](par::Comm& c) {
    const auto conn = Connectivity<3>::shell();
    auto f = Forest<3>::new_uniform(c, &conn, 1);
    f.refine(3, true,
             [](int t, const Octant<3>& o) { return o.level < 3 && mark(t, o.key(), 9, 3); });
    f.balance();
    f.partition();
    check_iterate(f);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, IterateRanks, ::testing::Values(1, 3, 5));
