// Tests for Nodes: globally unique numbering with hanging constraints.
// Key properties:
//  * slot weights always sum to one (partition of unity),
//  * the numbering is independent of the rank count,
//  * on affine macro meshes the constrained interpolation reproduces global
//    linear functions exactly — this exercises hanging face/edge constraints
//    and inter-tree canonicalization at once.
#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <map>
#include <set>
#include <vector>

#include "forest/nodes.h"

using namespace esamr::forest;
namespace par = esamr::par;

namespace {

template <int Dim>
bool random_mark(int t, const Octant<Dim>& o, unsigned salt, int mod) {
  const std::uint64_t h =
      (o.key() * 0x9e3779b97f4a7c15ull + static_cast<unsigned>(t) * 77ull + salt) >> 17;
  return h % static_cast<unsigned>(mod) == 0;
}

/// Physical position of a lattice point via the macro vertex interpolation
/// (exact for the affine cells of brick meshes).
template <int Dim>
std::array<double, 3> physical_point(const Connectivity<Dim>& conn, int tree,
                                     std::array<std::int32_t, 3> p) {
  const auto& tv = conn.tree_to_vertex()[static_cast<std::size_t>(tree)];
  std::array<double, 3> x{0, 0, 0};
  for (int c = 0; c < Topo<Dim>::num_corners; ++c) {
    double w = 1.0;
    for (int a = 0; a < Dim; ++a) {
      const double r =
          static_cast<double>(p[static_cast<std::size_t>(a)]) / Octant<Dim>::root_len;
      w *= ((c >> a) & 1) ? r : (1.0 - r);
    }
    const auto& v = conn.vertex_coords()[static_cast<std::size_t>(tv[static_cast<std::size_t>(c)])];
    for (int d = 0; d < 3; ++d) x[static_cast<std::size_t>(d)] += w * v[static_cast<std::size_t>(d)];
  }
  return x;
}

/// Gather the (gid -> physical position) table from all owners.
template <int Dim>
std::map<std::int64_t, std::array<double, 3>> gather_node_positions(
    par::Comm& comm, const Connectivity<Dim>& conn, const NodeNumbering<Dim>& nodes) {
  struct Entry {
    std::int64_t gid;
    double x, y, z;
  };
  std::vector<Entry> local;
  for (std::size_t i = 0; i < nodes.owned_keys.size(); ++i) {
    const auto& k = nodes.owned_keys[i];
    const auto pos = physical_point<Dim>(conn, k[0], {k[1], k[2], k[3]});
    local.push_back({nodes.owned_offset + static_cast<std::int64_t>(i), pos[0], pos[1], pos[2]});
  }
  std::map<std::int64_t, std::array<double, 3>> table;
  for (const auto& from : comm.allgatherv(local)) {
    for (const Entry& e : from) table[e.gid] = {e.x, e.y, e.z};
  }
  return table;
}

/// Check partition of unity and linear reproduction on an affine mesh.
template <int Dim>
void expect_linear_reproduction(const Forest<Dim>& f, const NodeNumbering<Dim>& nodes) {
  const auto table = gather_node_positions(f.comm(), f.conn(), nodes);
  const auto lin = [](const std::array<double, 3>& x) {
    return 0.7 + 1.3 * x[0] - 0.4 * x[1] + 2.1 * x[2];
  };
  std::size_t li = 0;
  f.for_each_local([&](int t, const Octant<Dim>& o) {
    for (int c = 0; c < Topo<Dim>::num_corners; ++c) {
      const auto& slot = nodes.elements[li][static_cast<std::size_t>(c)];
      ASSERT_FALSE(slot.empty());
      double wsum = 0.0, value = 0.0;
      for (const auto& [gid, w] : slot) {
        ASSERT_TRUE(table.count(gid));
        wsum += w;
        value += w * lin(table.at(gid));
      }
      EXPECT_NEAR(wsum, 1.0, 1e-12);
      const auto cp = o.corner_point(c);
      EXPECT_NEAR(value, lin(physical_point<Dim>(f.conn(), t, cp)), 1e-9);
    }
    ++li;
  });
}

}  // namespace

class NodesRanks : public ::testing::TestWithParam<int> {};

TEST_P(NodesRanks, UniformSquareCountsAndIds) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::unit();
    auto f = Forest<2>::new_uniform(c, &conn, 3);
    const auto g = GhostLayer<2>::build(f);
    const auto nodes = NodeNumbering<2>::build(f, g);
    EXPECT_EQ(nodes.num_global, (8 + 1) * (8 + 1));
    expect_linear_reproduction(f, nodes);
  });
}

TEST_P(NodesRanks, PeriodicBrickCounts) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::brick({2, 2}, {true, true});
    auto f = Forest<2>::new_uniform(c, &conn, 2);
    const auto g = GhostLayer<2>::build(f);
    const auto nodes = NodeNumbering<2>::build(f, g);
    // On the torus every node is interior: exactly (2*4)^2 nodes.
    EXPECT_EQ(nodes.num_global, 64);
  });
}

TEST_P(NodesRanks, HangingNodesReproduceLinears2D) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::brick({2, 1}, {false, false});
    auto f = Forest<2>::new_uniform(c, &conn, 1);
    f.refine(5, true, [&](int t, const Octant<2>& o) {
      return o.level < 4 && random_mark(t, o, 21, 3);
    });
    f.balance();
    f.partition();
    const auto g = GhostLayer<2>::build(f);
    const auto nodes = NodeNumbering<2>::build(f, g);
    expect_linear_reproduction(f, nodes);
  });
}

TEST_P(NodesRanks, HangingNodesReproduceLinears3D) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<3>::brick({2, 1, 1}, {false, false, false});
    auto f = Forest<3>::new_uniform(c, &conn, 1);
    f.refine(4, true, [&](int t, const Octant<3>& o) {
      return o.level < 3 && random_mark(t, o, 31, 3);
    });
    f.balance();
    f.partition();
    const auto g = GhostLayer<3>::build(f);
    const auto nodes = NodeNumbering<3>::build(f, g);
    expect_linear_reproduction(f, nodes);
  });
}

TEST_P(NodesRanks, CascadedHangingCorner3D) {
  // A corner-concentrated refinement produces hanging nodes whose masters
  // can themselves hang (constraint chains).
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<3>::unit();
    auto f = Forest<3>::new_uniform(c, &conn, 1);
    f.refine(5, true, [&](int, const Octant<3>& o) {
      return o.x == 0 && o.y == 0 && o.z == 0 && o.level < 5;
    });
    f.balance();
    f.partition();
    const auto g = GhostLayer<3>::build(f);
    const auto nodes = NodeNumbering<3>::build(f, g);
    expect_linear_reproduction(f, nodes);
  });
}

TEST_P(NodesRanks, CountIndependentOfRankCount) {
  const int p = GetParam();
  const auto count_with = [](int nranks) {
    std::int64_t total = 0;
    par::run(nranks, [&](par::Comm& c) {
      const auto conn = Connectivity<3>::rotcubes();
      auto f = Forest<3>::new_uniform(c, &conn, 1);
      f.refine(3, true, [&](int t, const Octant<3>& o) {
        return o.level < 3 && random_mark(t, o, 12, 4);
      });
      f.balance();
      f.partition();
      const auto g = GhostLayer<3>::build(f);
      const auto nodes = NodeNumbering<3>::build(f, g);
      if (c.rank() == 0) total = nodes.num_global;
    });
    return total;
  };
  EXPECT_EQ(count_with(p), count_with(1));
}

TEST_P(NodesRanks, MoebiusNumberingConsistent) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<2>::moebius(5);
    auto f = Forest<2>::new_uniform(c, &conn, 2);
    f.refine(4, false, [&](int t, const Octant<2>& o) { return random_mark(t, o, 5, 3); });
    f.balance();
    const auto g = GhostLayer<2>::build(f);
    const auto nodes = NodeNumbering<2>::build(f, g);
    // Partition of unity everywhere; every owned key owned exactly once.
    std::size_t li = 0;
    f.for_each_local([&](int, const Octant<2>&) {
      for (int cc = 0; cc < 4; ++cc) {
        double wsum = 0.0;
        for (const auto& [gid, w] : nodes.elements[li][static_cast<std::size_t>(cc)]) {
          wsum += w;
          EXPECT_GE(gid, 0);
          EXPECT_LT(gid, nodes.num_global);
        }
        EXPECT_NEAR(wsum, 1.0, 1e-12);
      }
      ++li;
    });
    // Global key uniqueness across owners.
    std::vector<typename NodeNumbering<2>::Key> mine = nodes.owned_keys;
    std::size_t total = 0;
    std::set<typename NodeNumbering<2>::Key> seen;
    for (const auto& from : c.allgatherv(mine)) {
      for (const auto& k : from) {
        EXPECT_TRUE(seen.insert(k).second);
        ++total;
      }
    }
    EXPECT_EQ(static_cast<std::int64_t>(total), nodes.num_global);
  });
}

TEST_P(NodesRanks, ShellNodesConsistent) {
  par::run(GetParam(), [&](par::Comm& c) {
    const auto conn = Connectivity<3>::shell();
    auto f = Forest<3>::new_uniform(c, &conn, 1);
    const auto g = GhostLayer<3>::build(f);
    const auto nodes = NodeNumbering<3>::build(f, g);
    // Uniform level-1 shell: tangential nodes = cubed-sphere surface grid
    // with 4x4 cells per cap face: 6*16 quads -> 98 surface nodes; radial
    // layers = 2^1 + 1 = 3. Total 98 * 3.
    EXPECT_EQ(nodes.num_global, 98 * 3);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, NodesRanks, ::testing::Values(1, 2, 3, 5));

namespace {

/// One rank's numbering flattened for bit-exact comparison (weights by bits).
struct FlatNumbering {
  std::vector<std::int64_t> slots;  // per element, per corner: n, (gid, weight bits)...
  std::vector<std::array<std::int32_t, 4>> owned_keys;
  std::vector<std::int64_t> rank_offsets;
  std::vector<std::pair<std::int64_t, std::array<std::int32_t, 4>>> gid_keys;
  friend bool operator==(const FlatNumbering&, const FlatNumbering&) = default;
};

template <int Dim>
FlatNumbering flatten(const NodeNumbering<Dim>& n) {
  FlatNumbering f;
  for (const auto& elem : n.elements) {
    for (const auto& slot : elem) {
      f.slots.push_back(static_cast<std::int64_t>(slot.size()));
      for (const auto& c : slot) {
        f.slots.push_back(c.gid);
        f.slots.push_back(std::bit_cast<std::int64_t>(c.weight));
      }
    }
  }
  f.owned_keys = n.owned_keys;
  f.rank_offsets = n.rank_offsets;
  f.gid_keys = n.gid_keys;
  return f;
}

/// Builds the mesh produced by `make` at `nranks` and returns every rank's
/// flattened numbering, with the reference protocol selected or not.
template <int Dim, typename Make>
std::vector<FlatNumbering> numbering_per_rank(int nranks, bool reference, const Make& make) {
  setenv("ESAMR_NODES_REFERENCE", reference ? "1" : "0", 1);
  std::vector<FlatNumbering> out(static_cast<std::size_t>(nranks));
  par::run(nranks, [&](par::Comm& c) {
    const Forest<Dim> f = make(c);
    const auto g = GhostLayer<Dim>::build(f);
    out[static_cast<std::size_t>(c.rank())] = flatten(NodeNumbering<Dim>::build(f, g));
  });
  unsetenv("ESAMR_NODES_REFERENCE");
  return out;
}

template <int Dim, typename Make>
void expect_equivalent(int nranks, const Make& make) {
  const auto ref = numbering_per_rank<Dim>(nranks, true, make);
  const auto got = numbering_per_rank<Dim>(nranks, false, make);
  for (int r = 0; r < nranks; ++r) {
    const auto& a = ref[static_cast<std::size_t>(r)];
    const auto& b = got[static_cast<std::size_t>(r)];
    EXPECT_EQ(a.slots, b.slots) << "element slots differ on rank " << r;
    EXPECT_EQ(a.owned_keys, b.owned_keys) << "owned_keys differ on rank " << r;
    EXPECT_EQ(a.rank_offsets, b.rank_offsets) << "rank_offsets differ on rank " << r;
    EXPECT_EQ(a.gid_keys, b.gid_keys) << "gid_keys differ on rank " << r;
  }
}

// Refinement concentrated near tree boundaries (every level-l octant touching
// a root face is a candidate), so hanging nodes land on inter-tree faces,
// edges and corners as well as inside trees.
template <int Dim>
bool boundary_mark(int t, const Octant<Dim>& o, unsigned salt) {
  bool on_face = false;
  for (int f = 0; f < 2 * Dim; ++f) on_face = on_face || o.touches_root_face(f);
  return random_mark(t, o, salt, on_face ? 2 : 5);
}

}  // namespace

class NodesEquivalence : public ::testing::TestWithParam<int> {};

// The default protocol must reproduce the reference oracle bit for bit: every
// element slot (gid and weight bits), the owned keys, the rank offsets and the
// gid -> key table, on every rank.
TEST_P(NodesEquivalence, Moebius2D) {
  expect_equivalent<2>(GetParam(), [](par::Comm& c) {
    static const auto conn = Connectivity<2>::moebius(5);
    auto f = Forest<2>::new_uniform(c, &conn, 2);
    f.refine(5, true, [](int t, const Octant<2>& o) {
      return o.level < 5 && boundary_mark(t, o, 41);
    });
    f.balance();
    f.partition();
    return f;
  });
}

TEST_P(NodesEquivalence, PeriodicBrick2D) {
  expect_equivalent<2>(GetParam(), [](par::Comm& c) {
    static const auto conn = Connectivity<2>::brick({3, 2}, {true, true});
    auto f = Forest<2>::new_uniform(c, &conn, 2);
    f.refine(5, true, [](int t, const Octant<2>& o) {
      return o.level < 5 && boundary_mark(t, o, 43);
    });
    f.balance();
    f.partition();
    return f;
  });
}

TEST_P(NodesEquivalence, RotcubesFractal3D) {
  expect_equivalent<3>(GetParam(), [](par::Comm& c) {
    static const auto conn = Connectivity<3>::rotcubes();
    auto f = Forest<3>::new_uniform(c, &conn, 1);
    for (int l = 1; l < 4; ++l) {
      f.refine(l + 1, false, [&](int, const Octant<3>& o) {
        const int id = o.child_id();
        return o.level == l && (id == 0 || id == 3 || id == 5 || id == 6);
      });
    }
    f.balance();
    f.partition();
    return f;
  });
}

TEST_P(NodesEquivalence, Shell3D) {
  expect_equivalent<3>(GetParam(), [](par::Comm& c) {
    static const auto conn = Connectivity<3>::shell();
    auto f = Forest<3>::new_uniform(c, &conn, 1);
    f.refine(3, true, [](int t, const Octant<3>& o) {
      return o.level < 3 && boundary_mark(t, o, 47);
    });
    f.balance();
    f.partition();
    return f;
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, NodesEquivalence, ::testing::Values(1, 2, 4, 7, 16));
