// Bit-identity gate for the spectral-element kernels. Every dG, transfer and
// cG entry point runs on forests with 2:1 hanging faces and rotated
// inter-tree faces (the Möbius strip in 2D, six rotated cubes in 3D) at
// degrees 1 and 3 on 1 and 3 ranks, and the raw bits of its output are
// hashed (FNV-1a) and compared with pinned constants:
//   * one rhs and one RK step of Advection<2|3> and
//     ElasticWave<2|3, double|float>;
//   * transfer_fields under recursive refinement and recursive coarsening;
//   * the assembled assemble_poisson / assemble_stokes operators.
// The dG and transfer digests are partition-invariant (elementwise
// arithmetic; the halo only copies values), so one constant covers both
// rank counts. The assembled matrices sum their triples in an order that
// depends on the partition, so they are pinned per rank count.
//
// Inputs are polynomials of the node coordinates and the geometry maps are
// multilinear, so no libm transcendental enters the hashed values and the
// constants hold in every build type (Release, RelWithDebInfo, sanitizers).
// A deliberate change of numerics re-pins: the failure prints the full
// table of observed digests in the same form as kPins below.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>

#include "sfem/cg_fem.h"
#include "sfem/dg_advection.h"
#include "sfem/dg_elastic.h"
#include "sfem/transfer.h"

using namespace esamr::sfem;
using namespace esamr::forest;
namespace par = esamr::par;
namespace solver = esamr::solver;

namespace {

struct Pin {
  const char* name;
  std::uint64_t bits;
};

// clang-format off
constexpr Pin kPins[] = {
    {"adv2d.p1.rhs", 0x0c34d53456666dccull},
    {"adv2d.p1.step", 0x5c701334d74297acull},
    {"adv2d.p3.rhs", 0xbc704b5ec613954cull},
    {"adv2d.p3.step", 0xdc194265533b2532ull},
    {"adv3d.p1.rhs", 0x7b5e3a1019f3cd05ull},
    {"adv3d.p1.step", 0xcf3787f00c336d4cull},
    {"adv3d.p3.rhs", 0xa5d83b3857eeb5c5ull},
    {"adv3d.p3.step", 0xcab44d5230683f7cull},
    {"ew2d.p1.f32.rhs", 0x08500f302e144751ull},
    {"ew2d.p1.f32.step", 0x0326181eec9ebd72ull},
    {"ew2d.p1.f64.rhs", 0xdc7231b3dc479d7aull},
    {"ew2d.p1.f64.step", 0x104b4b1a9b2978d8ull},
    {"ew2d.p3.f32.rhs", 0x485c5b0b8b05b84full},
    {"ew2d.p3.f32.step", 0x33e1a8e7319ebd30ull},
    {"ew2d.p3.f64.rhs", 0x33c0347658f1b1e2ull},
    {"ew2d.p3.f64.step", 0x72656f146e679604ull},
    {"ew3d.p1.f32.rhs", 0xc8d7d1d2bafaccdeull},
    {"ew3d.p1.f32.step", 0x813a95edd4c6f675ull},
    {"ew3d.p1.f64.rhs", 0xbf31fd4d19989da7ull},
    {"ew3d.p1.f64.step", 0xcfb03dc681adcdffull},
    {"ew3d.p3.f32.rhs", 0x247bb7484d76d024ull},
    {"ew3d.p3.f32.step", 0x4b28b20f50e5c499ull},
    {"ew3d.p3.f64.rhs", 0xb5ff5248391cf305ull},
    {"ew3d.p3.f64.step", 0x22dfc1c1d343d5f8ull},
    {"poisson2d@P1", 0xc95f6518ba32d494ull},
    {"poisson2d@P3", 0x6cee7673b7a50747ull},
    {"poisson3d@P1", 0x7fb6f34aee32ac9aull},
    {"poisson3d@P3", 0x5c785bb1676b9cf0ull},
    {"stokes2d@P1", 0xfc7cd53752b0b219ull},
    {"stokes2d@P3", 0x9d05c6598133bbfeull},
    {"stokes3d@P1", 0xb649bb4f9c7619d2ull},
    {"stokes3d@P3", 0x05fca5c0b4faf0c4ull},
    {"transfer2d.p1.coarsen", 0x5c4044d9af489a6cull},
    {"transfer2d.p1.refine", 0xe55ff5c39929b3eaull},
    {"transfer2d.p3.coarsen", 0x193027e27e827a0dull},
    {"transfer2d.p3.refine", 0x56d7b65908332fb8ull},
    {"transfer3d.p1.coarsen", 0xb57fd194df79056full},
    {"transfer3d.p1.refine", 0x27d6fe55a3de65f0ull},
    {"transfer3d.p3.coarsen", 0xfc4c93b9fabab006ull},
    {"transfer3d.p3.refine", 0xf107c126ac1c9087ull},
};
// clang-format on

using Digests = std::map<std::string, std::uint64_t>;

/// FNV-1a over the rank-ordered concatenation of every rank's local part.
template <typename T>
std::uint64_t global_hash(par::Comm& c, std::span<const T> local) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& part : c.allgatherv(local)) {
    const auto* p = reinterpret_cast<const unsigned char*>(part.data());
    for (std::size_t i = 0; i < part.size() * sizeof(T); ++i) {
      h = (h ^ p[i]) * 0x100000001b3ull;
    }
  }
  return h;
}

template <int Dim>
bool random_mark(int t, const Octant<Dim>& o, unsigned salt, int mod) {
  const std::uint64_t h =
      (o.key() * 0x9e3779b97f4a7c15ull + static_cast<unsigned>(t) * 77ull + salt) >> 17;
  return h % static_cast<unsigned>(mod) == 0;
}

/// A smooth polynomial field of the physical position, one per `k`.
double poly(const double* x, int k) {
  return 0.1 * (k + 1) * x[0] - 0.2 * x[1] * x[1] + 0.05 * k * x[2] + x[0] * x[1] + 0.3;
}

/// The Möbius strip's five trees laid flat along x with a mild shear, so
/// the Jacobians are not constant; the half-twist lives in the topology.
GeomFn<2> flat_moebius() {
  return [](int t, std::array<double, 2> r) {
    return std::array<double, 3>{t + r[0] + 0.125 * r[0] * r[1], r[1] + 0.0625 * r[0], 0.0};
  };
}

template <int Dim>
struct Setup;

template <>
struct Setup<2> {
  Connectivity<2> conn = Connectivity<2>::moebius(5);
  GeomFn<2> geom = flat_moebius();
};

template <>
struct Setup<3> {
  Connectivity<3> conn = Connectivity<3>::rotcubes();
  GeomFn<3> geom = vertex_map<3>(conn);
};

/// Level-1 forest with random refinement to level 3 (2D) / 2 (3D),
/// balanced and partitioned: hanging faces on rotated tree boundaries.
template <int Dim>
Forest<Dim> hanging_forest(par::Comm& c, const Connectivity<Dim>& conn) {
  auto f = Forest<Dim>::new_uniform(c, &conn, 1);
  const int top = Dim == 2 ? 3 : 2;
  f.refine(top, true,
           [&](int t, const Octant<Dim>& o) { return o.level < top && random_mark(t, o, 7, 3); });
  f.balance();
  f.partition();
  return f;
}

template <int Dim>
void advection_digests(par::Comm& c, const DgMesh<Dim>& mesh, const std::string& tag,
                       Digests& out) {
  const Advection<Dim> adv(&mesh, [](const std::array<double, 3>& x) {
    return std::array<double, 3>{1.0 + 0.25 * x[1], 0.5 - 0.25 * x[0], 0.25};
  });
  std::vector<double> u(static_cast<std::size_t>(mesh.n_local) * mesh.nv);
  for (std::size_t i = 0; i < u.size(); ++i) u[i] = poly(&mesh.coords[i * 3], 0);
  std::vector<double> k(u.size());
  adv.rhs(u, k);
  out["adv" + tag + ".rhs"] = global_hash<double>(c, k);
  adv.step(u, adv.stable_dt(0.5));
  out["adv" + tag + ".step"] = global_hash<double>(c, u);
}

template <int Dim, typename Real>
void elastic_digests(par::Comm& c, const DgMesh<Dim>& mesh, const std::string& tag,
                     Digests& out) {
  using Wave = ElasticWave<Dim, Real>;
  // Fluid (mu = 0) below x = 0.5 and a density gradient: both Riemann
  // branches and heterogeneous impedances. Each precision uses the other
  // boundary condition than the other dimension does.
  const bool free = (Dim == 2) == std::is_same_v<Real, double>;
  const Wave wave(
      &mesh,
      [](const std::array<double, 3>& x) {
        return Material{1.0 + 0.1 * x[0], 2.0, x[0] < 0.5 ? 0.0 : 1.0};
      },
      free ? Wave::Boundary::free_surface : Wave::Boundary::rigid);
  auto q = wave.zero_state();
  const int nv = mesh.nv;
  for (std::int64_t e = 0; e < mesh.n_local; ++e) {
    for (int comp = 0; comp < Wave::ncomp; ++comp) {
      for (int node = 0; node < nv; ++node) {
        const auto nb = static_cast<std::size_t>(e * nv + node);
        q[(static_cast<std::size_t>(e) * Wave::ncomp + static_cast<std::size_t>(comp)) * nv +
          static_cast<std::size_t>(node)] = static_cast<Real>(poly(&mesh.coords[nb * 3], comp));
      }
    }
  }
  std::vector<Real> k(q.size());
  wave.rhs(q, k);
  out["ew" + tag + ".rhs"] = global_hash<Real>(c, k);
  wave.step(q, wave.stable_dt(0.4));
  out["ew" + tag + ".step"] = global_hash<Real>(c, q);
}

/// Two-component nodal samples of poly() on the reference-affine forest.
template <int Dim>
std::vector<double> sample(const Forest<Dim>& f, const Basis1d& b) {
  const int np = b.np, nv = ipow(np, Dim);
  std::vector<double> data;
  f.for_each_local([&](int t, const Octant<Dim>& o) {
    for (int comp = 0; comp < 2; ++comp) {
      for (int node = 0; node < nv; ++node) {
        double x[3] = {static_cast<double>(t), 0.0, 0.0};
        int rem = node;
        for (int a = 0; a < Dim; ++a) {
          const double xi = b.nodes[static_cast<std::size_t>(rem % np)];
          rem /= np;
          x[a] += (o.coord(a) + 0.5 * (xi + 1.0) * o.size()) /
                  static_cast<double>(Octant<Dim>::root_len);
        }
        data.push_back(poly(x, comp));
      }
    }
  });
  return data;
}

template <int Dim>
void transfer_digests(par::Comm& c, const Connectivity<Dim>& conn, int degree,
                      const std::string& tag, Digests& out) {
  const auto basis = Basis1d::make(degree);
  auto f = hanging_forest<Dim>(c, conn);
  auto data = sample<Dim>(f, basis);
  const auto snapshot = [&] {
    std::vector<std::vector<Octant<Dim>>> trees;
    for (int t = 0; t < f.num_trees(); ++t) trees.push_back(f.tree(t));
    return trees;
  };
  const int top = Dim == 2 ? 5 : 4;
  auto before = snapshot();
  f.refine(top, true,
           [&](int t, const Octant<Dim>& o) { return o.level < top && random_mark(t, o, 11, 4); });
  f.balance();
  data = transfer_fields<Dim>(before, f, data, 2, basis);
  out["transfer" + tag + ".refine"] = global_hash<double>(c, data);
  before = snapshot();
  f.coarsen(true, [&](int t, const Octant<Dim>& p) { return !random_mark(t, p, 5, 3); });
  f.balance();
  data = transfer_fields<Dim>(before, f, data, 2, basis);
  out["transfer" + tag + ".coarsen"] = global_hash<double>(c, data);
}

/// The owned diagonal block, the diagonal, and one matvec (which folds in
/// the off-rank columns) of an assembled operator.
std::uint64_t csr_hash(par::Comm& c, const solver::DistCsr& a) {
  std::vector<std::int64_t> rowptr;
  std::vector<std::int32_t> col;
  std::vector<double> val;
  a.local_block(rowptr, col, val);
  std::vector<double> x(static_cast<std::size_t>(a.rows_owned())), y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 1.0 + 1e-3 * static_cast<double>(a.row_begin() + static_cast<std::int64_t>(i));
  }
  a.matvec(x, y);
  const std::uint64_t parts[5] = {
      global_hash<std::int64_t>(c, rowptr), global_hash<std::int32_t>(c, col),
      global_hash<double>(c, val), global_hash<double>(c, a.diagonal()),
      global_hash<double>(c, y)};
  return global_hash<std::uint64_t>(c, c.rank() == 0 ? std::span<const std::uint64_t>(parts)
                                                      : std::span<const std::uint64_t>());
}

template <int Dim>
void cg_digests(par::Comm& c, const Setup<Dim>& s, const std::string& tag, Digests& out) {
  const auto f = hanging_forest<Dim>(c, s.conn);
  const auto g = GhostLayer<Dim>::build(f);
  const auto nodes = NodeNumbering<Dim>::build(f, g);
  const auto space = CgSpace<Dim>::build(f, nodes, s.geom);
  std::vector<double> b;
  const auto a = assemble_poisson<Dim>(
      space, [](const std::array<double, 3>& x) { return 1.0 + 0.5 * x[0]; },
      [](const std::array<double, 3>& x) { return x[0] * x[1]; },
      [](const std::array<double, 3>& x) { return x[0] - x[1]; }, b);
  out["poisson" + tag] = csr_hash(c, a) ^ global_hash<double>(c, b);
  const auto sys = assemble_stokes<Dim>(
      space, [](std::int64_t, const std::array<double, 3>& x) { return 1.0 + 0.5 * x[1]; },
      [](const std::array<double, 3>& x) { return std::array<double, 3>{0.0, -x[0], 0.1}; });
  out["stokes" + tag] = csr_hash(c, sys.matrix) ^ csr_hash(c, sys.velocity_block) ^
                        global_hash<double>(c, sys.rhs) ^
                        global_hash<double>(c, sys.pressure_diag);
}

template <int Dim>
void dim_digests(par::Comm& c, Digests& out) {
  const Setup<Dim> s;
  const std::string d = std::to_string(Dim) + "d";
  for (const int degree : {1, 3}) {
    const std::string tag = d + ".p" + std::to_string(degree);
    const auto f = hanging_forest<Dim>(c, s.conn);
    const auto g = GhostLayer<Dim>::build(f);
    const auto mesh = DgMesh<Dim>::build(f, g, degree, s.geom);
    advection_digests<Dim>(c, mesh, tag, out);
    elastic_digests<Dim, double>(c, mesh, tag + ".f64", out);
    elastic_digests<Dim, float>(c, mesh, tag + ".f32", out);
    transfer_digests<Dim>(c, s.conn, degree, tag, out);
  }
  cg_digests<Dim>(c, s, d + "@P" + std::to_string(c.size()), out);
}

Digests all_digests(int ranks) {
  Digests out;
  par::run(ranks, [&](par::Comm& c) {
    Digests mine;
    dim_digests<2>(c, mine);
    dim_digests<3>(c, mine);
    if (c.rank() == 0) out = std::move(mine);
  });
  return out;
}

}  // namespace

TEST(SfemKernels, OutputBitsArePinned) {
  std::map<std::string, std::uint64_t> pinned;
  for (const Pin& p : kPins) pinned[p.name] = p.bits;
  Digests seen;
  for (const int ranks : {1, 3}) {
    for (const auto& [name, bits] : all_digests(ranks)) {
      const auto [it, fresh] = seen.emplace(name, bits);
      EXPECT_TRUE(fresh || it->second == bits) << name << " differs between rank counts";
    }
  }
  bool all_match = seen.size() == pinned.size();
  for (const auto& [name, bits] : seen) {
    const auto it = pinned.find(name);
    EXPECT_TRUE(it != pinned.end() && it->second == bits) << name << " output bits changed";
    all_match = all_match && it != pinned.end() && it->second == bits;
  }
  EXPECT_EQ(seen.size(), pinned.size());
  if (!all_match) {
    std::string table;
    for (const auto& [name, bits] : seen) {
      char line[96];
      std::snprintf(line, sizeof(line), "    {\"%s\", 0x%016" PRIx64 "ull},\n", name.c_str(), bits);
      table += line;
    }
    ADD_FAILURE() << "observed digests:\n" << table;
  }
}
