// perfbench: one benchmark workload of esamr, run through the public layer
// APIs (forest, sfem, solver, resil, par, apps) as one process of P rank
// threads. run.py builds and drives this binary and turns its raw samples
// into the reported metrics; see README.md for the workloads and metrics.
//
//   perfbench --workload NAME --seed N --seconds S --ranks P
//             [--setup-reps K] [--min-ops M] [--trace 0|1]
//             --out result.json [--trace-out trace.json] --scratch DIR
//
// Per op the binary records wall time (barrier to barrier, rank 0's clock)
// and busy time (largest per-rank thread-CPU time), and checks the op's
// output outside the timed region. With --trace 1 every other op (or block
// of ops) runs with spans on: each span wraps one public layer call from
// this file — there is no instrumentation inside src/ — and records name,
// rank, op id, parent span, wall and thread-CPU begin/end, and the rank's
// comm and forest counter deltas. The spans are written as Chrome
// trace-event JSON.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/mantle.h"
#include "apps/seismic.h"
#include "forest/ghost.h"
#include "forest/nodes.h"
#include "forest/stats.h"
#include "par/comm.h"
#include "resil/checkpoint.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace esamr;
using Oct3 = forest::Octant<3>;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int ranks = 4;
  int setup_reps = 3;
  int min_ops = 1;
  bool trace = false;
  std::string out;
  std::string trace_out;
  std::string scratch;
};

// --------------------------------------------------------------------------
// Tracing: spans around public layer calls, one buffer per rank.

/// The per-rank counters a span records as deltas.
struct Counters {
  std::int64_t msgs = 0, bytes = 0;
  double blocked_s = 0.0;
  std::int64_t balance_octants_sent = 0, balance_rounds = 0, ghost_octants_sent = 0,
               nodes_requests_sent = 0, nodes_rounds = 0, delta_octants = 0, nodes_patched = 0,
               nodes_reused = 0;
};

Counters read_counters(par::Comm& comm) {
  const par::CommStats& c = comm.stats();
  const forest::OpStats& o = forest::op_stats();
  Counters r;
  r.msgs = c.total_msgs();
  r.bytes = c.total_bytes();
  r.blocked_s = c.recv_blocked_s + c.barrier_blocked_s;
  r.balance_octants_sent = o.balance_octants_sent;
  r.balance_rounds = o.balance_exchange_rounds;
  r.ghost_octants_sent = o.ghost_octants_sent;
  r.nodes_requests_sent = o.nodes_requests_sent;
  r.nodes_rounds = o.nodes_rounds;
  r.delta_octants = o.delta_octants;
  r.nodes_patched = o.nodes_patched;
  r.nodes_reused = o.nodes_reused;
  return r;
}

Counters operator-(const Counters& a, const Counters& b) {
  Counters r;
  r.msgs = a.msgs - b.msgs;
  r.bytes = a.bytes - b.bytes;
  r.blocked_s = a.blocked_s - b.blocked_s;
  r.balance_octants_sent = a.balance_octants_sent - b.balance_octants_sent;
  r.balance_rounds = a.balance_rounds - b.balance_rounds;
  r.ghost_octants_sent = a.ghost_octants_sent - b.ghost_octants_sent;
  r.nodes_requests_sent = a.nodes_requests_sent - b.nodes_requests_sent;
  r.nodes_rounds = a.nodes_rounds - b.nodes_rounds;
  r.delta_octants = a.delta_octants - b.delta_octants;
  r.nodes_patched = a.nodes_patched - b.nodes_patched;
  r.nodes_reused = a.nodes_reused - b.nodes_reused;
  return r;
}

struct Span {
  const char* name;
  int op;
  int id;
  int parent;  ///< index of the enclosing span on this rank, -1 at the root
  double w0, w1, c0, c1;
  Counters ctr;
};

/// One rank's span buffer. Only its own rank thread touches it; the main
/// thread reads it after par::run has joined the ranks.
class Tracer {
 public:
  bool on = false;
  int op = -1;

  template <typename Fn>
  void span(par::Comm& comm, const char* name, Fn&& fn) {
    if (!on) {
      fn();
      return;
    }
    const int id = open(comm, name);
    fn();
    close(comm, id);
  }

  int open(par::Comm& comm, const char* name) {
    const int id = static_cast<int>(spans_.size());
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, op, id, parent, par::wall_seconds(), 0.0,
                          par::thread_cpu_seconds(), 0.0, read_counters(comm)});
    stack_.push_back(id);
    return id;
  }

  void close(par::Comm& comm, int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.c1 = par::thread_cpu_seconds();
    s.w1 = par::wall_seconds();
    s.ctr = read_counters(comm) - s.ctr;
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// --------------------------------------------------------------------------
// Samples and the measurement loop.

struct OpSample {
  double wall_s, busy_s;
  int ok, traced;
};

using Values = std::vector<std::pair<std::string, double>>;

/// Everything rank 0 records; written as the result JSON by main().
struct Result {
  std::vector<double> setup_s;
  std::vector<OpSample> ops;
  std::vector<Values> values;  ///< per op, named outputs of the op's check
  Values info;                 ///< per run
  std::vector<std::string> failures;
  double peak_rss_mb = 0.0;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Time `reps` set-ups, each from a barrier to a barrier, so that every
/// warm-up op the set-up runs lands in setup_s.
void time_setups(par::Comm& comm, int reps, Result& res, const std::function<void(int)>& setup) {
  for (int rep = 0; rep < reps; ++rep) {
    comm.barrier();
    const double t0 = par::wall_seconds();
    setup(rep);
    comm.barrier();
    if (comm.rank() == 0) res.setup_s.push_back(par::wall_seconds() - t0);
  }
}

/// Hooks of one workload's op. prepare and check run outside the timed
/// region; check returns this rank's verdict and may append named values.
struct OpHooks {
  std::function<void(int)> prepare = [](int) {};
  std::function<void(int)> body;
  std::function<bool(int, Values&)> check;
};

/// Run ops until `seconds` have passed and at least `min_ops` ran. With
/// tracing, ops alternate between untraced and traced in blocks of `block`
/// ops, so both halves see the same mix of op kinds.
void measure(par::Comm& comm, const Args& a, Tracer& tr, Result& res, int block,
             const OpHooks& h) {
  const double start = par::wall_seconds();
  for (int i = 0;; ++i) {
    int go = 0;
    if (comm.rank() == 0) {
      go = (i < a.min_ops || par::wall_seconds() - start < a.seconds) ? 1 : 0;
    }
    if (comm.bcast(go, 0) == 0) break;
    const bool traced = a.trace && (i / block) % 2 == 1;
    tr.op = i;
    h.prepare(i);
    comm.barrier();
    tr.on = traced;
    const double w0 = par::wall_seconds();
    const double c0 = par::thread_cpu_seconds();
    const int root = traced ? tr.open(comm, "op") : -1;
    h.body(i);
    if (traced) tr.close(comm, root);
    const double c1 = par::thread_cpu_seconds();
    comm.barrier();
    const double w1 = par::wall_seconds();
    const double busy = comm.allreduce(c1 - c0, par::ReduceOp::max);
    Values vals;
    const bool ok_local = h.check(i, vals);
    tr.on = false;
    const int ok = comm.allreduce(ok_local ? 1 : 0, par::ReduceOp::logical_and);
    if (comm.rank() == 0) {
      res.ops.push_back(OpSample{w1 - w0, busy, ok, traced ? 1 : 0});
      res.values.push_back(std::move(vals));
      if (ok == 0) res.failures.push_back("op " + std::to_string(i) + " failed its check");
    }
  }
  if (comm.rank() == 0) res.peak_rss_mb = peak_rss_mb();
}

double max_over_ranks(par::Comm& comm, double v) {
  return comm.allreduce(v, par::ReduceOp::max);
}

/// splitmix64: the workload inputs are pure functions of --seed.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

std::uint64_t nodes_digest(const forest::NodeNumbering<3>& n) {
  std::uint64_t h = 1469598103934665603ull;
  const auto fold = [&h](std::int64_t v) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 1099511628211ull;
  };
  fold(n.num_owned);
  fold(n.num_global);
  for (const auto& k : n.owned_keys) {
    for (const std::int32_t v : k) fold(v);
  }
  for (const auto& elem : n.elements) {
    for (const auto& slot : elem) {
      fold(static_cast<std::int64_t>(slot.size()));
      for (const auto& cb : slot) {
        fold(cb.gid);
        std::int64_t wb = 0;
        std::memcpy(&wb, &cb.weight, sizeof(wb));
        fold(wb);
      }
    }
  }
  return h;
}

// --------------------------------------------------------------------------
// fractal_adapt: the Fig. 4 pipeline from a fresh forest.

constexpr int kFractalBase = 1;
constexpr int kFractalRounds = 5;

/// The refined child set as a bit mask over child ids: the paper's even
/// children {0,3,5,6} or their mirror image {1,2,4,7}.
unsigned fractal_mask(std::uint64_t seed) {
  Rng rng{seed};
  return (rng.next() & 1) != 0 ? 0x96u : 0x69u;
}

struct FractalOut {
  std::uint64_t checksum = 0;
  std::int64_t octants = 0, nodes = 0;
};

/// One op: new -> refine -> partition -> balance -> ghost -> nodes.
struct FractalCycle {
  std::unique_ptr<forest::Forest<3>> forest;
  std::unique_ptr<forest::GhostLayer<3>> ghost;
  std::unique_ptr<forest::NodeNumbering<3>> nodes;

  void run(par::Comm& comm, const forest::Connectivity<3>& conn, unsigned mask, Tracer& tr) {
    tr.span(comm, "forest.new", [&] {
      forest = std::make_unique<forest::Forest<3>>(
          forest::Forest<3>::new_uniform(comm, &conn, kFractalBase));
    });
    for (int r = 0; r < kFractalRounds; ++r) {
      const int level = kFractalBase + r;
      tr.span(comm, "forest.refine", [&] {
        forest->refine(level + 1, false, [&](int, const Oct3& o) {
          return o.level == level && ((mask >> o.child_id()) & 1u) != 0;
        });
      });
    }
    tr.span(comm, "forest.partition", [&] { forest->partition(); });
    tr.span(comm, "forest.balance", [&] { forest->balance(); });
    tr.span(comm, "forest.ghost", [&] {
      ghost = std::make_unique<forest::GhostLayer<3>>(forest::GhostLayer<3>::build(*forest));
    });
    tr.span(comm, "forest.nodes", [&] {
      nodes = std::make_unique<forest::NodeNumbering<3>>(
          forest::NodeNumbering<3>::build(*forest, *ghost));
    });
  }

  /// Collective summary; releases the cycle's objects.
  FractalOut finish() {
    FractalOut out{forest->checksum(), forest->num_global(), nodes->num_global};
    nodes.reset();
    ghost.reset();
    forest.reset();
    return out;
  }
};

void run_fractal(const Args& a, Result& res, std::vector<Tracer>& tracers) {
  const unsigned mask = fractal_mask(a.seed);
  FractalOut ref;
  par::run(a.ranks, [&](par::Comm& comm) {
    Tracer& tr = tracers[static_cast<std::size_t>(comm.rank())];
    const auto conn = forest::Connectivity<3>::rotcubes();
    FractalCycle cycle;
    FractalOut warm;
    time_setups(comm, a.setup_reps, res, [&](int) {
      cycle.run(comm, conn, mask, tr);  // the warm-up op
      warm = cycle.finish();
    });
    OpHooks h;
    h.body = [&](int) { cycle.run(comm, conn, mask, tr); };
    h.check = [&](int, Values& v) {
      const FractalOut out = cycle.finish();
      v.emplace_back("octants", static_cast<double>(out.octants));
      v.emplace_back("nodes", static_cast<double>(out.nodes));
      return out.checksum == warm.checksum && out.nodes == warm.nodes &&
             out.octants == warm.octants;
    };
    measure(comm, a, tr, res, 1, h);
    if (comm.rank() == 0) ref = warm;
  });
  // P-invariance: the same input on one rank must give the same forest
  // checksum and global node count as every op above.
  FractalOut one;
  par::run(1, [&](par::Comm& comm) {
    Tracer off;
    const auto conn = forest::Connectivity<3>::rotcubes();
    FractalCycle cycle;
    cycle.run(comm, conn, mask, off);
    one = cycle.finish();
  });
  res.info.emplace_back("octants", static_cast<double>(ref.octants));
  res.info.emplace_back("nodes", static_cast<double>(ref.nodes));
  if (one.checksum != ref.checksum || one.nodes != ref.nodes) {
    res.failures.push_back("fractal_adapt: P=" + std::to_string(a.ranks) +
                           " forest checksum or node count differs from the P=1 reference");
    for (OpSample& s : res.ops) s.ok = 0;
  }
}

// --------------------------------------------------------------------------
// front_adapt: a slowly moving refinement front, incremental adapt and
// delta checkpoints.

constexpr int kFrontBase = 4;        ///< uniform level of the background mesh
constexpr int kFrontDepth = 2;       ///< extra levels inside the front
constexpr int kAnchorEvery = 8;      ///< full checkpoint every k steps
constexpr int kFrontWarmSteps = 2;   ///< untimed steps at the end of set-up
constexpr int kFrontCheckEvery = 16; ///< steps between full-rebuild checks

/// The front: a sphere of three background cells' radius whose centre
/// circles on a small orbit in tree 0. A step moves the centre 1/25 of a
/// background cell, which changes about 0.2% of the leaves; the orbit
/// (about 120 steps) is short enough that every run goes round it several
/// times, so runs with different seeds see the same mix of front positions.
struct FrontPath {
  std::array<double, 3> center{};  ///< of the orbit, in lattice units
  double phase = 0.0;              ///< start angle (radians)
  double speed = 0.0;              ///< angle advanced per step (radians, signed)
  double orbit = 0.0;              ///< orbit radius, in lattice units
  double sphere = 0.0;             ///< sphere radius, in lattice units
  double margin = 0.0;             ///< coarsening starts this far outside it

  std::array<double, 3> at(int step) const {
    const double th = phase + speed * step;
    std::array<double, 3> p = center;
    p[0] += orbit * std::cos(th);
    p[1] += orbit * std::sin(th);
    return p;
  }
};

FrontPath front_path(std::uint64_t seed) {
  constexpr double cell = static_cast<double>(Oct3::root_len >> kFrontBase);
  constexpr double mid = 0.5 * (1 << kFrontBase);
  Rng rng{seed ^ 0x5eedf00dull};
  FrontPath p;
  p.center = {(mid + 0.3) * cell, (mid + 0.2) * cell, (mid + 0.1) * cell};
  p.phase = 2.0 * M_PI * rng.uniform();
  p.orbit = 0.75 * cell;
  p.sphere = 3.0 * cell;
  p.margin = 0.5 * cell;
  p.speed = ((rng.next() & 1) != 0 ? 1.0 : -1.0) * (cell / 25.0) / p.orbit;
  return p;
}

double dist(const Oct3& o, const std::array<double, 3>& c) {
  const double half = 0.5 * static_cast<double>(o.size());
  const double dx = (static_cast<double>(o.x) + half) - c[0];
  const double dy = (static_cast<double>(o.y) + half) - c[1];
  const double dz = (static_cast<double>(o.z) + half) - c[2];
  return std::sqrt(dx * dx + dy * dy + dz * dz);
}

struct FrontState {
  std::uint64_t cid = 0;
  FrontPath path;
  std::unique_ptr<forest::Forest<3>> forest;
  forest::GhostScanCache<3> ghost_cache;
  std::unique_ptr<forest::GhostLayer<3>> ghost;
  forest::NodesCache<3> nodes_cache;
  const forest::NodeNumbering<3>* nodes = nullptr;
  std::unique_ptr<resil::CheckpointRing> ring;
  int step = 0;
  std::unique_ptr<forest::Forest<3>> before;  ///< pre-step copy on checked steps

  std::function<bool(int, const Oct3&)> refine_mark(int s) const {
    const auto c = path.at(s);
    const double r = path.sphere;
    return [c, r](int t, const Oct3& o) {
      return t == 0 && o.level < kFrontBase + kFrontDepth && dist(o, c) < r;
    };
  }
  std::function<bool(int, const Oct3&)> coarsen_mark(int s) const {
    const auto c = path.at(s);
    const double r = path.sphere + path.margin;
    return [c, r](int t, const Oct3& o) {
      return t == 0 && o.level > kFrontBase && dist(o, c) > r;
    };
  }

  /// Mark-driven refine and coarsen for step s, recording the delta.
  void adapt(forest::Forest<3>& f, int s, forest::DeltaSet<3>* delta, par::Comm& comm,
             Tracer& tr) const {
    tr.span(comm, "forest.refine",
            [&] { f.refine(kFrontBase + kFrontDepth, false, refine_mark(s), delta); });
    tr.span(comm, "forest.coarsen", [&] { f.coarsen(false, coarsen_mark(s), delta); });
  }

  /// One op: adapt, incremental balance/ghost/nodes, then a checkpoint.
  void step_once(par::Comm& comm, Tracer& tr) {
    const int s = ++step;
    forest::DeltaSet<3> delta(forest->num_trees());
    adapt(*forest, s, &delta, comm, tr);
    tr.span(comm, "forest.balance_incr", [&] { forest->balance_incremental(delta); });
    tr.span(comm, "forest.ghost_incr", [&] {
      auto g = forest::GhostLayer<3>::build_incremental(*forest, *ghost, ghost_cache);
      *ghost = std::move(g);
    });
    tr.span(comm, "forest.nodes_incr", [&] {
      nodes = &forest::NodeNumbering<3>::build_incremental(*forest, *ghost, delta, nodes_cache);
    });
    if (s % kAnchorEvery == 0) {
      tr.span(comm, "resil.ckpt_full", [&] {
        resil::write_checkpoint_ring(*forest, cid, static_cast<std::uint64_t>(s), {}, *ring);
      });
    } else {
      tr.span(comm, "resil.ckpt_delta", [&] {
        resil::write_delta_checkpoint_ring(*forest, cid, static_cast<std::uint64_t>(s), {}, delta,
                                           *ring);
      });
    }
  }
};

void run_front(const Args& a, Result& res, std::vector<Tracer>& tracers) {
  const std::string ring_dir = a.scratch + "/front_ring";
  par::run(a.ranks, [&](par::Comm& comm) {
    Tracer& tr = tracers[static_cast<std::size_t>(comm.rank())];
    const auto conn = forest::Connectivity<3>::rotcubes();
    std::unique_ptr<FrontState> st;
    time_setups(comm, a.setup_reps, res, [&](int) {
      st.reset();
      if (comm.rank() == 0) std::filesystem::remove_all(ring_dir);
      comm.barrier();
      st = std::make_unique<FrontState>();
      st->cid = resil::connectivity_id(conn);
      st->path = front_path(a.seed);
      st->forest = std::make_unique<forest::Forest<3>>(
          forest::Forest<3>::new_uniform(comm, &conn, kFrontBase));
      st->forest->partition();
      for (int w = 0; w < kFrontDepth; ++w) {
        st->forest->refine(kFrontBase + kFrontDepth, false, st->refine_mark(0));
        st->forest->balance();
      }
      st->ghost = std::make_unique<forest::GhostLayer<3>>(
          forest::GhostLayer<3>::build_cached(*st->forest, st->ghost_cache));
      forest::DeltaSet<3> none(st->forest->num_trees());
      st->nodes = &forest::NodeNumbering<3>::build_incremental(*st->forest, *st->ghost, none,
                                                                st->nodes_cache);
      st->ring = std::make_unique<resil::CheckpointRing>(ring_dir, 4);
      resil::write_checkpoint_ring(*st->forest, st->cid, 0, {}, *st->ring);
      for (int w = 0; w < kFrontWarmSteps; ++w) st->step_once(comm, tr);
    });

    double churn_sum = 0.0;
    int churn_n = 0;
    OpHooks h;
    const auto checked = [&](int i) { return i % kFrontCheckEvery == kFrontCheckEvery / 2; };
    h.prepare = [&](int i) {
      if (checked(i)) st->before = std::make_unique<forest::Forest<3>>(*st->forest);
    };
    h.body = [&](int) { st->step_once(comm, tr); };
    h.check = [&](int i, Values& v) {
      if (comm.rank() == 0) {
        const std::string newest = st->ring->newest();
        v.emplace_back("ckpt_bytes", static_cast<double>(std::filesystem::file_size(newest)));
        v.emplace_back("ckpt_delta", resil::CheckpointRing::is_delta(newest) ? 1.0 : 0.0);
      }
      if (!checked(i)) return true;
      // Leaves of the new mesh absent from the old one, over all leaves.
      forest::Forest<3>& full = *st->before;
      std::int64_t changed = 0;
      for (int t = 0; t < full.num_trees(); ++t) {
        const auto& old = full.tree(t);
        for (const auto& o : st->forest->tree(t)) {
          if (!std::binary_search(old.begin(), old.end(), o)) ++changed;
        }
      }
      changed = comm.allreduce(changed, par::ReduceOp::sum);
      churn_sum += static_cast<double>(changed) / static_cast<double>(st->forest->num_global());
      ++churn_n;
      // The same adapt step through the full rebuilds must match bit for bit.
      Tracer off;
      st->adapt(full, st->step, nullptr, comm, off);
      full.balance();
      const bool same_forest = full.checksum() == st->forest->checksum();
      const auto g = forest::GhostLayer<3>::build(*st->forest);
      const auto n = forest::NodeNumbering<3>::build(*st->forest, g);
      const bool same_nodes = nodes_digest(n) == nodes_digest(*st->nodes);
      st->before.reset();
      return same_forest && same_nodes;
    };
    measure(comm, a, tr, res, kAnchorEvery, h);

    // The ring's newest full snapshot plus its delta chain must reproduce
    // the live forest.
    auto r = resil::restore_latest_chain<3>(comm, conn, st->cid, *st->ring);
    int same = r.step == static_cast<std::uint64_t>(st->step) &&
               r.forest.checksum() == st->forest->checksum();
    same = comm.allreduce(same, par::ReduceOp::logical_and);
    if (comm.rank() == 0) {
      res.info.emplace_back("octants", static_cast<double>(st->forest->num_global()));
      res.info.emplace_back("churn", churn_n > 0 ? churn_sum / churn_n : 0.0);
      if (same == 0) {
        res.failures.push_back("front_adapt: restore_latest_chain does not reproduce the forest");
        if (!res.ops.empty()) res.ops.back().ok = 0;
      }
    }
    st.reset();
    comm.barrier();
    if (comm.rank() == 0) std::filesystem::remove_all(ring_dir);
  });
}

// --------------------------------------------------------------------------
// seismic_wave: the Fig. 9 dGea problem on a fixed PREM-adapted mesh.

apps::SeismicOptions seismic_options(std::uint64_t seed) {
  apps::SeismicOptions opt;
  opt.degree = 4;
  opt.frequency = 1.2;
  opt.points_per_wavelength = 8.0;
  opt.base_level = 0;
  opt.max_level = 2;
  // The source position: a random direction at a random mantle depth.
  Rng rng{seed ^ 0x5e15111cull};
  const double z = 2.0 * rng.uniform() - 1.0;
  const double phi = 2.0 * M_PI * rng.uniform();
  const double r = 0.65 + 0.25 * rng.uniform();
  const double s = std::sqrt(1.0 - z * z);
  opt.source = {r * s * std::cos(phi), r * s * std::sin(phi), r * z};
  return opt;
}

void run_seismic(const Args& a, Result& res, std::vector<Tracer>& tracers) {
  const apps::SeismicOptions opt = seismic_options(a.seed);
  par::run(a.ranks, [&](par::Comm& comm) {
    Tracer& tr = tracers[static_cast<std::size_t>(comm.rank())];
    using Sim = apps::SeismicSimulation<double>;
    std::unique_ptr<Sim> sim;
    double energy = 0.0;
    time_setups(comm, a.setup_reps, res, [&](int) {
      sim.reset();
      sim = std::make_unique<Sim>(comm, opt);
      sim->initialize();
      sim->run(1);  // the warm-up op
      energy = sim->energy();
    });
    const double mesh_s = max_over_ranks(comm, sim->meshing_seconds());
    const double transfer_s = max_over_ranks(comm, sim->transfer_seconds());
    const double flops = sim->flops_per_step();
    const std::int64_t elements = sim->num_elements();
    OpHooks h;
    h.body = [&](int) { tr.span(comm, "sfem.step", [&] { sim->run(1); }); };
    h.check = [&](int, Values&) {
      if (tr.on) {
        // The halo exchange on its own: one DgMesh::exchange of the state.
        const int per_elem = sfem::ElasticWave<3, double>::ncomp * sim->mesh().nv;
        tr.span(comm, "par.halo", [&] { (void)sim->mesh().exchange(sim->state(), per_elem); });
      }
      const double e = sim->energy();
      const bool ok = std::isfinite(e) && e <= energy * (1.0 + 1e-12);
      energy = e;
      return ok;
    };
    measure(comm, a, tr, res, 1, h);
    if (comm.rank() == 0) {
      res.info.emplace_back("elements", static_cast<double>(elements));
      res.info.emplace_back("flops_per_step", flops);
      res.info.emplace_back("mesh_busy_s", mesh_s);
      res.info.emplace_back("transfer_busy_s", transfer_s);
      res.info.emplace_back("energy", energy);
    }
  });
}

// --------------------------------------------------------------------------
// mantle_stokes: the Fig. 7 Rhea protocol, one MantleSimulation run per op.

/// The bench_fig7 size-1 problem. Its input does not depend on the seed:
/// moving the plate boundaries by 0.002 rad (a sixth of a finest element)
/// moves the total MINRES iteration count between 1.7k and 9k, so a seeded
/// input would measure the input rather than the code.
apps::MantleOptions mantle_options() {
  apps::MantleOptions opt;
  opt.base_level = 2;
  opt.max_level = 6;
  opt.temperature_max_level = 4;
  opt.static_adapt_rounds = 4;
  opt.picard_iterations = 4;
  opt.adapt_every = 2;
  opt.minres_rtol = 1e-7;
  opt.rheology.plate_boundaries = {0.7, 2.2, 3.9, 5.3};
  opt.temperature.slab_angles = {0.7, 3.9};
  return opt;
}

struct MantleOut {
  int iters = 0;
  std::uint64_t vmax_bits = 0;
};

void run_mantle(const Args& a, Result& res, std::vector<Tracer>& tracers) {
  const apps::MantleOptions opt = mantle_options();
  par::run(a.ranks, [&](par::Comm& comm) {
    Tracer& tr = tracers[static_cast<std::size_t>(comm.rank())];
    std::unique_ptr<apps::MantleSimulation> sim;
    const auto run_once = [&] {
      tr.span(comm, "apps.mantle.new",
              [&] { sim = std::make_unique<apps::MantleSimulation>(comm, opt); });
      tr.span(comm, "apps.mantle.run", [&] { sim->run(); });
    };
    const auto out_of = [&] {
      MantleOut out;
      out.iters = sim->total_minres_iterations();
      const double v = sim->max_velocity();
      std::memcpy(&out.vmax_bits, &v, sizeof(v));
      return out;
    };
    MantleOut ref;
    bool setups_agree = true;
    time_setups(comm, a.setup_reps, res, [&](int rep) {
      sim.reset();
      run_once();  // the warm-up op
      const MantleOut out = out_of();
      if (rep > 0) setups_agree &= out.iters == ref.iters && out.vmax_bits == ref.vmax_bits;
      ref = out;
    });
    OpHooks h;
    h.prepare = [&](int) { sim.reset(); };
    h.body = [&](int) { run_once(); };
    h.check = [&](int, Values& v) {
      const MantleOut out = out_of();
      const double amr = max_over_ranks(comm, sim->amr_seconds());
      const double solve = max_over_ranks(comm, sim->solve_seconds());
      const double vcycle = max_over_ranks(comm, sim->vcycle_seconds());
      v.emplace_back("minres_iters", out.iters);
      v.emplace_back("amr_busy_s", amr);
      v.emplace_back("solve_busy_s", solve);
      v.emplace_back("vcycle_busy_s", vcycle);
      return out.iters == ref.iters && out.vmax_bits == ref.vmax_bits;
    };
    measure(comm, a, tr, res, 1, h);
    const std::int64_t elements = sim->num_elements();
    if (comm.rank() == 0) {
      res.info.emplace_back("elements", static_cast<double>(elements));
      res.info.emplace_back("minres_iters", ref.iters);
      if (!setups_agree) res.failures.push_back("mantle_stokes: warm-up runs disagree");
    }
  });
}

// --------------------------------------------------------------------------
// Output.

void write_values(std::FILE* f, const Values& v) {
  std::fputc('{', f);
  for (std::size_t k = 0; k < v.size(); ++k) {
    std::fprintf(f, "%s\"%s\": %.17g", k ? ", " : "", v[k].first.c_str(), v[k].second);
  }
  std::fputc('}', f);
}

void write_result(const Args& a, const Result& res) {
  std::FILE* f = std::fopen(a.out.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + a.out);
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"ranks\": %d,\n",
               a.workload.c_str(), a.seed, a.ranks);
  std::fprintf(f, " \"compiler\": \"g++ %s\", \"build_type\": \"%s\",\n", __VERSION__,
               PERFBENCH_BUILD_TYPE);
  std::fprintf(f, " \"peak_rss_mb\": %.6f,\n \"setup_s\": [", res.peak_rss_mb);
  for (std::size_t i = 0; i < res.setup_s.size(); ++i) {
    std::fprintf(f, "%s%.9f", i ? ", " : "", res.setup_s[i]);
  }
  std::fprintf(f, "],\n \"ops\": [");
  for (std::size_t i = 0; i < res.ops.size(); ++i) {
    const OpSample& s = res.ops[i];
    std::fprintf(f, "%s\n  [%.9f, %.9f, %d, %d]", i ? "," : "", s.wall_s, s.busy_s, s.ok,
                 s.traced);
  }
  std::fprintf(f, "],\n \"values\": [");
  for (std::size_t i = 0; i < res.values.size(); ++i) {
    std::fprintf(f, "%s\n  ", i ? "," : "");
    write_values(f, res.values[i]);
  }
  std::fprintf(f, "],\n \"info\": ");
  write_values(f, res.info);
  std::fprintf(f, ",\n \"failures\": [");
  for (std::size_t i = 0; i < res.failures.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", res.failures[i].c_str());
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

void write_counter(std::FILE* f, const char* key, std::int64_t v) {
  if (v != 0) std::fprintf(f, ", \"%s\": %" PRId64, key, v);
}

/// Chrome trace-event JSON: one complete ("X") event per span, tid = rank.
void write_trace(const std::string& path, const std::vector<Tracer>& tracers, double origin) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  bool first = true;
  for (std::size_t rank = 0; rank < tracers.size(); ++rank) {
    std::fprintf(f, "%s\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": %zu, "
                    "\"args\": {\"name\": \"rank %zu\"}}",
                 first ? "" : ",", rank, rank);
    first = false;
    for (const Span& s : tracers[rank].spans()) {
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"cat\": \"layer\", \"ph\": \"X\", \"pid\": 0, "
                   "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %d, "
                   "\"id\": %d, \"parent\": %d, \"cpu_us\": %.3f",
                   s.name, rank, 1e6 * (s.w0 - origin), 1e6 * (s.w1 - s.w0), s.op, s.id,
                   s.parent, 1e6 * (s.c1 - s.c0));
      const Counters& c = s.ctr;
      write_counter(f, "msgs", c.msgs);
      write_counter(f, "bytes", c.bytes);
      if (c.blocked_s != 0.0) std::fprintf(f, ", \"blocked_s\": %.9f", c.blocked_s);
      write_counter(f, "balance_octants_sent", c.balance_octants_sent);
      write_counter(f, "balance_rounds", c.balance_rounds);
      write_counter(f, "ghost_octants_sent", c.ghost_octants_sent);
      write_counter(f, "nodes_requests_sent", c.nodes_requests_sent);
      write_counter(f, "nodes_rounds", c.nodes_rounds);
      write_counter(f, "delta_octants", c.delta_octants);
      write_counter(f, "nodes_patched", c.nodes_patched);
      write_counter(f, "nodes_reused", c.nodes_reused);
      std::fprintf(f, "}}");
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--ranks") a.ranks = std::stoi(v);
    else if (k == "--setup-reps") a.setup_reps = std::stoi(v);
    else if (k == "--min-ops") a.min_ops = std::stoi(v);
    else if (k == "--trace") a.trace = v != "0";
    else if (k == "--out") a.out = v;
    else if (k == "--trace-out") a.trace_out = v;
    else if (k == "--scratch") a.scratch = v;
    else throw std::runtime_error("unknown option " + k);
  }
  if (a.out.empty() || a.scratch.empty()) throw std::runtime_error("--out and --scratch are required");
  if (a.ranks < 1 || a.setup_reps < 1 || a.min_ops < 1) throw std::runtime_error("bad counts");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    const double origin = par::wall_seconds();
    std::vector<Tracer> tracers(static_cast<std::size_t>(a.ranks));
    Result res;
    if (a.workload == "fractal_adapt") run_fractal(a, res, tracers);
    else if (a.workload == "front_adapt") run_front(a, res, tracers);
    else if (a.workload == "seismic_wave") run_seismic(a, res, tracers);
    else if (a.workload == "mantle_stokes") run_mantle(a, res, tracers);
    else throw std::runtime_error("unknown workload " + a.workload);
    write_result(a, res);
    if (a.trace && !a.trace_out.empty()) write_trace(a.trace_out, tracers, origin);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
