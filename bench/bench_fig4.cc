// Reproduction of paper Fig. 4: weak scaling of the core p4est algorithms
// on a six-octree forest with fractal refinement (recursively subdividing
// children 0, 3, 5, 6), approximately constant octants per rank.
//
// The paper scales 12 -> 220,320 Cray XT5 cores at ~2.3 M octants/core and
// reports (a) the share of runtime per algorithm — Balance and Nodes
// dominate with > 90%, New/Refine/Partition negligible — and (b) Balance /
// Nodes seconds normalized by (million octants per rank), which rise only
// mildly (~6 s -> 8–9 s, i.e. 65–72% parallel efficiency over 18360x).
// Here ranks are simulated (threads) and the per-rank load is reduced; the
// shape claims are the reproduction target (see EXPERIMENTS.md).
//
// Usage: bench_fig4 [adapt_loop] [per_rank] [--json out.json]
// The JSON report carries per-phase timings plus the OpStats counters
// (octants sent, merge passes, exchange/resolution rounds, ...) summed over
// ranks; BENCH_fig4.json in the repository root records a run of the
// current defaults, which the `perf` ctest label and EXPERIMENTS.md
// compare against.
//
// `adapt_loop` (ISSUE 8) measures repeated small-delta adapt steps — a
// refinement front moving through one tree at ~1% churn per step — through
// the incremental pipeline (balance_incremental, GhostLayer::
// build_incremental, NodeNumbering::build_incremental) against the full
// rebuilds, asserting bit-identical forests and node numberings while
// timing both. The default weak-scaling run appends one adapt_loop case at
// P=8 to its report, so BENCH_fig4.json pins the incremental-vs-rebuild
// ratio too.
#include <cinttypes>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include "bench_util.h"
#include "forest/nodes.h"
#include "forest/stats.h"

using namespace esamr;
using esamr::bench::timed_max;

namespace {

struct Row {
  int ranks;
  std::int64_t elements;
  double t_new, t_refine, t_partition, t_balance, t_ghost, t_nodes;
  forest::OpStats ops;  // summed over ranks
};

Row run_case(int nranks, std::int64_t target_per_rank) {
  Row row{};
  row.ranks = nranks;
  par::run(nranks, [&](par::Comm& comm) {
    forest::op_stats().reset();
    const auto conn = forest::Connectivity<3>::rotcubes();
    std::unique_ptr<forest::Forest<3>> f;
    row.t_new = timed_max(comm, [&] {
      f = std::make_unique<forest::Forest<3>>(forest::Forest<3>::new_uniform(comm, &conn, 1));
    });
    // Fractal refinement rounds (children 0, 3, 5, 6) until the target size.
    double t_ref = 0.0;
    int level = 1;
    while (f->num_global() < target_per_rank * nranks && level < 12) {
      t_ref += timed_max(comm, [&] {
        f->refine(level + 1, false, [&](int, const forest::Octant<3>& o) {
          const int id = o.child_id();
          return o.level == level && (id == 0 || id == 3 || id == 5 || id == 6);
        });
      });
      ++level;
    }
    row.t_refine = t_ref;
    row.t_partition = timed_max(comm, [&] { f->partition(); });
    row.t_balance = timed_max(comm, [&] { f->balance(); });
    std::unique_ptr<forest::GhostLayer<3>> g;
    row.t_ghost = timed_max(
        comm, [&] { g = std::make_unique<forest::GhostLayer<3>>(forest::GhostLayer<3>::build(*f)); });
    row.t_nodes = timed_max(comm, [&] { forest::NodeNumbering<3>::build(*f, *g); });
    row.elements = f->num_global();
    const forest::OpStats total = forest::op_stats_total(comm);
    if (comm.rank() == 0) row.ops = total;
  });
  return row;
}

struct AdaptRow {
  int ranks = 0;
  std::int64_t elements = 0;
  int steps = 0;
  double churn = 0.0;  // mean delta octants per step / elements
  double t_bal_full = 0.0, t_ghost_full = 0.0, t_nodes_full = 0.0;
  double t_bal_incr = 0.0, t_ghost_incr = 0.0, t_nodes_incr = 0.0;
  bool identical = true;
  forest::OpStats ops;  // summed over ranks

  double speedup_balance_nodes() const {
    const double incr = t_bal_incr + t_nodes_incr;
    return incr > 0.0 ? (t_bal_full + t_nodes_full) / incr : 0.0;
  }
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
        std::int64_t wb;
        std::memcpy(&wb, &cb.weight, sizeof(wb));
        fold(wb);
      }
    }
  }
  return h;
}

/// Repeated small-delta adapt steps: a spherical refinement front sweeping
/// through tree 0 of the rotcubes mesh, replayed through the incremental
/// pipeline and the full rebuilds with per-phase timings for both.
AdaptRow run_adapt_loop(int nranks, std::int64_t target_per_rank, int steps) {
  AdaptRow row{};
  row.ranks = nranks;
  row.steps = steps;
  par::run(nranks, [&](par::Comm& comm) {
    forest::op_stats().reset();
    const auto conn = forest::Connectivity<3>::rotcubes();
    int base = 1;
    while (static_cast<std::int64_t>(conn.num_trees()) << (3 * (base + 1)) <=
           target_per_rank * nranks) {
      ++base;
    }
    if (base > 5) base = 5;
    const double root = static_cast<double>(forest::Octant<3>::root_len);
    const double radius = 1.6 * static_cast<double>(forest::Octant<3>::root_len >> base);
    const auto front = [&](int s) {
      // Slow center path: the sphere creeps 2% of the root across the step
      // budget, so each step changes ~1% of the leaves (true small-delta
      // regime; a fast sweep would re-carve the whole shell every step and
      // measure the full-rebuild path twice).
      const double fx = 0.2 + 0.02 * static_cast<double>(s) / steps;
      return std::array<double, 3>{fx * root, 0.35 * root, 0.55 * root};
    };
    const auto dist = [&](const forest::Octant<3>& o, const std::array<double, 3>& c) {
      const double half = 0.5 * static_cast<double>(o.size());
      const double dx = (static_cast<double>(o.x) + half) - c[0];
      const double dy = (static_cast<double>(o.y) + half) - c[1];
      const double dz = (static_cast<double>(o.z) + half) - c[2];
      return std::sqrt(dx * dx + dy * dy + dz * dz);
    };
    const auto refine_mark = [&](int s) {
      return [&, s](int t, const forest::Octant<3>& o) {
        return t == 0 && o.level <= base + 1 && dist(o, front(s)) < radius;
      };
    };
    const auto coarsen_mark = [&](int s) {
      return [&, s](int t, const forest::Octant<3>& o) {
        return t == 0 && o.level > base && dist(o, front(s)) > 2.2 * radius;
      };
    };

    auto fi = forest::Forest<3>::new_uniform(comm, &conn, base);
    fi.partition();
    auto fr = forest::Forest<3>::new_uniform(comm, &conn, base);
    fr.partition();
    // Warm-up: carve the front at s=0 on both forests (full balance), then
    // capture the ghost/nodes caches for the incremental replay.
    for (int w = 0; w < 2; ++w) {
      fi.refine(base + 2, false, refine_mark(0));
      fi.balance();
      fr.refine(base + 2, false, refine_mark(0));
      fr.balance();
    }
    forest::GhostScanCache<3> gc;
    auto gi = forest::GhostLayer<3>::build_cached(fi, gc);
    forest::NodesCache<3> nc;
    {
      forest::DeltaSet<3> d0(fi.num_trees());
      forest::NodeNumbering<3>::build_incremental(fi, gi, d0, nc);
    }

    std::int64_t changed_sum = 0;
    int identical = 1;
    for (int s = 1; s <= steps; ++s) {
      std::vector<std::vector<forest::Octant<3>>> prev;
      prev.reserve(static_cast<std::size_t>(fi.num_trees()));
      for (int t = 0; t < fi.num_trees(); ++t) prev.push_back(fi.tree(t));
      forest::DeltaSet<3> delta(fi.num_trees());
      fi.refine(base + 2, false, refine_mark(s), &delta);
      fi.coarsen(false, coarsen_mark(s), &delta);
      row.t_bal_incr += timed_max(comm, [&] { fi.balance_incremental(delta); });
      row.t_ghost_incr +=
          timed_max(comm, [&] { gi = forest::GhostLayer<3>::build_incremental(fi, gi, gc); });
      const forest::NodeNumbering<3>* ni = nullptr;
      row.t_nodes_incr += timed_max(
          comm, [&] { ni = &forest::NodeNumbering<3>::build_incremental(fi, gi, delta, nc); });
      // True churn: leaves of the post-adapt mesh absent from the pre-adapt
      // snapshot (a delta *region* understates this — one refined leaf is one
      // region but 8+ new leaves).
      std::int64_t changed = 0;
      for (int t = 0; t < fi.num_trees(); ++t) {
        const auto& od = prev[static_cast<std::size_t>(t)];
        for (const auto& o : fi.tree(t)) {
          if (!std::binary_search(od.begin(), od.end(), o)) ++changed;
        }
      }
      changed_sum += comm.allreduce(changed, par::ReduceOp::sum);

      fr.refine(base + 2, false, refine_mark(s));
      fr.coarsen(false, coarsen_mark(s));
      row.t_bal_full += timed_max(comm, [&] { fr.balance(); });
      std::unique_ptr<forest::GhostLayer<3>> gr;
      row.t_ghost_full += timed_max(comm, [&] {
        gr = std::make_unique<forest::GhostLayer<3>>(forest::GhostLayer<3>::build(fr));
      });
      std::unique_ptr<forest::NodeNumbering<3>> nr;
      row.t_nodes_full += timed_max(comm, [&] {
        nr = std::make_unique<forest::NodeNumbering<3>>(forest::NodeNumbering<3>::build(fr, *gr));
      });

      const int same = fi.checksum() == fr.checksum() && nodes_digest(*ni) == nodes_digest(*nr);
      identical &= comm.allreduce(same, par::ReduceOp::logical_and);
    }
    row.elements = fi.num_global();
    row.churn = static_cast<double>(changed_sum) /
                (static_cast<double>(steps) * static_cast<double>(row.elements));
    row.identical = identical != 0;
    const forest::OpStats total = forest::op_stats_total(comm);
    if (comm.rank() == 0) row.ops = total;
  });
  return row;
}

void print_adapt_row(const AdaptRow& r) {
  std::printf("%6d %10" PRId64 " %6.2f%% | %8.4f %8.4f %8.4f | %8.4f %8.4f %8.4f | %8.2fx %s\n",
              r.ranks, r.elements, 100.0 * r.churn, r.t_bal_full, r.t_ghost_full, r.t_nodes_full,
              r.t_bal_incr, r.t_ghost_incr, r.t_nodes_incr, r.speedup_balance_nodes(),
              r.identical ? "yes" : "NO");
}

void print_adapt_header() {
  std::printf("%6s %10s %7s | %8s %8s %8s | %8s %8s %8s | %9s %s\n", "ranks", "elements", "churn",
              "bal_full", "gho_full", "nod_full", "bal_incr", "gho_incr", "nod_incr",
              "B+N_speedup", "identical");
}

void write_adapt_json_object(std::FILE* out, const AdaptRow& r, const char* indent) {
  std::fprintf(out, "%s{\n", indent);
  std::fprintf(out, "%s  \"ranks\": %d,\n%s  \"elements\": %" PRId64 ",\n%s  \"steps\": %d,\n",
               indent, r.ranks, indent, r.elements, indent, r.steps);
  std::fprintf(out, "%s  \"churn\": %.6f,\n", indent, r.churn);
  std::fprintf(out,
               "%s  \"seconds_full\": {\"balance\": %.6f, \"ghost\": %.6f, \"nodes\": %.6f},\n",
               indent, r.t_bal_full, r.t_ghost_full, r.t_nodes_full);
  std::fprintf(out,
               "%s  \"seconds_incr\": {\"balance\": %.6f, \"ghost\": %.6f, \"nodes\": %.6f},\n",
               indent, r.t_bal_incr, r.t_ghost_incr, r.t_nodes_incr);
  std::fprintf(out, "%s  \"speedup_balance_nodes\": %.3f,\n", indent, r.speedup_balance_nodes());
  std::fprintf(out, "%s  \"identical\": %s,\n", indent, r.identical ? "true" : "false");
  std::fprintf(out,
               "%s  \"ops\": {\"delta_octants\": %" PRId64 ", \"nodes_patched\": %" PRId64
               ", \"nodes_reused\": %" PRId64 "}\n",
               indent, r.ops.delta_octants, r.ops.nodes_patched, r.ops.nodes_reused);
  std::fprintf(out, "%s}", indent);
}

void write_json(const char* path, const std::vector<Row>& rows, std::int64_t per_rank,
                const AdaptRow* adapt) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_fig4: cannot open %s for writing\n", path);
    std::exit(1);
  }
  std::fprintf(out, "{\n  \"bench\": \"fig4\",\n  \"per_rank_target\": %" PRId64 ",\n", per_rank);
  std::fprintf(out, "  \"cases\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const double total =
        r.t_new + r.t_refine + r.t_partition + r.t_balance + r.t_ghost + r.t_nodes;
    const double mper = static_cast<double>(r.elements) / r.ranks / 1e6;
    std::fprintf(out, "    {\n");
    std::fprintf(out, "      \"ranks\": %d,\n      \"elements\": %" PRId64 ",\n", r.ranks,
                 r.elements);
    std::fprintf(out,
                 "      \"seconds\": {\"new\": %.6f, \"refine\": %.6f, \"partition\": %.6f, "
                 "\"balance\": %.6f, \"ghost\": %.6f, \"nodes\": %.6f, \"total\": %.6f},\n",
                 r.t_new, r.t_refine, r.t_partition, r.t_balance, r.t_ghost, r.t_nodes, total);
    std::fprintf(out,
                 "      \"share\": {\"balance\": %.4f, \"nodes\": %.4f, \"balance_nodes\": "
                 "%.4f},\n",
                 r.t_balance / total, r.t_nodes / total, (r.t_balance + r.t_nodes) / total);
    std::fprintf(out,
                 "      \"normalized\": {\"balance\": %.6f, \"nodes\": %.6f},\n",
                 r.t_balance / mper, r.t_nodes / mper);
    const forest::OpStats& o = r.ops;
    std::fprintf(out,
                 "      \"ops\": {\"balance_merge_passes\": %" PRId64
                 ", \"balance_seed_octants\": %" PRId64 ", \"balance_closure_kept\": %" PRId64
                 ", \"balance_octants_sent\": %" PRId64 ", \"balance_exchange_rounds\": %" PRId64
                 ", \"balance_leaves_created\": %" PRId64 ", \"nodes_rounds\": %" PRId64
                 ", \"nodes_request_batches\": %" PRId64 ", \"nodes_requests_sent\": %" PRId64
                 ", \"ghost_octants_sent\": %" PRId64 ", \"ghost_interior_skipped\": %" PRId64
                 "}\n",
                 o.balance_merge_passes, o.balance_seed_octants, o.balance_closure_kept,
                 o.balance_octants_sent, o.balance_exchange_rounds, o.balance_leaves_created,
                 o.nodes_rounds, o.nodes_request_batches, o.nodes_requests_sent,
                 o.ghost_octants_sent, o.ghost_interior_skipped);
    std::fprintf(out, "    }%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]");
  if (adapt != nullptr) {
    std::fprintf(out, ",\n  \"adapt_loop\":\n");
    write_adapt_json_object(out, *adapt, "  ");
  }
  std::fprintf(out, "\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path);
}

int main_adapt_loop(std::int64_t per_rank, const char* json_path) {
  std::printf("=== Fig. 4 adapt_loop: incremental vs full rebuild (moving front) ===\n");
  std::printf("repeated small-delta adapt steps; the incremental pipeline must match the\n");
  std::printf("full rebuilds bit-for-bit while touching only O(|delta|) of the mesh\n\n");
  print_adapt_header();
  std::vector<AdaptRow> rows;
  for (const int p : {1, 2, 4, 8}) {
    rows.push_back(run_adapt_loop(p, per_rank, 10));
    print_adapt_row(rows.back());
  }
  bool all_identical = true;
  for (const AdaptRow& r : rows) all_identical &= r.identical;
  std::printf("\nincremental == full rebuild on every step: %s\n",
              all_identical ? "yes" : "NO (BUG)");
  if (json_path != nullptr) {
    std::FILE* out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench_fig4: cannot open %s for writing\n", json_path);
      return 1;
    }
    std::fprintf(out, "{\n  \"bench\": \"fig4_adapt_loop\",\n  \"per_rank_target\": %" PRId64
                      ",\n  \"cases\": [\n",
                 per_rank);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      write_adapt_json_object(out, rows[i], "    ");
      std::fprintf(out, "%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path);
  }
  return all_identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t per_rank = 6000;
  const char* json_path = nullptr;
  bool adapt_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "adapt_loop") == 0) {
      adapt_only = true;
    } else {
      per_rank = std::atoll(argv[i]);
    }
  }
  if (adapt_only) return main_adapt_loop(per_rank, json_path);
  std::printf("=== Fig. 4: weak scaling of the forest algorithms (rotcubes, fractal) ===\n");
  std::printf("paper: 12..220320 cores, 2.3M oct/core; Balance+Nodes > 90%% of runtime,\n");
  std::printf("       normalized Balance ~6->9 s/(M oct/rank) over a 18360x scale-up\n\n");
  std::printf("%6s %10s %9s | %6s %6s %6s %6s %6s %6s | %9s %9s\n", "ranks", "elements",
              "elem/rank", "New%", "Refin%", "Part%", "Bal%", "Ghost%", "Nodes%", "bal_norm",
              "nod_norm");
  std::vector<Row> rows;
  std::vector<std::array<double, 2>> norms;
  for (const int p : {1, 2, 4, 8, 16}) {
    const Row r = run_case(p, per_rank);
    rows.push_back(r);
    const double total =
        r.t_new + r.t_refine + r.t_partition + r.t_balance + r.t_ghost + r.t_nodes;
    const double mper = static_cast<double>(r.elements) / r.ranks / 1e6;
    const double bal_norm = r.t_balance / mper;
    const double nod_norm = r.t_nodes / mper;
    norms.push_back({bal_norm, nod_norm});
    std::printf("%6d %10" PRId64 " %9" PRId64 " | %6.1f %6.1f %6.1f %6.1f %6.1f %6.1f | %9.3f %9.3f\n",
                r.ranks, r.elements, r.elements / r.ranks, 100.0 * r.t_new / total,
                100.0 * r.t_refine / total, 100.0 * r.t_partition / total,
                100.0 * r.t_balance / total, 100.0 * r.t_ghost / total, 100.0 * r.t_nodes / total,
                bal_norm, nod_norm);
  }
  std::printf("\nparallel efficiency first->last rank count: Balance %.0f%%, Nodes %.0f%%\n",
              100.0 * norms.front()[0] / norms.back()[0],
              100.0 * norms.front()[1] / norms.back()[1]);
  std::printf("(bal_norm / nod_norm = seconds per million octants per rank; ideal weak\n");
  std::printf(" scaling = constant columns, matching the paper's flat bars)\n");

  std::printf("\n=== adapt_loop @ P=8: incremental vs full rebuild (moving front) ===\n");
  print_adapt_header();
  const AdaptRow adapt = run_adapt_loop(8, per_rank, 10);
  print_adapt_row(adapt);
  if (json_path != nullptr) write_json(json_path, rows, per_rank, &adapt);
  return 0;
}
