#include "sfem/transfer.h"

#include <cstring>
#include <stdexcept>

#include "sfem/tensor.h"

namespace esamr::sfem {

template <int Dim>
std::vector<double> transfer_fields(const std::vector<std::vector<forest::Octant<Dim>>>& old_trees,
                                    const forest::Forest<Dim>& new_forest,
                                    std::span<const double> old_data, int ncomp,
                                    const Basis1d& basis) {
  using Oct = forest::Octant<Dim>;
  constexpr int nchild = forest::Topo<Dim>::num_children;
  const int nv = ipow(basis.np, Dim);
  const auto per_elem = static_cast<std::size_t>(ncomp) * static_cast<std::size_t>(nv);
  std::vector<double> tmp(static_cast<std::size_t>(nv));
  // In place on every component of an element block: the tensor
  // interpolation to child `cid` (ops = interp_half), or the L2 projection
  // of child `cid` onto its parent (ops = project_half).
  const auto half_block = [&](const std::vector<double>* ops, int cid, double* block) {
    for (int c = 0; c < ncomp; ++c) {
      apply_half(Dim, basis.np, ops, cid, block + static_cast<std::size_t>(c) * nv, tmp.data());
    }
  };

  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(new_forest.num_local()) * per_elem);

  std::size_t old_idx = 0;  // global old-element counter (matches old_data blocks)
  for (int t = 0; t < new_forest.num_trees(); ++t) {
    const auto& old_leaves = old_trees[static_cast<std::size_t>(t)];
    const auto& new_leaves = new_forest.tree(t);
    std::size_t i = 0, j = 0;

    // Emit data for every new leaf under `cur`, given `cur`'s data.
    const std::function<void(const Oct&, const double*)> emit_refined =
        [&](const Oct& cur, const double* data) {
          if (j < new_leaves.size() && new_leaves[j] == cur) {
            out.insert(out.end(), data, data + per_elem);
            ++j;
            return;
          }
          std::vector<double> child(per_elem);
          for (int c = 0; c < nchild; ++c) {
            std::copy_n(data, per_elem, child.data());
            half_block(basis.interp_half, c, child.data());
            emit_refined(cur.child(c), child.data());
          }
        };
    // Produce data for `cur` by projecting the old leaves below it.
    const std::function<void(const Oct&, double*)> gather_coarsened = [&](const Oct& cur,
                                                                          double* data) {
      if (i < old_leaves.size() && old_leaves[i] == cur) {
        const double* src = old_data.data() + old_idx * per_elem;
        std::memcpy(data, src, sizeof(double) * per_elem);
        ++i;
        ++old_idx;
        return;
      }
      std::fill(data, data + per_elem, 0.0);
      std::vector<double> child(per_elem);
      for (int c = 0; c < nchild; ++c) {
        gather_coarsened(cur.child(c), child.data());
        half_block(basis.project_half, c, child.data());
        for (std::size_t k = 0; k < per_elem; ++k) data[k] += child[k];
      }
    };

    while (i < old_leaves.size() || j < new_leaves.size()) {
      if (i < old_leaves.size() && j < new_leaves.size() && old_leaves[i] == new_leaves[j]) {
        const double* src = old_data.data() + old_idx * per_elem;
        out.insert(out.end(), src, src + per_elem);
        ++i;
        ++j;
        ++old_idx;
      } else if (j < new_leaves.size() && i < old_leaves.size() &&
                 old_leaves[i].contains(new_leaves[j])) {
        // Refinement below the old leaf.
        const double* src = old_data.data() + old_idx * per_elem;
        std::vector<double> tmp(src, src + per_elem);
        ++old_idx;
        const Oct parent = old_leaves[i];
        ++i;
        emit_refined(parent, tmp.data());
      } else if (j < new_leaves.size() && i < old_leaves.size() &&
                 new_leaves[j].contains(old_leaves[i])) {
        // Coarsening onto the new leaf.
        std::vector<double> tmp(per_elem);
        gather_coarsened(new_leaves[j], tmp.data());
        ++j;
        out.insert(out.end(), tmp.begin(), tmp.end());
      } else {
        throw std::runtime_error("transfer_fields: old and new forests do not cover each other");
      }
    }
  }
  return out;
}

template std::vector<double> transfer_fields<2>(const std::vector<std::vector<forest::Octant<2>>>&,
                                                const forest::Forest<2>&, std::span<const double>,
                                                int, const Basis1d&);
template std::vector<double> transfer_fields<3>(const std::vector<std::vector<forest::Octant<3>>>&,
                                                const forest::Forest<3>&, std::span<const double>,
                                                int, const Basis1d&);

}  // namespace esamr::sfem
