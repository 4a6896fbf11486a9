#include "sfem/dg_elastic.h"

#include <cmath>

namespace esamr::sfem {

namespace {

/// Voigt index of the symmetric pair (i, j).
template <int Dim>
constexpr int voigt(int i, int j) {
  if constexpr (Dim == 2) {
    if (i == j) return i;
    return 2;
  } else {
    if (i == j) return i;
    const int s = i + j;  // (1,2)->3, (0,2)->4, (0,1)->5
    return s == 3 ? 3 : (s == 2 ? 4 : 5);
  }
}

}  // namespace

template <int Dim, typename Real>
ElasticWave<Dim, Real>::ElasticWave(
    const DgMesh<Dim>* mesh, const std::function<Material(const std::array<double, 3>&)>& material,
    Boundary boundary)
    : mesh_(mesh), boundary_(boundary) {
  const double t0 = par::thread_cpu_seconds();
  const int nv = mesh_->nv;
  const auto n = static_cast<std::size_t>(mesh_->n_local);

  // Precision-converted geometry tables (the "device transfer" of Fig. 10).
  const auto convert = [](const std::vector<double>& src, std::vector<Real>& dst) {
    dst.resize(src.size());
    for (std::size_t i = 0; i < src.size(); ++i) dst[i] = static_cast<Real>(src[i]);
  };
  convert(mesh_->jinv, jinv_);
  convert(mesh_->jdet, jdet_);
  convert(mesh_->mass, mass_);
  convert(mesh_->fsj, fsj_);
  convert(mesh_->fnormal, fnormal_);
  convert(mesh_->basis.diff, diff_);
  for (int c = 0; c < 2; ++c) {
    convert(mesh_->basis.interp_half[c], interp_half_[c]);
    convert(mesh_->basis.interp_half_t[c], interp_half_t_[c]);
  }
  convert(mesh_->face_weights, wf_);

  // Material sampling at the element nodes (double), then exchange the halo
  // and convert. Ghost tables are appended behind the local ones.
  std::vector<double> mat(n * static_cast<std::size_t>(nv) * 3);
  for (std::size_t i = 0; i < n * static_cast<std::size_t>(nv); ++i) {
    const Material m = material({mesh_->coords[i * 3], mesh_->coords[i * 3 + 1],
                                 mesh_->coords[i * 3 + 2]});
    mat[i * 3] = m.rho;
    mat[i * 3 + 1] = m.lambda;
    mat[i * 3 + 2] = m.mu;
    const double cp = std::sqrt((m.lambda + 2.0 * m.mu) / m.rho);
    max_speed_ = std::max(max_speed_, cp);
  }
  const auto ghost_mat = mesh_->exchange(mat, nv * 3);
  const std::size_t ntot = n + ghost_mat.size() / (static_cast<std::size_t>(nv) * 3);
  rho_.resize(ntot * static_cast<std::size_t>(nv));
  lambda_.resize(ntot * static_cast<std::size_t>(nv));
  mu_.resize(ntot * static_cast<std::size_t>(nv));
  zp_.resize(ntot * static_cast<std::size_t>(nv));
  zs_.resize(ntot * static_cast<std::size_t>(nv));
  const auto fill = [&](std::size_t dst, const double* src) {
    const double rho = src[0], lambda = src[1], mu = src[2];
    rho_[dst] = static_cast<Real>(rho);
    lambda_[dst] = static_cast<Real>(lambda);
    mu_[dst] = static_cast<Real>(mu);
    zp_[dst] = static_cast<Real>(std::sqrt((lambda + 2.0 * mu) * rho));
    zs_[dst] = static_cast<Real>(std::sqrt(mu * rho));
  };
  for (std::size_t i = 0; i < n * static_cast<std::size_t>(nv); ++i) fill(i, &mat[i * 3]);
  for (std::size_t i = 0; i < ghost_mat.size() / 3; ++i) {
    fill(n * static_cast<std::size_t>(nv) + i, &ghost_mat[i * 3]);
  }
  transfer_seconds_ = par::thread_cpu_seconds() - t0;
}

template <int Dim, typename Real>
void ElasticWave<Dim, Real>::rhs(std::span<const Real> q, std::span<Real> out) const {
  const int np = mesh_->np, nv = mesh_->nv, npf = mesh_->npf;
  const auto n = static_cast<std::size_t>(mesh_->n_local);
  const auto ghost_q = mesh_->template exchange<Real>(q, ncomp * nv);

  // Node-wise material of a (local or ghost) element.
  const auto mat_base = [&](std::int32_t elem, bool is_ghost) {
    return (is_ghost ? n + static_cast<std::size_t>(elem) : static_cast<std::size_t>(elem)) *
           static_cast<std::size_t>(nv);
  };
  const auto q_base = [&](std::int32_t elem, bool is_ghost) -> const Real* {
    return is_ghost ? ghost_q.data() + static_cast<std::size_t>(elem) * ncomp * nv
                    : q.data() + static_cast<std::size_t>(elem) * ncomp * nv;
  };

  // Stress components of one element at one node.
  const auto stress_at = [&](const Real* qe, std::size_t matb, int node, Real* sig) {
    Real tr = 0;
    for (int i = 0; i < Dim; ++i) tr += qe[(Dim + voigt<Dim>(i, i)) * nv + node];
    const Real lam = lambda_[matb + static_cast<std::size_t>(node)];
    const Real mu2 = Real(2) * mu_[matb + static_cast<std::size_t>(node)];
    for (int s = 0; s < nstrain; ++s) sig[s] = mu2 * qe[(Dim + s) * nv + node];
    for (int i = 0; i < Dim; ++i) sig[voigt<Dim>(i, i)] += lam * tr;
  };

  // Per-call scratch: volume sweeps, then my (m) and the neighbor's (p) face
  // traces. The *0 twins keep my conforming trace while a fine face
  // interpolates copies of it to each subface.
  const auto nf = static_cast<std::size_t>(npf);
  std::vector<Real> dref(static_cast<std::size_t>(nv));
  std::vector<Real> sigma(static_cast<std::size_t>(nstrain) * nv);
  std::vector<Real> grads(static_cast<std::size_t>(Dim + nstrain) * Dim * nv);
  std::vector<Real> vm(Dim * nf), tm(Dim * nf), vp(Dim * nf), tp(Dim * nf);
  std::vector<Real> zpm(nf), zsm(nf), zpp(nf), zsp(nf), nrm(3 * nf), sj(nf);
  std::vector<Real> vm0(Dim * nf), tm0(Dim * nf), zpm0(nf), zsm0(nf), nrm0(3 * nf), sj0(nf);
  std::vector<Real> nxyz(3 * nf), tmp(nf), liftv(ncomp * nf), acc(ncomp * nf);
  // Half-interval interpolation (or its transpose) of one face array.
  const auto half = [&](const std::vector<Real>* ops, int bits, Real* v) {
    apply_half(Dim - 1, np, ops, bits, v, tmp.data());
  };

  for (std::size_t e = 0; e < n; ++e) {
    const Real* qe = q.data() + e * static_cast<std::size_t>(ncomp) * nv;
    Real* oe = out.data() + e * static_cast<std::size_t>(ncomp) * nv;
    const std::size_t matb = e * static_cast<std::size_t>(nv);
    const std::size_t jb = e * static_cast<std::size_t>(nv);

    // Stress at nodes.
    for (int node = 0; node < nv; ++node) {
      Real sig[nstrain];
      stress_at(qe, matb, node, sig);
      for (int s = 0; s < nstrain; ++s) sigma[static_cast<std::size_t>(s * nv + node)] = sig[s];
    }
    // Physical gradients of v (fields 0..Dim-1) and sigma (Dim..Dim+nstrain-1)
    // via the Real-precision differentiation sweep.
    for (int fidx = 0; fidx < Dim + nstrain; ++fidx) {
      const Real* src = fidx < Dim ? qe + static_cast<std::size_t>(fidx) * nv
                                   : sigma.data() + static_cast<std::size_t>(fidx - Dim) * nv;
      Real* g = grads.data() + static_cast<std::size_t>(fidx) * Dim * nv;
      std::fill(g, g + static_cast<std::size_t>(Dim) * nv, Real(0));
      for (int a = 0; a < Dim; ++a) {
        apply_axis(Dim, np, a, diff_.data(), src, dref.data());
        for (int node = 0; node < nv; ++node) {
          for (int d = 0; d < Dim; ++d) {
            g[d * nv + node] += jinv_[((jb + static_cast<std::size_t>(node)) * Dim +
                                       static_cast<std::size_t>(a)) *
                                          Dim +
                                      static_cast<std::size_t>(d)] *
                                dref[static_cast<std::size_t>(node)];
          }
        }
      }
    }

    // Volume terms.
    for (int node = 0; node < nv; ++node) {
      const Real inv_rho = Real(1) / rho_[matb + static_cast<std::size_t>(node)];
      for (int i = 0; i < Dim; ++i) {
        Real div = 0;
        for (int j = 0; j < Dim; ++j) {
          div += grads[(static_cast<std::size_t>(Dim + voigt<Dim>(i, j)) * Dim +
                        static_cast<std::size_t>(j)) *
                           nv +
                       static_cast<std::size_t>(node)];
        }
        oe[i * nv + node] = inv_rho * div;
      }
      for (int i = 0; i < Dim; ++i) {
        for (int j = i; j < Dim; ++j) {
          const Real gij = grads[(static_cast<std::size_t>(i) * Dim + static_cast<std::size_t>(j)) * nv +
                                 static_cast<std::size_t>(node)];
          const Real gji = grads[(static_cast<std::size_t>(j) * Dim + static_cast<std::size_t>(i)) * nv +
                                 static_cast<std::size_t>(node)];
          oe[(Dim + voigt<Dim>(i, j)) * nv + node] = Real(0.5) * (gij + gji);
        }
      }
    }

    // Face terms.
    for (int f = 0; f < DgMesh<Dim>::nfaces; ++f) {
      const auto& side = mesh_->face(static_cast<std::int64_t>(e), f);
      const auto& fni = mesh_->face_nodes[static_cast<std::size_t>(f)];
      const std::size_t fb0 =
          (e * DgMesh<Dim>::nfaces + static_cast<std::size_t>(f)) * static_cast<std::size_t>(npf);

      // My face data.
      for (int qq = 0; qq < npf; ++qq) {
        const int node = fni[static_cast<std::size_t>(qq)];
        Real sig[nstrain];
        stress_at(qe, matb, node, sig);
        for (int d = 0; d < 3; ++d) {
          nrm[static_cast<std::size_t>(qq * 3 + d)] = fnormal_[(fb0 + static_cast<std::size_t>(qq)) * 3 +
                                                               static_cast<std::size_t>(d)];
        }
        sj[static_cast<std::size_t>(qq)] = fsj_[fb0 + static_cast<std::size_t>(qq)];
        for (int i = 0; i < Dim; ++i) {
          vm[static_cast<std::size_t>(i * npf + qq)] = qe[i * nv + node];
          Real ti = 0;
          for (int j = 0; j < Dim; ++j) {
            ti += sig[voigt<Dim>(i, j)] * nrm[static_cast<std::size_t>(qq * 3 + j)];
          }
          tm[static_cast<std::size_t>(i * npf + qq)] = ti;
        }
        zpm[static_cast<std::size_t>(qq)] = zp_[matb + static_cast<std::size_t>(node)];
        zsm[static_cast<std::size_t>(qq)] = zs_[matb + static_cast<std::size_t>(node)];
      }

      // Neighbor face data for a given slot, aligned to my face enumeration
      // (or, for `fine`, to my subface enumeration).
      const auto fetch_plus = [&](int slot) {
        const Real* qn = q_base(side.nbr[static_cast<std::size_t>(slot)],
                                side.nbr_ghost[static_cast<std::size_t>(slot)] != 0);
        const std::size_t mb = mat_base(side.nbr[static_cast<std::size_t>(slot)],
                                        side.nbr_ghost[static_cast<std::size_t>(slot)] != 0);
        const auto& nfni = mesh_->face_nodes[static_cast<std::size_t>(side.nbr_face)];
        for (int qq = 0; qq < npf; ++qq) {
          const int nn = nfni[static_cast<std::size_t>(side.node_map[static_cast<std::size_t>(qq)])];
          Real sig[nstrain];
          stress_at(qn, mb, nn, sig);
          for (int i = 0; i < Dim; ++i) {
            vp[static_cast<std::size_t>(i * npf + qq)] = qn[i * nv + nn];
            Real ti = 0;
            for (int j = 0; j < Dim; ++j) {
              ti += sig[voigt<Dim>(i, j)] * nrm[static_cast<std::size_t>(qq * 3 + j)];
            }
            tp[static_cast<std::size_t>(i * npf + qq)] = ti;
          }
          zpp[static_cast<std::size_t>(qq)] = zp_[mb + static_cast<std::size_t>(nn)];
          zsp[static_cast<std::size_t>(qq)] = zs_[mb + static_cast<std::size_t>(nn)];
        }
      };

      // Riemann corrections at the current quadrature set; writes the lifted
      // contributions (velocity and strain corrections scaled by w*sJ) into
      // liftv.
      const auto riemann = [&](Real scale) {
        for (int qq = 0; qq < npf; ++qq) {
          const Real* nq = &nrm[static_cast<std::size_t>(qq * 3)];
          Real vnm = 0, vnp = 0, tnm = 0, tnp = 0;
          for (int i = 0; i < Dim; ++i) {
            vnm += vm[static_cast<std::size_t>(i * npf + qq)] * nq[i];
            vnp += vp[static_cast<std::size_t>(i * npf + qq)] * nq[i];
            tnm += tm[static_cast<std::size_t>(i * npf + qq)] * nq[i];
            tnp += tp[static_cast<std::size_t>(i * npf + qq)] * nq[i];
          }
          // Exact interface (Godunov) states: the left-moving wave into my
          // medium carries jumps along (1, +Z), the right-moving wave into
          // the neighbor along (1, -Z):
          //   v* = [Z- v- + Z+ v+ + (t+ - t-)] / (Z- + Z+)
          //   t* = [Z+ t- + Z- t+ + Z- Z+ (v+ - v-)] / (Z- + Z+)
          const Real dp = zpm[static_cast<std::size_t>(qq)] + zpp[static_cast<std::size_t>(qq)];
          const Real vsn = (zpm[static_cast<std::size_t>(qq)] * vnm +
                            zpp[static_cast<std::size_t>(qq)] * vnp + (tnp - tnm)) /
                           dp;
          const Real tsn = (zpp[static_cast<std::size_t>(qq)] * tnm +
                            zpm[static_cast<std::size_t>(qq)] * tnp +
                            zpm[static_cast<std::size_t>(qq)] * zpp[static_cast<std::size_t>(qq)] *
                                (vnp - vnm)) /
                           dp;
          const Real ds = zsm[static_cast<std::size_t>(qq)] + zsp[static_cast<std::size_t>(qq)];
          Real vst[3] = {0, 0, 0}, tst[3] = {0, 0, 0};
          for (int i = 0; i < Dim; ++i) {
            const Real vtm = vm[static_cast<std::size_t>(i * npf + qq)] - vnm * nq[i];
            const Real vtp = vp[static_cast<std::size_t>(i * npf + qq)] - vnp * nq[i];
            const Real ttm = tm[static_cast<std::size_t>(i * npf + qq)] - tnm * nq[i];
            const Real ttp = tp[static_cast<std::size_t>(i * npf + qq)] - tnp * nq[i];
            if (ds > Real(0)) {
              vst[i] = (zsm[static_cast<std::size_t>(qq)] * vtm +
                        zsp[static_cast<std::size_t>(qq)] * vtp + (ttp - ttm)) /
                       ds;
              tst[i] = (zsp[static_cast<std::size_t>(qq)] * ttm +
                        zsm[static_cast<std::size_t>(qq)] * ttp +
                        zsm[static_cast<std::size_t>(qq)] * zsp[static_cast<std::size_t>(qq)] *
                            (vtp - vtm)) /
                       ds;
            } else {
              vst[i] = vtm;
              tst[i] = 0;
            }
          }
          const Real wsj = wf_[static_cast<std::size_t>(qq)] * sj[static_cast<std::size_t>(qq)] * scale;
          for (int i = 0; i < Dim; ++i) {
            const Real vstar = vst[i] + vsn * nq[i];
            const Real tstar = tst[i] + tsn * nq[i];
            const Real dv = tstar - tm[static_cast<std::size_t>(i * npf + qq)];
            liftv[static_cast<std::size_t>(i * npf + qq)] = dv * wsj;
            // Strain correction (v* - v-) symmetrized with n.
            const Real dvel = vstar - vm[static_cast<std::size_t>(i * npf + qq)];
            for (int j = i; j < Dim; ++j) {
              const Real dvj = (vst[j] + vsn * nq[j]) - vm[static_cast<std::size_t>(j * npf + qq)];
              liftv[static_cast<std::size_t>((Dim + voigt<Dim>(i, j)) * npf + qq)] =
                  Real(0.5) * (dvel * nq[j] + dvj * nq[i]) * wsj;
            }
          }
        }
      };

      if (side.kind == DgMesh<Dim>::FaceKind::boundary) {
        // Mirror ghost states.
        for (int qq = 0; qq < npf; ++qq) {
          zpp[static_cast<std::size_t>(qq)] = zpm[static_cast<std::size_t>(qq)];
          zsp[static_cast<std::size_t>(qq)] = zsm[static_cast<std::size_t>(qq)];
          for (int i = 0; i < Dim; ++i) {
            if (boundary_ == Boundary::free_surface) {
              vp[static_cast<std::size_t>(i * npf + qq)] = vm[static_cast<std::size_t>(i * npf + qq)];
              tp[static_cast<std::size_t>(i * npf + qq)] = -tm[static_cast<std::size_t>(i * npf + qq)];
            } else {
              vp[static_cast<std::size_t>(i * npf + qq)] = -vm[static_cast<std::size_t>(i * npf + qq)];
              tp[static_cast<std::size_t>(i * npf + qq)] = tm[static_cast<std::size_t>(i * npf + qq)];
            }
          }
        }
        riemann(Real(1));
      } else if (side.kind == DgMesh<Dim>::FaceKind::same) {
        fetch_plus(0);
        riemann(Real(1));
      } else if (side.kind == DgMesh<Dim>::FaceKind::coarse) {
        // Interpolate the neighbor's full face to my quadrant after the
        // orientation alignment; my own data stays at my face nodes.
        fetch_plus(0);
        for (int i = 0; i < Dim; ++i) {
          half(interp_half_, side.half_bits, &vp[static_cast<std::size_t>(i * npf)]);
          half(interp_half_, side.half_bits, &tp[static_cast<std::size_t>(i * npf)]);
        }
        half(interp_half_, side.half_bits, zpp.data());
        half(interp_half_, side.half_bits, zsp.data());
        riemann(Real(1));
      } else {
        // fine: integrate each subface at the fine resolution and lift back.
        // My conforming face data moves to the *0 twins.
        std::swap(vm, vm0);
        std::swap(tm, tm0);
        std::swap(zpm, zpm0);
        std::swap(zsm, zsm0);
        std::swap(nrm, nrm0);
        std::swap(sj, sj0);
        std::fill(acc.begin(), acc.end(), Real(0));
        const Real scale = Dim == 3 ? Real(0.25) : Real(0.5);
        for (int s = 0; s < DgMesh<Dim>::nsub; ++s) {
          vm = vm0;
          tm = tm0;
          zpm = zpm0;
          zsm = zsm0;
          sj = sj0;
          for (int i = 0; i < Dim; ++i) {
            half(interp_half_, s, &vm[static_cast<std::size_t>(i * npf)]);
            half(interp_half_, s, &tm[static_cast<std::size_t>(i * npf)]);
          }
          half(interp_half_, s, zpm.data());
          half(interp_half_, s, zsm.data());
          half(interp_half_, s, sj.data());
          // Interpolate the normal componentwise and renormalize it.
          for (int qq = 0; qq < npf; ++qq) {
            for (int d = 0; d < 3; ++d) {
              nxyz[static_cast<std::size_t>(d * npf + qq)] = nrm0[static_cast<std::size_t>(qq * 3 + d)];
            }
          }
          for (int d = 0; d < 3; ++d) half(interp_half_, s, &nxyz[static_cast<std::size_t>(d * npf)]);
          for (int qq = 0; qq < npf; ++qq) {
            const Real nx = nxyz[static_cast<std::size_t>(qq)];
            const Real ny = nxyz[static_cast<std::size_t>(npf + qq)];
            const Real nz = nxyz[static_cast<std::size_t>(2 * npf + qq)];
            const Real len = std::sqrt(nx * nx + ny * ny + nz * nz);
            nrm[static_cast<std::size_t>(qq * 3)] = nx / len;
            nrm[static_cast<std::size_t>(qq * 3 + 1)] = ny / len;
            nrm[static_cast<std::size_t>(qq * 3 + 2)] = nz / len;
          }
          fetch_plus(s);
          riemann(scale);
          // Lift through the transposed interpolation and accumulate.
          for (int comp = 0; comp < ncomp; ++comp) {
            Real* lc = &liftv[static_cast<std::size_t>(comp * npf)];
            half(interp_half_t_, s, lc);
            for (int qq = 0; qq < npf; ++qq) acc[static_cast<std::size_t>(comp * npf + qq)] += lc[qq];
          }
        }
        liftv.swap(acc);
      }

      // Apply the lifted corrections: velocity scaled by 1/rho.
      for (int qq = 0; qq < npf; ++qq) {
        const int node = fni[static_cast<std::size_t>(qq)];
        const Real im = Real(1) / mass_[jb + static_cast<std::size_t>(node)];
        const Real inv_rho = Real(1) / rho_[matb + static_cast<std::size_t>(node)];
        for (int i = 0; i < Dim; ++i) {
          oe[i * nv + node] += inv_rho * liftv[static_cast<std::size_t>(i * npf + qq)] * im;
        }
        for (int s = 0; s < nstrain; ++s) {
          oe[(Dim + s) * nv + node] += liftv[static_cast<std::size_t>((Dim + s) * npf + qq)] * im;
        }
      }
    }
  }
}

template <int Dim, typename Real>
void ElasticWave<Dim, Real>::step(std::vector<Real>& q, double dt) const {
  lsrk54_step(q, dt, [this](std::span<const Real> x, std::span<Real> k) { rhs(x, k); });
}

template <int Dim, typename Real>
double ElasticWave<Dim, Real>::stable_dt(double cfl) const {
  double dt = 1e300;
  const double nn = std::max(1, mesh_->degree * mesh_->degree);
  for (std::size_t e = 0; e < static_cast<std::size_t>(mesh_->n_local); ++e) {
    dt = std::min(dt, cfl * mesh_->hmin[e] / (max_speed_ * nn));
  }
  return mesh_->forest->comm().allreduce(dt, par::ReduceOp::min);
}

template <int Dim, typename Real>
double ElasticWave<Dim, Real>::energy(std::span<const Real> q) const {
  const int nv = mesh_->nv;
  double acc = 0.0;
  for (std::size_t e = 0; e < static_cast<std::size_t>(mesh_->n_local); ++e) {
    const Real* qe = q.data() + e * static_cast<std::size_t>(ncomp) * nv;
    for (int node = 0; node < nv; ++node) {
      const std::size_t nb = e * static_cast<std::size_t>(nv) + static_cast<std::size_t>(node);
      double kin = 0.0, tr = 0.0, ee = 0.0;
      for (int i = 0; i < Dim; ++i) {
        kin += static_cast<double>(qe[i * nv + node]) * qe[i * nv + node];
        tr += qe[(Dim + voigt<Dim>(i, i)) * nv + node];
      }
      for (int i = 0; i < Dim; ++i) {
        for (int j = 0; j < Dim; ++j) {
          const double v = qe[(Dim + voigt<Dim>(i, j)) * nv + node];
          ee += v * v;
        }
      }
      acc += mesh_->mass[nb] * (0.5 * rho_[nb] * kin + mu_[nb] * ee +
                                0.5 * lambda_[nb] * tr * tr);
    }
  }
  return mesh_->forest->comm().allreduce(acc, par::ReduceOp::sum);
}

template class ElasticWave<2, double>;
template class ElasticWave<3, double>;
template class ElasticWave<2, float>;
template class ElasticWave<3, float>;

}  // namespace esamr::sfem
