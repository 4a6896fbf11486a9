#include "serve/workload.h"

#include <stdexcept>
#include <string>

#include "forest/forest.h"
#include "par/inject.h"
#include "resil/checkpoint.h"

namespace esamr::serve {

namespace {

using forest::Connectivity;
using forest::Forest;
using forest::Octant;

/// The tenant's forest: the unit-square connectivity refined by a pattern
/// salted with the workload seed, so distinct tenants carry distinct octant
/// populations while every tenant's forest is still a pure function of its
/// spec (and of nothing about the serving environment).
Forest<2> make_forest(par::Comm& c, const Connectivity<2>& conn, std::uint64_t seed) {
  const int salt = static_cast<int>(seed % 5);
  auto f = Forest<2>::new_uniform(c, &conn, 2);
  f.refine(4, false, [salt](int t, const Octant<2>& o) {
    return (t + o.child_id() + o.level + salt) % 3 == 0;
  });
  f.balance();
  f.partition();
  return f;
}

/// One supervised attempt of the ring_u64 workload (see workload.h). Returns
/// the digest; throws resil::Suspended / par::TimeoutError on a poll verdict.
std::uint64_t run_ring_u64(par::Comm& c, resil::RecoveryContext& ctx, const JobSpec& spec,
                           const JobControl* control) {
  const auto conn = Connectivity<2>::unit();
  const std::uint64_t cid = resil::connectivity_id(conn);
  resil::CheckpointRing ring(spec.ckpt_dir, spec.ckpt_keep);
  auto f = make_forest(c, conn, spec.workload_seed);

  std::uint64_t state = 0x243f6a8885a308d3ULL ^ par::detail::mix64(spec.workload_seed);
  int k0 = 0;
  if (resil::ring_probe(c, ring)) {
    auto r = resil::restore_latest_chain<2>(c, conn, cid, ring);
    if (c.rank() == 0) ctx.record_restore(r.bytes_read);
    k0 = static_cast<int>(r.step) + 1;
    if (r.forest.checksum() != f.checksum()) {
      throw std::runtime_error("serve: restored forest does not match the spec's (job '" +
                               spec.name + "')");
    }
    const std::uint64_t lo = static_cast<std::uint64_t>(r.fields.at(0).data.at(0));
    const std::uint64_t hi = static_cast<std::uint64_t>(r.fields.at(0).data.at(1));
    state = (hi << 32) | lo;
  }

  const int next = (c.rank() + 1) % c.size();
  const int prev = (c.rank() + c.size() - 1) % c.size();
  for (int k = k0; k < spec.steps; ++k) {
    std::uint64_t local = 0;
    f.for_each_local([&](int t, const Octant<2>& o) {
      local += par::detail::mix64(state ^ (static_cast<std::uint64_t>(t) << 48) ^
                                  (static_cast<std::uint64_t>(o.x) << 28) ^
                                  (static_cast<std::uint64_t>(o.y) << 8) ^
                                  static_cast<std::uint64_t>(o.level));
    });
    std::uint64_t acc = local, pass = local;
    for (int h = 0; h < c.size() - 1; ++h) {
      c.send_value(next, 13, pass);
      pass = c.recv(prev, 13).value<std::uint64_t>();
      acc += pass;
    }
    const std::uint64_t glob = c.allreduce(local, par::ReduceOp::sum);
    if (acc != glob) {
      // A divergence between the ring circulation and the allreduce is a
      // runtime bug, not a recoverable fault — quarantine material.
      throw std::runtime_error("serve: ring/allreduce mismatch (job '" + spec.name + "')");
    }
    state = par::detail::mix64(state ^ glob ^ static_cast<std::uint64_t>(k));

    // Collective verdict *before* the commit decision so every rank writes —
    // or skips — the same checkpoint and leaves the loop at the same step.
    const int verdict =
        control != nullptr ? control->poll(c) : static_cast<int>(JobControl::keep_running);
    const bool cadence = (k + 1) % spec.checkpoint_every == 0;
    if (cadence || verdict == JobControl::yield) {
      resil::NamedField fld{"state", 2, {}};
      f.for_each_local([&](int, const Octant<2>&) {
        fld.data.push_back(static_cast<double>(state & 0xffffffffULL));
        fld.data.push_back(static_cast<double>(state >> 32));
      });
      resil::write_checkpoint_ring(f, cid, static_cast<std::uint64_t>(k), {fld}, ring);
    }
    if (c.rank() == 0) ctx.note_step();
    if (verdict == JobControl::yield) throw resil::Suspended();
    if (verdict == JobControl::overrun) {
      throw par::TimeoutError("esamr::serve deadline exceeded: job '" + spec.name +
                              "' overran " + std::to_string(spec.deadline_s) +
                              " s at step " + std::to_string(k));
    }
  }
  return par::detail::mix64(state) ^ f.checksum();
}

}  // namespace

resil::SupervisedBody make_body(const JobSpec& spec, const JobControl* control,
                                std::uint64_t* digest_out) {
  return [spec, control, digest_out](par::Comm& c, resil::RecoveryContext& ctx) {
    const std::uint64_t d = run_ring_u64(c, ctx, spec, control);
    if (c.rank() == 0 && digest_out != nullptr) *digest_out = d;
  };
}

SoloRun solo_run(const JobSpec& spec, int p, const std::string& dir) {
  JobSpec solo = spec;
  solo.ckpt_dir = dir;
  solo.inject = par::InjectConfig{};  // fault-free reference environment
  SoloRun out;
  out.ops.assign(static_cast<std::size_t>(p), 0);
  par::run(p, [&](par::Comm& c) {
    resil::RecoveryContext ctx(0);
    const std::uint64_t d = run_ring_u64(c, ctx, solo, nullptr);
    if (c.rank() == 0) out.digest = d;
    out.ops[static_cast<std::size_t>(c.rank())] = ops_of(c.stats());
  });
  return out;
}

std::uint64_t ops_of(const par::CommStats& st) {
  std::int64_t n = st.p2p_sends + st.p2p_recvs;
  for (const auto calls : st.coll_calls) n += calls;
  return static_cast<std::uint64_t>(n);
}

std::uint64_t pick_single_victim_seed(int nranks, int* victim) {
  for (std::uint64_t seed = 1; seed < 10000; ++seed) {
    par::InjectConfig cfg;
    cfg.seed = seed;
    cfg.kill_rank_stride = nranks;
    cfg.kill_after_ops = 1;
    int count = 0, v = -1;
    for (int r = 0; r < nranks; ++r) {
      if (par::detail::is_kill_rank(cfg, r)) {
        ++count;
        v = r;
      }
    }
    if (count == 1) {
      if (victim != nullptr) *victim = v;
      return seed;
    }
  }
  return 0;
}

}  // namespace esamr::serve
