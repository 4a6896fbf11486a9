// Differential tests for the Comm collectives: every collective (binomial
// tree, recursive doubling, ring, chain, pairwise) runs with randomized
// seeded per-rank payloads, and each rank's result must equal a sequential
// oracle computed in the test from the same seeded inputs. Payload values
// are exactly representable (integers, integer-valued doubles) so reductions
// are association-independent and the comparison can be exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "par/comm.h"

namespace par = esamr::par;

namespace {

par::RunOptions coll_opts() {
  par::RunOptions o;
  // A generous safety net: a bug in a collective algorithm surfaces as a
  // diagnostic instead of a hung test binary.
  o.recv_timeout_s = 60.0;
  o.barrier_timeout_s = 60.0;
  return o;
}

/// Seeded per-rank RNG: the ranks and the oracle draw identical payloads.
std::mt19937_64 rank_rng(int rank, std::uint64_t salt) {
  return std::mt19937_64(0x9e3779b9ULL * static_cast<std::uint64_t>(rank + 1) + salt);
}

/// Run `fn` on every rank of a P-rank world and compare rank r's result with
/// `oracle(r)`, computed sequentially.
template <typename R, typename Oracle>
void expect_oracle(int p, const std::function<R(par::Comm&)>& fn, const Oracle& oracle) {
  const auto got = par::run_collect<R>(p, coll_opts(), fn);
  ASSERT_EQ(static_cast<int>(got.size()), p);
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(got[static_cast<std::size_t>(r)], oracle(r))
        << "rank " << r << " of " << p << " disagrees with the sequential oracle";
  }
}

std::int64_t allgather_input(int r) { return static_cast<std::int64_t>(rank_rng(r, 11)()); }

std::vector<double> allgatherv_input(int r) {
  auto rng = rank_rng(r, 22);
  std::vector<double> mine(rng() % 17);  // includes empty payloads
  for (auto& v : mine) v = static_cast<double>(static_cast<std::int32_t>(rng() % 100000));
  return mine;
}

std::int64_t allreduce_input(int r) {
  return static_cast<std::int64_t>(rank_rng(r, 33)() % 1000003);
}

double allreduce_double_input(int r) {
  // Integer-valued doubles: the sum is exact under any association order.
  return static_cast<double>(static_cast<std::int32_t>(rank_rng(r, 44)() % (1 << 20)));
}

std::int64_t reduce_input(int r) { return static_cast<std::int64_t>(rank_rng(r, 55)() % 999983); }

std::int64_t bcast_input(int r) { return static_cast<std::int64_t>(rank_rng(r, 66)()); }

std::vector<std::int32_t> bcast_vector_input(int r) {
  auto rng = rank_rng(r, 77);
  std::vector<std::int32_t> mine(1 + rng() % 13);
  for (auto& v : mine) v = static_cast<std::int32_t>(rng() % 100000);
  return mine;
}

std::int64_t exscan_input(int r) { return static_cast<std::int64_t>(rank_rng(r, 88)() % 1000151); }

/// sends[d] is what rank r sends to rank d.
std::vector<std::vector<std::int32_t>> alltoallv_input(int r, int p) {
  auto rng = rank_rng(r, 99);
  std::vector<std::vector<std::int32_t>> send(static_cast<std::size_t>(p));
  for (auto& to : send) {
    to.resize(rng() % 9);  // includes empties
    for (auto& v : to) v = static_cast<std::int32_t>(rng() % 100000);
  }
  return send;
}

/// The five per-iteration values of rank r in DiffMixedSequence.
std::vector<std::int64_t> mixed_input(int r) {
  auto rng = rank_rng(r, 123);
  std::vector<std::int64_t> v(5);
  for (auto& x : v) x = static_cast<std::int64_t>(rng() % 4093);
  return v;
}

class CollRanks : public ::testing::TestWithParam<int> {};

}  // namespace

TEST_P(CollRanks, DiffAllgather) {
  const int p = GetParam();
  std::vector<std::int64_t> all;
  for (int r = 0; r < p; ++r) all.push_back(allgather_input(r));
  expect_oracle<std::vector<std::int64_t>>(
      p, [](par::Comm& c) { return c.allgather(allgather_input(c.rank())); },
      [&](int) { return all; });
}

TEST_P(CollRanks, DiffAllgatherv) {
  const int p = GetParam();
  std::vector<double> flat;
  for (int r = 0; r < p; ++r) {
    const auto mine = allgatherv_input(r);
    flat.insert(flat.end(), mine.begin(), mine.end());
  }
  expect_oracle<std::vector<double>>(
      p,
      [](par::Comm& c) {
        std::vector<double> out;
        for (const auto& from : c.allgatherv(allgatherv_input(c.rank()))) {
          out.insert(out.end(), from.begin(), from.end());
        }
        return out;
      },
      [&](int) { return flat; });
}

TEST_P(CollRanks, DiffAllreduce) {
  const int p = GetParam();
  std::int64_t sum = 0, mn = allreduce_input(0), mx = mn, any = 0, all = 1;
  for (int r = 0; r < p; ++r) {
    const std::int64_t v = allreduce_input(r);
    sum += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
    any = any || v % 2;
    all = all && v % 2;
  }
  const std::vector<std::int64_t> expected{sum, mn, mx, any, all};
  expect_oracle<std::vector<std::int64_t>>(
      p,
      [](par::Comm& c) {
        const std::int64_t v = allreduce_input(c.rank());
        return std::vector<std::int64_t>{
            c.allreduce(v, par::ReduceOp::sum),
            c.allreduce(v, par::ReduceOp::min),
            c.allreduce(v, par::ReduceOp::max),
            c.allreduce(static_cast<std::int64_t>(v % 2), par::ReduceOp::logical_or),
            c.allreduce(static_cast<std::int64_t>(v % 2), par::ReduceOp::logical_and),
        };
      },
      [&](int) { return expected; });
}

TEST_P(CollRanks, DiffAllreduceDoubleExact) {
  const int p = GetParam();
  double sum = 0.0;
  for (int r = 0; r < p; ++r) sum += allreduce_double_input(r);
  expect_oracle<double>(
      p,
      [](par::Comm& c) { return c.allreduce(allreduce_double_input(c.rank()), par::ReduceOp::sum); },
      [&](int) { return sum; });
}

TEST_P(CollRanks, DiffReduceEveryRoot) {
  const int p = GetParam();
  std::int64_t sum = 0;
  for (int r = 0; r < p; ++r) sum += reduce_input(r);
  expect_oracle<std::vector<std::int64_t>>(
      p,
      [p](par::Comm& c) {
        std::vector<std::int64_t> out;
        for (int root = 0; root < p; ++root) {
          out.push_back(c.reduce(reduce_input(c.rank()), par::ReduceOp::sum, root));
        }
        return out;
      },
      // Non-roots get their own value back; the root's entry carries the sum.
      [&](int r) {
        std::vector<std::int64_t> out;
        for (int root = 0; root < p; ++root) out.push_back(root == r ? sum : reduce_input(r));
        return out;
      });
}

TEST_P(CollRanks, DiffBcastEveryRoot) {
  const int p = GetParam();
  std::vector<std::int64_t> roots;
  for (int root = 0; root < p; ++root) roots.push_back(bcast_input(root));
  expect_oracle<std::vector<std::int64_t>>(
      p,
      [p](par::Comm& c) {
        std::vector<std::int64_t> out;
        for (int root = 0; root < p; ++root) out.push_back(c.bcast(bcast_input(c.rank()), root));
        return out;
      },
      [&](int) { return roots; });
}

TEST_P(CollRanks, DiffBcastVectorEveryRoot) {
  const int p = GetParam();
  std::vector<std::int32_t> roots;
  for (int root = 0; root < p; ++root) {
    const auto v = bcast_vector_input(root);
    roots.insert(roots.end(), v.begin(), v.end());
  }
  expect_oracle<std::vector<std::int32_t>>(
      p,
      [p](par::Comm& c) {
        std::vector<std::int32_t> out;
        for (int root = 0; root < p; ++root) {
          const auto got = c.bcast_vector(bcast_vector_input(c.rank()), root);
          out.insert(out.end(), got.begin(), got.end());
        }
        return out;
      },
      [&](int) { return roots; });
}

TEST_P(CollRanks, DiffExscan) {
  const int p = GetParam();
  expect_oracle<std::int64_t>(
      p, [](par::Comm& c) { return c.exscan_sum(exscan_input(c.rank())); },
      [](int r) {
        std::int64_t prefix = 0;
        for (int q = 0; q < r; ++q) prefix += exscan_input(q);
        return prefix;
      });
}

TEST_P(CollRanks, DiffAlltoallv) {
  const int p = GetParam();
  expect_oracle<std::vector<std::int32_t>>(
      p,
      [p](par::Comm& c) {
        std::vector<std::int32_t> flat;
        for (const auto& from : c.alltoallv(alltoallv_input(c.rank(), p))) {
          flat.insert(flat.end(), from.begin(), from.end());
        }
        return flat;
      },
      [p](int r) {
        std::vector<std::int32_t> flat;
        for (int s = 0; s < p; ++s) {
          const auto from = alltoallv_input(s, p)[static_cast<std::size_t>(r)];
          flat.insert(flat.end(), from.begin(), from.end());
        }
        return flat;
      });
}

TEST_P(CollRanks, DiffMixedSequence) {
  // Back-to-back collectives of different kinds: exercises the per-collective
  // tag sequencing (a message from collective k must never match k+1).
  const int p = GetParam();
  expect_oracle<std::vector<std::int64_t>>(
      p,
      [](par::Comm& c) {
        const auto v = mixed_input(c.rank());
        std::vector<std::int64_t> out;
        for (int iter = 0; iter < 5; ++iter) {
          const std::int64_t mine = v[static_cast<std::size_t>(iter)];
          out.push_back(c.allreduce(mine, par::ReduceOp::sum));
          out.push_back(c.exscan_sum(mine));
          const auto all = c.allgather(mine);
          out.insert(out.end(), all.begin(), all.end());
          out.push_back(c.bcast(mine, iter % c.size()));
          c.barrier();
        }
        return out;
      },
      [p](int r) {
        std::vector<std::int64_t> out;
        for (int iter = 0; iter < 5; ++iter) {
          const auto at = [iter](int q) { return mixed_input(q)[static_cast<std::size_t>(iter)]; };
          std::int64_t sum = 0, prefix = 0;
          for (int q = 0; q < p; ++q) {
            sum += at(q);
            if (q < r) prefix += at(q);
          }
          out.push_back(sum);
          out.push_back(prefix);
          for (int q = 0; q < p; ++q) out.push_back(at(q));
          out.push_back(at(iter % p));
        }
        return out;
      });
}

TEST_P(CollRanks, P2pCollectivesDoNotDisturbUserTraffic) {
  // A wildcard user recv posted *after* a collective must still see the user
  // message sent *before* it: collective-internal traffic lives on its own
  // mailbox plane.
  const int p = GetParam();
  if (p < 2) GTEST_SKIP();
  par::run(p, coll_opts(), [p](par::Comm& c) {
    const int next = (c.rank() + 1) % p;
    const int prev = (c.rank() + p - 1) % p;
    c.send_value(next, 5, c.rank() * 11);
    const auto sum = c.allreduce(1, par::ReduceOp::sum);
    EXPECT_EQ(sum, p);
    const auto msg = c.recv(par::any_source, par::any_tag);
    EXPECT_EQ(msg.source, prev);
    EXPECT_EQ(msg.tag, 5);
    EXPECT_EQ(msg.value<int>(), prev * 11);
  });
}

TEST_P(CollRanks, DiffUnderFaultInjection) {
  // Deterministic delay + slowdown injection perturbs only timing: the
  // collectives must produce the same results as their unperturbed run.
  const int p = GetParam();
  const auto body = [](par::Comm& c) {
    auto rng = rank_rng(c.rank(), 7);
    std::vector<std::int64_t> mine(1 + rng() % 5);
    for (auto& v : mine) v = static_cast<std::int64_t>(rng() % 100000);
    std::vector<std::int64_t> out{c.allreduce(mine[0], par::ReduceOp::sum),
                                  c.exscan_sum(mine[0])};
    for (const auto& from : c.allgatherv(mine)) out.insert(out.end(), from.begin(), from.end());
    return out;
  };
  const auto clean = par::run_collect<std::vector<std::int64_t>>(p, coll_opts(), body);
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    par::RunOptions opts = coll_opts();
    opts.inject.seed = seed;
    opts.inject.max_delay_us = 200.0;
    opts.inject.slow_rank_stride = 2;
    opts.inject.slow_op_us = 50.0;
    EXPECT_EQ(clean, par::run_collect<std::vector<std::int64_t>>(p, opts, body))
        << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollRanks, ::testing::Values(1, 2, 3, 4, 7, 16));

TEST(CollectiveStats, CountsCallsAndPayloads) {
  par::run(4, coll_opts(), [](par::Comm& c) {
    c.stats().reset();
    c.allreduce(1, par::ReduceOp::sum);
    c.allgather(c.rank());
    c.barrier();
    const auto& st = c.stats();
    EXPECT_EQ(st.coll_calls[static_cast<int>(par::Coll::allreduce)], 1);
    EXPECT_EQ(st.coll_calls[static_cast<int>(par::Coll::allgather)], 1);
    EXPECT_EQ(st.coll_calls[static_cast<int>(par::Coll::barrier)], 1);
    EXPECT_EQ(st.coll_payload_bytes[static_cast<int>(par::Coll::allreduce)],
              static_cast<std::int64_t>(sizeof(int)));
    EXPECT_GT(st.coll_msgs, 0);
    const auto snap = c.stats_snapshot();
    EXPECT_EQ(static_cast<int>(snap.per_rank.size()), 4);
    EXPECT_EQ(snap.total.coll_calls[static_cast<int>(par::Coll::allreduce)], 4);
  });
}

TEST(CollectiveStats, P2pSendRecvCounted) {
  par::run(2, coll_opts(), [](par::Comm& c) {
    c.stats().reset();
    if (c.rank() == 0) {
      c.send_value(1, 3, std::int64_t{42});
    } else {
      const auto m = c.recv(0, 3);
      EXPECT_EQ(m.value<std::int64_t>(), 42);
      EXPECT_EQ(c.stats().p2p_recvs, 1);
      EXPECT_EQ(c.stats().p2p_recv_bytes, 8);
    }
    c.barrier();
    if (c.rank() == 0) {
      EXPECT_EQ(c.stats().p2p_sends, 1);
      EXPECT_EQ(c.stats().p2p_send_bytes, 8);
    }
  });
}

TEST(CollectiveVolume, TreeAlgorithmsBeatReferenceAtP16) {
  // At P=16 with a 1 KiB payload, the exact wire volume (coll_bytes, each
  // internal message counted once at the sender; par/stats.h) of every
  // algorithm, and the bound it beats: P*P*n, the bytes a gather through
  // shared per-rank slots moves (each of P slots written once and read by
  // P-1 peers).
  constexpr int p = 16;
  constexpr std::int64_t n = 1024;
  const auto volume = [](par::Comm& c, par::Coll kind) {
    std::vector<std::byte> payload(n, std::byte{1});
    const auto noop = [](void*, const void*) {};
    c.stats().reset();
    switch (kind) {
      case par::Coll::bcast: c.bcast_bytes(payload, 0); break;
      case par::Coll::reduce: c.reduce_bytes(payload.data(), n, 0, noop); break;
      case par::Coll::allreduce: c.allreduce_bytes(payload.data(), n, noop); break;
      case par::Coll::allgather: c.allgather_bytes(payload.data(), n); break;
      case par::Coll::allgatherv: c.allgatherv_bytes(payload.data(), n); break;
      case par::Coll::exscan: {
        std::vector<std::byte> prefix(n);
        c.exscan_bytes(payload.data(), prefix.data(), n, noop);
        break;
      }
      case par::Coll::alltoall:
        c.alltoall_bytes(std::vector<std::vector<std::byte>>(p, std::vector<std::byte>(n / p)));
        break;
      default: break;
    }
    return c.stats_snapshot().total.coll_bytes;
  };
  struct Expect {
    par::Coll kind;
    std::int64_t bytes;
  };
  const Expect expected[] = {
      {par::Coll::bcast, (p - 1) * n},       // binomial tree: one receive per non-root
      {par::Coll::reduce, (p - 1) * n},      // binomial tree: one send per non-root
      {par::Coll::allreduce, p * 4 * n},     // recursive doubling: log2(P) rounds per rank
      {par::Coll::allgather, p * (p - 1) * (4 + n)},  // doubling blocks of (int32 origin, n)
      {par::Coll::allgatherv, p * (p - 1) * n},       // ring: P-1 rounds per rank
      {par::Coll::exscan, (p - 1) * n},               // chain: one send per rank but the last
      {par::Coll::alltoall, p * (p - 1) * (n / p)},   // pairwise: one send per peer
  };
  for (const auto& e : expected) {
    std::int64_t bytes = -1;
    par::run(p, coll_opts(), [&](par::Comm& c) {
      const auto v = volume(c, e.kind);
      if (c.rank() == 0) bytes = v;
    });
    EXPECT_EQ(bytes, e.bytes) << par::coll_name(e.kind);
    EXPECT_LT(bytes, p * p * n) << par::coll_name(e.kind);
  }
}
