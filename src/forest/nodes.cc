// "Nodes" (paper §II-C): build the globally unique numbering of independent
// node points and the hanging-node constraint expansions.
//
// Two protocols share this file:
//
//  * the batched protocol (default): pass 1 classifies every node point of
//    the local leaves in one recursive topological iterate (forest/iterate.h)
//    — each point is visited once with its full adjacency, no point search.
//    Resolution is a memoized recursive expansion, hash maps replace the
//    ordered std::map hot paths, and each answer ships the answering rank's
//    FULL transitive expansion (gids attached wherever known) rather than a
//    single hop. Candidate owners come from the post-balance ghost layer, so
//    in the common case everything is settled in one request batch and one
//    answer batch; only constraint chains that cross three or more ranks
//    (rare, measured by OpStats::nodes_rounds) need another round. The loop
//    is allreduce-terminated with the same 64-round safety cap.
//
//  * the reference protocol (build_reference): the original formulation —
//    per-corner point searches in the leaf directory, iterative rounds over
//    a `want` set re-scanned to a local fixed point, one-hop answers — kept
//    as the differential-testing oracle (NodesEquivalence calls it
//    directly).
#include "forest/nodes.h"

#include <algorithm>
#include <bit>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "forest/iterate.h"
#include "forest/stats.h"

namespace esamr::forest {

namespace {

using Key = std::array<std::int32_t, 4>;  // NodeNumbering<Dim>::Key
using Point = std::array<std::int32_t, 3>;

/// Request payload (a canonical node key).
struct KeyMsg {
  std::int32_t tree, x, y, z;
};

constexpr int kAnsIndepGid = 0;    // answerer owns the node; gid attached
constexpr int kAnsIndepOwner = 1;  // node independent; re-ask the owner
constexpr int kAnsDependent = 2;   // node hangs; masters attached

struct AnsMsg {
  KeyMsg key;
  std::int32_t kind;
  std::int64_t gid_or_owner;
  std::int32_t nmasters;
  KeyMsg masters[4];
  std::int32_t ask[4];
};

/// Answer record kinds of the batched protocol (serialized int64 stream).
constexpr std::int64_t kRecExpansion = 0;  // n x (gid, weight bits, key)
constexpr std::int64_t kRecOwner = 1;      // node independent; re-ask owner
constexpr std::int64_t kRecMasters = 2;    // n x (key, ask rank)

/// Local classification of a node point (paper Fig. 3): a point is
/// independent iff it is a corner of every touching leaf; its owner is the
/// minimum touching rank; a hanging point's masters are the corners of the
/// face/edge of the coarsest incidence for which it is not a corner.
struct Classification {
  bool independent = false;
  int owner = -1;                // if independent
  int nmasters = 0;              // if dependent: 2 (edge) or 4 (face)
  std::array<Key, 4> masters{};
  std::array<int, 4> ask{};      // rank to ask per master
  /// Local element corner (element * 2^Dim + corner) at each master when
  /// the constraining leaf is local, else -1: lets the resolution find the
  /// master's entry without a key lookup.
  std::array<std::int32_t, 4> master_slot{-1, -1, -1, -1};
};

struct KeyHash {
  std::size_t operator()(const Key& k) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (const std::int32_t v : k) {
      h ^= static_cast<std::uint32_t>(v) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return static_cast<std::size_t>(h);
  }
};

/// True iff the point lies strictly inside the tree's root cube, i.e. on no
/// macro face/edge/corner — then it has no images in other tree frames.
template <int Dim>
bool tree_interior(const Point& pt) {
  for (int a = 0; a < Dim; ++a) {
    if (pt[static_cast<std::size_t>(a)] <= 0 ||
        pt[static_cast<std::size_t>(a)] >= Octant<Dim>::root_len) {
      return false;
    }
  }
  return true;
}

/// All frame representations of a tree-boundary point: (tree, point), self
/// first, then Connectivity::point_images order.
template <int Dim>
std::vector<std::pair<int, Point>> frames_of(const Connectivity<Dim>& conn, int t,
                                             const Point& pt) {
  std::vector<std::pair<int, Point>> fr{{t, pt}};
  for (const auto& im : conn.point_images(t, pt)) fr.push_back(im);
  return fr;
}

/// Canonical node key: the lowest (tree, point) frame.
template <int Dim>
Key canonical(const Connectivity<Dim>& conn, int t, const Point& pt) {
  if (tree_interior<Dim>(pt)) return Key{t, pt[0], pt[1], pt[2]};  // sole frame
  const auto fr = frames_of(conn, t, pt);
  const auto& [ct, cp] = *std::min_element(fr.begin(), fr.end());
  return Key{ct, cp[0], cp[1], cp[2]};
}

/// Masters of a point hanging on leaf `big` (in frame `tree`): the canonical
/// corners of the constraining face/edge, 2^k of them for k interior axes.
/// `big_elem` is the local element index of `big`, or -1.
template <int Dim>
void set_masters(const Connectivity<Dim>& conn, Classification& cls, int tree,
                 const Octant<Dim>& big, int owner, const Point& pt, std::int32_t big_elem = -1) {
  const std::int32_t h = big.size();
  std::array<int, 3> axes{};
  int n = 0;
  for (int a = 0; a < Dim; ++a) {
    const std::int32_t rel = pt[static_cast<std::size_t>(a)] - big.coord(a);
    if (rel != 0 && rel != h) axes[static_cast<std::size_t>(n++)] = a;
  }
  cls.nmasters = 1 << n;
  for (int combo = 0; combo < cls.nmasters; ++combo) {
    Point m = pt;
    for (int i = 0; i < n; ++i) {
      const int a = axes[static_cast<std::size_t>(i)];
      m[static_cast<std::size_t>(a)] = big.coord(a) + (((combo >> i) & 1) ? h : 0);
    }
    cls.masters[static_cast<std::size_t>(combo)] = canonical(conn, tree, m);
    cls.ask[static_cast<std::size_t>(combo)] = owner;
    if (big_elem >= 0) {
      int c = 0;
      for (int a = 0; a < Dim; ++a) {
        if (m[static_cast<std::size_t>(a)] != big.coord(a)) c |= 1 << a;
      }
      cls.master_slot[static_cast<std::size_t>(combo)] = big_elem * Topo<Dim>::num_corners + c;
    }
  }
}

/// Classify a node point from its iterate visit. `frames` lists the point's
/// tree frames in the order a point search starting from the first element
/// corner would walk them (empty for a tree-interior point): ties between
/// equally coarse big sides go to the first frame, then the lowest quadrant,
/// so masters and ask ranks match the reference classifier. When `me` >= 0,
/// masters on a leaf of rank `me` record their element corner slots.
template <int Dim>
Classification classify(const Connectivity<Dim>& conn, int nranks,
                        typename CornerIterator<Dim>::Touches touches,
                        const std::vector<std::pair<int, Point>>& frames, int me = -1) {
  Classification cls;
  cls.independent = true;
  cls.owner = nranks;
  for (const auto& tc : touches) {
    cls.owner = std::min(cls.owner, static_cast<int>(tc.leaf.owner));
    if (!tc.corner) cls.independent = false;
  }
  if (cls.independent) return cls;
  const auto frame_of = [&](const CornerTouch<Dim>& tc) -> int {
    if (frames.empty()) return 0;
    for (std::size_t f = 0; f < frames.size(); ++f) {
      if (frames[f].first == tc.tree && frames[f].second == tc.pt) return static_cast<int>(f);
    }
    throw std::runtime_error("nodes: touch in a frame the connectivity does not list");
  };
  const CornerTouch<Dim>* best = nullptr;
  std::tuple<int, int, int> best_rank{};
  for (const auto& tc : touches) {
    if (tc.corner) continue;
    const std::tuple<int, int, int> r{tc.leaf.oct.level, frame_of(tc), tc.quadrant};
    if (best == nullptr || r < best_rank) {
      best = &tc;
      best_rank = r;
    }
  }
  set_masters(conn, cls, best->tree, best->leaf.oct, best->leaf.owner, best->pt,
              best->leaf.owner == me ? best->leaf.index : -1);
  return cls;
}

/// True iff the touch is a corner of an active local element (`active`
/// indexed by local element; empty = all local elements).
template <int Dim>
bool active_corner(const CornerTouch<Dim>& tc, int me, std::span<const std::uint8_t> active) {
  return tc.corner && tc.leaf.owner == me &&
         (active.empty() || active[static_cast<std::size_t>(tc.leaf.index)] != 0);
}

/// Key and classification of a pass-1 visit. The origin frame is the corner
/// of the first active local element (SFC order) at the point — where the
/// element-order walk of the reference classifier first meets it. Master
/// slots are recorded when every local element is active.
template <int Dim>
std::pair<Key, Classification> classify_visit(const Connectivity<Dim>& conn, int me, int nranks,
                                              typename CornerIterator<Dim>::Touches touches,
                                              std::span<const std::uint8_t> active,
                                              std::vector<std::pair<int, Point>>& frames) {
  const CornerTouch<Dim>* origin = nullptr;
  int origin_c = 0;
  for (const auto& tc : touches) {
    if (!active_corner(tc, me, active)) continue;
    const int c = tc.corner_id();
    if (origin == nullptr ||
        std::pair(tc.leaf.index, c) < std::pair(origin->leaf.index, origin_c)) {
      origin = &tc;
      origin_c = c;
    }
  }
  frames.clear();
  Key k{origin->tree, origin->pt[0], origin->pt[1], origin->pt[2]};
  if (!tree_interior<Dim>(origin->pt)) {
    frames = frames_of(conn, origin->tree, origin->pt);
    const auto& [ct, cp] = *std::min_element(frames.begin(), frames.end());
    k = Key{ct, cp[0], cp[1], cp[2]};
  }
  return {k, classify(conn, nranks, touches, frames, active.empty() ? me : -1)};
}

}  // namespace

// ---------------------------------------------------------------------------
// Batched protocol (default).
// ---------------------------------------------------------------------------

/// Open-addressed hash table unifying the classification and resolution state
/// of a node key. One probe serves what the reference protocol pays two
/// ordered-map lookups for (classified + resolved), entries live in a flat
/// vector (indices stay valid across growth), and element corners cache their
/// entry index from pass 1 so the resolution scan and the final fill do no
/// hashing at all.
template <int Dim>
struct NodeTable {
  using Contrib = typename NodeNumbering<Dim>::Contrib;

  struct Entry {
    Key key;
    Classification cls;         // valid iff `classified`
    std::vector<Contrib> res;   // expansion onto independent gids; empty = unresolved
    bool classified = false;
  };

  std::vector<std::int32_t> slot;  // power-of-two probe table, -1 = empty
  std::vector<Entry> entries;
  std::size_t mask = 0;

  explicit NodeTable(std::size_t expect) {
    std::size_t cap = 64;
    while (cap < expect * 3) cap <<= 1;
    slot.assign(cap, -1);
    mask = cap - 1;
    entries.reserve(expect);
  }

  std::size_t probe(const Key& k) const {
    std::size_t i = KeyHash{}(k) & mask;
    while (slot[i] >= 0 && entries[static_cast<std::size_t>(slot[i])].key != k) {
      i = (i + 1) & mask;
    }
    return i;
  }

  /// Append the classified entry of a key known to be new, without indexing
  /// it: pass 1 visits every node point once. Call index() before any lookup.
  std::int32_t append(const Key& k, const Classification& cls) {
    entries.push_back(Entry{k, cls, {}, true});
    return static_cast<std::int32_t>(entries.size() - 1);
  }

  /// Renumber the appended entries by first reference in `refs` (every entry
  /// must be referenced), rewriting `refs`, then index them for lookup.
  template <std::size_t N>
  void index(std::vector<std::array<std::int32_t, N>>& refs) {
    std::vector<std::int32_t> perm(entries.size(), -1);
    std::int32_t next = 0;
    for (auto& row : refs) {
      for (std::int32_t& ei : row) {
        std::int32_t& to = perm[static_cast<std::size_t>(ei)];
        if (to < 0) to = next++;
        ei = to;
      }
    }
    // Permute in place, cycle by cycle (a second entry array would double
    // the table's peak memory); a visited slot's perm is reset to -1.
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (perm[i] < 0) continue;
      Entry carry = std::move(entries[i]);
      for (std::size_t cur = i;;) {
        const auto to = static_cast<std::size_t>(perm[cur]);
        perm[cur] = -1;
        if (to == i) {
          entries[i] = std::move(carry);
          break;
        }
        std::swap(carry, entries[to]);
        cur = to;
      }
    }
    std::size_t cap = slot.size();
    while (cap < entries.size() * 3) cap <<= 1;
    slot.assign(cap, -1);
    mask = cap - 1;
    for (std::size_t e = 0; e < entries.size(); ++e) {
      std::size_t j = KeyHash{}(entries[e].key) & mask;
      while (slot[j] >= 0) j = (j + 1) & mask;
      slot[j] = static_cast<std::int32_t>(e);
    }
  }

  /// Entry index of `k`, inserting an unclassified, unresolved entry if new.
  std::int32_t get_or_insert(const Key& k) {
    std::size_t i = probe(k);
    if (slot[i] >= 0) return slot[i];
    if ((entries.size() + 1) * 3 > slot.size() * 2) {
      slot.assign(slot.size() * 2, -1);
      mask = slot.size() - 1;
      for (std::size_t e = 0; e < entries.size(); ++e) {
        std::size_t j = KeyHash{}(entries[e].key) & mask;
        while (slot[j] >= 0) j = (j + 1) & mask;
        slot[j] = static_cast<std::int32_t>(e);
      }
      i = probe(k);
    }
    const auto idx = static_cast<std::int32_t>(entries.size());
    slot[i] = idx;
    entries.push_back(Entry{k, {}, {}, false});
    return idx;
  }
};

/// Fill the id ranges of a numbering whose owned_keys are final (collective).
template <int Dim>
static void assign_offsets(par::Comm& comm, NodeNumbering<Dim>& out) {
  const int p = comm.size();
  out.num_owned = static_cast<std::int64_t>(out.owned_keys.size());
  const auto counts = comm.allgather(out.num_owned);
  out.rank_offsets.assign(static_cast<std::size_t>(p) + 1, 0);
  for (int r = 0; r < p; ++r) {
    out.rank_offsets[static_cast<std::size_t>(r) + 1] =
        out.rank_offsets[static_cast<std::size_t>(r)] + counts[static_cast<std::size_t>(r)];
  }
  out.owned_offset = out.rank_offsets[static_cast<std::size_t>(comm.rank())];
  out.num_global = out.rank_offsets[static_cast<std::size_t>(p)];
}

/// The gid -> key records accumulated by a build, sorted and deduplicated.
static std::vector<std::pair<std::int64_t, Key>> finish_gid_keys(
    std::vector<std::pair<std::int64_t, Key>> known) {
  std::sort(known.begin(), known.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  known.erase(std::unique(known.begin(), known.end(),
                          [](const auto& a, const auto& b) { return a.first == b.first; }),
              known.end());
  return known;
}

/// Resolution rounds of the batched protocol, shared by the full build and
/// the incremental patch (collective). Expands the pass-1 entries [0, n_pass1)
/// of `tab` onto independent gids. Memoized recursion: constraint chains are
/// acyclic (the constraining entity's level strictly decreases), so plain
/// recursion terminates. On a miss, one request goes to the rank that can
/// advance the chain: the owner for an independent key, the rank that
/// classified the constraining leaf (`hint`) for an unclassified one. An
/// unclassified key routed to this rank (its constraining leaf, or the node
/// itself, is local, so every touching leaf is known) is classified on the
/// spot by `classify_here(entry)`; an independent key this rank owns takes its
/// gid from `out.owned_keys`. `slot_entry`, when given, maps a master's
/// element corner slot (Classification::master_slot) to its entry. Entries
/// may grow during recursion, so state is re-fetched by index after every
/// recursive call.
template <int Dim, typename ClassifyHere>
static void resolve(par::Comm& comm, NodeTable<Dim>& tab, std::size_t n_pass1,
                    const NodeNumbering<Dim>& out,
                    std::vector<std::pair<std::int64_t, Key>>& known_gid_keys,
                    const ClassifyHere& classify_here, const char* phase,
                    const std::int32_t* slot_entry = nullptr) {
  using Contrib = typename NodeNumbering<Dim>::Contrib;
  const int p = comm.size();
  const int me = comm.rank();
  OpStats& ops = op_stats();
  // The owned-key array is complete and rank-owned for all resolution rounds.
  const par::check::RegionGuard owned_guard(comm, out.owned_keys.data(),
                                            out.owned_keys.size() * sizeof(Key), phase);
  std::set<std::pair<Key, int>> asked;
  std::vector<std::vector<KeyMsg>> req(static_cast<std::size_t>(p));
  // Keys of the gids fetched from other ranks, for expansion answers.
  std::unordered_map<std::int64_t, Key> fetched;
  const auto key_of_gid = [&](std::int64_t g) -> const Key& {
    const std::int64_t i = g - out.owned_offset;
    if (i >= 0 && i < out.num_owned) return out.owned_keys[static_cast<std::size_t>(i)];
    return fetched.at(g);
  };

  const auto owned_gid_of = [&](const Key& k) -> std::int64_t {
    const auto it = std::lower_bound(out.owned_keys.begin(), out.owned_keys.end(), k);
    if (it == out.owned_keys.end() || !(*it == k)) {
      throw std::runtime_error("nodes: owned key missing from the owned set");
    }
    return out.owned_offset + (it - out.owned_keys.begin());
  };
  const auto expand = [&](auto&& self, std::int32_t ei, int hint, bool collect) -> bool {
    if (!tab.entries[static_cast<std::size_t>(ei)].res.empty()) return true;
    const auto note = [&](int target) {
      if (!collect) return;
      if (target < 0) throw std::runtime_error("nodes: unclassified key without hint");
      const Key& k = tab.entries[static_cast<std::size_t>(ei)].key;
      if (asked.insert({k, target}).second) {
        req[static_cast<std::size_t>(target)].push_back(KeyMsg{k[0], k[1], k[2], k[3]});
      }
    };
    if (!tab.entries[static_cast<std::size_t>(ei)].classified) {
      if (hint != me) {
        note(hint);
        return false;
      }
      classify_here(ei);
    }
    // Copied out: the recursive calls below may reallocate the entry vector.
    const Classification cls = tab.entries[static_cast<std::size_t>(ei)].cls;
    if (cls.independent) {
      if (cls.owner == me) {
        const std::int64_t g = owned_gid_of(tab.entries[static_cast<std::size_t>(ei)].key);
        tab.entries[static_cast<std::size_t>(ei)].res.assign(1, Contrib{g, 1.0});
        return true;
      }
      note(cls.owner);  // gid not yet fetched from the owner
      return false;
    }
    const auto nm = static_cast<std::size_t>(cls.nmasters);
    bool all = true;
    std::array<std::int32_t, 4> mi{};
    for (std::size_t i = 0; i < nm; ++i) {
      const std::int32_t slot = cls.master_slot[i];
      mi[i] = slot >= 0 && slot_entry != nullptr ? slot_entry[slot]
                                                 : tab.get_or_insert(cls.masters[i]);
      if (!self(self, mi[i], cls.ask[i], collect)) all = false;
    }
    if (!all) return false;
    // Flat accumulation (a handful of masters x contribs); sorted by gid to
    // match the reference protocol's std::map ordering exactly.
    std::vector<Contrib> v;
    const double w = 1.0 / static_cast<double>(nm);
    for (std::size_t i = 0; i < nm; ++i) {
      for (const Contrib& c : tab.entries[static_cast<std::size_t>(mi[i])].res) {
        bool found = false;
        for (Contrib& x : v) {
          if (x.gid == c.gid) {
            x.weight += w * c.weight;
            found = true;
            break;
          }
        }
        if (!found) v.push_back(Contrib{c.gid, w * c.weight});
      }
    }
    std::sort(v.begin(), v.end(), [](const Contrib& a, const Contrib& b) { return a.gid < b.gid; });
    tab.entries[static_cast<std::size_t>(ei)].res = std::move(v);
    return true;
  };

  // Round 0 walks each distinct pass-1 entry once (every element corner maps
  // to one); later rounds only the still-pending entries (the frontier), so
  // local-only regions are scanned exactly once.
  std::vector<std::int32_t> pending(n_pass1);
  for (std::size_t i = 0; i < n_pass1; ++i) pending[i] = static_cast<std::int32_t>(i);
  for (int round = 0;; ++round) {
    if (round > 64) throw std::runtime_error("nodes: resolution did not converge");
    std::vector<std::int32_t> still;
    for (const std::int32_t ei : pending) {
      if (!expand(expand, ei, -1, true)) still.push_back(ei);
    }
    pending = std::move(still);
    const int any =
        comm.allreduce(static_cast<int>(!pending.empty()), par::ReduceOp::logical_or);
    if (!any) break;

    ops.nodes_rounds++;
    for (const auto& buf : req) {
      if (buf.empty()) continue;
      ops.nodes_request_batches++;
      ops.nodes_requests_sent += static_cast<std::int64_t>(buf.size());
    }
    const auto req_in = comm.alltoallv(req);
    for (auto& buf : req) buf.clear();

    // Answer every incoming request with the deepest local knowledge: the
    // full transitive expansion when it closes over known gids, otherwise
    // the direct masters (or the owner to re-ask) so the requester can route
    // the next hop precisely.
    std::vector<std::vector<std::int64_t>> ans(static_cast<std::size_t>(p));
    for (int src = 0; src < p; ++src) {
      auto& buf = ans[static_cast<std::size_t>(src)];
      for (const KeyMsg& km : req_in[static_cast<std::size_t>(src)]) {
        const Key k{km.tree, km.x, km.y, km.z};
        const std::int32_t ei = tab.get_or_insert(k);
        // A request is routed here because this rank owns the node or its
        // constraining leaf, so the point is a corner of a local leaf.
        if (!tab.entries[static_cast<std::size_t>(ei)].classified) classify_here(ei);
        buf.insert(buf.end(), {km.tree, km.x, km.y, km.z});
        if (expand(expand, ei, -1, false)) {
          const auto& v = tab.entries[static_cast<std::size_t>(ei)].res;
          buf.push_back(kRecExpansion);
          buf.push_back(static_cast<std::int64_t>(v.size()));
          for (const Contrib& c : v) {
            const Key& ck = key_of_gid(c.gid);
            buf.insert(buf.end(),
                       {c.gid, std::bit_cast<std::int64_t>(c.weight), ck[0], ck[1], ck[2], ck[3]});
          }
        } else {
          const auto& cls = tab.entries[static_cast<std::size_t>(ei)].cls;
          if (cls.independent) {
            buf.push_back(kRecOwner);
            buf.push_back(cls.owner);
          } else {
            buf.push_back(kRecMasters);
            buf.push_back(cls.nmasters);
            for (int i = 0; i < cls.nmasters; ++i) {
              const Key& m = cls.masters[static_cast<std::size_t>(i)];
              buf.insert(buf.end(), {m[0], m[1], m[2], m[3], cls.ask[static_cast<std::size_t>(i)]});
            }
          }
        }
      }
    }
    const auto ans_in = comm.alltoallv(ans);
    for (const auto& from : ans_in) {
      for (std::size_t i = 0; i < from.size();) {
        const Key k{static_cast<std::int32_t>(from[i]), static_cast<std::int32_t>(from[i + 1]),
                    static_cast<std::int32_t>(from[i + 2]), static_cast<std::int32_t>(from[i + 3])};
        const std::int64_t kind = from[i + 4];
        const std::int64_t n = from[i + 5];
        i += 6;
        ops.nodes_answers_recv++;
        const std::int32_t ei = tab.get_or_insert(k);
        if (kind == kRecExpansion) {
          std::vector<Contrib> v;
          v.reserve(static_cast<std::size_t>(n));
          for (std::int64_t e = 0; e < n; ++e) {
            const std::int64_t gid = from[i];
            const double w = std::bit_cast<double>(from[i + 1]);
            const Key ck{static_cast<std::int32_t>(from[i + 2]),
                         static_cast<std::int32_t>(from[i + 3]),
                         static_cast<std::int32_t>(from[i + 4]),
                         static_cast<std::int32_t>(from[i + 5])};
            i += 6;
            v.push_back(Contrib{gid, w});
            // Record the member gid's key, and let other chains resolve
            // through it without a second fetch.
            const std::int32_t ci = tab.get_or_insert(ck);
            auto& ce = tab.entries[static_cast<std::size_t>(ci)];
            if (ce.res.empty()) ce.res.assign(1, Contrib{gid, 1.0});
            known_gid_keys.emplace_back(gid, ck);
            fetched.emplace(gid, ck);
          }
          tab.entries[static_cast<std::size_t>(ei)].res = std::move(v);
        } else {
          auto& e = tab.entries[static_cast<std::size_t>(ei)];
          e.cls = Classification{};
          e.classified = true;
          if (kind == kRecOwner) {
            e.cls.independent = true;
            e.cls.owner = static_cast<int>(n);  // owner rides in the count slot
          } else {
            e.cls.nmasters = static_cast<int>(n);
            for (std::int64_t rec = 0; rec < n; ++rec) {
              e.cls.masters[static_cast<std::size_t>(rec)] = Key{
                  static_cast<std::int32_t>(from[i]), static_cast<std::int32_t>(from[i + 1]),
                  static_cast<std::int32_t>(from[i + 2]), static_cast<std::int32_t>(from[i + 3])};
              e.cls.ask[static_cast<std::size_t>(rec)] = static_cast<int>(from[i + 4]);
              i += 5;
            }
          }
        }
      }
    }
  }
}

template <int Dim>
NodeNumbering<Dim> NodeNumbering<Dim>::build(const Forest<Dim>& forest,
                                             const GhostLayer<Dim>& ghost) {
  using Key = typename NodeNumbering<Dim>::Key;
  using Contrib = typename NodeNumbering<Dim>::Contrib;
  constexpr int nc = Topo<Dim>::num_corners;
  par::Comm& comm = forest.comm();
  const int me = comm.rank();

  // --- Pass 1: classify every node point of the local leaves, once ----------
  const auto n_local = static_cast<std::size_t>(forest.num_local());
  NodeTable<Dim> tab(n_local * 2);
  std::vector<std::array<std::int32_t, nc>> elem_ent(n_local);  // entry index per corner
  std::vector<std::pair<int, Point>> frames;
  CornerIterator<Dim> iter(forest, ghost);
  iter.for_each({}, [&](typename CornerIterator<Dim>::Touches touches) {
    const auto [k, cls] = classify_visit<Dim>(forest.conn(), me, comm.size(), touches, {}, frames);
    const std::int32_t ei = tab.append(k, cls);
    for (const auto& tc : touches) {
      if (!active_corner(tc, me, {})) continue;
      elem_ent[static_cast<std::size_t>(tc.leaf.index)][static_cast<std::size_t>(tc.corner_id())] =
          ei;
    }
  });
  // Entries added after this point are masters/answers, not element corners.
  const std::size_t n_pass1 = tab.entries.size();
  // Entries in element order (first touch), the order the resolution scan
  // and the slot fill walk them.
  tab.index(elem_ent);

  // --- Assign ids to owned independent nodes ---------------------------------
  // (before any resolution, so answers can carry gids)
  NodeNumbering<Dim> out;
  std::vector<std::pair<Key, std::int32_t>> owned;  // (key, entry) to skip re-probing
  for (std::size_t i = 0; i < n_pass1; ++i) {
    const auto& e = tab.entries[i];
    if (e.cls.independent && e.cls.owner == me) {
      owned.emplace_back(e.key, static_cast<std::int32_t>(i));
    }
  }
  std::sort(owned.begin(), owned.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out.owned_keys.reserve(owned.size());
  for (const auto& [k, ei] : owned) out.owned_keys.push_back(k);
  assign_offsets(comm, out);
  std::vector<std::pair<std::int64_t, Key>> known_gid_keys;  // owned or fetched
  known_gid_keys.reserve(owned.size());
  for (std::size_t i = 0; i < owned.size(); ++i) {
    const std::int64_t g = out.owned_offset + static_cast<std::int64_t>(i);
    tab.entries[static_cast<std::size_t>(owned[i].second)].res.assign(1, Contrib{g, 1.0});
    known_gid_keys.emplace_back(g, owned[i].first);
  }

  // --- Resolution ---------------------------------------------------------------
  resolve(comm, tab, n_pass1, out, known_gid_keys,
          [](std::int32_t) {
            throw std::runtime_error("nodes: request for a key this rank never classified");
          },
          "nodes owned keys", elem_ent.empty() ? nullptr : elem_ent.front().data());

  // --- Fill per-element slots (entry indices cached from pass 1) --------------
  out.elements.resize(n_local);
  for (std::size_t e = 0; e < n_local; ++e) {
    for (int c = 0; c < nc; ++c) {
      out.elements[e][static_cast<std::size_t>(c)] =
          tab.entries[static_cast<std::size_t>(elem_ent[e][static_cast<std::size_t>(c)])].res;
    }
  }
  out.gid_keys = finish_gid_keys(std::move(known_gid_keys));
  return out;
}

// ---------------------------------------------------------------------------
// Incremental patching (build_incremental): reuse the previous numbering
// outside the delta neighborhood, re-run the batched protocol only inside.
// ---------------------------------------------------------------------------

namespace {

/// Invalidation horizon for element re-classification, in same-size
/// insulation rings around each delta octant d. A corner's expansion depends
/// on its touching leaves (<= 1 cell), its masters on the constraining
/// entity of a touching leaf (<= 1 leaf size), and — because the forest is
/// corner-balanced, so the corners of a constraining face/edge are corners
/// of the coarse leaf and cannot themselves hang — the chain stops there:
/// the hazard horizon is <= 2 * size(d), plus one ring of margin for the
/// touching relation being closed-region. The bit-identity battery
/// (test_incremental) pins this bound; a violation is caught at runtime by
/// the invalidated-node check in the gid remap.
constexpr int kNodesRings = 3;

}  // namespace

template <int Dim>
static NodeNumbering<Dim> patch_batched(const Forest<Dim>& forest, const GhostLayer<Dim>& ghost,
                                        DeltaSet<Dim>& delta, NodesCache<Dim>& cache) {
  using Oct = Octant<Dim>;
  using T = Topo<Dim>;
  using Key = typename NodeNumbering<Dim>::Key;
  using Contrib = typename NodeNumbering<Dim>::Contrib;
  constexpr int nc = T::num_corners;
  par::Comm& comm = forest.comm();
  const Connectivity<Dim>& conn = forest.conn();
  const int p = comm.size();
  const int me = comm.rank();
  OpStats& ops = op_stats();

  NodeNumbering<Dim> old = std::move(cache.numbering);

  // --- Invalidation regions ---------------------------------------------------
  DeltaSet<Dim> global = delta.replicated(comm);
  const auto n_local = static_cast<std::size_t>(forest.num_local());
  if (global.empty()) {
    // Nothing changed anywhere: the cached numbering is the rebuild result.
    ops.nodes_reused += static_cast<std::int64_t>(n_local);
    return old;
  }
  // Delta regions with a point on their tree's boundary are the only ones a
  // point in ANOTHER tree's frame can fall into; when none exist, every
  // cross-tree image check below is skipped wholesale.
  bool any_boundary_region = false;
  global.normalize();
  for (std::size_t t = 0; t < global.regions.size() && !any_boundary_region; ++t) {
    for (const Oct& d : global.regions[t]) {
      for (int a = 0; a < Dim; ++a) {
        if (d.coord(a) == 0 || d.coord(a) + d.size() == Oct::root_len) {
          any_boundary_region = true;
          break;
        }
      }
      if (any_boundary_region) break;
    }
  }
  // True iff the lattice point lies in the closed delta, in any tree frame.
  const auto point_in_delta = [&](int t, const std::array<std::int32_t, 3>& pt) {
    if (global.contains_point(t, pt)) return true;
    if (any_boundary_region && !tree_interior<Dim>(pt)) {
      for (const auto& [t2, p2] : conn.point_images(t, pt)) {
        if (global.contains_point(t2, p2)) return true;
      }
    }
    return false;
  };

  // --- Align new elements against the cached leaf snapshot --------------------
  // An element's row must be rebuilt (stale) iff
  //   (a) one of its corner points lies in the CLOSED delta region, in any
  //       tree frame — a corner's classification depends only on its touching
  //       leaves, and by octree nesting a leaf overlapping a delta octant is
  //       contained in it (the DeltaSet level invariant forbids a coarser
  //       leaf), hence touches the corner only if the corner is on the closed
  //       delta boundary. This also covers every changed leaf itself. Tested
  //       as a closed element-box/region overlap (a region cannot hide
  //       strictly inside an element: nesting would make it a changed
  //       descendant, so box overlap <=> some corner in the closed region up
  //       to face-adjacent contact, a sound over-approximation); or
  //   (b) some corner hung in the cached numbering and the chain's bounding
  //       box touches the delta: a hanging slot stores the transitively
  //       expanded master chain, and every chain node lies in the convex
  //       hull of the final independent masters (each intermediate is inside
  //       the hull of its own entity's corners), so the bbox of {corner,
  //       final master keys} bounds the whole chain. When the finals
  //       canonicalize into another tree frame, or the bbox reaches a tree
  //       boundary while boundary-touching delta regions exist, fall back to
  //       the conservative kNodesRings element-ball.
  // Every other element must exist unchanged in the snapshot.
  std::vector<std::int64_t> old_of(n_local, -1);  // reused: old local index
  struct StaleElem {
    std::int32_t tree;
    Oct oct;
    std::int64_t li;
  };
  std::vector<StaleElem> stale;
  const auto old_key_of = [&](std::int64_t g) -> const Key& {
    return (g >= old.owned_offset && g < old.owned_offset + old.num_owned)
               ? old.owned_keys[static_cast<std::size_t>(g - old.owned_offset)]
               : old.key_of(g);
  };
  // Closed-interval overlap of any tree-t delta region with the box [lo, hi].
  const auto delta_box_overlap = [&](int t, const std::array<std::int64_t, 3>& lo,
                                     const std::array<std::int64_t, 3>& hi) {
    for (const Oct& d : global.regions[static_cast<std::size_t>(t)]) {
      bool hit = true;
      for (int a = 0; a < Dim; ++a) {
        const std::int64_t dc = d.coord(a);
        if (dc > hi[static_cast<std::size_t>(a)] || lo[static_cast<std::size_t>(a)] > dc + d.size()) {
          hit = false;
          break;
        }
      }
      if (hit) return true;
    }
    return false;
  };
  {
    std::int64_t li = 0, old_base = 0;
    for (int t = 0; t < forest.num_trees(); ++t) {
      const auto& news = forest.tree(t);
      const auto& olds = cache.leaves[static_cast<std::size_t>(t)];
      std::size_t oi = 0;
      for (const Oct& o : news) {
        // Closed-box overlap of the element with the tree's delta regions is
        // equivalent to "some corner lies in a closed region" up to the
        // face-adjacent neighbors (octant nesting rules out a region hiding
        // strictly inside a leaf) — one linear region scan instead of 2^Dim
        // point probes. Cross-frame corners still need the image walk.
        std::array<std::int64_t, 3> elo{}, ehi{};
        bool on_tree_boundary = false;
        for (int a = 0; a < Dim; ++a) {
          elo[static_cast<std::size_t>(a)] = o.coord(a);
          ehi[static_cast<std::size_t>(a)] = o.coord(a) + o.size();
          on_tree_boundary = on_tree_boundary || o.coord(a) == 0 ||
                             o.coord(a) + o.size() == Oct::root_len;
        }
        bool is_stale = delta_box_overlap(t, elo, ehi);
        if (!is_stale && any_boundary_region && on_tree_boundary) {
          for (int c = 0; c < nc && !is_stale; ++c) {
            const auto cp = o.corner_point(c);
            if (tree_interior<Dim>(cp)) continue;
            for (const auto& [t2, p2] : conn.point_images(t, cp)) {
              if (global.contains_point(t2, p2)) {
                is_stale = true;
                break;
              }
            }
          }
        }
        if (!is_stale) {
          while (oi < olds.size() && olds[oi] < o) ++oi;
          if (oi >= olds.size() || !(olds[oi] == o)) {
            throw std::runtime_error("nodes: changed element escaped the delta closure");
          }
          const std::int64_t og = old_base + static_cast<std::int64_t>(oi);
          ++oi;
          for (int c = 0; c < nc && !is_stale; ++c) {
            const auto& slot =
                old.elements[static_cast<std::size_t>(og)][static_cast<std::size_t>(c)];
            if (slot.size() <= 1) continue;  // independent corner: (a) was exact
            const auto cp = o.corner_point(c);
            std::array<std::int64_t, 3> lo{cp[0], cp[1], cp[2]};
            std::array<std::int64_t, 3> hi = lo;
            bool cross = false;
            for (const Contrib& cb : slot) {
              const Key& mk = old_key_of(cb.gid);
              if (mk[0] != t) {
                cross = true;
                break;
              }
              for (int a = 0; a < Dim; ++a) {
                const std::int64_t v = mk[1 + a];
                lo[static_cast<std::size_t>(a)] = std::min(lo[static_cast<std::size_t>(a)], v);
                hi[static_cast<std::size_t>(a)] = std::max(hi[static_cast<std::size_t>(a)], v);
              }
            }
            bool on_boundary = false;
            for (int a = 0; a < Dim && !on_boundary; ++a) {
              on_boundary = lo[static_cast<std::size_t>(a)] <= 0 ||
                            hi[static_cast<std::size_t>(a)] >= Oct::root_len;
            }
            if (cross || (on_boundary && any_boundary_region)) {
              is_stale = global.ball_overlaps(conn, t, o, kNodesRings);
            } else {
              is_stale = delta_box_overlap(t, lo, hi);
            }
          }
          if (!is_stale) old_of[static_cast<std::size_t>(li)] = og;
        }
        if (is_stale) stale.push_back(StaleElem{t, o, li});
        ++li;
      }
      old_base += static_cast<std::int64_t>(olds.size());
    }
  }
  ops.nodes_patched += static_cast<std::int64_t>(stale.size());
  ops.nodes_reused += static_cast<std::int64_t>(n_local) - static_cast<std::int64_t>(stale.size());

  // --- Classify the corners of stale elements (pass 1 of the patch) -----------
  // The iterate restricted to the stale elements: subtrees without one are
  // pruned. Lazy: ranks with no stale elements build it only if the
  // resolution phase routes a request their way.
  std::optional<CornerIterator<Dim>> iter_opt;
  const auto iter_get = [&]() -> CornerIterator<Dim>& {
    if (!iter_opt) iter_opt.emplace(forest, ghost);
    return *iter_opt;
  };
  NodeTable<Dim> tab(stale.size() * 2 + 16);
  std::vector<std::array<std::int32_t, nc>> stale_ent(stale.size());
  std::vector<std::pair<int, Point>> frames;
  if (!stale.empty()) {
    std::vector<std::uint8_t> active(n_local, 0);
    std::vector<std::int32_t> stale_of(n_local, -1);
    for (std::size_t s = 0; s < stale.size(); ++s) {
      active[static_cast<std::size_t>(stale[s].li)] = 1;
      stale_of[static_cast<std::size_t>(stale[s].li)] = static_cast<std::int32_t>(s);
    }
    iter_get().for_each(active, [&](typename CornerIterator<Dim>::Touches touches) {
      const auto [k, cls] = classify_visit<Dim>(conn, me, p, touches, active, frames);
      const std::int32_t ei = tab.append(k, cls);
      for (const auto& tc : touches) {
        if (!active_corner(tc, me, active)) continue;
        const auto s = static_cast<std::size_t>(stale_of[static_cast<std::size_t>(tc.leaf.index)]);
        stale_ent[s][static_cast<std::size_t>(tc.corner_id())] = ei;
      }
    });
  }
  const std::size_t n_pass1 = tab.entries.size();
  tab.index(stale_ent);

  // --- New owned set -----------------------------------------------------------
  // A point's classification depends only on its touching leaves, and a
  // touching leaf changed iff the point lies in the closed raw delta region
  // (in some tree frame): old owned nodes outside it survive verbatim. Fresh
  // candidates come from the stale-element corners. The merged sorted set is
  // exactly what a full rebuild would own, so the assigned ids coincide.
  std::vector<Key> survivors;
  survivors.reserve(old.owned_keys.size());
  for (const Key& k : old.owned_keys) {
    if (!point_in_delta(k[0], {k[1], k[2], k[3]})) survivors.push_back(k);
  }
  std::vector<Key> cands;
  for (std::size_t i = 0; i < n_pass1; ++i) {
    const auto& e = tab.entries[i];
    if (e.cls.independent && e.cls.owner == me) cands.push_back(e.key);
  }
  std::sort(cands.begin(), cands.end());

  NodeNumbering<Dim> out;
  out.owned_keys.reserve(survivors.size() + cands.size());
  std::merge(survivors.begin(), survivors.end(), cands.begin(), cands.end(),
             std::back_inserter(out.owned_keys));
  out.owned_keys.erase(std::unique(out.owned_keys.begin(), out.owned_keys.end()),
                       out.owned_keys.end());
  assign_offsets(comm, out);

  std::vector<std::pair<std::int64_t, Key>> known_gid_keys;
  for (std::size_t i = 0; i < out.owned_keys.size(); ++i) {
    known_gid_keys.emplace_back(out.owned_offset + static_cast<std::int64_t>(i), out.owned_keys[i]);
  }

  // --- Old -> new gid remap ----------------------------------------------------
  // Per-rank id blocks are preserved and the within-rank shift is monotone in
  // key order (subtract invalidated predecessors, add fresh ones), so the
  // remap is strictly increasing: spliced sorted-by-gid contribution lists
  // stay sorted without touching the weights.
  std::vector<Key> removed_eff, added_eff;
  std::set_difference(old.owned_keys.begin(), old.owned_keys.end(), out.owned_keys.begin(),
                      out.owned_keys.end(), std::back_inserter(removed_eff));
  std::set_difference(out.owned_keys.begin(), out.owned_keys.end(), old.owned_keys.begin(),
                      old.owned_keys.end(), std::back_inserter(added_eff));
  const auto removed_all = comm.allgatherv(removed_eff);
  const auto added_all = comm.allgatherv(added_eff);
  // Flat memo indexed by old gid: the fill below touches every reused slot's
  // gids, so the dense array beats a hash map.
  std::vector<std::int64_t> remap_memo(static_cast<std::size_t>(old.num_global), -1);
  const auto remap = [&](std::int64_t g) -> std::int64_t {
    std::int64_t& memo = remap_memo[static_cast<std::size_t>(g)];
    if (memo >= 0) return memo;
    const int r = old.owner_of_gid(g);
    const Key& k = (r == me)
                       ? old.owned_keys[static_cast<std::size_t>(g - old.owned_offset)]
                       : old.key_of(g);
    const auto& rem = removed_all[static_cast<std::size_t>(r)];
    if (std::binary_search(rem.begin(), rem.end(), k)) {
      throw std::runtime_error("nodes: reused element references an invalidated node");
    }
    const auto& add = added_all[static_cast<std::size_t>(r)];
    const std::int64_t ng =
        out.rank_offsets[static_cast<std::size_t>(r)] +
        (g - old.rank_offsets[static_cast<std::size_t>(r)]) -
        (std::lower_bound(rem.begin(), rem.end(), k) - rem.begin()) +
        (std::lower_bound(add.begin(), add.end(), k) - add.begin());
    memo = ng;
    known_gid_keys.emplace_back(ng, k);
    return ng;
  };


  // --- Resolution (patch table only) -------------------------------------------
  // Unlike the full build, a key routed here may lie outside the stale region
  // (a full rebuild would have classified it in pass 1: it is a corner of a
  // local leaf), so it is classified on demand by a point-restricted iterate
  // with the key's own frame as the origin.
  const auto classify_here = [&](std::int32_t ei) {
    const Key k = tab.entries[static_cast<std::size_t>(ei)].key;
    const Point pt{k[1], k[2], k[3]};
    Classification cls;
    const bool hit =
        iter_get().at_point(k[0], pt, [&](typename CornerIterator<Dim>::Touches touches) {
          frames.clear();
          if (!tree_interior<Dim>(pt)) frames = frames_of(conn, k[0], pt);
          cls = classify(conn, p, touches, frames);
        });
    if (!hit) throw std::runtime_error("nodes: requested key is not a corner of a local leaf");
    auto& e = tab.entries[static_cast<std::size_t>(ei)];
    e.cls = cls;
    e.classified = true;
  };
  resolve(comm, tab, n_pass1, out, known_gid_keys, classify_here,
          "nodes owned keys (patch)");

  // --- Fill per-element slots ---------------------------------------------------
  out.elements.resize(n_local);
  for (std::size_t li = 0; li < n_local; ++li) {
    const std::int64_t ol = old_of[li];
    if (ol < 0) continue;
    for (int c = 0; c < nc; ++c) {
      auto& slot = out.elements[li][static_cast<std::size_t>(c)];
      slot = std::move(old.elements[static_cast<std::size_t>(ol)][static_cast<std::size_t>(c)]);
      for (Contrib& cb : slot) cb.gid = remap(cb.gid);
    }
  }
  for (std::size_t s = 0; s < stale.size(); ++s) {
    const auto li = static_cast<std::size_t>(stale[s].li);
    for (int c = 0; c < nc; ++c) {
      out.elements[li][static_cast<std::size_t>(c)] =
          tab.entries[static_cast<std::size_t>(stale_ent[s][static_cast<std::size_t>(c)])].res;
    }
  }
  // gid -> key records: owned + patch-fetched + remap-recorded covers exactly
  // the gids referenced by the element slots, same as a full rebuild.
  out.gid_keys = finish_gid_keys(std::move(known_gid_keys));
  return out;
}

template <int Dim>
const NodeNumbering<Dim>& NodeNumbering<Dim>::build_incremental(const Forest<Dim>& forest,
                                                                const GhostLayer<Dim>& ghost,
                                                                DeltaSet<Dim>& delta,
                                                                NodesCache<Dim>& cache) {
  par::Comm& comm = forest.comm();
  const bool bad_local = !incremental_enabled() || !cache.valid || delta.overflow ||
                         cache.markers != forest.markers();
  if (comm.allreduce(static_cast<int>(bad_local), par::ReduceOp::logical_or) != 0) {
    cache.numbering = build(forest, ghost);
  } else {
    cache.numbering = patch_batched<Dim>(forest, ghost, delta, cache);
  }
  cache.markers = forest.markers();
  cache.leaves.assign(static_cast<std::size_t>(forest.num_trees()), {});
  for (int t = 0; t < forest.num_trees(); ++t) {
    cache.leaves[static_cast<std::size_t>(t)] = forest.tree(t);
  }
  cache.valid = true;
  return cache.numbering;
}

// ---------------------------------------------------------------------------
// Reference protocol (build_reference): the original iterative
// formulation, kept as a differential-testing oracle. It classifies by point
// search, independently of the iterate it checks.
// ---------------------------------------------------------------------------

namespace {

/// Search-based classifier: the touching leaves of a node point are found by
/// one upper_bound per tree frame and quadrant in the leaf directory.
template <int Dim>
struct NodeClassifier {
  using Oct = Octant<Dim>;

  const Connectivity<Dim>& conn;
  std::vector<std::vector<LeafRef<Dim>>> dir;
  int nranks;

  NodeClassifier(const Forest<Dim>& forest, const GhostLayer<Dim>& ghost)
      : conn(forest.conn()),
        dir(build_leaf_directory(forest, ghost)),
        nranks(forest.comm().size()) {}

  /// One incidence of a leaf at the node point, in some tree frame.
  struct Touch {
    int tree;
    const LeafRef<Dim>* leaf;
    Point pt;     // the node point in this frame
    bool corner;  // point is a corner of the leaf
  };

  /// Classify the node point (t, pt). The caller guarantees the point is a
  /// corner of one of this rank's local elements, so every touching leaf is
  /// known locally (local or ghost).
  Classification classify(int t, const Point& pt) const {
    std::vector<Touch> touching;
    const auto frames = tree_interior<Dim>(pt) ? std::vector<std::pair<int, Point>>{{t, pt}}
                                               : frames_of(conn, t, pt);
    for (const auto& [ft, fp] : frames) {
      for (int q = 0; q < Topo<Dim>::num_corners; ++q) {
        // The finest-level cell adjacent to the point in quadrant q.
        Oct cell;
        cell.level = Oct::max_level;
        bool ok = true;
        for (int a = 0; a < Dim; ++a) {
          const std::int32_t c = fp[static_cast<std::size_t>(a)] - (((q >> a) & 1) ? 1 : 0);
          if (c < 0 || c >= Oct::root_len) ok = false;
          cell.set_coord(a, c);
        }
        if (!ok) continue;
        const auto& v = dir[static_cast<std::size_t>(ft)];
        const auto it =
            std::upper_bound(v.begin(), v.end(), cell,
                             [](const Oct& a, const LeafRef<Dim>& b) { return a < b.oct; });
        if (it == v.begin() || !(it - 1)->oct.contains(cell)) {
          throw std::runtime_error("nodes: touching leaf not in local+ghost storage");
        }
        const LeafRef<Dim>* leaf = &*(it - 1);
        bool is_corner = true;
        for (int a = 0; a < Dim; ++a) {
          const std::int32_t rel = fp[static_cast<std::size_t>(a)] - leaf->oct.coord(a);
          if (rel != 0 && rel != leaf->oct.size()) is_corner = false;
        }
        const bool dup = std::any_of(touching.begin(), touching.end(), [&](const Touch& tx) {
          return tx.tree == ft && tx.leaf == leaf && tx.pt == fp;
        });
        if (!dup) touching.push_back(Touch{ft, leaf, fp, is_corner});
      }
    }
    Classification cls;
    cls.independent = true;
    cls.owner = nranks;
    for (const Touch& tc : touching) {
      cls.owner = std::min(cls.owner, static_cast<int>(tc.leaf->owner));
      if (!tc.corner) cls.independent = false;
    }
    if (cls.independent) return cls;
    // Dependent: the constraining entity is the face/edge of the coarsest
    // incidence for which the point is not a corner.
    const Touch* best = nullptr;
    for (const Touch& tc : touching) {
      if (!tc.corner && (best == nullptr || tc.leaf->oct.level < best->leaf->oct.level)) best = &tc;
    }
    set_masters(conn, cls, best->tree, best->leaf->oct, best->leaf->owner, best->pt);
    return cls;
  }
};

}  // namespace

template <int Dim>
NodeNumbering<Dim> NodeNumbering<Dim>::build_reference(const Forest<Dim>& forest,
                                                       const GhostLayer<Dim>& ghost) {
  using Oct = Octant<Dim>;
  using T = Topo<Dim>;
  using Key = typename NodeNumbering<Dim>::Key;
  using Cls = Classification;
  using Contrib = typename NodeNumbering<Dim>::Contrib;
  constexpr int nc = T::num_corners;
  par::Comm& comm = forest.comm();
  const int p = comm.size();
  const int me = comm.rank();
  OpStats& ops = op_stats();

  const NodeClassifier<Dim> nclass(forest, ghost);

  // --- Pass 1: classify all corners of local elements ------------------------
  std::map<Key, Cls> classified;
  const auto n_local = static_cast<std::size_t>(forest.num_local());
  std::vector<std::array<Key, nc>> elem_keys(n_local);
  std::size_t li = 0;
  forest.for_each_local([&](int t, const Oct& o) {
    for (int c = 0; c < nc; ++c) {
      const auto cp = o.corner_point(c);
      const Key k = canonical(forest.conn(), t, cp);
      elem_keys[li][static_cast<std::size_t>(c)] = k;
      if (!classified.contains(k)) classified.emplace(k, nclass.classify(t, cp));
    }
    ++li;
  });

  // --- Assign ids to owned independent nodes --------------------------------
  NodeNumbering<Dim> out;
  std::map<Key, std::int64_t> gid_of;  // keys with known gid (owned or fetched)
  for (const auto& [k, cls] : classified) {
    if (cls.independent && cls.owner == me) out.owned_keys.push_back(k);
  }
  std::sort(out.owned_keys.begin(), out.owned_keys.end());
  assign_offsets(comm, out);
  for (std::size_t i = 0; i < out.owned_keys.size(); ++i) {
    gid_of[out.owned_keys[i]] = out.owned_offset + static_cast<std::int64_t>(i);
  }

  // --- Resolution rounds -----------------------------------------------------
  const par::check::RegionGuard owned_guard(comm, out.owned_keys.data(),
                                            out.owned_keys.size() * sizeof(Key),
                                            "nodes owned keys (reference)");
  // `want` = keys whose expansion onto independent gids we need.
  std::map<Key, std::vector<Contrib>> resolved;
  std::set<Key> want;
  std::map<Key, int> ask_hint;  // where to ask about keys we did not classify
  std::set<std::pair<Key, int>> asked;
  for (const auto& ek : elem_keys) {
    for (const Key& k : ek) want.insert(k);
  }

  const auto to_msg = [](const Key& k) { return KeyMsg{k[0], k[1], k[2], k[3]}; };
  const auto from_msg = [](const KeyMsg& m) { return Key{m.tree, m.x, m.y, m.z}; };

  for (int round = 0;; ++round) {
    if (round > 64) throw std::runtime_error("nodes: resolution did not converge");
    // Local expansion to a fixed point.
    bool progress = true;
    while (progress) {
      progress = false;
      for (const Key& k : want) {
        if (resolved.contains(k)) continue;
        const auto it = classified.find(k);
        if (it == classified.end()) continue;
        const Cls& cls = it->second;
        if (cls.independent) {
          const auto g = gid_of.find(k);
          if (g != gid_of.end()) {
            resolved[k] = {Contrib{g->second, 1.0}};
            progress = true;
          }
        } else {
          bool all = true;
          for (int i = 0; i < cls.nmasters; ++i) {
            if (!resolved.contains(cls.masters[static_cast<std::size_t>(i)])) all = false;
          }
          if (all) {
            std::map<std::int64_t, double> acc;
            const double w = 1.0 / static_cast<double>(cls.nmasters);
            for (int i = 0; i < cls.nmasters; ++i) {
              for (const Contrib& c : resolved[cls.masters[static_cast<std::size_t>(i)]]) {
                acc[c.gid] += w * c.weight;
              }
            }
            auto& v = resolved[k];
            for (const auto& [g, ww] : acc) v.push_back(Contrib{g, ww});
            progress = true;
          }
        }
      }
      // Pull masters of classified dependents into `want`.
      std::vector<Key> grow;
      for (const Key& k : want) {
        const auto it = classified.find(k);
        if (it == classified.end() || it->second.independent) continue;
        for (int i = 0; i < it->second.nmasters; ++i) {
          const Key& m = it->second.masters[static_cast<std::size_t>(i)];
          if (!want.contains(m)) {
            grow.push_back(m);
            ask_hint.emplace(m, it->second.ask[static_cast<std::size_t>(i)]);
          }
        }
      }
      if (!grow.empty()) progress = true;
      for (const Key& k : grow) want.insert(k);
    }

    // Build requests.
    std::vector<std::vector<KeyMsg>> req(static_cast<std::size_t>(p));
    bool outstanding = false;
    for (const Key& k : want) {
      if (resolved.contains(k)) continue;
      outstanding = true;
      int target = -1;
      const auto it = classified.find(k);
      if (it != classified.end() && it->second.independent) {
        target = it->second.owner;  // fetch the gid from the owner
      } else if (it == classified.end()) {
        const auto h = ask_hint.find(k);
        if (h == ask_hint.end()) throw std::runtime_error("nodes: unclassified key without hint");
        target = h->second;
      } else {
        continue;  // dependent with unresolved masters: they carry the requests
      }
      if (asked.insert({k, target}).second) {
        req[static_cast<std::size_t>(target)].push_back(to_msg(k));
      }
    }

    const int any = comm.allreduce(static_cast<int>(outstanding), par::ReduceOp::logical_or);
    if (!any) break;

    ops.nodes_rounds++;
    for (const auto& buf : req) {
      if (buf.empty()) continue;
      ops.nodes_request_batches++;
      ops.nodes_requests_sent += static_cast<std::int64_t>(buf.size());
    }
    const auto req_in = comm.alltoallv(req);

    // Answer every incoming request from the local classification.
    std::vector<std::vector<AnsMsg>> ans(static_cast<std::size_t>(p));
    for (int src = 0; src < p; ++src) {
      for (const KeyMsg& km : req_in[static_cast<std::size_t>(src)]) {
        const Key k = from_msg(km);
        const auto it = classified.find(k);
        if (it == classified.end()) {
          throw std::runtime_error("nodes: request for a key this rank never classified");
        }
        AnsMsg a{};
        a.key = km;
        const Cls& cls = it->second;
        if (cls.independent) {
          const auto g = gid_of.find(k);
          if (g != gid_of.end()) {
            a.kind = kAnsIndepGid;
            a.gid_or_owner = g->second;
          } else {
            a.kind = kAnsIndepOwner;
            a.gid_or_owner = cls.owner;
          }
        } else {
          a.kind = kAnsDependent;
          a.nmasters = cls.nmasters;
          for (int i = 0; i < cls.nmasters; ++i) {
            a.masters[i] = to_msg(cls.masters[static_cast<std::size_t>(i)]);
            a.ask[i] = cls.ask[static_cast<std::size_t>(i)];
          }
        }
        ans[static_cast<std::size_t>(src)].push_back(a);
      }
    }
    const auto ans_in = comm.alltoallv(ans);
    for (const auto& from : ans_in) {
      for (const AnsMsg& a : from) {
        ops.nodes_answers_recv++;
        const Key k = from_msg(a.key);
        if (a.kind == kAnsIndepGid) {
          gid_of[k] = a.gid_or_owner;
          Cls cls;
          cls.independent = true;
          cls.owner = out.owner_of_gid(a.gid_or_owner);
          classified.emplace(k, cls);
        } else if (a.kind == kAnsIndepOwner) {
          Cls cls;
          cls.independent = true;
          cls.owner = static_cast<int>(a.gid_or_owner);
          classified.insert_or_assign(k, cls);
        } else {
          Cls cls;
          cls.independent = false;
          cls.nmasters = a.nmasters;
          for (int i = 0; i < a.nmasters; ++i) {
            cls.masters[static_cast<std::size_t>(i)] = from_msg(a.masters[i]);
            cls.ask[static_cast<std::size_t>(i)] = a.ask[i];
          }
          classified.insert_or_assign(k, cls);
        }
      }
    }
  }

  // --- Fill per-element slots -------------------------------------------------
  out.elements.resize(n_local);
  for (std::size_t e = 0; e < n_local; ++e) {
    for (int c = 0; c < nc; ++c) {
      out.elements[e][static_cast<std::size_t>(c)] = resolved.at(elem_keys[e][static_cast<std::size_t>(c)]);
    }
  }
  // Invert the gid map for locally referenced nodes.
  out.gid_keys.reserve(gid_of.size());
  for (const auto& [k, g] : gid_of) out.gid_keys.emplace_back(g, k);
  std::sort(out.gid_keys.begin(), out.gid_keys.end());
  return out;
}

template <int Dim>
const typename NodeNumbering<Dim>::Key& NodeNumbering<Dim>::key_of(std::int64_t gid) const {
  const auto it = std::lower_bound(gid_keys.begin(), gid_keys.end(), gid,
                                   [](const auto& a, std::int64_t g) { return a.first < g; });
  if (it == gid_keys.end() || it->first != gid) {
    throw std::runtime_error("NodeNumbering::key_of: gid not referenced on this rank");
  }
  return it->second;
}

template struct NodeNumbering<2>;
template struct NodeNumbering<3>;

}  // namespace esamr::forest
