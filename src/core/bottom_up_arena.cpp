/// \file bottom_up_arena.cpp
/// The arena/SoA bottom-up sweep: detail::bottom_up_root_front(), the
/// sweep every bottom-up solve runs.
///
/// This is a stack-machine transcription of the recursive reference
/// sweep in bottom_up.cpp, with the same evaluation order step for step:
///
///   * nodes are visited in DFS order over the post-order arena,
///     children left to right;
///   * gates fold children incrementally (combine with the accumulator,
///     then prune) and add their own damage before the final prune, in
///     the same FP operation order as combine()/prune_min().
///
/// It is also the only sweep that speaks the SubtreeVisitor protocol:
/// lookup() fires pre-order when a node is *entered* (a hit pushes the
/// memo's SoA view and the subtree is never descended into), store()
/// fires post-order with the node's finished frame, before the parent
/// moves to its next child.  A memo populated mid-sweep therefore serves
/// later isomorphic subtrees of the same solve.
///
/// Fronts live in a TripleFrontStack: one frame per live accumulator,
/// shared SoA columns, stack discipline.  Peak memory tracks the DFS
/// fringe (≈ tree depth), not the node count, and the kernels touch
/// contiguous columns instead of heap-scattered AttrTriples — that, not
/// algorithmic change, is where the speedup comes from.

#include <memory>

#include "at/arena.hpp"
#include "core/bottom_up_core.hpp"
#include "obs/trace.hpp"
#include "pareto/front_soa.hpp"

namespace atcd::detail {

namespace {

/// Arena mirrors keyed by AttackTree::structure_id() — structure is
/// frozen at finalize() and shared by copy-on-write clones, so a mirror
/// built once serves every re-solve of the same model (the session
/// pattern: edit decorations, resolve, repeat).  Thread-local, so no
/// locking; a handful of entries covers any realistic working set.
std::shared_ptr<const ArenaTree> cached_arena(const AttackTree& tree) {
  thread_local std::vector<std::pair<std::uint64_t,
                                     std::shared_ptr<const ArenaTree>>> pool;
  const std::uint64_t id = tree.structure_id();
  for (auto& e : pool)
    if (e.first == id) return e.second;
  auto at = std::make_shared<const ArenaTree>(ArenaTree::of(tree));
  constexpr std::size_t kMaxEntries = 8;
  if (pool.size() >= kMaxEntries) pool.erase(pool.begin());
  pool.emplace_back(id, at);
  return at;
}

struct Frame {
  std::uint32_t a;        ///< arena id
  std::uint32_t next;     ///< next CSR edge index (absolute)
  bool has_acc = false;   ///< an accumulator frame for this gate is on S
};

/// The sweep's working memory, hoisted out of ArenaSweep so a
/// thread-local instance can serve every solve on the thread: columns
/// and scratch vectors keep their high-water capacity, so a warm
/// re-solve (the session pattern) runs allocation-free end to end.
struct SweepScratch {
  TripleFrontStack s{0};
  TripleBuf buf;  // scratch for combine / finish
  PruneScratch scratch;
  std::vector<Frame> frames;

  void rearm(std::uint32_t wpa) {
    s.reset(wpa);
    buf.set_wpa(wpa);
    buf.clear();
    scratch.tmp.set_wpa(wpa);
    frames.clear();
  }
};

struct ArenaSweep {
  const ArenaTree& at;
  const std::vector<double>& cost;    // per BAS index
  const std::vector<double>& damage;  // per original NodeId
  const std::vector<double>& prob;    // per BAS index
  const BottomUpOptions& opt;

  // Per-request trace hook: null on untraced solves, so the sweep pays
  // one pointer test per node.  Facts are flushed once in run().
  obs::Trace* tr = obs::current_trace();
  std::uint64_t nodes_swept = 0;
  std::uint64_t max_front = 0;

  std::size_t nbits;
  std::uint32_t wpa;
  TripleFrontStack& s;
  TripleBuf& buf;
  PruneScratch& scratch;
  std::vector<Frame>& frames;

  explicit ArenaSweep(const ArenaTree& at_, const std::vector<double>& c,
                      const std::vector<double>& d,
                      const std::vector<double>& p, const BottomUpOptions& o,
                      SweepScratch& ws)
      : at(at_),
        cost(c),
        damage(d),
        prob(p),
        opt(o),
        nbits(at_.bas_count()),
        wpa(static_cast<std::uint32_t>((at_.bas_count() + 63) / 64)),
        s(ws.s),
        buf(ws.buf),
        scratch(ws.scratch),
        frames(ws.frames) {
    ws.rearm(wpa);
  }

  /// Traced solves only: tallies a visited node and tracks the widest
  /// pruned front materialized so far.
  void note_front() {
    if (!tr) return;
    ++nodes_swept;
    const std::uint64_t w = s.from_top(0).n;
    if (w > max_front) max_front = w;
  }

  /// Tries to produce node \p a's front without descending: memo hit or
  /// BAS base case.  On success the front is pushed onto `s` and true is
  /// returned; otherwise a gate frame is pushed onto `frames`.
  bool enter(std::uint32_t a) {
    TripleView hit;
    if (opt.visitor && opt.visitor->lookup(at.orig_of(a), &hit)) {
      s.push_view(hit);
      note_front();
      return true;
    }
    if (at.is_bas(a)) {
      const NodeId v = at.orig_of(a);
      const std::uint32_t b = at.bas_index(a);
      buf.clear();
      buf.push_zero(0.0, 0.0, 0.0);
      const double c = cost[b];
      if (c <= opt.budget) {
        const double p = prob[b];
        const std::size_t r = buf.push_zero(c, p * damage[v], p);
        buf.witness(r)[b >> 6] |= std::uint64_t{1} << (b & 63);
      }
      prune_select(buf.view(), opt.budget, &scratch);
      s.push_select(buf.view(), scratch.idx);
      note_front();
      if (opt.visitor) opt.visitor->store(v, s.from_top(0));
      return true;
    }
    frames.push_back({a, at.child_offsets()[a]});
    return false;
  }

  /// A child front just landed on top of `s`; fold it into the gate's
  /// accumulator (the first child's front *becomes* the accumulator).
  void fold_child(Frame& f) {
    if (!f.has_acc) {
      f.has_acc = true;
      return;
    }
    combine_soa(s.from_top(1), s.from_top(0), at.type(f.a), &buf, opt.budget);
    prune_select(buf.view(), opt.budget, &scratch);
    s.pop(2);
    s.push_select(buf.view(), scratch.idx);
  }

  std::vector<AttrTriple> run() {
    const std::uint32_t root = at.root();
    if (!enter(root)) {
      const std::uint32_t* edges = at.child_edges().data();
      while (!frames.empty()) {
        Frame& f = frames.back();
        if (f.next < at.child_offsets()[f.a + 1]) {
          const std::uint32_t c = edges[f.next++];
          if (enter(c)) fold_child(f);
          continue;  // descend into the gate frame enter() pushed
        }
        // All children folded: add this gate's own damage (weighted by
        // activation) directly on the pool's top frame, then prune it in
        // place — no accumulator copy.
        const double dv = damage[at.orig_of(f.a)];
        {
          const TripleView acc = s.from_top(0);
          double* dmg = s.top_damage();
          for (std::size_t r = 0; r < acc.n; ++r) dmg[r] += acc.act[r] * dv;
        }
        prune_select(s.from_top(0), opt.budget, &scratch);
        s.compact_top(scratch.idx, &scratch.tmp);
        note_front();
        if (opt.visitor) opt.visitor->store(at.orig_of(f.a), s.from_top(0));
        frames.pop_back();
        if (!frames.empty()) fold_child(frames.back());
      }
    }
    if (tr) {
      tr->fact("arena_nodes_swept", nodes_swept);
      tr->fact_max("arena_max_front", max_front);
    }
    return s.top_to_aos(nbits);
  }
};

}  // namespace

std::vector<AttrTriple> bottom_up_root_front(const AttackTree& tree,
                                             const std::vector<double>& cost,
                                             const std::vector<double>& damage,
                                             const std::vector<double>& prob,
                                             const BottomUpOptions& opt) {
  if (!tree.finalized()) throw ModelError("bottom_up: tree not finalized");
  if (!tree.is_treelike())
    throw UnsupportedError(
        "bottom_up: model is DAG-shaped; sub-AT attack spaces are not "
        "disjoint, use the BILP engine (deterministic) or the BDD engine "
        "(probabilistic) instead");
  const std::shared_ptr<const ArenaTree> at = cached_arena(tree);
  // One pooled scratch per thread; visitors are not allowed to recurse
  // into a solve, but if one ever does, fall back to a private scratch
  // rather than corrupt the in-use pool.
  thread_local SweepScratch tls_ws;
  thread_local bool tls_busy = false;
  if (tls_busy) {
    SweepScratch ws;
    return ArenaSweep(*at, cost, damage, prob, opt, ws).run();
  }
  tls_busy = true;
  struct Release {
    bool* b;
    ~Release() { *b = false; }
  } release{&tls_busy};
  return ArenaSweep(*at, cost, damage, prob, opt, tls_ws).run();
}

}  // namespace atcd::detail
