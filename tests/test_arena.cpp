/// Arena representation and SoA front kernels (at/arena.hpp,
/// pareto/front_soa.hpp) — structural invariants, bit-exact evaluator
/// equivalence, kernel-vs-reference equivalence, and the headline
/// property test: the arena/SoA bottom-up sweep produces *byte-identical*
/// fronts to the recursive pointer sweep on random models, in both the
/// deterministic and probabilistic settings and both budget classes.
/// Those four (setting x budget) sweeps are the computational substrate
/// of all six problems: CDPF/CgD read the unbudgeted deterministic root
/// front, DgC the budgeted one, CEDPF/CgED and EDgC likewise in the
/// probabilistic setting.
///
/// Iteration count: ATCD_FUZZ_ITERS (default 25; CI's nightly fuzz-smoke
/// job raises it).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <tuple>
#include <vector>

#include "at/arena.hpp"
#include "at/structure.hpp"
#include "core/bottom_up_core.hpp"
#include "core/cdat.hpp"
#include "helpers.hpp"
#include "pareto/front_soa.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace atcd {
namespace {

std::size_t iters() {
  if (const char* env = std::getenv("ATCD_FUZZ_ITERS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 25;
}

Attack random_attack(Rng& rng, std::size_t bas) {
  Attack x(bas);
  for (std::size_t i = 0; i < bas; ++i)
    if (rng.chance(0.5)) x.set(i);
  return x;
}

double cost_sum(const std::vector<double>& cost) {
  double s = 0.0;
  for (double c : cost) s += c;
  return s;
}

::testing::AssertionResult triple_fronts_identical(
    const std::vector<AttrTriple>& a, const std::vector<AttrTriple>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "front sizes differ: " << a.size() << " vs " << b.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].t != b[i].t)  // exact ==, no tolerance: byte-identical claim
      return ::testing::AssertionFailure()
             << "triple " << i << " differs: (" << a[i].t.cost << ","
             << a[i].t.damage << "," << a[i].t.act << ") vs (" << b[i].t.cost
             << "," << b[i].t.damage << "," << b[i].t.act << ")";
    if (a[i].witness != b[i].witness)
      return ::testing::AssertionFailure() << "witness " << i << " differs";
  }
  return ::testing::AssertionSuccess();
}

// -- Arena structure. ------------------------------------------------------

TEST(Arena, PostOrderInvariantsOnRandomTreesAndDags) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(0xA4E1ull * 1000 + seed);
    const bool treelike = seed % 2 == 0;
    const AttackTree t = treelike
                             ? testing::random_tree(rng, 2 + rng.below(12))
                             : testing::random_dag(rng, 2 + rng.below(12));
    const ArenaTree at = ArenaTree::of(t);

    ASSERT_EQ(at.size(), t.node_count());
    EXPECT_EQ(at.bas_count(), t.bas_count());
    EXPECT_EQ(at.treelike(), t.is_treelike());
    EXPECT_EQ(at.orig_of(at.root()), t.root());

    for (std::uint32_t a = 0; a < at.size(); ++a) {
      const NodeId v = at.orig_of(a);
      EXPECT_EQ(at.arena_of(v), a);  // mappings are mutually inverse
      EXPECT_EQ(at.type(a), t.type(v));
      if (at.is_bas(a)) {
        EXPECT_EQ(at.bas_index(a), t.bas_index(v));
        EXPECT_EQ(at.child_count(a), 0u);
        EXPECT_EQ(at.subtree_size(a), 1u);
      }
      // CSR children map 1:1, in the original child order, and post-order
      // places every child strictly before its parent.
      const auto& cs = t.children(v);
      ASSERT_EQ(at.child_count(a), cs.size());
      const std::uint32_t* ac = at.child_begin(a);
      for (std::size_t i = 0; i < cs.size(); ++i) {
        EXPECT_EQ(at.orig_of(ac[i]), cs[i]);
        EXPECT_LT(ac[i], a);
      }
      if (treelike) {
        // Subtrees are contiguous: [a - size + 1, a], and a node's
        // children partition that range below a.
        std::uint32_t sum = 1;
        for (std::size_t i = 0; i < cs.size(); ++i) sum += at.subtree_size(ac[i]);
        EXPECT_EQ(at.subtree_size(a), sum);
        if (!cs.empty()) {
          EXPECT_EQ(a - at.subtree_size(a) + 1,
                    ac[0] - at.subtree_size(ac[0]) + 1);
        }
      }
    }
  }
}

TEST(Arena, RejectsUnfinalizedTrees) {
  AttackTree t;
  t.add_bas("b0");
  EXPECT_THROW(ArenaTree::of(t), ModelError);
}

// -- Evaluators: bit-exact vs the NodeId-order originals. ------------------

TEST(Arena, StructureAndDamageEvaluatorsAreBitExact) {
  const std::size_t n = iters();
  for (std::uint64_t seed = 0; seed < n; ++seed) {
    Rng rng(0xA4E2ull * 1000 + seed);
    const bool treelike = seed % 2 == 0;
    const CdAt m = testing::random_cdat(rng, 2 + rng.below(10), treelike);
    const ArenaTree at = ArenaTree::of(m.tree);

    std::vector<char> s;
    for (int round = 0; round < 8; ++round) {
      const Attack x = random_attack(rng, m.tree.bas_count());
      const std::vector<char> ref = evaluate_structure(m.tree, x);
      arena_structure(at, x, &s);
      ASSERT_EQ(s.size(), ref.size());
      for (std::uint32_t a = 0; a < at.size(); ++a)
        EXPECT_EQ(s[a], ref[at.orig_of(a)]);
      // Same FP addition order => the very same double, not just close.
      EXPECT_EQ(arena_total_damage(at, x, m.damage, &s), total_damage(m, x));
    }
  }
}

TEST(Arena, ProbabilisticEvaluatorsAreBitExactOnTrees) {
  const std::size_t n = iters();
  for (std::uint64_t seed = 0; seed < n; ++seed) {
    Rng rng(0xA4E3ull * 1000 + seed);
    const CdpAt m = testing::random_cdpat(rng, 2 + rng.below(10), true);
    const ArenaModel am = ArenaModel::of(m);

    std::vector<double> ps;
    for (int round = 0; round < 8; ++round) {
      const Attack x = random_attack(rng, m.tree.bas_count());
      const std::vector<double> ref = probabilistic_structure(m, x);
      arena_probabilistic_structure(am, x, &ps);
      ASSERT_EQ(ps.size(), ref.size());
      for (std::uint32_t a = 0; a < am.tree.size(); ++a)
        EXPECT_EQ(ps[a], ref[am.tree.orig_of(a)]);
      EXPECT_EQ(arena_expected_damage(am, x, m.damage, &ps),
                expected_damage(m, x));
    }
  }
}

TEST(Arena, ProbabilisticEvaluatorRejectsDags) {
  Rng rng(0xA4E4);
  for (int i = 0; i < 20; ++i) {
    const CdpAt m = testing::random_cdpat(rng, 6, false);
    if (m.tree.is_treelike()) continue;  // rare: sharing didn't trigger
    const ArenaModel am = ArenaModel::of(m);
    std::vector<double> ps;
    const Attack x = random_attack(rng, m.tree.bas_count());
    EXPECT_THROW(arena_probabilistic_structure(am, x, &ps), UnsupportedError);
    return;
  }
  FAIL() << "no DAG generated";
}

// -- SoA kernels vs their AoS references. ----------------------------------

std::vector<AttrTriple> random_triples(Rng& rng, std::size_t n,
                                       std::size_t nbits) {
  std::vector<AttrTriple> xs;
  for (std::size_t i = 0; i < n; ++i) {
    AttrTriple t;
    t.t.cost = double(rng.below(12));
    t.t.damage = double(rng.below(12));
    t.t.act = rng.chance(0.5) ? 1.0 : rng.uniform(0.0, 1.0);
    t.witness = random_attack(rng, nbits);
    xs.push_back(std::move(t));
  }
  return xs;
}

TEST(FrontSoa, TripleBufRoundTripsAos) {
  Rng rng(0x50A1);
  for (const std::size_t nbits : {0ull, 3ull, 64ull, 65ull, 130ull}) {
    const auto xs = random_triples(rng, 7, nbits);
    const TripleBuf buf = TripleBuf::from_aos(xs, nbits);
    EXPECT_EQ(buf.size(), xs.size());
    EXPECT_EQ(buf.wpa(), (nbits + 63) / 64);
    EXPECT_TRUE(triple_fronts_identical(buf.to_aos(nbits), xs));
  }
}

TEST(FrontSoa, PruneSelectMatchesPruneMinPointForPoint) {
  const std::size_t n = iters();
  PruneScratch scratch;
  for (std::uint64_t seed = 0; seed < n; ++seed) {
    Rng rng(0x50A2ull * 1000 + seed);
    const std::size_t nbits = 1 + rng.below(90);
    // Duplicate-rich input: value-dedup ("first witness wins") and the
    // same-damage staircase update paths must all fire.
    auto xs = random_triples(rng, 2 + rng.below(40), nbits);
    if (xs.size() > 4)
      for (std::size_t i = 0; i < xs.size() / 4; ++i)
        xs[rng.below(xs.size())].t = xs[rng.below(xs.size())].t;
    for (const double budget : {kNoBudget, double(rng.below(14))}) {
      const std::vector<AttrTriple> ref = prune_min(xs, budget);
      // The sweep's pruning: select the surviving rows, then gather them
      // onto the front stack.
      const TripleBuf buf = TripleBuf::from_aos(xs, nbits);
      prune_select(buf.view(), budget, &scratch);
      TripleFrontStack s(buf.wpa());
      s.push_select(buf.view(), scratch.idx);
      EXPECT_TRUE(triple_fronts_identical(s.top_to_aos(nbits), ref))
          << "seed " << seed << " budget " << budget;
    }
  }
}

TEST(FrontSoa, CombineSoaMatchesCrossProductReference) {
  Rng rng(0x50A3);
  const std::size_t nbits = 70;
  const auto as = random_triples(rng, 5, nbits);
  const auto bs = random_triples(rng, 4, nbits);
  const TripleBuf a = TripleBuf::from_aos(as, nbits);
  const TripleBuf b = TripleBuf::from_aos(bs, nbits);
  for (const NodeType gate : {NodeType::AND, NodeType::OR}) {
    // a-major / b-minor reference, the pointer path's combine order.
    std::vector<AttrTriple> ref;
    for (const auto& x : as)
      for (const auto& y : bs) {
        AttrTriple t;
        t.t.cost = x.t.cost + y.t.cost;
        t.t.damage = x.t.damage + y.t.damage;
        t.t.act = gate == NodeType::AND
                      ? x.t.act * y.t.act
                      : x.t.act + y.t.act - x.t.act * y.t.act;
        t.witness = x.witness;
        t.witness |= y.witness;
        ref.push_back(std::move(t));
      }
    TripleBuf out(a.wpa());
    combine_soa(a.view(), b.view(), gate, &out);
    EXPECT_TRUE(triple_fronts_identical(out.to_aos(nbits), ref));

    // Budgeted combine elides exactly the over-budget rows, keeping the
    // survivors' relative order.
    const double budget = 9.0;
    std::vector<AttrTriple> within;
    for (const auto& t : ref)
      if (t.t.cost <= budget) within.push_back(t);
    combine_soa(a.view(), b.view(), gate, &out, budget);
    EXPECT_TRUE(triple_fronts_identical(out.to_aos(nbits), within));
  }
}

TEST(FrontSoa, TripleFrontStackKeepsFrameDiscipline) {
  Rng rng(0x50A4);
  const std::size_t nbits = 10;
  const auto f0 = random_triples(rng, 3, nbits);
  const auto f1 = random_triples(rng, 1, nbits);
  const auto f2 = random_triples(rng, 4, nbits);
  TripleFrontStack s((nbits + 63) / 64);
  s.push(TripleBuf::from_aos(f0, nbits));
  s.push(TripleBuf::from_aos(f1, nbits));
  s.push(TripleBuf::from_aos(f2, nbits));
  ASSERT_EQ(s.frames(), 3u);
  EXPECT_EQ(s.from_top(0).n, f2.size());
  EXPECT_EQ(s.from_top(1).n, f1.size());
  EXPECT_EQ(s.from_top(2).n, f0.size());
  EXPECT_TRUE(triple_fronts_identical(s.top_to_aos(nbits), f2));
  s.pop(2);  // fold the top two away; f0 becomes the top again
  ASSERT_EQ(s.frames(), 1u);
  EXPECT_TRUE(triple_fronts_identical(s.top_to_aos(nbits), f0));
  s.push(TripleBuf::from_aos(f1, nbits));  // reclaimed rows get reused
  EXPECT_TRUE(triple_fronts_identical(s.top_to_aos(nbits), f1));
}

// -- 2-D packed fronts and their kernels. ----------------------------------

Front2d random_front(Rng& rng, std::size_t n, std::size_t nbits) {
  std::vector<FrontPoint> cs;
  for (std::size_t i = 0; i < n; ++i)
    cs.push_back({CdPoint{double(rng.below(20)), double(rng.below(20))},
                  random_attack(rng, nbits)});
  return Front2d::of_candidates(std::move(cs));
}

TEST(FrontSoaStore, RoundTripsThroughBytes) {
  Rng rng(0x50A5);
  FrontSoaStore store;
  std::vector<Front2d> fronts;
  fronts.push_back(Front2d{});  // empty fronts must survive the trip too
  for (int i = 0; i < 6; ++i)
    fronts.push_back(random_front(rng, 1 + rng.below(12), 5 + rng.below(80)));
  for (std::size_t i = 0; i < fronts.size(); ++i)
    EXPECT_EQ(store.add(fronts[i]), i);

  const std::string bytes = store.to_bytes();
  const auto back = FrontSoaStore::from_bytes(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(*back == store);
  for (std::size_t i = 0; i < fronts.size(); ++i) {
    const Front2d g = back->get(static_cast<std::uint32_t>(i));
    ASSERT_EQ(g.size(), fronts[i].size());
    for (std::size_t p = 0; p < g.size(); ++p) {
      EXPECT_EQ(g[p].value.cost, fronts[i][p].value.cost);
      EXPECT_EQ(g[p].value.damage, fronts[i][p].value.damage);
      EXPECT_EQ(g[p].witness, fronts[i][p].witness);
    }
  }
}

TEST(FrontSoaStore, RejectsCorruptImages) {
  Rng rng(0x50A6);
  FrontSoaStore store;
  store.add(random_front(rng, 8, 40));
  const std::string bytes = store.to_bytes();

  EXPECT_FALSE(FrontSoaStore::from_bytes("").has_value());
  for (const std::size_t cut : {1ul, bytes.size() / 2, bytes.size() - 1})
    EXPECT_FALSE(FrontSoaStore::from_bytes(bytes.substr(0, cut)).has_value());
  EXPECT_FALSE(FrontSoaStore::from_bytes(bytes + '\0').has_value());
  std::string bad_magic = bytes;
  bad_magic[0] ^= 0x5A;
  EXPECT_FALSE(FrontSoaStore::from_bytes(bad_magic).has_value());
}

TEST(Front2d, AssumeSortedFastPathMatchesPlainOfCandidates) {
  Rng rng(0x50A7);
  for (int round = 0; round < 30; ++round) {
    auto cs = [&] {
      std::vector<FrontPoint> v;
      const std::size_t n = 1 + rng.below(25);
      for (std::size_t i = 0; i < n; ++i)
        v.push_back({CdPoint{double(rng.below(10)), double(rng.below(10))},
                     random_attack(rng, 6)});
      return v;
    }();
    auto sorted = cs;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const FrontPoint& a, const FrontPoint& b) {
                       return a.value.cost != b.value.cost
                                  ? a.value.cost < b.value.cost
                                  : a.value.damage > b.value.damage;
                     });
    const Front2d plain = Front2d::of_candidates(cs);
    const Front2d fast = Front2d::of_candidates(sorted, assume_sorted);
    ASSERT_EQ(fast.size(), plain.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i].value.cost, plain[i].value.cost);
      EXPECT_EQ(fast[i].value.damage, plain[i].value.damage);
      // Identical stable orders => identical "first witness wins" picks.
      EXPECT_EQ(fast[i].witness, plain[i].witness);
    }
  }
}

// -- The headline property: arena sweep == pointer sweep, byte for byte. ---

TEST(Arena, SweepMatchesPointerPathByteForByte) {
  const std::size_t n = iters();
  for (std::uint64_t seed = 0; seed < n; ++seed) {
    Rng rng(0xA4E5ull * 1000 + seed);
    const CdpAt m = testing::random_cdpat(rng, 2 + rng.below(10), true);
    const std::vector<double> ones(m.cost.size(), 1.0);
    const double finite = rng.uniform(0.0, cost_sum(m.cost) * 1.1);

    // det/prob x {no budget, finite budget} — the substrate of all six
    // problems (CDPF/CgD, DgC, CEDPF/CgED, EDgC).
    for (const std::vector<double>* prob : {&ones, &m.prob}) {
      for (const double budget : {kNoBudget, finite}) {
        detail::BottomUpOptions arena_opt;
        arena_opt.budget = budget;
        const auto ref = detail::bottom_up_root_front_reference(
            m.tree, m.cost, m.damage, *prob, budget);
        const auto got = detail::bottom_up_root_front(m.tree, m.cost, m.damage,
                                                      *prob, arena_opt);
        EXPECT_TRUE(triple_fronts_identical(got, ref))
            << "seed " << seed << " prob=" << (prob == &m.prob)
            << " budget=" << budget;
      }
    }
  }
}

TEST(Arena, SweepRejectsDagsLikeThePointerPath) {
  Rng rng(0xA4E6);
  for (int i = 0; i < 20; ++i) {
    const CdAt m = testing::random_cdat(rng, 6, false);
    if (m.tree.is_treelike()) continue;
    const std::vector<double> ones(m.cost.size(), 1.0);
    EXPECT_THROW(detail::bottom_up_root_front_reference(m.tree, m.cost,
                                                        m.damage, ones),
                 UnsupportedError);
    EXPECT_THROW(
        detail::bottom_up_root_front(m.tree, m.cost, m.damage, ones),
        UnsupportedError);
    return;
  }
  FAIL() << "no DAG generated";
}

/// Records the arena sweep's SubtreeVisitor calls over a NodeId-keyed
/// SoA memo.
class RecordingVisitor : public detail::SubtreeVisitor {
 public:
  explicit RecordingVisitor(std::size_t nbits)
      : wpa_(static_cast<std::uint32_t>((nbits + 63) / 64)) {}

  bool lookup(NodeId v, TripleView* out) override {
    const auto it = memo_.find(v);
    events.push_back({'L', v, it != memo_.end()});
    if (it == memo_.end()) return false;
    *out = it->second.view();
    return true;
  }
  void store(NodeId v, const TripleView& front) override {
    events.push_back({'S', v, false});
    TripleBuf& b = memo_[v];
    b.set_wpa(wpa_);
    b.clear();
    for (std::size_t r = 0; r < front.n; ++r)
      std::copy_n(front.wit + r * wpa_, wpa_,
                  b.witness(b.push_zero(front.cost[r], front.damage[r],
                                        front.act[r])));
  }

  std::vector<std::tuple<char, NodeId, bool>> events;

 private:
  std::uint32_t wpa_;
  std::map<NodeId, TripleBuf> memo_;
};

/// The protocol a cold solve must follow, derived from the tree alone:
/// each node is looked up (a miss) when entered, its children are
/// visited left to right, and it is stored when it finishes.
void expected_cold_events(const AttackTree& t, NodeId v,
                          std::vector<std::tuple<char, NodeId, bool>>* out) {
  out->push_back({'L', v, false});
  for (const NodeId c : t.children(v)) expected_cold_events(t, c, out);
  out->push_back({'S', v, false});
}

TEST(Arena, VisitorProtocolFollowsTreeOrder) {
  const std::size_t n = iters();
  for (std::uint64_t seed = 0; seed < n; ++seed) {
    Rng rng(0xA4E7ull * 1000 + seed);
    const CdAt m = testing::random_cdat(rng, 2 + rng.below(10), true);
    const std::vector<double> ones(m.cost.size(), 1.0);
    const double budget =
        seed % 2 ? rng.uniform(0.0, cost_sum(m.cost) * 1.1) : kNoBudget;

    const auto ref = detail::bottom_up_root_front_reference(
        m.tree, m.cost, m.damage, ones, budget);

    RecordingVisitor vis(m.tree.bas_count());
    detail::BottomUpOptions arena_opt;
    arena_opt.budget = budget;
    arena_opt.visitor = &vis;
    const auto cold = detail::bottom_up_root_front(m.tree, m.cost, m.damage,
                                                   ones, arena_opt);
    EXPECT_TRUE(triple_fronts_identical(cold, ref)) << "seed " << seed;
    std::vector<std::tuple<char, NodeId, bool>> want;
    expected_cold_events(m.tree, m.tree.root(), &want);
    EXPECT_EQ(vis.events, want) << "seed " << seed;

    // A warm re-solve makes exactly one call: a root hit.
    vis.events.clear();
    const auto warm = detail::bottom_up_root_front(m.tree, m.cost, m.damage,
                                                   ones, arena_opt);
    EXPECT_TRUE(triple_fronts_identical(warm, ref)) << "seed " << seed;
    const std::vector<std::tuple<char, NodeId, bool>> root_hit{
        {'L', m.tree.root(), true}};
    EXPECT_EQ(vis.events, root_hit) << "seed " << seed;
  }
}

}  // namespace
}  // namespace atcd
