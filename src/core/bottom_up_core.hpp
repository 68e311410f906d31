#pragma once
/// \file bottom_up_core.hpp
/// Shared implementation of the treelike bottom-up engines (Secs. VI & IX).
///
/// The deterministic domain DTrip embeds into the probabilistic domain
/// PTrip by setting every success probability to 1 (the paper uses exactly
/// this reduction to derive Thms 3-4 from Thms 8-10): with p == 1 the
/// AND-combinator p1*p2 and OR-combinator p1 ⋆ p2 = p1+p2-p1*p2 take exact
/// values in {0,1}, so one engine serves both settings with no loss of
/// exactness.  The deterministic/probabilistic front-ends live in
/// bottom_up.hpp / bottom_up_prob.hpp.
///
/// Two sweeps implement the engine.  The arena/SoA stack machine
/// (bottom_up_arena.cpp) serves every solve and is the only one that
/// consults a SubtreeVisitor memo.  The recursive pointer sweep over AoS
/// fronts (bottom_up.cpp) is the byte-identical test oracle and the
/// baseline and ablation leg of the benches; it never sees a memo.

#include <vector>

#include "at/attack_tree.hpp"
#include "pareto/front_soa.hpp"
#include "pareto/triple.hpp"

namespace atcd::detail {

/// Per-node memoization hook for the arena bottom-up sweep.
///
/// The sweep is compositional: the pruned front C^P_U(v) of a node
/// depends only on v's subtree (tree shape plus decorations below v) and
/// the budget — so it can be cached and reused across solves of the same
/// model (incremental sessions, service/session.hpp) and even across
/// *distinct* models that share an isomorphic subtree
/// (service/subtree_cache.hpp keys entries by a canonical subtree hash).
///
/// The arena sweep (bottom_up_arena.cpp) calls lookup() when it enters a
/// node — a hit means the subtree is never descended into — and offers
/// the computed front to store() when the node finishes.  Fronts are
/// exchanged as SoA views (pareto/front_soa.hpp) whose witnesses are in
/// the host model's full BAS index space, ceil(bas_count / 64) words per
/// row; implementations that cache across models translate to/from a
/// canonical subtree-local space internally.  A visitor is bound to one
/// (model, budget) pair for one solve call and is used from a single
/// thread.
class SubtreeVisitor {
 public:
  virtual ~SubtreeVisitor() = default;
  /// Returns true and points *out at node v's memoized pruned front,
  /// valid until the next call on this visitor.  On a miss *out is left
  /// unspecified.
  virtual bool lookup(NodeId v, TripleView* out) = 0;
  /// Offers node v's computed pruned front for memoization; \p front is
  /// valid only for the duration of the call.
  virtual void store(NodeId v, const TripleView& front) = 0;
};

/// Options of the production sweep.
struct BottomUpOptions {
  double budget = kNoBudget;  ///< min_U cost pruning (Thm 3 / Thm 8)
  /// Per-node memo consulted and populated by the sweep.  The visitor
  /// must have been bound to the same (tree, decorations, budget) this
  /// sweep runs with.
  SubtreeVisitor* visitor = nullptr;
};

/// Computes C^P_U(v) for v = root: the incomplete Pareto front of
/// attribute triples (cost, expected damage, activation probability) over
/// all attacks on the tree, budget-pruned and ⊑-minimized at every node.
/// Witnesses are attacks over the full BAS index space.  This is the
/// arena/SoA stack machine (bottom_up_arena.cpp): it flattens the tree
/// into a post-order arena and runs a non-recursive sweep over SoA
/// fronts, speaking the SubtreeVisitor protocol (pre-order lookup,
/// post-order store, memo-hit subtrees never descended into).
///
/// Preconditions: tree finalized and treelike; decoration sizes match.
/// Throws UnsupportedError on DAG input.
std::vector<AttrTriple> bottom_up_root_front(const AttackTree& tree,
                                             const std::vector<double>& cost,
                                             const std::vector<double>& damage,
                                             const std::vector<double>& prob,
                                             const BottomUpOptions& opt = {});

/// The ablations only the reference sweep implements.
struct SweepAblation {
  bool quadratic_prune = false;  ///< use the O(n^2) reference pruner
  /// Ablation A1: drop the third triple coordinate when pruning
  /// (deliberately UNSOUND, reproduces the failure mode of Example 4).
  bool ignore_activation = false;
};

/// The recursive pointer sweep over AoS fronts (bottom_up.cpp): the
/// byte-identical oracle of bottom_up_root_front() and the baseline and
/// ablation leg of the benches.  It takes no memo, so no ablation's
/// fronts can reach a cache.  Same preconditions and, without
/// ablations, the same result byte for byte.
std::vector<AttrTriple> bottom_up_root_front_reference(
    const AttackTree& tree, const std::vector<double>& cost,
    const std::vector<double>& damage, const std::vector<double>& prob,
    double budget = kNoBudget, const SweepAblation& ablation = {});

/// An upper bound on the cheapest attack whose (expected) damage reaches
/// \p threshold: the cost of the attack a greedy picks — free BASs
/// first, then by marginal damage per cost, then dropping the dearest
/// picks the threshold does not need — plus a relative 1e-9 slack for
/// summation order.  Marginal damages are evaluated incrementally:
/// taking a BAS walks up only while activations change.  The kept
/// attack's damage is then re-evaluated in the sweep's own order of
/// operations; if that misses the threshold (by a rounding), there is
/// no bound.  0 when threshold <= 0; kNoBudget when no attack reaches
/// it (or it is NaN).
/// Any attack's cost bounds the CgD/CgED optimum, so a sweep pruned at
/// this budget (min_U, Thm 3) still holds the answer.
double cost_bound(const AttackTree& tree, const std::vector<double>& cost,
                  const std::vector<double>& damage,
                  const std::vector<double>& prob, double threshold);

}  // namespace atcd::detail
