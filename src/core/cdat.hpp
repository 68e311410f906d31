#pragma once
/// \file cdat.hpp
/// Decorated attack trees:
///
///  * CdAt  (paper Def. 4): an AT with a cost on every BAS and a damage on
///    every node.  Total cost ĉ(x) = Σ_{v∈B} x_v c(v); total damage
///    d̂(x) = Σ_{v∈N} S(x,v) d(v).  Internal nodes deliberately have no
///    cost: Fig. 2 of the paper shows internal costs are expressible via
///    dummy BASs (see with_internal_costs()) while internal damage is not.
///
///  * CdpAt (paper Def. 5): additionally a success probability on every
///    BAS.  The damage of an attack is then a random variable over the
///    actualized attack Y_x (Def. 6); expected_damage() computes
///    d̂_E(x) = E[d̂(Y_x)] in O(|N|+|E|) for treelike models via the
///    probabilistic structure function, and exactly (via the BDD engine or
///    by enumerating actualizations) for DAG models.

#include <memory>
#include <string>
#include <vector>

#include "at/attack_tree.hpp"
#include "at/structure.hpp"
#include "util/rng.hpp"

namespace atcd {

/// Cost-damage attack tree (T, c, d).
struct CdAt {
  AttackTree tree;
  std::vector<double> cost;    ///< indexed by BAS index; values >= 0
  std::vector<double> damage;  ///< indexed by NodeId; values >= 0

  /// Validates decoration sizes and non-negativity.  Throws ModelError.
  void validate() const;

  double cost_of(NodeId bas) const { return cost[tree.bas_index(bas)]; }
  double damage_of(NodeId v) const { return damage[v]; }
};

/// Cost-damage-probability attack tree (T, c, d, p).
struct CdpAt {
  AttackTree tree;
  std::vector<double> cost;    ///< per BAS index, >= 0
  std::vector<double> damage;  ///< per NodeId, >= 0
  std::vector<double> prob;    ///< per BAS index, in [0,1]

  void validate() const;

  /// The deterministic model obtained by forgetting probabilities
  /// (equivalently, setting p = 1 everywhere).
  CdAt deterministic() const { return CdAt{tree, cost, damage}; }
};

/// Parses \p text (the at/parser.hpp format) into a validated model: a
/// CdpAt into \p prob when \p probabilistic, else a CdAt into \p det.
/// Throws ParseError / ModelError.
void parse_typed_model(const std::string& text, bool probabilistic,
                       std::shared_ptr<const CdAt>* det,
                       std::shared_ptr<const CdpAt>* prob);

// ---------------------------------------------------------------------------
// Semantics.
// ---------------------------------------------------------------------------

/// ĉ(x): total cost of an attack (Def. 4).
double total_cost(const CdAt& m, const Attack& x);
double total_cost(const CdpAt& m, const Attack& x);

/// d̂(x): total damage of an attack (Def. 4); sums d(v) over reached nodes.
double total_damage(const CdAt& m, const Attack& x);

/// PS(x,v) = P(S(Y_x, v) = 1) for all v (Sec. IX).  Exact for treelike
/// models (children of a node are independent).  For DAG models this
/// per-node independence assumption breaks; use expected_damage_exact()
/// or the BDD engine instead.  Throws UnsupportedError on DAG input.
std::vector<double> probabilistic_structure(const CdpAt& m, const Attack& x);

/// d̂_E(x) for treelike models, via probabilistic_structure().
double expected_damage(const CdpAt& m, const Attack& x);

/// d̂_E(x) for any model by enumerating all actualizations y ⪯ x of the
/// attempted BASs (Def. 6).  O(2^|x|) — capacity-guarded.
double expected_damage_exact(const CdpAt& m, const Attack& x,
                             std::size_t max_attempted = 24);

/// Samples d̂(Y_x) once (Monte-Carlo helper used in tests/examples).
double sample_damage(const CdpAt& m, const Attack& x, Rng& rng);

// ---------------------------------------------------------------------------
// Model construction helpers.
// ---------------------------------------------------------------------------

/// Implements the Fig. 2 rewrite: a model where *internal* nodes also
/// carry costs is converted into a plain CdAt by giving every costed
/// internal node an extra dummy-BAS child "<name>#cost" holding the cost
/// (an AND gains the child directly; an OR v is rewritten to
/// AND(v', dummy) with v' the original OR).  The resulting model has the
/// same cost-damage semantics, witnessing the paper's claim that internal
/// costs add no expressivity.
/// \p internal_cost is indexed by NodeId (entries for BASs must be 0).
CdAt with_internal_costs(const CdAt& m, const std::vector<double>& internal_cost);

/// Random decoration in the paper's Sec. X ranges: c(v) ∈ {1..10},
/// d(v) ∈ {0..10}, p(v) ∈ {0.1, 0.2, ..., 1.0}.
CdpAt randomize_decorations(const AttackTree& t, Rng& rng);

/// Binarizes the tree (at/transform.hpp) and carries the decorations
/// over: auxiliary gates introduced by the rewrite get zero damage, so
/// the model semantics (ĉ, d̂, d̂_E) are unchanged.  Used to check the
/// native n-ary engines against the paper's binary formulation.
CdAt binarize_model(const CdAt& m);
CdpAt binarize_model(const CdpAt& m);

}  // namespace atcd
