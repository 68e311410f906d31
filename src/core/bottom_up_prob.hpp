#pragma once
/// \file bottom_up_prob.hpp
/// Probabilistic bottom-up engine for treelike ATs (paper Sec. IX).
///
/// Identical sweep to the deterministic engine but over PTrip: the third
/// coordinate is the activation probability PS(x,v), combined with
/// p1 * p2 at AND gates and p1 ⋆ p2 = p1 + p2 - p1*p2 at OR gates
/// (children are independent on treelike models).  Note the fronts are
/// typically *larger* than in the deterministic case: attempting redundant
/// children of an OR raises the activation probability, so extra spend can
/// buy expected damage (Example 10).

#include "core/bottom_up_core.hpp"
#include "core/cdat.hpp"
#include "core/opt_result.hpp"
#include "pareto/front2d.hpp"

namespace atcd {

/// CEDPF for treelike probabilistic models (Thm 9).  \p visitor, if any,
/// memoizes per-node fronts and must be bound with budget kNoBudget.
Front2d cedpf_bottom_up(const CdpAt& m,
                        detail::SubtreeVisitor* visitor = nullptr);

/// EDgC for treelike probabilistic models (Thm 8), with min_U pruning.
/// \p visitor, if any, must be bound with the same budget.
OptAttack edgc_bottom_up(const CdpAt& m, double budget,
                         detail::SubtreeVisitor* visitor = nullptr);

/// The budget a CgED(threshold) sweep prunes with (detail::cost_bound
/// over expected damages), kNoBudget if no attack reaches it.
double cged_prune_budget(const CdpAt& m, double threshold);

/// CgED for treelike probabilistic models: the CEDPF points costing at
/// most the budget, as for cgd_bottom_up(), re-swept unpruned when they
/// do not reach the threshold.  The two-argument form takes the budget
/// from cged_prune_budget(); \p visitor, if any, must be bound with
/// \p budget.
OptAttack cged_bottom_up(const CdpAt& m, double threshold);
OptAttack cged_bottom_up(const CdpAt& m, double threshold, double budget,
                         detail::SubtreeVisitor* visitor = nullptr);

}  // namespace atcd
