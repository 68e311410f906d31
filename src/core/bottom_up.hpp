#pragma once
/// \file bottom_up.hpp
/// Deterministic bottom-up engine for treelike ATs (paper Sec. VI).
///
/// The key insight (Thms 3-4): propagate Pareto fronts of attribute
/// *triples* (cost, damage, root-reached) per node — the third coordinate
/// keeps attacks alive that are locally non-optimal but can still unlock
/// damage at ancestors (Example 4).  At the root, project to (cost,
/// damage) and minimize again.
///
/// Complexity is O(2^|B|) in the worst case (Thm 5, unavoidable: the front
/// itself can have 2^|B| points, Example 6), but pruning at every node
/// makes it fast on realistic models — the paper measures < 0.1 s where
/// enumeration takes 34 h.

#include "core/bottom_up_core.hpp"
#include "core/cdat.hpp"
#include "core/opt_result.hpp"
#include "pareto/front2d.hpp"

namespace atcd {

/// CDPF for treelike deterministic models (Thm 4).  The optional
/// \p visitor memoizes per-node fronts (see detail::SubtreeVisitor); it
/// must be bound to this model with budget kNoBudget.
Front2d cdpf_bottom_up(const CdAt& m,
                       detail::SubtreeVisitor* visitor = nullptr);

/// DgC for treelike deterministic models (Thm 3): attacks whose cost
/// exceeds the budget are discarded at every node (min_U), which shrinks
/// the propagated fronts — the full front is still required, a single
/// best-attack propagation is unsound (Sec. VI-B).  \p visitor, if any,
/// must be bound with the same budget.
OptAttack dgc_bottom_up(const CdAt& m, double budget,
                        detail::SubtreeVisitor* visitor = nullptr);

/// The budget a CgD(threshold) sweep prunes with: the cost of a cheap
/// feasible attack (detail::cost_bound), kNoBudget if none reaches it.
double cgd_prune_budget(const CdAt& m, double threshold);

/// CgD for treelike deterministic models (eq. (2)).  Under-threshold
/// attacks cannot be discarded early (Sec. VI-B/C), but over-cost ones
/// can: any feasible attack's cost C bounds the optimum, and costs only
/// grow up the tree.  So the sweep prunes with min_U at U = C (Thm 3),
/// which keeps exactly the CDPF points costing at most C, and reads the
/// answer off that front.  The answer is the full front's whatever C
/// is: a front that does not reach the threshold is re-swept unpruned.
/// The two-argument form takes C = cgd_prune_budget(m, threshold);
/// \p visitor, if any, must be bound with \p budget.
OptAttack cgd_bottom_up(const CdAt& m, double threshold);
OptAttack cgd_bottom_up(const CdAt& m, double threshold, double budget,
                        detail::SubtreeVisitor* visitor = nullptr);

}  // namespace atcd
