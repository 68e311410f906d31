#pragma once
/// \file canon.hpp
/// Canonical model fingerprints for the solve service.
///
/// The six cost-damage problems are pure functions of (model, problem,
/// bound), so identical submissions can be served from a cache — but
/// "identical" must mean *semantically* identical, not textually: the
/// same model resubmitted with renamed nodes, reordered statements, or
/// permuted OR/AND child lists should hit the same cache entry.
///
/// canonical_hash() computes a structural fingerprint that is invariant
/// under node renaming and child reordering while remaining sensitive to
/// everything that affects the solution: node types, DAG sharing
/// structure, and all decorations (cost, damage, and — for CdpAt —
/// probability).  It is a Weisfeiler-Leman style color refinement: every
/// node starts with a color derived from its type and decorations, then
/// colors are repeatedly mixed with the sorted colors of children and
/// parents until the partition stabilizes; the model hash digests the
/// color multiset, the root color, and the model kind.
///
/// A 64-bit hash can collide, so cache entries are guarded by
/// equal_canonical(): an exact isomorphism test (color-guided backtracking
/// matching with a step budget) that never returns true for semantically
/// different models.  It may return false for isomorphic models with very
/// large automorphism groups once the budget is exhausted — that costs a
/// cache miss, never a wrong answer.
///
/// model_fingerprint() is the hash the serving layer actually keys on —
/// the result cache, the router's shard pick, one-shot and session
/// responses: a Merkle fingerprint for treelike models (an order of
/// magnitude cheaper than WL refinement) and canonical_hash() for DAGs.

#include <cstdint>
#include <vector>

#include "core/cdat.hpp"

namespace atcd::service {

/// Structural fingerprint; equal for isomorphic decorated models.
using CanonHash = std::uint64_t;

/// Fingerprint of a bare (tree, decorations) triple.  \p prob selects the
/// probabilistic model kind: passing nullptr and passing a vector of all
/// ones hash differently on purpose (CdAt vs CdpAt solve different
/// problems).  The tree must be finalized.
CanonHash canonical_hash(const AttackTree& t, const std::vector<double>& cost,
                         const std::vector<double>& damage,
                         const std::vector<double>* prob = nullptr);

CanonHash canonical_hash(const CdAt& m);
CanonHash canonical_hash(const CdpAt& m);

/// Exact semantic equality: true iff there is a type-, decoration- and
/// edge-preserving bijection between the two models' nodes.  Sound (never
/// true for non-isomorphic models); complete up to an internal step
/// budget that only very large automorphism groups exhaust.
bool equal_canonical(const AttackTree& ta, const std::vector<double>& cost_a,
                     const std::vector<double>& damage_a,
                     const std::vector<double>* prob_a, const AttackTree& tb,
                     const std::vector<double>& cost_b,
                     const std::vector<double>& damage_b,
                     const std::vector<double>* prob_b);

bool equal_canonical(const CdAt& a, const CdAt& b);
bool equal_canonical(const CdpAt& a, const CdpAt& b);

/// The node bijection witnessing equal_canonical: map[v] is the b-node
/// matching a-node v (types, decorations, edges, and the root all
/// correspond).  Empty when the models are not (detectably) isomorphic.
/// Consumers use it to translate attack witnesses between the BAS
/// indexings of two isomorphic submissions of the same model.
std::vector<NodeId> canonical_isomorphism(const CdAt& a, const CdAt& b);
std::vector<NodeId> canonical_isomorphism(const CdpAt& a, const CdpAt& b);

/// Merkle fingerprint of a finalized *treelike* decorated model.
/// Invariant under renaming and child reordering (children fold in
/// sorted-hash order) and sensitive to all decorations.  Returns 0 for
/// non-treelike models.  \p prob null means deterministic, hashed as
/// all-ones (mirroring the bottom-up embedding) — unlike
/// canonical_hash(), which tells the two kinds apart.
std::uint64_t treelike_fingerprint(const AttackTree& tree,
                                   const std::vector<double>& cost,
                                   const std::vector<double>& damage,
                                   const std::vector<double>* prob);

/// Incremental treelike_fingerprint(): \p node_hash / \p node_valid
/// persist across calls (resized here on first use or structural
/// change), and only nodes with a cleared validity bit are rehashed.
/// The caller must clear the bit of every node whose decorations (or
/// descendants) changed *and of all its ancestors* — exactly the
/// root-path walk session edits already do for the front memo.  Returns
/// the root hash, identical to treelike_fingerprint() on the same model.
std::uint64_t treelike_fingerprint_update(
    const AttackTree& tree, const std::vector<double>& cost,
    const std::vector<double>& damage, const std::vector<double>* prob,
    std::vector<std::uint64_t>* node_hash, std::vector<char>* node_valid);

/// The model fingerprint used uniformly across the serving layer, so a
/// response's "hash" field identifies a model consistently no matter
/// which path served it: treelike_fingerprint() for treelike models,
/// canonical_hash() for DAGs.  Both are isomorphism-invariant; consumers
/// that need exactness still deep-check with equal_canonical() (the
/// result cache does).
CanonHash model_fingerprint(const CdAt& m);
CanonHash model_fingerprint(const CdpAt& m);

}  // namespace atcd::service
