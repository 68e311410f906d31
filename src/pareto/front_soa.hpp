#pragma once
/// \file front_soa.hpp
/// Structure-of-arrays Pareto-front storage and kernels — the hot-path
/// companion of triple.hpp / front2d.hpp.
///
/// The pointer-based sweep spends its time in two places: combining two
/// child fronts (cross product of AttrTriples, each carrying its own
/// heap-allocated DynBitset witness — one allocation per candidate) and
/// pruning (stable_sort moving whole AttrTriples, a std::map staircase
/// allocating a node per kept point).  Both are memory-latency bound,
/// not compute bound.
///
/// This file stores fronts as parallel columns instead: cost / damage /
/// activation arrays plus one flat witness-word array (every witness is
/// `wpa` consecutive uint64 words).  The kernels then become linear
/// passes:
///
///   * combine_soa     — cross product with witnesses OR-ed word-wise
///                       into pre-sized flat storage; zero allocations
///                       in steady state.
///   * prune_select    — budget filter + index stable-sort (moving u32
///                       indices, not triples) + a flat vector staircase,
///                       yielding the surviving rows.  Exactly
///                       prune_min()'s semantics, point for point.
///   * TripleFrontStack— per-node front storage for the arena sweep:
///                       shared columns with per-frame spans under stack
///                       discipline, so live memory tracks the DFS
///                       fringe (≈ depth), not the node count.
///
/// TripleView is also the currency of the sweep's memo protocol
/// (core/bottom_up_core.hpp's SubtreeVisitor).
///
/// For 2-D (cost, damage) fronts, FrontSoaStore packs many fronts into
/// shared columns with per-front spans and a versioned, trivially
/// memcpy-able byte layout — how the result-cache section of a snapshot
/// (persist/snapshot.hpp) stores its fronts.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "at/attack_tree.hpp"
#include "pareto/front2d.hpp"
#include "pareto/triple.hpp"

namespace atcd {

/// Read-only SoA view of a triple front: parallel columns of length n,
/// plus n * wpa packed witness words.
struct TripleView {
  const double* cost = nullptr;
  const double* damage = nullptr;
  const double* act = nullptr;
  const std::uint64_t* wit = nullptr;
  std::size_t n = 0;
};

/// Owning SoA buffer of attribute triples.  `wpa` (witness words per
/// attack) is fixed per model: ceil(bas_count / 64).
class TripleBuf {
 public:
  TripleBuf() = default;
  explicit TripleBuf(std::uint32_t wpa) : wpa_(wpa) {}

  std::uint32_t wpa() const { return wpa_; }
  void set_wpa(std::uint32_t wpa) { wpa_ = wpa; }
  std::size_t size() const { return cost.size(); }
  bool empty() const { return cost.empty(); }

  void clear() {
    cost.clear();
    damage.clear();
    act.clear();
    wit.clear();
  }

  void reserve(std::size_t n) {
    cost.reserve(n);
    damage.reserve(n);
    act.reserve(n);
    wit.reserve(n * wpa_);
  }

  /// Appends a triple with an all-zero witness; returns its row.
  std::size_t push_zero(double c, double d, double a) {
    cost.push_back(c);
    damage.push_back(d);
    act.push_back(a);
    wit.resize(wit.size() + wpa_, 0);
    return cost.size() - 1;
  }

  std::uint64_t* witness(std::size_t row) { return wit.data() + row * wpa_; }
  const std::uint64_t* witness(std::size_t row) const {
    return wit.data() + row * wpa_;
  }

  TripleView view() const {
    return {cost.data(), damage.data(), act.data(), wit.data(), cost.size()};
  }

  /// Conversions to and from AoS triples, the bridge to the prune_min()
  /// reference.  \p nbits is the witness bit width (the host model's BAS
  /// count).
  static TripleBuf from_aos(const std::vector<AttrTriple>& xs,
                            std::size_t nbits);
  std::vector<AttrTriple> to_aos(std::size_t nbits) const;

  std::vector<double> cost, damage, act;
  std::vector<std::uint64_t> wit;  ///< size() * wpa() words

 private:
  std::uint32_t wpa_ = 0;
};

/// out = a × b under \p gate: costs and damages add, activations combine
/// by the gate operator (AND: p·q, OR: p + q − pq), witnesses union.
/// Iterates a-major then b-minor — the exact order of the pointer path's
/// combine(), so downstream stable sorts see the same sequence.  Rows
/// whose cost exceeds \p budget are elided during generation (before the
/// witness OR is paid) — exactly the rows prune's min_U filter would drop
/// first, so the surviving sequence is unchanged.
/// \p out is cleared first; its wpa must match.
void combine_soa(const TripleView& a, const TripleView& b, NodeType gate,
                 TripleBuf* out, double budget = kNoBudget);

/// Reusable scratch for prune_select (index array, staircase) and the
/// compact_top bounce buffer; hoisted out so a whole sweep allocates only
/// while warming.
struct PruneScratch {
  std::vector<std::uint32_t> idx;
  std::vector<std::pair<double, double>> stair;  // (damage, act), damage asc
  TripleBuf tmp;
};

/// min_U over SoA storage, as a selection: fills scratch->idx with the
/// indices of the rows of \p v that survive — cost <= budget, ⊑-minimal,
/// value-deduplicated (first witness wins) — in (cost asc, damage desc,
/// act desc) order, without touching the rows themselves.  Gathering
/// those rows (TripleFrontStack::push_select / compact_top) yields
/// exactly prune_min() on the same sequence, point for point.
void prune_select(const TripleView& v, double budget, PruneScratch* scratch);

/// Stack-disciplined pool of triple fronts in shared SoA columns.  The
/// arena sweep pushes one frame per completed subtree and pops the top k
/// to fold a k-ary gate, so the live set is exactly the DFS fringe.
class TripleFrontStack {
 public:
  explicit TripleFrontStack(std::uint32_t wpa) : wpa_(wpa) {}

  std::uint32_t wpa() const { return wpa_; }
  std::size_t frames() const { return frame_off_.size(); }

  /// View of the k-th frame from the top (k = 0 is the top).
  TripleView from_top(std::size_t k) const;

  /// Appends \p buf as a new top frame (rows copied into the pool).
  void push(const TripleBuf& buf);

  /// Appends a new top frame holding rows[i] of \p v, in order — the
  /// gather-on-push companion of prune_select().  \p v must not alias
  /// this stack's storage (pushing can reallocate the columns).
  void push_select(const TripleView& v,
                   const std::vector<std::uint32_t>& rows);

  /// Appends a new top frame from an SoA view whose witness stride
  /// already equals wpa() — four contiguous column copies, the memo-hit
  /// path.  \p v must not alias this stack's storage.
  void push_view(const TripleView& v);

  /// Replaces the top frame by its own rows[i] (frame-relative indices,
  /// any order), via \p bounce — in-place prune of the top frame.
  void compact_top(const std::vector<std::uint32_t>& rows, TripleBuf* bounce);

  /// Mutable damage column of the top frame (the gate-finish own-damage
  /// add runs directly on the pool).
  double* top_damage();

  /// Drops the top \p k frames (their rows are reclaimed).
  void pop(std::size_t k);

  /// AoS copy of the top frame — the sweep's root front.
  std::vector<AttrTriple> top_to_aos(std::size_t nbits) const;

  void clear();

  /// clear() plus a new witness stride — re-arms a pooled stack for a
  /// model with a different BAS count while keeping column capacity.
  void reset(std::uint32_t wpa) {
    wpa_ = wpa;
    clear();
  }

 private:
  std::uint32_t wpa_;
  std::vector<double> cost_, damage_, act_;
  std::vector<std::uint64_t> wit_;
  std::vector<std::size_t> frame_off_;  ///< first row of each frame
};

// ---------------------------------------------------------------------------
// 2-D packed fronts: the result-cache snapshot store.
// ---------------------------------------------------------------------------

/// Many (cost, damage) Pareto fronts packed into shared columns with
/// per-front spans, each point carrying its witness in a flat word
/// array.  The in-memory layout is plain contiguous arrays, and
/// to_bytes()/from_bytes() is a straight memcpy of those arrays behind a
/// small versioned header — the fronts of a snapshot's result-cache
/// section.
class FrontSoaStore {
 public:
  /// Appends a front; returns its index.
  std::uint32_t add(const Front2d& f);

  std::size_t size() const { return meta_.size(); }
  std::size_t point_count() const { return xs_.size(); }

  /// Number of points of front \p i.
  std::size_t front_size(std::uint32_t i) const { return meta_[i].count; }

  /// Reconstructs front \p i (points + witnesses, same order).
  Front2d get(std::uint32_t i) const;

  /// Versioned binary image; from_bytes() returns nullopt on a
  /// truncated, corrupt, or version-mismatched image.
  std::string to_bytes() const;
  static std::optional<FrontSoaStore> from_bytes(const std::string& bytes);

  bool operator==(const FrontSoaStore&) const = default;

 private:
  struct Meta {
    std::uint64_t point_off = 0;  ///< first row in xs_/ys_
    std::uint64_t wit_off = 0;    ///< first word in wit_
    std::uint32_t count = 0;      ///< points in this front
    std::uint32_t nbits = 0;      ///< witness bit width
    bool operator==(const Meta&) const = default;
  };
  std::vector<double> xs_, ys_;        // cost / damage columns
  std::vector<std::uint64_t> wit_;     // packed witness words
  std::vector<Meta> meta_;
};

}  // namespace atcd
