#pragma once
/// \file front2d.hpp
/// The cost-damage Pareto front: the minimal elements of the image of the
/// attack space under the evaluation map (ĉ, d̂) — the solution object of
/// problem CDPF / CEDPF.  Points are value-deduplicated and each carries
/// one witness attack achieving it, so the attack-set columns of the
/// paper's Fig. 6 can be regenerated.

#include <string>
#include <vector>

#include "pareto/point.hpp"
#include "util/bitset.hpp"

namespace atcd {

/// One Pareto-optimal point with a witness attack.
struct FrontPoint {
  CdPoint value;
  DynBitset witness;  ///< an attack x with (ĉ(x), d̂(x)) == value
};

/// Tag for Front2d::of_candidates overloads taking pre-sorted input.
struct assume_sorted_t {
  explicit assume_sorted_t() = default;
};
inline constexpr assume_sorted_t assume_sorted{};

/// A cost-damage Pareto front, kept sorted by ascending cost (and hence,
/// by minimality, strictly ascending damage).
class Front2d {
 public:
  Front2d() = default;

  /// Builds the front from arbitrary candidate points: keeps exactly the
  /// minimal elements of the poset, deduplicated by value (first witness
  /// wins among value-equal candidates).  Input already sorted by
  /// (cost asc, damage desc) — e.g. the projection of a pruned bottom-up
  /// sweep — is detected in one linear pass
  /// and skips the sort entirely.
  static Front2d of_candidates(std::vector<FrontPoint> candidates);

  /// As above, but the caller vouches that \p candidates are already
  /// sorted by (cost asc, damage desc): no check, no sort — the minimal
  /// sweep runs directly.  FrontSoaStore::get uses this: a stored front
  /// is already minimal and in front order.
  static Front2d of_candidates(std::vector<FrontPoint> candidates,
                               assume_sorted_t);

  const std::vector<FrontPoint>& points() const { return points_; }
  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  const FrontPoint& operator[](std::size_t i) const { return points_[i]; }

  auto begin() const { return points_.begin(); }
  auto end() const { return points_.end(); }

  /// Solves DgC from the front (paper eq. (1)): the maximal damage
  /// achievable with cost <= U, together with its witness.  Returns
  /// nullptr if no front point satisfies the budget (cannot happen for
  /// U >= 0 on a complete front, which always contains the empty attack).
  const FrontPoint* max_damage_within_cost(double budget) const;

  /// Solves CgD from the front (paper eq. (2)): the minimal cost whose
  /// damage reaches L.  Returns nullptr if L exceeds the maximal damage.
  const FrontPoint* min_cost_with_damage(double threshold) const;

  /// True if both fronts contain the same (cost,damage) values up to the
  /// given absolute tolerance (witnesses are not compared).
  bool same_values(const Front2d& other, double tol = 1e-9) const;

  /// Tab-separated "cost damage witness" dump, one point per line.
  std::string to_string() const;

 private:
  std::vector<FrontPoint> points_;
};

}  // namespace atcd
