#pragma once
/// \file backend.hpp
/// The engine subsystem's polymorphic solver interface.
///
/// A Backend bundles one solution method for the six cost-damage problems
/// (paper Secs. VI-IX) together with *capability metadata*: which of the
/// four model classes of Table I it handles (treelike/DAG x
/// deterministic/probabilistic), whether it is exact or approximate,
/// whether it can produce whole Pareto fronts, and any capacity bound on
/// the number of BASs.  The planner (planner.hpp) matches instances
/// against these capabilities instead of hard-coding Table I in
/// per-problem switches; the registry (registry.hpp) makes backends
/// discoverable by name for CLIs and benches.
///
/// A backend implements only the entry points its capabilities advertise;
/// the base-class defaults throw UnsupportedError with the precise
/// missing capability.

#include <cstddef>
#include <memory>
#include <string>

#include "core/bottom_up_core.hpp"
#include "core/cdat.hpp"
#include "core/opt_result.hpp"
#include "pareto/front2d.hpp"
#include "util/error.hpp"

namespace atcd::engine {

/// The six cost-damage problems (Table I columns).
enum class Problem { Cdpf, Dgc, Cgd, Cedpf, Edgc, Cged };

const char* to_string(Problem p);

/// CEDPF / EDgC / CgED take a CdpAt; the other three take a CdAt.
inline bool is_probabilistic(Problem p) {
  return p == Problem::Cedpf || p == Problem::Edgc || p == Problem::Cged;
}

/// CDPF / CEDPF produce a Front2d; the rest a single OptAttack.
inline bool is_front(Problem p) {
  return p == Problem::Cdpf || p == Problem::Cedpf;
}

/// "No capacity bound" sentinel for Capabilities::max_bas.
inline constexpr std::size_t kNoCap = static_cast<std::size_t>(-1);

/// What a backend can do.  The four booleans in the first block are the
/// cells of the paper's Table I.
struct Capabilities {
  bool tree_det = false;   ///< treelike, deterministic (CDPF/DgC/CgD)
  bool dag_det = false;    ///< DAG-shaped, deterministic
  bool tree_prob = false;  ///< treelike, probabilistic (CEDPF/EDgC/CgED)
  bool dag_prob = false;   ///< DAG-shaped, probabilistic

  bool exact = true;     ///< results provably optimal (vs. approximate)
  bool fronts = true;    ///< supports the Pareto-front problems
  bool additive_only = false;  ///< requires zero damage on internal nodes
  /// The backend's computation is compositional over the tree and can
  /// consult/populate a per-subtree memo (SolveContext::subtree) — the
  /// capability incremental sessions (service/session.hpp) key on.
  bool incremental = false;
  std::size_t max_bas = kNoCap;  ///< capacity bound on |B| (enumeration)
};

/// Instance traits the planner matches against Capabilities.
struct Traits {
  bool treelike = true;
  bool probabilistic = false;
  bool additive = false;  ///< every internal node carries zero damage
  std::size_t bas = 0;    ///< |B|
};

Traits traits_of(const CdAt& m);
Traits traits_of(const CdpAt& m);

/// Factory for per-solve subtree memo visitors, implemented above the
/// engine layer (service::SubtreeCache).  An incremental-capable backend
/// binds a visitor to the exact (model, budget-class) its sweep runs
/// with — the budget is part of the memo key because budget pruning
/// (min_U) makes per-node fronts budget-dependent.  bind() may return
/// nullptr when the model is not memoizable (e.g. DAG-shaped); the
/// returned visitor borrows the model and must not outlive the call.
/// Implementations must be thread-safe (bound concurrently by batch
/// workers); each returned visitor is used from one thread only.
class SubtreeMemo {
 public:
  virtual ~SubtreeMemo() = default;
  virtual std::unique_ptr<atcd::detail::SubtreeVisitor> bind(
      const CdAt& m, double budget) = 0;
  virtual std::unique_ptr<atcd::detail::SubtreeVisitor> bind(
      const CdpAt& m, double budget) = 0;
};

/// Per-solve context passed alongside an instance.  Callers with no
/// extras pass a default-constructed one (`{}`).
struct SolveContext {
  SubtreeMemo* subtree = nullptr;  ///< per-subtree memo; null = none
};

/// One solution method with capability metadata.  Stateless and
/// thread-safe: all entry points are const and reentrant (the batch API
/// calls them from multiple threads).
class Backend {
 public:
  virtual ~Backend() = default;

  virtual const char* name() const = 0;
  virtual Capabilities capabilities() const = 0;

  /// The six problem entry points.  Defaults throw UnsupportedError.
  /// Backends advertising `incremental` consult ctx.subtree; the others
  /// ignore the context.
  virtual Front2d cdpf(const CdAt& m, const SolveContext& ctx) const;
  virtual OptAttack dgc(const CdAt& m, double budget,
                        const SolveContext& ctx) const;
  virtual OptAttack cgd(const CdAt& m, double threshold,
                        const SolveContext& ctx) const;
  virtual Front2d cedpf(const CdpAt& m, const SolveContext& ctx) const;
  virtual OptAttack edgc(const CdpAt& m, double budget,
                         const SolveContext& ctx) const;
  virtual OptAttack cged(const CdpAt& m, double threshold,
                         const SolveContext& ctx) const;

  /// True when the capabilities cover problem \p p on a model with traits
  /// \p t.  Capacity (max_bas) is deliberately *not* checked here: it is
  /// advisory planner metadata; over-capacity runs throw CapacityError
  /// from the backend itself.
  bool supports(Problem p, const Traits& t) const;

  /// Human-readable reason why (p, t) is unsupported — names the missing
  /// capability (e.g. "does not support DAG-shaped models").  Empty when
  /// supported.
  std::string unsupported_reason(Problem p, const Traits& t) const;

 protected:
  /// Throws UnsupportedError("<name>: <reason>") for problem \p p on
  /// traits \p t; used by the default entry points.
  [[noreturn]] void reject(Problem p, const Traits& t) const;
};

}  // namespace atcd::engine
