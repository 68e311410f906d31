#pragma once
/// \file batch.hpp
/// Batch solve API: fan a set of problem instances out over the shared
/// worker loop (util/parallel.hpp).
///
/// Instances reference caller-owned models (no copies); every backend is
/// stateless and reentrant, so concurrent solves need no locking.
/// solve_all() is deterministic: each instance is solved independently,
/// so results are identical to sequential solve_one() calls in any
/// thread configuration.  Per-instance failures (capacity, unsupported
/// class, solver errors) are captured in the result instead of tearing
/// down the batch.
///
/// The engine layer caches nothing.  Whole-model result caching lives in
/// the service (service::SolveService::handle), and the one hook here,
/// BatchOptions::subtree, is bound on served paths only by a session's
/// private memo (tooling may bind a service::SubtreeCache to it).

#include <span>
#include <string>
#include <vector>

#include "engine/planner.hpp"

namespace atcd::engine {

/// One problem instance.  Exactly one of det/prob must be set, matching
/// is_probabilistic(problem); `bound` is the budget (DgC/EDgC) or
/// threshold (CgD/CgED) and is ignored by the front problems.
struct Instance {
  Problem problem = Problem::Cdpf;
  const CdAt* det = nullptr;
  const CdpAt* prob = nullptr;
  double bound = 0.0;
  std::string backend;  ///< explicit engine name; empty = planner's choice

  static Instance of(Problem p, const CdAt& m, double bound = 0.0,
                     std::string backend = {});
  static Instance of(Problem p, const CdpAt& m, double bound = 0.0,
                     std::string backend = {});
};

/// Outcome of one instance.
struct SolveResult {
  bool ok = false;
  std::string error;         ///< what() of the failure when !ok
  std::string backend;       ///< name of the engine that ran
  Front2d front;             ///< CDPF / CEDPF result
  OptAttack attack;          ///< DgC / CgD / EDgC / CgED result
};

struct BatchOptions {
  /// Worker threads, capped by the hardware and the batch size
  /// (util::worker_count); 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Registry to resolve engines against; null = default_registry().
  const Registry* registry = nullptr;
  /// Auto-selection policy; null = the Table I default.
  const Policy* policy = nullptr;
  /// Per-subtree memo bound by incremental-capable backends (see
  /// Capabilities::incremental); null = none.
  SubtreeMemo* subtree = nullptr;
};

/// Validates the model/problem pairing of an instance: exactly one of
/// det/prob must be set and it must match is_probabilistic(problem).
/// Returns an empty string when valid, else a message naming the
/// mismatch.  solve_one()/solve_all() report it as an ok=false result.
std::string instance_error(const Instance& instance);

/// Solves one instance synchronously.
SolveResult solve_one(const Instance& instance, const BatchOptions& opt = {});

/// Solves every instance, fanning out through util::for_each_index.  The
/// i-th result corresponds to the i-th instance.
std::vector<SolveResult> solve_all(std::span<const Instance> instances,
                                   const BatchOptions& opt = {});

}  // namespace atcd::engine
