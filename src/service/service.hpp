#pragma once
/// \file service.hpp
/// SolveService: the request/response front door of the library.
///
/// A Request carries a problem, a bound, an optional explicit engine
/// name, and a model — either already parsed (shared ownership, so the
/// cache can retain it) or as raw text in the at/parser.hpp format.
/// handle() parses if needed, validates the model/problem pairing,
/// computes the canonical model hash once, consults the sharded result
/// cache, coalesces concurrent identical requests onto a single backend
/// invocation, and routes misses through the engine planner/registry.
///
/// The Response wraps the engine's SolveResult with serving metadata:
/// whether it was a cache hit, whether the call piggybacked on an
/// in-flight identical solve, the canonical hash, and the wall time
/// spent inside handle().
///
/// Misses run the engine with no subtree memo: the sweep's per-node
/// fronts are freed when it returns.  A service-wide SubtreeCache would
/// let distinct models share subtree fronts, but on served traffic it hit
/// 1-5% of lookups, slowed every cold solve, and made a deep chain's
/// memory grow with n x depth.  subtree_cache() is still owned here for
/// snapshot tooling and callers that bind it explicitly; no request path
/// reads or writes it.
///
/// handle() is the result cache's only writer on the request path: the
/// API's analyses and sessions solve around it, so their derived
/// scenarios never evict a served model.
///
/// handle() is thread-safe; a SolveService is meant to be shared by all
/// connection/worker threads of a server (examples/atcd_server.cpp).

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "at/parser.hpp"
#include "engine/batch.hpp"
#include "obs/metrics.hpp"
#include "service/cache.hpp"
#include "service/subtree_cache.hpp"
#include "service/timing.hpp"

namespace atcd::service {

/// One solve request.  Exactly one model source must be set: a parsed
/// det/prob model (matching is_probabilistic(problem)) or model_text.
struct Request {
  engine::Problem problem = engine::Problem::Cdpf;
  double bound = 0.0;        ///< budget/threshold; ignored by the fronts
  std::string engine_name;   ///< explicit engine; "" = planner's choice
  std::string model_text;    ///< textual model, parsed when no model is set
  std::shared_ptr<const CdAt> det;
  std::shared_ptr<const CdpAt> prob;

  /// Builders for parsed models (the model is copied into shared
  /// ownership so the cache may retain it past the caller's scope).
  static Request of(engine::Problem p, const CdAt& m, double bound = 0.0,
                    std::string engine = {});
  static Request of(engine::Problem p, const CdpAt& m, double bound = 0.0,
                    std::string engine = {});
  static Request of_text(engine::Problem p, std::string text,
                         double bound = 0.0, std::string engine = {});
};

/// A solve result plus serving metadata.
struct Response {
  engine::Problem problem = engine::Problem::Cdpf;  ///< echoed from the request
  engine::SolveResult result;
  bool cache_hit = false;   ///< served from the result cache
  bool coalesced = false;   ///< waited on an identical in-flight solve
  CanonHash model_hash = 0; ///< 0 when the model could not be parsed
  double micros = 0.0;      ///< wall time inside handle()
  /// The model the request was served against (the parse result for text
  /// requests) — lets callers render witnesses without reparsing.
  std::shared_ptr<const CdAt> det;
  std::shared_ptr<const CdpAt> prob;
};

class SolveService {
 public:
  struct Options {
    engine::BatchOptions batch;  ///< registry/policy for the solve path
    ResultCache::Config cache;
    bool enable_cache = true;  ///< false: every request solves (benchmarks)
    /// Sizes subtree_cache().  No request path binds that cache: a
    /// solve keeps its subtree fronts for its own sweep only, a session
    /// in its private memo, and an analysis binds no cache at all.
    SubtreeCache::Config subtree;
    /// Instrument home for the whole serving stack: the service's own
    /// latency histogram plus both caches' counters land here (the
    /// cache/subtree Config::metrics fields are overwritten with this
    /// registry).  Null = the service owns a private registry, so
    /// standalone services keep isolated counters; the API dispatcher
    /// injects its registry to get one source of truth per stack.
    obs::Registry* metrics = nullptr;
  };

  SolveService();  // default Options (GCC can't parse `= {}` here)
  explicit SolveService(Options options);

  /// Serves one request.  Never throws: parse, validation, and solver
  /// failures come back as ok=false results with a message.
  Response handle(const Request& request);

  ResultCache& cache() { return cache_; }
  const ResultCache& cache() const { return cache_; }
  /// Bound by no request path (see the file comment).
  SubtreeCache& subtree_cache() { return subtree_cache_; }
  const SubtreeCache& subtree_cache() const { return subtree_cache_; }
  const Options& options() const { return options_; }

  /// The stack's instrument registry (Options::metrics, or the private
  /// fallback); never null.
  obs::Registry& metrics() const { return *options_.metrics; }

 private:
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    engine::SolveResult result;
    // The leader's model, for the coalescing collision deep check.
    std::shared_ptr<const CdAt> det;
    std::shared_ptr<const CdpAt> prob;
  };

  engine::SolveResult solve(const Request& request);
  /// Stamps the response's wall time and records it in the service's
  /// latency histogram — every handle() exit path funnels through here,
  /// so latency lands in the registry whether or not callers echo it.
  Response finish(Response resp, const detail::Clock::time_point& t0);

  /// Declared before options_: the Options-normalizing constructor step
  /// may point options_.metrics at this.
  std::unique_ptr<obs::Registry> owned_metrics_;
  Options options_;
  obs::Histogram* handle_micros_ = nullptr;
  ResultCache cache_;
  SubtreeCache subtree_cache_;
  std::mutex inflight_mu_;
  std::unordered_map<CacheKey, std::shared_ptr<InFlight>, CacheKeyHasher>
      inflight_;
};

}  // namespace atcd::service
