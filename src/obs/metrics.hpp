#pragma once
/// \file metrics.hpp
/// Process-wide metrics registry: named typed instruments for the
/// serving stack.
///
/// Three instrument kinds cover everything the serving layers count:
///
///  * Counter   — monotonic; sharded per-thread atomics so a hot-path
///    increment touches only a cacheline the calling thread owns, with a
///    plain relaxed load and store (see detail::shard_slot).
///  * Gauge     — a settable level (resident cache entries/bytes, open
///    sessions).  Derived gauges are *refreshed at exposition time*
///    from their source of truth rather than updated on every mutation,
///    so they cost nothing on the hot path.
///  * Histogram — fixed-bucket log-scale latency histogram over
///    non-negative integer samples (microseconds by convention), with
///    exact-rank p50/p95/p99 extraction.  Buckets are log-spaced with 8
///    sub-buckets per octave (values < 8 are exact), so relative bucket
///    error is <= 12.5% at any magnitude while the whole table stays a
///    few KB.  Recording is three relaxed updates of the calling
///    thread's shard; an aggregate can include() other histograms
///    instead of being recorded into.  Percentile extraction
///    merges the shards and walks the cumulative counts, returning the
///    bucket's inclusive upper edge — deterministic for a given
///    recorded multiset, no interpolation.
///
/// A Registry owns instruments by name (get-or-create under a mutex;
/// returned references stay valid for the registry's lifetime).  Its
/// exposition() is an Exposition: the instrument values in sorted maps,
/// rendered in two canonical forms, a JSON object and a
/// Prometheus-style text exposition.  The output byte-layout is a pure
/// function of the values, so the `metrics` op and `--metrics-dump`
/// stay deterministic, and a merged fleet view (net::Router) renders
/// exactly like one registry.
///
/// Ownership convention across the stack: subsystems take an
/// `obs::Registry*` in their config/options and fall back to a private
/// registry when given null, so standalone instances keep isolated
/// counters (tests pin absolute values) while a Dispatcher-assembled
/// stack shares one registry — the single source of truth the `metrics`
/// operation exposes.

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace atcd::obs {

namespace detail {
/// The calling thread's slot (see shard_slot); SIZE_MAX until its first
/// instrument update.  Plain data, so the hot path is one TLS load.
extern thread_local constinit std::size_t tls_slot;
/// Takes the lowest free slot for the calling thread and arranges its
/// release at thread exit.
std::size_t assign_slot();

/// The calling thread's small dense index.  Live threads hold distinct
/// slots, lowest free first; a thread's slot is freed when it exits.
/// An instrument with N owned shards gives a thread with slot < N shard
/// `slot` to itself alone, so its updates there are a relaxed load and
/// store: no locked read-modify-write, which would drain the store
/// buffer on every request.  Threads with higher slots share the
/// instrument's one extra shard through fetch_add.
inline std::size_t shard_slot() {
  const std::size_t slot = tls_slot;
  return slot != SIZE_MAX ? slot : assign_slot();
}

/// Adds \p n to \p cell; \p owned = only the calling thread writes it.
inline void bump(std::atomic<std::uint64_t>& cell, std::uint64_t n,
                 bool owned) {
  if (owned)
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  else
    cell.fetch_add(n, std::memory_order_relaxed);
}
}  // namespace detail

/// Monotonic counter.  add() is wait-free: one relaxed update of the
/// calling thread's shard.  value() merges the shards (a racing add may
/// or may not be included — the usual snapshot semantics).
class Counter {
 public:
  static constexpr std::size_t kShards = 16;  ///< owned shards

  void add(std::uint64_t n = 1) {
    const std::size_t slot = detail::shard_slot();
    const bool owned = slot < kShards;
    detail::bump(shards_[owned ? slot : kShards].v, n, owned);
  }

  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  Shard shards_[kShards + 1];  ///< the owned ones, then the shared one
};

/// Settable level.  Last set wins; no sharding (gauges are written at
/// exposition time, not on the hot path).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Log-scale latency histogram; see the file comment for the layout.
class Histogram {
 public:
  /// 8 sub-buckets per octave: values < 8 are exact, above that bucket
  /// `8 + (exp-3)*8 + sub` covers [ (8+sub) << (exp-3), … ] where exp is
  /// the sample's bit width minus one.
  static constexpr std::size_t kSubBits = 3;
  static constexpr std::size_t kSub = 1u << kSubBits;  // 8
  // Exponents kSubBits..63 each contribute kSub buckets after the kSub
  // exact ones, so the top sample (2^64-1) lands on the last index.
  static constexpr std::size_t kBuckets = kSub + (64 - kSubBits) * kSub;

  void record(std::uint64_t v) {
    const std::size_t slot = detail::shard_slot();
    const bool owned = slot < kShardCount;
    Shard& s = shards_[owned ? slot : kShardCount];
    detail::bump(s.buckets[bucket_of(v)], 1, owned);
    detail::bump(s.count, 1, owned);
    detail::bump(s.sum, v, owned);
  }

  std::uint64_t count() const;
  std::uint64_t sum() const;

  /// Makes this histogram also report \p part's samples: count(), sum()
  /// and percentile() read both.  For a total over histograms that are
  /// recorded instead of it, so a sample is recorded once, not once per
  /// view.  Including the same part again is a no-op.
  void include(const Histogram& part);

  /// Exact-rank quantile over the merged buckets: the value returned is
  /// the inclusive upper edge of the bucket containing the ceil(q*n)-th
  /// smallest sample.  0 when empty.  \p q in [0, 1].
  double percentile(double q) const;

  /// Bucket index of a sample (exposed for the unit tests).
  static std::size_t bucket_of(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned exp = static_cast<unsigned>(std::bit_width(v)) - 1;
    return kSub + (exp - kSubBits) * kSub +
           static_cast<std::size_t>((v >> (exp - kSubBits)) & (kSub - 1));
  }

  /// Inclusive upper edge of bucket \p b.  For the very last bucket the
  /// shifted edge wraps to 0 and the -1 lands exactly on 2^64-1, the
  /// true upper; the guard only covers indices past the table.
  static std::uint64_t bucket_upper(std::size_t b) {
    if (b < kSub) return b;
    const std::size_t shift = (b - kSub) / kSub;
    const std::uint64_t sub = (b - kSub) % kSub;
    if (shift >= 64 - kSubBits) return ~std::uint64_t{0};
    return ((kSub + sub + 1) << shift) - 1;
  }

 private:
  static constexpr std::size_t kShardCount = 4;  ///< owned shards
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> buckets[kBuckets] = {};
  };
  // ~4 KB per shard; heap-allocated so a Histogram member doesn't blow
  // up its owner's footprint.  The owned shards, then the shared one.
  std::unique_ptr<Shard[]> shards_ =
      std::unique_ptr<Shard[]>(new Shard[kShardCount + 1]);

  /// This histogram and its included parts.
  std::vector<const Histogram*> sources() const;
  mutable std::mutex parts_mu_;
  std::vector<const Histogram*> parts_;  ///< guarded by parts_mu_
};

/// Instrument values as exposed: the one writer of both exposition
/// shapes.  std::map: sorted iteration gives the canonical order.
struct Exposition {
  /// A histogram as exposed: totals plus three percentiles.
  struct Summary {
    std::uint64_t count = 0, sum = 0;
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Summary> histograms;

  /// Folds \p other in, as for a fleet of processes: counters, gauges
  /// and histogram counts and sums add; percentiles do not add, so each
  /// takes the larger.
  void merge(const Exposition& other);

  /// Canonical JSON exposition:
  ///   {"counters":{...},"gauges":{...},
  ///    "histograms":{"name":{"count":n,"sum":s,"p50":..,"p95":..,"p99":..}}}
  /// Names sorted; integral values rendered without a decimal point.
  std::string to_json() const;

  /// Prometheus-style text exposition: counters and gauges as
  /// `name value` samples, histograms as summaries (quantile-labeled
  /// samples plus `_sum`/`_count`).  Names sorted.
  std::string to_prometheus() const;
};

/// Name -> instrument home.  get-or-create under a mutex; returned
/// references stay valid for the registry's lifetime.  A name denotes
/// exactly one instrument kind — asking for an existing name with a
/// different kind throws std::logic_error (a naming bug, not a runtime
/// condition).
///
/// Naming scheme (see README "Observability"): lower_snake_case,
/// `atcd_<subsystem>_<what>`, monotonic counters suffixed `_total`,
/// histograms suffixed with their unit (`_micros`).
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// A snapshot of every instrument's value.
  Exposition exposition() const;

  std::string to_json() const { return exposition().to_json(); }
  std::string to_prometheus() const { return exposition().to_prometheus(); }

 private:
  mutable std::mutex mu_;
  // std::map: sorted iteration gives the canonical exposition order.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace atcd::obs
