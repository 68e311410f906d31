/// \file metrics.cpp
/// Registry storage and the two canonical expositions.

#include "obs/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <vector>

namespace atcd::obs {

namespace detail {
namespace {

/// Which slots live threads hold.  Taken once per thread, so a mutex is
/// cheap enough; it also orders an exited thread's last updates of its
/// shards before the next holder's first.
struct SlotTable {
  std::mutex mu;
  std::vector<bool> taken;

  std::size_t acquire() {
    std::lock_guard<std::mutex> lock(mu);
    for (std::size_t i = 0; i < taken.size(); ++i)
      if (!taken[i]) {
        taken[i] = true;
        return i;
      }
    taken.push_back(true);
    return taken.size() - 1;
  }
  void release(std::size_t slot) {
    std::lock_guard<std::mutex> lock(mu);
    taken[slot] = false;
  }
};

/// Never destroyed: threads may exit after static destruction began.
SlotTable& slot_table() {
  static SlotTable* table = new SlotTable;
  return *table;
}

struct ThreadSlot {
  std::size_t index = slot_table().acquire();
  ~ThreadSlot() {
    // Past every owned shard: an update from a later thread_local
    // destructor goes to the shared shard, not the released one.
    tls_slot = SIZE_MAX - 1;
    slot_table().release(index);
  }
};

}  // namespace

constinit thread_local std::size_t tls_slot = SIZE_MAX;

std::size_t assign_slot() {
  thread_local const ThreadSlot slot;
  tls_slot = slot.index;
  return slot.index;
}

}  // namespace detail

std::vector<const Histogram*> Histogram::sources() const {
  std::lock_guard<std::mutex> lock(parts_mu_);
  std::vector<const Histogram*> out = parts_;
  out.push_back(this);
  return out;
}

void Histogram::include(const Histogram& part) {
  std::lock_guard<std::mutex> lock(parts_mu_);
  if (std::find(parts_.begin(), parts_.end(), &part) == parts_.end())
    parts_.push_back(&part);
}

std::uint64_t Histogram::count() const {
  std::uint64_t n = 0;
  for (const Histogram* h : sources())
    for (std::size_t i = 0; i <= kShardCount; ++i)
      n += h->shards_[i].count.load(std::memory_order_relaxed);
  return n;
}

std::uint64_t Histogram::sum() const {
  std::uint64_t s = 0;
  for (const Histogram* h : sources())
    for (std::size_t i = 0; i <= kShardCount; ++i)
      s += h->shards_[i].sum.load(std::memory_order_relaxed);
  return s;
}

double Histogram::percentile(double q) const {
  // Merge the shards into one snapshot; totals derived from the merged
  // buckets so rank and cumulative walk agree even while writers race.
  std::vector<std::uint64_t> merged(kBuckets, 0);
  std::uint64_t total = 0;
  for (const Histogram* h : sources())
    for (std::size_t i = 0; i <= kShardCount; ++i)
      for (std::size_t b = 0; b < kBuckets; ++b) {
        const std::uint64_t n =
            h->shards_[i].buckets[b].load(std::memory_order_relaxed);
        merged[b] += n;
        total += n;
      }
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
  if (rank == 0) rank = 1;
  if (rank > total) rank = total;
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    cum += merged[b];
    if (cum >= rank) return static_cast<double>(bucket_upper(b));
  }
  return static_cast<double>(bucket_upper(kBuckets - 1));
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (gauges_.count(name) || histograms_.count(name))
    throw std::logic_error("obs: instrument kind mismatch for " + name);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (counters_.count(name) || histograms_.count(name))
    throw std::logic_error("obs: instrument kind mismatch for " + name);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (counters_.count(name) || gauges_.count(name))
    throw std::logic_error("obs: instrument kind mismatch for " + name);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

namespace {

/// Deterministic number rendering: integral doubles (all gauge and
/// percentile values in practice) print without a decimal point; the
/// rest use the shortest rendering that parses back exactly — the same
/// rule as the API codec's format_num, so a registry JSON embedded in a
/// response survives a parse/re-dump round trip byte for byte.
void append_num(std::string* out, double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.2e18) {
    std::snprintf(buf, sizeof buf, "%" PRId64, static_cast<std::int64_t>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.15g", v);
    if (std::strtod(buf, nullptr) != v)
      std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  *out += buf;
}

void append_u64(std::string* out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  *out += buf;
}

}  // namespace

Exposition Registry::exposition() const {
  std::lock_guard<std::mutex> lock(mu_);
  Exposition e;
  for (const auto& [name, c] : counters_) e.counters.emplace(name, c->value());
  for (const auto& [name, g] : gauges_) e.gauges.emplace(name, g->value());
  for (const auto& [name, h] : histograms_)
    e.histograms.emplace(
        name, Exposition::Summary{h->count(), h->sum(), h->percentile(0.50),
                                  h->percentile(0.95), h->percentile(0.99)});
  return e;
}

void Exposition::merge(const Exposition& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, v] : other.gauges) gauges[name] += v;
  for (const auto& [name, o] : other.histograms) {
    Summary& h = histograms[name];
    h.count += o.count;
    h.sum += o.sum;
    h.p50 = std::max(h.p50, o.p50);
    h.p95 = std::max(h.p95, o.p95);
    h.p99 = std::max(h.p99, o.p99);
  }
}

std::string Exposition::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":";
    append_u64(&out, v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":";
    append_num(&out, v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":{\"count\":";
    append_u64(&out, h.count);
    out += ",\"sum\":";
    append_u64(&out, h.sum);
    out += ",\"p50\":";
    append_num(&out, h.p50);
    out += ",\"p95\":";
    append_num(&out, h.p95);
    out += ",\"p99\":";
    append_num(&out, h.p99);
    out += '}';
  }
  out += "}}";
  return out;
}

std::string Exposition::to_prometheus() const {
  std::string out;
  for (const auto& [name, v] : counters) {
    out += "# TYPE " + name + " counter\n" + name + ' ';
    append_u64(&out, v);
    out += '\n';
  }
  for (const auto& [name, v] : gauges) {
    out += "# TYPE " + name + " gauge\n" + name + ' ';
    append_num(&out, v);
    out += '\n';
  }
  for (const auto& [name, h] : histograms) {
    out += "# TYPE " + name + " summary\n";
    const double qs[] = {h.p50, h.p95, h.p99};
    const char* labels[] = {"0.5", "0.95", "0.99"};
    for (int i = 0; i < 3; ++i) {
      out += name + "{quantile=\"" + labels[i] + "\"} ";
      append_num(&out, qs[i]);
      out += '\n';
    }
    out += name + "_sum ";
    append_u64(&out, h.sum);
    out += '\n';
    out += name + "_count ";
    append_u64(&out, h.count);
    out += '\n';
  }
  return out;
}

}  // namespace atcd::obs
