#include "workload.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "api/json.hpp"
#include "at/parser.hpp"
#include "suite/suite.hpp"
#include "util/rng.hpp"

namespace perfbench {

using atcd::Rng;
namespace api = atcd::api;

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "warm_hits") return Workload::WarmHits;
  if (name == "cold_solves") return Workload::ColdSolves;
  if (name == "edit_sessions") return Workload::EditSessions;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::WarmHits: return "warm_hits";
    case Workload::ColdSolves: return "cold_solves";
    case Workload::EditSessions: return "edit_sessions";
  }
  return "?";
}

Scale Scale::tiny() {
  Scale s;
  s.pool_models = 8;
  s.pool_variants = 2;
  s.model_nodes = 30;
  s.session_nodes = 40;
  s.sessions = 2;
  s.cache_entries = 64;
  s.warmup_requests = 16;
  s.setup_boots = 2;
  s.trace_requests = 200;
  s.bilp_samples = 2;
  return s;
}

namespace {

/// 64-bit mix of a few values (splitmix64 finalizer chain); derives the
/// per-model and per-line seeds from the workload seed.
std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0) {
  auto fin = [](std::uint64_t z) {
    z += 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  return fin(fin(fin(a) ^ b) ^ c);
}

/// One generated model: its text plus the decoration facts the request
/// generators need (bounds are drawn relative to them).
struct Model {
  std::string text;
  std::vector<std::string> bas_names;
  double total_cost = 0.0;    ///< sum of BAS costs
  double total_damage = 0.0;  ///< sum of node damages (the maximum)
};

/// Model family tags: every family draws from its own seed space, so a
/// cold model is never one the snapshot has seen.
enum class Family : std::uint64_t { Pool = 1, Filler = 2, Cold = 3, Session = 4 };

Model make_model(std::uint64_t seed, Family family, std::uint64_t index,
                 std::size_t nodes) {
  atcd::suite::ModelSpec spec;
  spec.kind = atcd::suite::ModelSpec::Kind::Gen;
  spec.treelike = true;
  spec.size = nodes;
  Model m;
  // The generator stops at the first block combination reaching the
  // size target and can overshoot it by a whole block (up to 25 nodes);
  // redrawing until the model lands within 10% of the target keeps the
  // per-request work, and so the run-to-run spread, narrow.
  for (std::uint64_t attempt = 0;; ++attempt) {
    spec.seed = mix(seed, static_cast<std::uint64_t>(family),
                    index * 1024 + attempt);
    std::string err;
    if (!atcd::suite::materialize_model(spec, "", &m.text, &err))
      throw std::runtime_error("model generation failed: " + err);
    // One line per node plus the root line.
    const auto count =
        static_cast<std::size_t>(std::count(m.text.begin(), m.text.end(), '\n'));
    if (count - 1 <= nodes + nodes / 10 || attempt >= 1000) break;
  }
  const atcd::ParsedModel p = atcd::parse_model(m.text);
  for (const atcd::NodeId v : p.tree.bas_ids())
    m.bas_names.push_back(p.tree.name(v));
  m.total_cost = std::accumulate(p.cost.begin(), p.cost.end(), 0.0);
  m.total_damage = std::accumulate(p.damage.begin(), p.damage.end(), 0.0);
  return m;
}

/// The same model with every node renamed and every gate's children
/// shuffled: canonically identical, textually different.
std::string permute_model(const std::string& text, std::uint64_t seed) {
  const atcd::ParsedModel p = atcd::parse_model(text);
  const atcd::AttackTree& t = p.tree;
  Rng rng(seed);
  std::vector<std::size_t> names(t.node_count());
  std::iota(names.begin(), names.end(), 0);
  std::shuffle(names.begin(), names.end(), rng);

  atcd::AttackTree out;
  std::vector<atcd::NodeId> map(t.node_count());
  // Post-order from the root with shuffled child order: children exist
  // before their gate, and the serialized line order changes too.
  const auto build = [&](const auto& self, atcd::NodeId v) -> atcd::NodeId {
    const std::string name = "n" + std::to_string(names[v]);
    if (t.is_bas(v)) return map[v] = out.add_bas(name);
    std::vector<atcd::NodeId> kids = t.children(v);
    std::shuffle(kids.begin(), kids.end(), rng);
    std::vector<atcd::NodeId> built;
    for (const atcd::NodeId c : kids) built.push_back(self(self, c));
    return map[v] = out.add_gate(t.type(v), name, std::move(built));
  };
  out.set_root(build(build, t.root()));
  out.finalize();

  std::vector<double> cost(out.bas_count()), prob(out.bas_count());
  std::vector<double> damage(out.node_count());
  for (atcd::NodeId v = 0; v < t.node_count(); ++v) {
    damage[map[v]] = p.damage[v];
    if (t.is_bas(v)) {
      cost[out.bas_index(map[v])] = p.cost[t.bas_index(v)];
      prob[out.bas_index(map[v])] = p.prob[t.bas_index(v)];
    }
  }
  return atcd::serialize_model(out, cost, damage, &prob);
}

constexpr const char* kIdSlot = "@ID@";

/// Encodes \p req with a placeholder id; with_id() splices real ids in
/// without re-escaping the model text.
std::string encode_template(api::Operation op) {
  api::Request req;
  req.id = kIdSlot;
  req.op = std::move(op);
  return api::encode_request(req);
}

std::string with_id(const std::string& tmpl, const std::string& id) {
  const std::size_t at = tmpl.find(kIdSlot);
  std::string out;
  out.reserve(tmpl.size() + id.size());
  out.append(tmpl, 0, at);
  out += id;
  out.append(tmpl, at + 4, std::string::npos);
  return out;
}

api::SolveSpec spec_of(const char* problem, std::optional<double> bound,
                       const std::string& model, const std::string& engine) {
  api::SolveSpec s;
  s.problem = *api::parse_problem(problem);
  s.has_bound = bound.has_value();
  s.bound = bound.value_or(0.0);
  s.engine = engine;
  s.model = model;
  return s;
}

std::string line_id(std::uint64_t k) { return "r" + std::to_string(k); }

/// The warm pool's three DgC budgets, as shares of the model's total
/// BAS cost.
constexpr double kPoolBudgets[] = {0.25, 0.4, 0.55};

std::string pool_template(const std::string& model, std::size_t spec) {
  const atcd::ParsedModel p = atcd::parse_model(model);
  const double total = std::accumulate(p.cost.begin(), p.cost.end(), 0.0);
  if (spec == 0)
    return encode_template(api::SolveRequest{spec_of("cdpf", {}, model, {})});
  return encode_template(api::SolveRequest{spec_of(
      "dgc", std::round(kPoolBudgets[spec - 1] * total), model, {})});
}

constexpr std::size_t kPoolSpecs = 4;  // cdpf + three dgc budgets

std::string solve_line(const std::string& id, const char* problem,
                       std::optional<double> bound, const std::string& model,
                       const std::string& engine = {}) {
  api::Request req;
  req.id = id;
  req.op = api::SolveRequest{spec_of(problem, bound, model, engine)};
  return api::encode_request(req);
}

std::string open_line(const std::string& id, const char* problem, double bound,
                      const std::string& model) {
  api::Request req;
  req.id = id;
  req.op = api::SessionOpenRequest{spec_of(problem, bound, model, {})};
  return api::encode_request(req);
}

/// The problem every edit session runs, and its budget.
constexpr const char* kSessionProblem = "dgc";

double session_bound(const Model& m) { return std::round(0.4 * m.total_cost); }

/// warm_hits: 64 pool models, cdpf : dgc = 1 : 3, a quarter of the
/// requests renamed/reordered resubmissions.
class WarmStream final : public Stream {
 public:
  WarmStream(std::uint64_t seed, const Scale& scale) : seed_(seed) {
    for (std::size_t i = 0; i < scale.pool_models; ++i) {
      const Model m =
          make_model(seed, Family::Pool, i, scale.model_nodes);
      std::vector<std::string> texts{m.text};
      for (std::size_t v = 1; v <= scale.pool_variants; ++v)
        texts.push_back(permute_model(m.text, mix(seed, 0x9E7, i * 64 + v)));
      auto& per_model = templates_.emplace_back();
      for (std::size_t s = 0; s < kPoolSpecs; ++s) {
        auto& per_spec = per_model.emplace_back();
        for (const std::string& text : texts)
          per_spec.push_back(pool_template(text, s));
      }
    }
  }

  std::string line(std::uint64_t k) const override {
    Rng rng(mix(seed_, 0x57A3, k));
    const auto& model = templates_[rng.below(templates_.size())];
    const std::size_t spec = rng.chance(0.25) ? 0 : 1 + rng.below(3);
    const auto& variants = model[spec];
    const std::size_t variant =
        rng.chance(0.25) ? 1 + rng.below(variants.size() - 1) : 0;
    return with_id(variants[variant], line_id(k));
  }

 private:
  std::uint64_t seed_;
  /// [model][spec][variant] request templates.
  std::vector<std::vector<std::vector<std::string>>> templates_;
};

/// cold_solves: every line a never-seen model; dgc and cgd alternate.
class ColdStream final : public Stream {
 public:
  ColdStream(std::uint64_t seed, const Scale& scale)
      : seed_(seed), nodes_(scale.model_nodes) {}

  bool costly() const override { return true; }

  std::string line(std::uint64_t k) const override {
    const Model m = make_model(seed_, Family::Cold, k, nodes_);
    Rng rng(mix(seed_, 0xC01D, k));
    if (k % 2 == 0)
      return solve_line(line_id(k), "dgc",
                        std::round(rng.uniform(0.2, 0.5) * m.total_cost),
                        m.text);
    return solve_line(line_id(k), "cgd",
                      std::round(rng.uniform(0.2, 0.6) * m.total_damage),
                      m.text);
  }

 private:
  std::uint64_t seed_;
  std::size_t nodes_;
};

/// edit_sessions: set-cost on a random BAS, then resolve, round-robin
/// over the sessions opened at set-up.
class EditStream final : public Stream {
 public:
  EditStream(std::uint64_t seed, const Scale& scale) : seed_(seed) {
    for (std::size_t s = 0; s < scale.sessions; ++s)
      models_.push_back(
          make_model(seed, Family::Session, s, scale.session_nodes));
  }

  std::vector<std::string> setup_lines() const override {
    std::vector<std::string> out;
    for (std::size_t s = 0; s < models_.size(); ++s)
      out.push_back(open_line("open" + std::to_string(s), kSessionProblem,
                              session_bound(models_[s]), models_[s].text));
    return out;
  }

  std::size_t shard_key(std::uint64_t k) const override {
    return (k / 2) % models_.size();
  }
  bool stateful() const override { return true; }
  /// An edit and the resolve that shows its effect are one interaction:
  /// timed apart, the latency distribution has two modes (an edit costs
  /// a tenth of a resolve) and its median falls on the gap between them.
  std::size_t group() const override { return 2; }

  std::string line(std::uint64_t k) const override {
    const std::size_t s = shard_key(k);
    api::Request req;
    req.id = line_id(k);
    // Session ids are allocation-ordered from 1, and the opens are the
    // first session operations on every fresh stack.
    const std::uint64_t session = s + 1;
    if (k % 2 == 0) {
      Rng rng(mix(seed_, 0xED17, k));
      api::SessionEditRequest e;
      e.session = session;
      e.op = api::EditOp::SetCost;
      e.target = models_[s].bas_names[rng.below(models_[s].bas_names.size())];
      e.value = static_cast<double>(rng.range(1, 10));
      req.op = std::move(e);
    } else {
      req.op = api::SessionResolveRequest{session};
    }
    return api::encode_request(req);
  }

 private:
  std::uint64_t seed_;
  std::vector<Model> models_;
};
}  // namespace

std::string stats_line(const std::string& id) {
  api::Request req;
  req.id = id;
  req.op = api::StatsRequest{};
  return api::encode_request(req);
}

std::string metrics_line(const std::string& id) {
  api::Request req;
  req.id = id;
  req.op = api::MetricsRequest{};
  return api::encode_request(req);
}

std::unique_ptr<Stream> make_stream(Workload w, std::uint64_t seed,
                                    const Scale& scale) {
  switch (w) {
    case Workload::WarmHits: return std::make_unique<WarmStream>(seed, scale);
    case Workload::ColdSolves: return std::make_unique<ColdStream>(seed, scale);
    case Workload::EditSessions:
      return std::make_unique<EditStream>(seed, scale);
  }
  return nullptr;
}

std::vector<std::string> generate_lines(const Stream& stream, std::uint64_t first,
                                        std::size_t count, unsigned threads) {
  std::vector<std::string> out(count);
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < count; i = next++) out[i] = stream.line(first + i);
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) pool.emplace_back(worker);
  for (std::thread& th : pool) th.join();
  return out;
}

PrepLines prep_lines(std::uint64_t seed, const Scale& scale, unsigned threads) {
  PrepLines out;
  // Two entries per filler model (a dgc and a cgd key), enough to reach
  // the entry budget before the pool goes in.
  const std::size_t fillers = (scale.cache_entries + 1) / 2;
  out.fillers.resize(2 * fillers);
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t j = next++; j < fillers; j = next++) {
      const Model m = make_model(seed, Family::Filler, j, scale.model_nodes);
      out.fillers[2 * j] = solve_line("f" + std::to_string(2 * j), "dgc",
                                      std::round(0.4 * m.total_cost), m.text);
      out.fillers[2 * j + 1] = solve_line("f" + std::to_string(2 * j + 1), "cgd",
                                          std::round(0.4 * m.total_damage), m.text);
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) pool.emplace_back(worker);
  for (std::thread& th : pool) th.join();
  for (std::size_t i = 0; i < scale.pool_models; ++i) {
    const Model m = make_model(seed, Family::Pool, i, scale.model_nodes);
    for (std::size_t s = 0; s < kPoolSpecs; ++s)
      out.pool.push_back(with_id(pool_template(m.text, s),
                                 "p" + std::to_string(i * kPoolSpecs + s)));
  }
  return out;
}

std::vector<std::uint64_t> bilp_sample(std::uint64_t seed, std::uint64_t sent,
                                       std::size_t count) {
  std::vector<std::uint64_t> out;
  if (sent == 0) return out;
  Rng rng(mix(seed, 0xB11B));
  while (out.size() < std::min<std::uint64_t>(count, sent)) {
    const std::uint64_t k = rng.below(sent);
    if (std::find(out.begin(), out.end(), k) == out.end()) out.push_back(k);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace perfbench
