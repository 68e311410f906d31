/// Tests for the solve-service subsystem (src/service/): canonical model
/// hashing, the sharded LRU result cache (eviction order, byte budget,
/// shard independence, collision safety), the SolveService front door
/// (cache hits for repeated and isomorphic-permuted submissions,
/// in-flight coalescing), a JSON serving session over the service, and
/// the parser round-trip property wired through the canonical hash.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "api/json.hpp"
#include "api/server.hpp"
#include "at/parser.hpp"
#include "casestudies/factory.hpp"
#include "gen/random_at.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"
#include "service/cache.hpp"
#include "service/canon.hpp"
#include "service/service.hpp"

namespace atcd {
namespace {

using engine::Problem;
using service::CacheKey;
using service::canonical_hash;
using service::equal_canonical;
using service::Request;
using service::Response;
using service::ResultCache;
using service::SolveService;

// ---------------------------------------------------------------------------
// Canonical hashing.
// ---------------------------------------------------------------------------

CdAt small_model(const char* text) {
  const ParsedModel p = parse_model(text);
  return CdAt{p.tree, p.cost, p.damage};
}

CdpAt small_prob_model(const char* text) {
  const ParsedModel p = parse_model(text);
  return CdpAt{p.tree, p.cost, p.damage, p.prob};
}

constexpr const char* kBase =
    "bas a cost=1 damage=2\n"
    "bas b cost=3\n"
    "bas c cost=2 damage=1\n"
    "and g = a, b\n"
    "or root = g, c damage=5\n";

TEST(Canon, PermutedChildrenAndRenamedNodesHashEqual) {
  const CdAt m = small_model(kBase);
  // Same model: children listed in the other order, all nodes renamed,
  // statements reordered where the grammar allows.
  const CdAt iso = small_model(
      "bas z2 cost=2 damage=1\n"
      "bas z0 cost=1 damage=2\n"
      "bas z1 cost=3\n"
      "and h = z1, z0\n"
      "or top = z2, h damage=5\n");
  EXPECT_EQ(canonical_hash(m), canonical_hash(iso));
  EXPECT_TRUE(equal_canonical(m, iso));
}

TEST(Canon, DecorationsAndStructureAreSignificant) {
  const CdAt m = small_model(kBase);
  // Different cost on one BAS.
  const CdAt cost_changed = small_model(
      "bas a cost=7 damage=2\nbas b cost=3\nbas c cost=2 damage=1\n"
      "and g = a, b\nor root = g, c damage=5\n");
  // Gate type flipped.
  const CdAt gate_changed = small_model(
      "bas a cost=1 damage=2\nbas b cost=3\nbas c cost=2 damage=1\n"
      "or g = a, b\nor root = g, c damage=5\n");
  EXPECT_NE(canonical_hash(m), canonical_hash(cost_changed));
  EXPECT_NE(canonical_hash(m), canonical_hash(gate_changed));
  EXPECT_FALSE(equal_canonical(m, cost_changed));
  EXPECT_FALSE(equal_canonical(m, gate_changed));
}

TEST(Canon, SharingIsDistinguishedFromDuplication) {
  // DAG: one BAS `a` shared by both gates...
  const CdAt shared = small_model(
      "bas a cost=1\nbas b cost=2\nbas c cost=3\n"
      "and g1 = a, b\nand g2 = a, c\nor root = g1, g2\n");
  // ...vs two distinct BASs with identical decorations.
  const CdAt duplicated = small_model(
      "bas a1 cost=1\nbas a2 cost=1\nbas b cost=2\nbas c cost=3\n"
      "and g1 = a1, b\nand g2 = a2, c\nor root = g1, g2\n");
  EXPECT_NE(canonical_hash(shared), canonical_hash(duplicated));
  EXPECT_FALSE(equal_canonical(shared, duplicated));
}

TEST(Canon, DetAndProbKindsHashDifferently) {
  const char* text = "bas a cost=1\nbas b cost=2\nor root = a, b damage=3\n";
  const CdAt det = small_model(text);
  const CdpAt prob = small_prob_model(text);  // prob defaults to 1 everywhere
  EXPECT_NE(canonical_hash(det), canonical_hash(prob));
}

TEST(Canon, ProbabilityDecorationIsSignificant) {
  const CdpAt a = small_prob_model(
      "bas a cost=1 prob=0.5\nbas b cost=2\nor root = a, b damage=3\n");
  const CdpAt b = small_prob_model(
      "bas a cost=1 prob=0.9\nbas b cost=2\nor root = a, b damage=3\n");
  EXPECT_NE(canonical_hash(a), canonical_hash(b));
  EXPECT_FALSE(equal_canonical(a, b));
}

// Satellite: parser round-trip.  serialize_model() then parse_model()
// must reproduce an identical canonical model for generated random ATs.
TEST(Canon, ParserRoundTripPreservesCanonicalHash) {
  Rng rng(424242);
  gen::SuiteOptions opt;
  opt.max_n = 24;
  opt.per_size = 2;
  opt.treelike = false;  // TDAG exercises shared nodes too
  const auto suite = gen::make_suite(opt, rng);
  ASSERT_FALSE(suite.empty());
  for (const auto& entry : suite) {
    const CdpAt m = randomize_decorations(entry.tree, rng);
    const std::string text =
        serialize_model(m.tree, m.cost, m.damage, &m.prob);
    const ParsedModel back = parse_model(text);
    const CdpAt m2{back.tree, back.cost, back.damage, back.prob};
    ASSERT_EQ(canonical_hash(m), canonical_hash(m2))
        << "round-trip changed the canonical hash for:\n" << text;
    ASSERT_TRUE(equal_canonical(m, m2));
    // Deterministic view round-trips as well (prob attributes dropped).
    const CdAt d = m.deterministic();
    const ParsedModel back_d =
        parse_model(serialize_model(d.tree, d.cost, d.damage));
    ASSERT_EQ(canonical_hash(d),
              canonical_hash(CdAt{back_d.tree, back_d.cost, back_d.damage}));
  }
}

// ---------------------------------------------------------------------------
// Result cache.
// ---------------------------------------------------------------------------

engine::SolveResult dummy_result(const char* backend) {
  engine::SolveResult r;
  r.ok = true;
  r.backend = backend;
  r.attack.feasible = true;
  r.attack.cost = 1;
  r.attack.damage = 2;
  return r;
}

CacheKey key_for(const CdAt& m, Problem p = Problem::Dgc, double bound = 0,
                 std::string backend = {}) {
  return CacheKey{canonical_hash(m), p, bound, std::move(backend)};
}

TEST(Cache, LruEvictionOrder) {
  ResultCache::Config cfg;
  cfg.shards = 1;
  cfg.max_entries = 3;
  ResultCache cache(cfg);

  std::vector<std::shared_ptr<const CdAt>> models;
  Rng rng(7);
  for (int i = 0; i < 4; ++i)
    models.push_back(
        std::make_shared<CdAt>(atcd::testing::random_cdat(rng, 5, true)));

  // Insert A, B, C; touch A; insert D -> B (the LRU) is evicted.
  for (int i = 0; i < 3; ++i)
    cache.insert(key_for(*models[i]), models[i], nullptr,
                 dummy_result("bottom-up"));
  EXPECT_TRUE(cache.lookup(key_for(*models[0]), models[0].get(), nullptr)
                  .has_value());
  cache.insert(key_for(*models[3]), models[3], nullptr,
               dummy_result("bottom-up"));

  EXPECT_TRUE(cache.lookup(key_for(*models[0]), models[0].get(), nullptr));
  EXPECT_FALSE(cache.lookup(key_for(*models[1]), models[1].get(), nullptr));
  EXPECT_TRUE(cache.lookup(key_for(*models[2]), models[2].get(), nullptr));
  EXPECT_TRUE(cache.lookup(key_for(*models[3]), models[3].get(), nullptr));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 3u);
}

TEST(Cache, ByteBudgetIsEnforced) {
  Rng rng(11);
  const auto model =
      std::make_shared<CdAt>(atcd::testing::random_cdat(rng, 6, true));
  // Size one entry (same model under every key, so all entries weigh the
  // same), then budget for exactly 2.5 of them.
  ResultCache::Config probe_cfg;
  probe_cfg.shards = 1;
  ResultCache sizing(probe_cfg);
  sizing.insert(key_for(*model, Problem::Dgc, 0.0), model, nullptr,
                dummy_result("x"));
  const std::size_t per_entry = sizing.stats().bytes;
  ASSERT_GT(per_entry, 0u);

  ResultCache::Config cfg;
  cfg.shards = 1;
  cfg.max_entries = 100;  // entry budget not the binding constraint
  cfg.max_bytes = per_entry * 2 + per_entry / 2;
  ResultCache cache(cfg);
  for (int i = 0; i < 5; ++i)  // distinct keys via the bound component
    cache.insert(key_for(*model, Problem::Dgc, 1.0 + i), model, nullptr,
                 dummy_result("x"));
  const auto s = cache.stats();
  EXPECT_LE(s.bytes, cfg.max_bytes);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.evictions, 3u);

  // An entry bigger than the whole budget is rejected outright.
  ResultCache::Config tiny;
  tiny.shards = 1;
  tiny.max_bytes = 16;
  ResultCache tiny_cache(tiny);
  tiny_cache.insert(key_for(*model), model, nullptr, dummy_result("x"));
  EXPECT_EQ(tiny_cache.stats().entries, 0u);
}

TEST(Cache, ShardsEvictIndependently) {
  ResultCache::Config cfg;
  cfg.shards = 4;
  cfg.max_entries = 8;  // 2 per shard
  ResultCache cache(cfg);

  Rng rng(13);
  std::vector<std::shared_ptr<const CdAt>> models;
  std::vector<CacheKey> keys;
  // Collect 3 models landing on one shard and 2 on a different shard.
  std::size_t shard_a = SIZE_MAX, shard_b = SIZE_MAX;
  std::vector<std::size_t> in_a, in_b;
  while (in_a.size() < 3 || in_b.size() < 2) {
    auto m = std::make_shared<CdAt>(
        atcd::testing::random_cdat(rng, 5, rng.chance(0.5)));
    const CacheKey k = key_for(*m);
    const std::size_t s = cache.shard_index(k);
    if (shard_a == SIZE_MAX) shard_a = s;
    if (s == shard_a && in_a.size() < 3) {
      in_a.push_back(models.size());
    } else if (s != shard_a) {
      if (shard_b == SIZE_MAX) shard_b = s;
      if (s == shard_b && in_b.size() < 2)
        in_b.push_back(models.size());
      else
        continue;
    } else {
      continue;
    }
    models.push_back(std::move(m));
    keys.push_back(k);
  }

  // Fill shard B first, then overflow shard A: shard B's entries survive.
  for (std::size_t i : in_b)
    cache.insert(keys[i], models[i], nullptr, dummy_result("x"));
  for (std::size_t i : in_a)
    cache.insert(keys[i], models[i], nullptr, dummy_result("x"));

  EXPECT_EQ(cache.stats().evictions, 1u);  // only shard A overflowed
  for (std::size_t i : in_b)
    EXPECT_TRUE(cache.lookup(keys[i], models[i].get(), nullptr))
        << "shard-B entry evicted by shard-A pressure";
  // The first shard-A insert is the one LRU evicted.
  EXPECT_FALSE(cache.lookup(keys[in_a[0]], models[in_a[0]].get(), nullptr));
  EXPECT_TRUE(cache.lookup(keys[in_a[1]], models[in_a[1]].get(), nullptr));
  EXPECT_TRUE(cache.lookup(keys[in_a[2]], models[in_a[2]].get(), nullptr));
}

TEST(Cache, ForcedHashCollisionNeverServesTheWrongResult) {
  Rng rng(17);
  const auto a =
      std::make_shared<CdAt>(atcd::testing::random_cdat(rng, 5, true));
  const auto b =
      std::make_shared<CdAt>(atcd::testing::random_cdat(rng, 6, true));
  ASSERT_FALSE(equal_canonical(*a, *b));

  // Force both models onto one key, as if canonical_hash() collided.
  CacheKey forced{0xDEADBEEFull, Problem::Dgc, 5.0, ""};
  ResultCache::Config cfg;
  cfg.shards = 1;
  ResultCache cache(cfg);
  cache.insert(forced, a, nullptr, dummy_result("model-a-result"));

  // Lookup with model B on the colliding key: the deep check must refuse
  // to serve model A's result.
  const auto r = cache.lookup(forced, b.get(), nullptr);
  EXPECT_FALSE(r.has_value());
  EXPECT_EQ(cache.stats().collisions, 1u);

  // Insert for model B under the same key: the incumbent is kept, and
  // model A still gets its own (correct) result.
  cache.insert(forced, b, nullptr, dummy_result("model-b-result"));
  const auto ra = cache.lookup(forced, a.get(), nullptr);
  ASSERT_TRUE(ra.has_value());
  EXPECT_EQ(ra->backend, "model-a-result");
}

// ---------------------------------------------------------------------------
// SolveService.
// ---------------------------------------------------------------------------

void expect_identical(const engine::SolveResult& a,
                      const engine::SolveResult& b) {
  ASSERT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.backend, b.backend);
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    EXPECT_EQ(a.front[i].value, b.front[i].value);
    EXPECT_EQ(a.front[i].witness, b.front[i].witness);
  }
  EXPECT_EQ(a.attack.feasible, b.attack.feasible);
  EXPECT_EQ(a.attack.cost, b.attack.cost);
  EXPECT_EQ(a.attack.damage, b.attack.damage);
  EXPECT_EQ(a.attack.witness, b.attack.witness);
}

TEST(Service, RepeatedSubmissionsHitTheCache) {
  SolveService svc;
  const CdAt factory = casestudies::make_factory();
  const Request req = Request::of(Problem::Cdpf, factory);

  // Reference: an uncached engine solve.
  const auto uncached =
      engine::solve_one(engine::Instance::of(Problem::Cdpf, factory));
  ASSERT_TRUE(uncached.ok);

  const Response first = svc.handle(req);
  ASSERT_TRUE(first.result.ok);
  EXPECT_FALSE(first.cache_hit);
  const Response second = svc.handle(req);
  ASSERT_TRUE(second.result.ok);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(svc.cache().stats().hits, 1u);

  expect_identical(first.result, uncached);
  expect_identical(second.result, uncached);
}

TEST(Service, IsomorphicPermutedSubmissionHitsTheCache) {
  SolveService svc;
  // The same DAG model submitted twice: different node names, different
  // statement order, permuted child lists.
  const Response a = svc.handle(Request::of_text(
      Problem::Cdpf,
      "bas pick cost=1 damage=2\nbas drill cost=4\nbas bribe cost=3\n"
      "and two = pick, drill\nor top = two, bribe damage=9\n"));
  const Response b = svc.handle(Request::of_text(
      Problem::Cdpf,
      "bas x3 cost=3\nbas x1 cost=4\nbas x0 cost=1 damage=2\n"
      "and inner = x1, x0\nor r = x3, inner damage=9\n"));
  ASSERT_TRUE(a.result.ok);
  ASSERT_TRUE(b.result.ok);
  EXPECT_EQ(a.model_hash, b.model_hash);
  EXPECT_FALSE(a.cache_hit);
  EXPECT_TRUE(b.cache_hit);
  ASSERT_EQ(a.result.front.size(), b.result.front.size());
  for (std::size_t i = 0; i < a.result.front.size(); ++i) {
    EXPECT_EQ(a.result.front[i].value, b.result.front[i].value);
    // The served witnesses must be valid in the *second* submission's
    // BAS indexing: evaluating them under its model reproduces the
    // point values exactly.
    const auto& p = b.result.front[i];
    EXPECT_EQ(total_cost(*b.det, p.witness), p.value.cost);
    EXPECT_EQ(total_damage(*b.det, p.witness), p.value.damage);
  }
}

TEST(Service, CachedWitnessesAreTranslatedIntoTheProbesIndexing) {
  // Regression: the cached entry's witnesses are indexed by *its* BAS
  // creation order.  Submit a model whose resubmission swaps the two BAS
  // statements; serving the stored bitset verbatim would name the
  // expensive leaf instead of the cheap one.
  SolveService svc;
  const Response a = svc.handle(Request::of_text(
      Problem::Dgc,
      "bas cheap cost=1 damage=9\nbas pricey cost=8 damage=1\n"
      "or root = cheap, pricey\n",
      2.0));
  ASSERT_TRUE(a.result.ok);
  EXPECT_EQ(a.result.attack.cost, 1);
  EXPECT_EQ(a.result.attack.damage, 9);

  const Response b = svc.handle(Request::of_text(
      Problem::Dgc,
      "bas pricey cost=8 damage=1\nbas cheap cost=1 damage=9\n"
      "or root = cheap, pricey\n",
      2.0));
  ASSERT_TRUE(b.result.ok);
  EXPECT_TRUE(b.cache_hit);
  EXPECT_EQ(b.result.attack.cost, 1);
  EXPECT_EQ(b.result.attack.damage, 9);
  // In the second submission "cheap" has BAS index 1, not 0.
  const auto cheap = b.det->tree.find("cheap");
  ASSERT_TRUE(cheap.has_value());
  EXPECT_TRUE(b.result.attack.witness.test(b.det->tree.bas_index(*cheap)));
  EXPECT_EQ(b.result.attack.witness.count(), 1u);
  EXPECT_EQ(total_cost(*b.det, b.result.attack.witness), 1);
  EXPECT_EQ(total_damage(*b.det, b.result.attack.witness), 9);
}

TEST(Service, NonFiniteBoundsBypassTheCache) {
  SolveService svc;
  const CdAt factory = casestudies::make_factory();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Response a = svc.handle(Request::of(Problem::Dgc, factory, nan));
  const Response b = svc.handle(Request::of(Problem::Dgc, factory, nan));
  EXPECT_FALSE(a.cache_hit);
  EXPECT_FALSE(b.cache_hit);
  // NaN keys never enter the cache (NaN != NaN would make them
  // unfindable and unevictable).
  EXPECT_EQ(svc.cache().stats().entries, 0u);
  EXPECT_EQ(svc.cache().stats().insertions, 0u);
}

TEST(Service, DifferentBoundsAndEnginesDoNotShareEntries) {
  SolveService svc;
  const CdAt factory = casestudies::make_factory();
  const Response a = svc.handle(Request::of(Problem::Dgc, factory, 2.0));
  const Response b = svc.handle(Request::of(Problem::Dgc, factory, 3.0));
  ASSERT_TRUE(a.result.ok);
  ASSERT_TRUE(b.result.ok);
  EXPECT_FALSE(b.cache_hit);
  const Response c =
      svc.handle(Request::of(Problem::Cdpf, factory, 0.0, "enumerative"));
  const Response d = svc.handle(Request::of(Problem::Cdpf, factory));
  ASSERT_TRUE(c.result.ok);
  ASSERT_TRUE(d.result.ok);
  EXPECT_FALSE(d.cache_hit);  // auto-selection is a distinct key
  // But front problems ignore the bound: same key regardless of bound.
  const Response e = svc.handle(Request::of(Problem::Cdpf, factory, 17.0));
  EXPECT_TRUE(e.cache_hit);
}

/// A deliberately slow backend that counts invocations — the coalescing
/// test's probe.
class CountingBackend : public engine::Backend {
 public:
  explicit CountingBackend(std::atomic<int>& calls) : calls_(calls) {}
  const char* name() const override { return "counting"; }
  engine::Capabilities capabilities() const override {
    engine::Capabilities c;
    c.tree_det = c.dag_det = c.tree_prob = c.dag_prob = true;
    return c;
  }
  Front2d cdpf(const CdAt& m, const engine::SolveContext&) const override {
    calls_.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return Front2d::of_candidates(
        {FrontPoint{{0.0, 0.0}, DynBitset(m.tree.bas_count())}});
  }

 private:
  std::atomic<int>& calls_;
};

TEST(Service, ConcurrentIdenticalRequestsCoalesceToOneSolve) {
  std::atomic<int> calls{0};
  engine::Registry registry;
  registry.add(std::make_shared<CountingBackend>(calls));

  SolveService::Options opt;
  opt.batch.registry = &registry;
  SolveService svc(opt);

  Rng rng(23);
  const CdAt model = atcd::testing::random_cdat(rng, 6, true);
  const Request req = Request::of(Problem::Cdpf, model, 0.0, "counting");

  constexpr int kThreads = 8;
  std::vector<Response> responses(kThreads);
  std::vector<std::thread> pool;
  for (int i = 0; i < kThreads; ++i)
    pool.emplace_back([&, i] { responses[i] = svc.handle(req); });
  for (auto& t : pool) t.join();

  EXPECT_EQ(calls.load(), 1) << "identical concurrent requests must "
                                "coalesce to a single backend invocation";
  int leaders = 0;
  for (const auto& r : responses) {
    ASSERT_TRUE(r.result.ok) << r.result.error;
    EXPECT_EQ(r.result.backend, "counting");
    expect_identical(r.result, responses[0].result);
    if (!r.cache_hit && !r.coalesced) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
}

TEST(Service, TextParseFailuresComeBackAsErrors) {
  SolveService svc;
  const Response r = svc.handle(
      Request::of_text(Problem::Cdpf, "bas a cost=1\nxyzzy b\n"));
  EXPECT_FALSE(r.result.ok);
  EXPECT_NE(r.result.error.find("line 2"), std::string::npos)
      << r.result.error;
}

// Satellite: solve_one validates the model/problem pairing up front.
TEST(Service, InstanceModelMismatchIsAClearError) {
  const CdAt det = casestudies::make_factory();
  const CdpAt prob = casestudies::make_factory_probabilistic();

  engine::Instance wrong_kind;  // det model on a probabilistic problem
  wrong_kind.problem = Problem::Edgc;
  wrong_kind.det = &det;
  auto r = engine::solve_one(wrong_kind);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("lacks a probabilistic model"), std::string::npos)
      << r.error;
  EXPECT_NE(r.error.find("deterministic model"), std::string::npos);

  engine::Instance wrong_kind2;  // prob model on a deterministic problem
  wrong_kind2.problem = Problem::Cgd;
  wrong_kind2.prob = &prob;
  r = engine::solve_one(wrong_kind2);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("lacks a deterministic model"), std::string::npos)
      << r.error;

  engine::Instance both;
  both.problem = Problem::Cdpf;
  both.det = &det;
  both.prob = &prob;
  r = engine::solve_one(both);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("both"), std::string::npos) << r.error;

  engine::Instance neither;
  neither.problem = Problem::Cdpf;
  r = engine::solve_one(neither);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("lacks a model"), std::string::npos) << r.error;

  // The service front door reports the same validation errors.
  SolveService svc;
  Request req;
  req.problem = Problem::Edgc;
  req.det = std::make_shared<CdAt>(det);
  const Response resp = svc.handle(req);
  EXPECT_FALSE(resp.result.ok);
  EXPECT_NE(resp.result.error.find("lacks a probabilistic model"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Exact-bytes aliases.
// ---------------------------------------------------------------------------

/// A service whose cache counters land in \p reg, with kBase resident
/// under (dgc, bound 4) and one canonical hit on it in \p hit.
struct AliasStack {
  explicit AliasStack(ResultCache::Config cfg = {}) : svc(options(cfg)) {
    EXPECT_TRUE(svc.handle(Request::of_text(Problem::Dgc, kBase, 4.0))
                    .result.ok);
    hit = svc.handle(Request::of_text(Problem::Dgc, kBase, 4.0));
    EXPECT_TRUE(hit.cache_hit);
    key = CacheKey{hit.model_hash, Problem::Dgc, 4.0, ""};
  }
  SolveService::Options options(ResultCache::Config cfg) {
    SolveService::Options opt;
    opt.cache = cfg;
    opt.metrics = &reg;
    return opt;
  }
  std::uint64_t count(const char* name) { return reg.counter(name).value(); }

  obs::Registry reg;
  SolveService svc;
  Response hit;
  CacheKey key;
};

TEST(ExactAlias, ServesOnlyByteIdenticalProbesAndCountsThemAsHits) {
  AliasStack st;
  ResultCache& cache = st.svc.cache();
  const std::size_t bytes = cache.stats().bytes;
  const std::uint64_t hits = st.count("atcd_result_cache_hits_total");
  const std::uint64_t misses = st.count("atcd_result_cache_misses_total");
  EXPECT_FALSE(cache.lookup_exact(Problem::Dgc, 4.0, "", kBase))
      << "a canonical hit alone attaches nothing";

  cache.attach_exact(st.key, kBase, st.hit.result, {"{a, b}"});
  EXPECT_GT(cache.stats().bytes, bytes) << "alias bytes are charged";
  const auto alias = cache.lookup_exact(Problem::Dgc, 4.0, "", kBase);
  ASSERT_TRUE(alias);
  EXPECT_EQ(alias->text, kBase);
  EXPECT_EQ(alias->key, st.key);
  EXPECT_EQ(alias->witnesses, std::vector<std::string>{"{a, b}"});
  EXPECT_EQ(alias->result->attack.cost, st.hit.result.attack.cost);
  EXPECT_EQ(alias->result->attack.damage, st.hit.result.attack.damage);

  // Any other byte, or any other key component, is not an exact hit.
  std::string digit = kBase;
  digit[digit.find("cost=3")] = 'C';
  for (const std::string& other :
       {std::string(kBase) + " ", std::string(" ") + kBase, digit})
    EXPECT_FALSE(cache.lookup_exact(Problem::Dgc, 4.0, "", other));
  EXPECT_FALSE(cache.lookup_exact(Problem::Dgc, 4.5, "", kBase));
  EXPECT_FALSE(cache.lookup_exact(Problem::Cgd, 4.0, "", kBase));
  EXPECT_FALSE(cache.lookup_exact(Problem::Dgc, 4.0, "bottom-up", kBase));
  EXPECT_FALSE(cache.lookup_exact(
      Problem::Dgc, std::numeric_limits<double>::infinity(), "", kBase));

  // The one served probe is a hit and an exact hit; misses never move.
  EXPECT_EQ(st.count("atcd_result_cache_hits_total"), hits + 1);
  EXPECT_EQ(st.count("atcd_result_cache_exact_hits_total"), 1u);
  EXPECT_EQ(st.count("atcd_result_cache_misses_total"), misses);
  EXPECT_EQ(cache.stats().hits, hits + 1);
}

TEST(ExactAlias, FrontProblemsIgnoreTheBoundLikeTheKey) {
  SolveService svc;
  ASSERT_TRUE(svc.handle(Request::of_text(Problem::Cdpf, kBase)).result.ok);
  const Response b = svc.handle(Request::of_text(Problem::Cdpf, kBase));
  ASSERT_TRUE(b.cache_hit);
  svc.cache().attach_exact({b.model_hash, Problem::Cdpf, 0.0, ""}, kBase,
                           b.result,
                           std::vector<std::string>(b.result.front.size()));
  EXPECT_TRUE(svc.cache().lookup_exact(Problem::Cdpf, 7.0, "", kBase));
  EXPECT_TRUE(svc.cache().lookup_exact(Problem::Cdpf, -0.0, "", kBase));
}

TEST(ExactAlias, AttachRefusesStaleMissingAndSurplusAliases) {
  AliasStack st;
  ResultCache& cache = st.svc.cache();
  // Values other than the entry's (as if it was re-solved meanwhile).
  engine::SolveResult stale = st.hit.result;
  stale.attack.cost += 1.0;
  cache.attach_exact(st.key, kBase, stale, {"{a, b}"});
  EXPECT_FALSE(cache.lookup_exact(Problem::Dgc, 4.0, "", kBase));
  // No entry under the key.
  CacheKey absent = st.key;
  absent.bound = 9.0;
  cache.attach_exact(absent, kBase, st.hit.result, {"{a, b}"});
  EXPECT_FALSE(cache.lookup_exact(Problem::Dgc, 9.0, "", kBase));
  // At most kMaxAliasesPerEntry spellings per entry: one more replaces
  // the oldest, and its bytes go with it.
  const std::size_t cap = ResultCache::kMaxAliasesPerEntry;
  for (std::size_t i = 0; i < cap; ++i)
    cache.attach_exact(st.key, kBase + std::string(i, '\n'), st.hit.result,
                       {"{a, b}"});
  const std::size_t full_bytes = cache.stats().bytes;
  cache.attach_exact(st.key, kBase + std::string(cap, '\n'), st.hit.result,
                     {"{a, b}"});
  EXPECT_EQ(cache.stats().bytes, full_bytes + cap)
      << "the replacement is cap bytes longer than the dropped alias";
  for (std::size_t i = 0; i <= cap; ++i)
    EXPECT_EQ(static_cast<bool>(cache.lookup_exact(
                  Problem::Dgc, 4.0, "", kBase + std::string(i, '\n'))),
              i > 0)
        << i;
  // An alias larger than the shard's byte budget is not attached.
  ResultCache::Config small;
  small.shards = 1;
  small.max_bytes = st.svc.cache().stats().bytes * 2;
  AliasStack tight(small);
  tight.svc.cache().attach_exact(tight.key, kBase, tight.hit.result,
                                 {std::string(small.max_bytes, 'w')});
  EXPECT_FALSE(tight.svc.cache().lookup_exact(Problem::Dgc, 4.0, "", kBase));
  EXPECT_EQ(tight.svc.cache().stats().entries, 1u);
}

TEST(ExactAlias, TheOriginalSpellingGetsAnAliasAfterRenamedOnesFillTheCap) {
  // A model first, then eight renamed spellings of it (each a canonical
  // hit, each attaching an alias): the original's next canonical hit
  // still attaches one, so its third submission is an exact hit.
  obs::Registry reg;
  api::Dispatcher::Options opt;
  opt.metrics = &reg;
  api::Dispatcher d(opt);
  const auto solve = [&](const std::string& text) {
    api::Request r;
    r.op = api::SolveRequest{{Problem::Dgc, 4.0, true, "", text}};
    const api::Response resp = d.dispatch(r);
    EXPECT_EQ(resp.code, api::ErrorCode::Ok) << resp.error;
    return std::get<api::SolvePayload>(resp.payload).cache;
  };
  const std::string original = kBase;
  EXPECT_EQ(solve(original), "miss");
  for (std::size_t i = 0; i < ResultCache::kMaxAliasesPerEntry; ++i) {
    std::string renamed = original;
    for (std::size_t at = 0; (at = renamed.find("root", at)) != std::string::npos;
         at += 4)
      renamed.replace(at, 4, "r" + std::to_string(i) + "t");
    EXPECT_EQ(solve(renamed), "hit");
  }
  const auto exact = [&] {
    return reg.counter("atcd_result_cache_exact_hits_total").value();
  };
  EXPECT_EQ(exact(), 0u);
  EXPECT_EQ(solve(original), "hit");  // canonical: attaches its alias
  EXPECT_EQ(exact(), 0u);
  EXPECT_EQ(solve(original), "hit");
  EXPECT_EQ(exact(), 1u) << "the original's third submission is exact";
}

TEST(ExactAlias, EvictionAndClearDropAliases) {
  ResultCache::Config cfg;
  cfg.shards = 1;
  cfg.max_entries = 1;
  AliasStack st(cfg);
  ResultCache& cache = st.svc.cache();
  const std::size_t entry_bytes = cache.stats().bytes;
  cache.attach_exact(st.key, kBase, st.hit.result, {"{a, b}"});
  ASSERT_TRUE(cache.lookup_exact(Problem::Dgc, 4.0, "", kBase));

  // Another model takes the only slot: the entry and its alias go.
  ASSERT_TRUE(st.svc.handle(Request::of_text(Problem::Dgc, kBase, 5.0))
                  .result.ok);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.lookup_exact(Problem::Dgc, 4.0, "", kBase));
  EXPECT_EQ(cache.stats().bytes, entry_bytes);

  // clear() drops the aliases with the entries.
  const Response again =
      st.svc.handle(Request::of_text(Problem::Dgc, kBase, 5.0));
  ASSERT_TRUE(again.cache_hit);
  cache.attach_exact({again.model_hash, Problem::Dgc, 5.0, ""}, kBase,
                     again.result, {"{a, b}"});
  ASSERT_TRUE(cache.lookup_exact(Problem::Dgc, 5.0, "", kBase));
  cache.clear();
  EXPECT_FALSE(cache.lookup_exact(Problem::Dgc, 5.0, "", kBase));
  EXPECT_EQ(cache.stats().bytes, 0u);
}

// ---------------------------------------------------------------------------
// Protocol: one JSON-envelope serving session over the service.
// ---------------------------------------------------------------------------

TEST(Protocol, SolveStatsAndErrorsOverOneSession) {
  const std::string model =
      "bas a cost=1 damage=2\n"
      "bas b cost=3\n"
      "or root = a, b damage=4\n";
  std::string script;
  for (const char* id : {"s1", "s2"}) {
    api::Request r;
    r.id = id;
    r.op = api::SolveRequest{{Problem::Cdpf, 0.0, false, "", model}};
    script += api::encode_request(r) + "\n";
  }
  api::Request dgc;
  dgc.id = "s3";
  dgc.op = api::SolveRequest{{Problem::Dgc, 1.0, true, "enumerative", model}};
  script += api::encode_request(dgc) + "\n";
  script +=
      "{\"v\":1,\"id\":\"np\",\"op\":\"solve\",\"problem\":\"nope\","
      "\"model\":\"bas z cost=1\\n\"}\n";
  script += "{\"v\":1,\"id\":\"st\",\"op\":\"stats\"}\n";
  script += "{\"v\":1,\"id\":\"q\",\"op\":\"quit\"}\n";

  api::Dispatcher d;
  std::istringstream in(script);
  std::ostringstream out;
  EXPECT_EQ(api::serve_json(in, out, d), 3u);

  // One response per request, the shutdown last.
  std::vector<api::Response> resps;
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    api::Decoded<api::Response> dec = api::decode_response(line);
    ASSERT_EQ(dec.code, api::ErrorCode::Ok) << line;
    resps.push_back(std::move(dec.value));
  }
  ASSERT_EQ(resps.size(), 6u) << out.str();

  const auto solve = [&](std::size_t i) {
    EXPECT_EQ(resps[i].code, api::ErrorCode::Ok) << resps[i].error;
    return std::get<api::SolvePayload>(resps[i].payload);
  };
  EXPECT_EQ(solve(0).cache, "miss");
  EXPECT_TRUE(solve(0).is_front);
  EXPECT_EQ(solve(1).cache, "hit");
  EXPECT_FALSE(solve(2).is_front);
  EXPECT_EQ(solve(2).backend, "enumerative");

  EXPECT_EQ(resps[3].id, "np");
  EXPECT_EQ(resps[3].code, api::ErrorCode::InvalidArgument);
  EXPECT_NE(resps[3].error.find("unknown problem 'nope'"), std::string::npos);

  const auto& stats = std::get<api::StatsPayload>(resps[4].payload);
  EXPECT_EQ(stats.cache.hits, 1u);

  // `quit` answers with a structured shutdown, never a silent exit;
  // handled = the three solves.
  EXPECT_EQ(resps[5].id, "q");
  EXPECT_EQ(std::get<api::ShutdownPayload>(resps[5].payload).handled, 3u);
}

}  // namespace
}  // namespace atcd
