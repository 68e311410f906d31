/// Tests for service/session.hpp: edit semantics, the incremental
/// re-solve fast path, the incremental-vs-scratch equivalence property
/// over random edit scripts, and session concurrency (run under tsan in
/// CI).

#include "service/session.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <sstream>
#include <thread>

#include "api/json.hpp"
#include "api/server.hpp"
#include "helpers.hpp"
#include "util/rng.hpp"

namespace atcd {
namespace {

using engine::Problem;
using service::Response;
using service::Session;
using service::SessionManager;
using service::SubtreeCache;
using testing::fronts_equal;

constexpr const char* kModel =
    "bas pick cost=1 damage=2 prob=0.5\n"
    "bas drill cost=4 damage=1 prob=0.9\n"
    "bas phish cost=2 damage=0 prob=0.6\n"
    "and break = pick, drill damage=3\n"
    "or open = break, phish damage=10\n";

Session::Options opts(Problem p, double bound = 0.0) {
  Session::Options o;
  o.problem = p;
  o.bound = bound;
  return o;
}

/// Scratch solve of the session's current effective model.
engine::SolveResult scratch(Session& s) {
  engine::Instance in;
  in.problem = s.problem();
  const auto det = s.snapshot_det();
  const auto prob = s.snapshot_prob();
  in.det = det.get();
  in.prob = prob.get();
  in.bound = 0.0;
  return engine::solve_one(in);
}

TEST(Session, ResolveMatchesScratchAndEditsTakeEffect) {
  Session s(kModel, opts(Problem::Cdpf));
  const Response r1 = s.resolve();
  ASSERT_TRUE(r1.result.ok) << r1.result.error;
  EXPECT_TRUE(fronts_equal(r1.result.front, scratch(s).front));

  ASSERT_EQ(s.set_cost("pick", 6.0), "");
  const Response r2 = s.resolve();
  ASSERT_TRUE(r2.result.ok) << r2.result.error;
  EXPECT_TRUE(fronts_equal(r2.result.front, scratch(s).front));
  EXPECT_FALSE(r1.result.front.same_values(r2.result.front));
  EXPECT_EQ(s.edit_count(), 1u);
  EXPECT_EQ(s.resolve_count(), 2u);
}

TEST(Session, SnapshotsOffReturnsNoModelButSameResults) {
  Session with(kModel, opts(Problem::Cdpf));
  Session::Options o = opts(Problem::Cdpf);
  o.snapshots = false;
  Session without(kModel, o);

  const Response r1 = without.resolve();
  ASSERT_TRUE(r1.result.ok) << r1.result.error;
  EXPECT_EQ(r1.det, nullptr);
  EXPECT_EQ(r1.prob, nullptr);
  EXPECT_TRUE(fronts_equal(r1.result.front, with.resolve().result.front));

  // Edit-resolve loops behave identically; only the snapshot is absent.
  ASSERT_EQ(with.set_cost("pick", 6.0), "");
  ASSERT_EQ(without.set_cost("pick", 6.0), "");
  const Response r2 = without.resolve();
  ASSERT_TRUE(r2.result.ok) << r2.result.error;
  EXPECT_EQ(r2.det, nullptr);
  EXPECT_TRUE(fronts_equal(r2.result.front, with.resolve().result.front));
  EXPECT_EQ(r2.model_hash, with.resolve().model_hash);

  // snapshot_det() still works on demand — only responses skip it.
  EXPECT_NE(without.snapshot_det(), nullptr);
}

TEST(Session, EditErrorsLeaveTheSessionUntouched) {
  Session s(kModel, opts(Problem::Cdpf));
  const Response before = s.resolve();
  EXPECT_NE(s.set_cost("nope", 1.0), "");
  EXPECT_NE(s.set_cost("break", 1.0), "");   // a gate, not a BAS
  EXPECT_NE(s.set_cost("pick", -1.0), "");
  EXPECT_NE(s.set_prob("pick", 0.5), "");    // det session
  EXPECT_NE(s.set_damage("open", -2.0), "");
  EXPECT_NE(s.replace_subtree("nope", "bas z cost=1\n"), "");
  EXPECT_EQ(s.edit_count(), 0u);
  const Response after = s.resolve();
  EXPECT_TRUE(fronts_equal(before.result.front, after.result.front));
}

TEST(Session, ToggleDefenseHardensAndRestores) {
  Session s(kModel, opts(Problem::Cdpf));
  const Response base = s.resolve();
  ASSERT_EQ(s.toggle_defense("phish"), "");
  const Response hardened = s.resolve();
  ASSERT_TRUE(hardened.result.ok) << hardened.result.error;
  // phish got expensive: the cheap phish-only point is gone.
  EXPECT_FALSE(base.result.front.same_values(hardened.result.front));
  EXPECT_TRUE(fronts_equal(hardened.result.front, scratch(s).front));
  ASSERT_EQ(s.toggle_defense("phish"), "");
  const Response restored = s.resolve();
  EXPECT_TRUE(fronts_equal(base.result.front, restored.result.front));
}

TEST(Session, ReplaceSubtreeRewiresTheModel) {
  Session s(kModel, opts(Problem::Cdpf));
  ASSERT_TRUE(s.resolve().result.ok);
  // Swap the AND(pick, drill) component for a single cheap leaf.
  ASSERT_EQ(s.replace_subtree("break", "bas jimmy cost=1 damage=7\n"), "");
  const Response r = s.resolve();
  ASSERT_TRUE(r.result.ok) << r.result.error;
  const auto det = s.snapshot_det();
  EXPECT_TRUE(det->tree.find("jimmy").has_value());
  EXPECT_FALSE(det->tree.find("break").has_value());
  EXPECT_FALSE(det->tree.find("pick").has_value());
  EXPECT_TRUE(fronts_equal(r.result.front, scratch(s).front));
}

TEST(Session, ReplaceSubtreeAtTheRootSwapsTheWholeModel) {
  Session s(kModel, opts(Problem::Cdpf));
  ASSERT_EQ(s.replace_subtree("open", "bas solo cost=3 damage=4\n"), "");
  const Response r = s.resolve();
  ASSERT_TRUE(r.result.ok) << r.result.error;
  ASSERT_EQ(r.result.front.size(), 2u);  // {} and {solo}
  EXPECT_DOUBLE_EQ(r.result.front[1].value.cost, 3.0);
  EXPECT_DOUBLE_EQ(r.result.front[1].value.damage, 4.0);
}

TEST(Session, ReplaceSubtreeRejectsNameCollisions) {
  Session s(kModel, opts(Problem::Cdpf));
  EXPECT_NE(s.replace_subtree("break", "bas phish cost=1\n"), "");
}

TEST(Session, IncrementalResolveReusesUneditedSubtrees) {
  Session s(kModel, opts(Problem::Cdpf));
  ASSERT_TRUE(s.resolve().result.ok);
  const auto cold = s.memo_stats();
  EXPECT_GT(cold.stores, 0u);
  // Editing phish dirties only the root path (open): the break subtree
  // comes back from the memo.
  ASSERT_EQ(s.set_cost("phish", 5.0), "");
  ASSERT_TRUE(s.resolve().result.ok);
  const auto warm = s.memo_stats();
  EXPECT_GT(warm.hits, cold.hits);
}

TEST(Session, SharedCacheCrossesSessions) {
  SubtreeCache shared;
  Session::Options o = opts(Problem::Cdpf);
  o.shared = &shared;
  Session s1(kModel, o);
  ASSERT_TRUE(s1.resolve().result.ok);
  const auto after_first = shared.stats();
  EXPECT_GT(after_first.insertions, 0u);
  // A second session over the same model reuses the first one's fronts
  // through the shared layer.
  Session s2(kModel, o);
  ASSERT_TRUE(s2.resolve().result.ok);
  EXPECT_GT(shared.stats().hits, after_first.hits);
}

TEST(Session, ProbabilisticSessionsWork) {
  Session s(kModel, opts(Problem::Cedpf));
  const Response r1 = s.resolve();
  ASSERT_TRUE(r1.result.ok) << r1.result.error;
  ASSERT_EQ(s.set_prob("pick", 1.0), "");
  const Response r2 = s.resolve();
  ASSERT_TRUE(r2.result.ok) << r2.result.error;
  engine::Instance in;
  in.problem = Problem::Cedpf;
  const auto snap = s.snapshot_prob();
  in.prob = snap.get();
  const auto fresh = engine::solve_one(in);
  EXPECT_TRUE(fronts_equal(r2.result.front, fresh.front));
}

TEST(Session, DagModelsFallBackToFullSolves) {
  // A DAG-shaped model: sessions still work, the planner routes around
  // the incremental backend (bilp for det DAGs), the memo stays cold.
  Rng rng(5);
  const CdAt dag = testing::random_cdat(rng, 7, /*treelike=*/false);
  ASSERT_FALSE(dag.tree.is_treelike());
  Session s(dag, opts(Problem::Cdpf));
  const Response r = s.resolve();
  ASSERT_TRUE(r.result.ok) << r.result.error;
  EXPECT_EQ(r.result.backend, "bilp");
  EXPECT_EQ(s.memo_stats().stores, 0u);
  ASSERT_EQ(s.set_damage(dag.tree.name(dag.tree.root()), 3.0), "");
  EXPECT_TRUE(s.resolve().result.ok);
}

TEST(Session, DagResolvePopulatesSharedCacheForTreelikePortions) {
  // A DAG whose shared gate sits beside an exclusively-owned treelike
  // portion (sub = AND(a, b)): the full-solve fallback must still sweep
  // that portion into the shared cache, so treelike models containing
  // an isomorphic subtree reuse it.
  const char* dag_model =
      "bas a cost=1 damage=2\n"
      "bas b cost=4 damage=1\n"
      "bas s cost=2 damage=3\n"
      "and sub = a, b damage=5\n"
      "or g1 = sub, s damage=1\n"
      "and g2 = g1, s damage=2\n"  // s shared: g1 and g2 -> DAG
      "or top = g1, g2 damage=10\n";
  SubtreeCache shared;
  Session::Options o = opts(Problem::Cdpf);
  o.shared = &shared;
  Session s(dag_model, o);
  ASSERT_FALSE(s.snapshot_det()->tree.is_treelike());
  ASSERT_TRUE(s.resolve().result.ok);
  const auto cold = shared.stats();
  EXPECT_GT(cold.insertions, 0u);

  // Warm resolves skip the portion sweep via the root-front lookup, so
  // the cache gains no new entries.
  ASSERT_TRUE(s.resolve().result.ok);
  EXPECT_EQ(shared.stats().insertions, cold.insertions);

  // A *treelike* one-shot solve containing the isomorphic portion
  // (renamed, children permuted) hits the session-populated entries.
  const ParsedModel host = parse_model(
      "bas y cost=4 damage=1\n"
      "bas x cost=1 damage=2\n"
      "bas z cost=7 damage=0\n"
      "and mirror = y, x damage=5\n"
      "or root = mirror, z damage=3\n");
  const CdAt host_model{host.tree, host.cost, host.damage};
  engine::BatchOptions bopt;
  bopt.subtree = &shared;
  const auto r = engine::solve_one(
      engine::Instance::of(Problem::Cdpf, host_model), bopt);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GT(shared.stats().hits, cold.hits);

  // And the fronts stay correct: the cached-portion solve equals a
  // cacheless scratch solve.
  const auto scratch_r =
      engine::solve_one(engine::Instance::of(Problem::Cdpf, host_model));
  ASSERT_TRUE(scratch_r.ok);
  EXPECT_TRUE(fronts_equal(r.front, scratch_r.front));
}

// ---------------------------------------------------------------------------
// Incremental-vs-scratch equivalence: random edit scripts over random
// models; after every edit the session's re-solve must equal a fresh
// solve_one of the session's current effective model.  Seed count scales
// with ATCD_FUZZ_ITERS (default 12; CI's nightly fuzz-smoke runs 200).
// ---------------------------------------------------------------------------

std::size_t equivalence_seeds() {
  if (const char* env = std::getenv("ATCD_FUZZ_ITERS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 12;
}

std::string random_leaf_model(Rng& rng, int tag) {
  std::ostringstream out;
  out << "bas n" << tag << "_a cost=" << rng.range(1, 9)
      << " damage=" << rng.range(0, 9) << " prob=0." << rng.range(1, 9)
      << "\n";
  if (rng.chance(0.5)) {
    out << "bas n" << tag << "_b cost=" << rng.range(1, 9)
        << " damage=" << rng.range(0, 9) << " prob=0." << rng.range(1, 9)
        << "\n"
        << (rng.chance(0.5) ? "and" : "or") << " n" << tag << "_g = n" << tag
        << "_a, n" << tag << "_b damage=" << rng.range(0, 5) << "\n";
  }
  return out.str();
}

void apply_random_edit(Session& s, const AttackTree& tree, Rng& rng,
                       int tag) {
  const auto random_bas = [&] {
    return tree.name(tree.bas_id(
        static_cast<std::uint32_t>(rng.below(tree.bas_count()))));
  };
  switch (rng.below(s.probabilistic() ? 5 : 4)) {
    case 0:
      ASSERT_EQ(s.set_cost(random_bas(), double(rng.range(0, 12))), "");
      break;
    case 1:
      ASSERT_EQ(s.set_damage(tree.name(static_cast<NodeId>(
                                 rng.below(tree.node_count()))),
                             double(rng.range(0, 12))),
                "");
      break;
    case 2:
      ASSERT_EQ(s.toggle_defense(random_bas()), "");
      break;
    case 3: {
      // Replace a random node's subtree with a fresh 1-3 node model.  On
      // DAG models the picked subtree may be shared with the outside —
      // that rejection is the only acceptable failure.
      const NodeId target = static_cast<NodeId>(rng.below(tree.node_count()));
      const std::string err =
          s.replace_subtree(tree.name(target), random_leaf_model(rng, tag));
      if (!err.empty())
        ASSERT_NE(err.find("shared"), std::string::npos) << err;
      break;
    }
    default:
      ASSERT_EQ(s.set_prob(random_bas(), rng.below(11) / 10.0), "");
      break;
  }
}

void check_equal(const Response& inc, const engine::SolveResult& ref,
                 Problem p, const std::string& context) {
  ASSERT_EQ(inc.result.ok, ref.ok)
      << context << "\nsession: " << inc.result.error
      << "\nscratch: " << ref.error;
  if (!ref.ok) return;
  if (engine::is_front(p)) {
    EXPECT_TRUE(fronts_equal(inc.result.front, ref.front)) << context;
  } else {
    ASSERT_EQ(inc.result.attack.feasible, ref.attack.feasible) << context;
    if (ref.attack.feasible) {
      EXPECT_NEAR(inc.result.attack.cost, ref.attack.cost, 1e-9) << context;
      EXPECT_NEAR(inc.result.attack.damage, ref.attack.damage, 1e-9)
          << context;
    }
  }
}

TEST(Session, IncrementalEqualsScratchOverRandomEditScripts) {
  SubtreeCache shared;
  int tag = 0;
  const std::uint64_t seeds = equivalence_seeds();
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    Rng rng(1000 + seed);
    const bool treelike = seed % 3 != 2;  // every third model is a DAG
    const Problem p = static_cast<Problem>(rng.below(6));
    const bool probabilistic = engine::is_probabilistic(p);
    const double bound = engine::is_front(p) ? 0.0 : rng.uniform(0.0, 25.0);
    // Probabilistic DAGs route to the BDD engine; keep them small.
    const std::size_t n_bas = probabilistic && !treelike ? 6 : 8;
    const CdpAt base = testing::random_cdpat(rng, n_bas, treelike);

    Session::Options o = opts(p, bound);
    o.shared = &shared;
    auto session = probabilistic
                       ? std::make_unique<Session>(base, o)
                       : std::make_unique<Session>(base.deterministic(), o);

    for (int step = 0; step < 6; ++step) {
      const std::string context = "seed=" + std::to_string(seed) +
                                  " step=" + std::to_string(step) +
                                  " problem=" + engine::to_string(p);
      const Response inc = session->resolve();
      engine::Instance in;
      in.problem = p;
      const auto det = session->snapshot_det();
      const auto prob = session->snapshot_prob();
      in.det = det.get();
      in.prob = prob.get();
      in.bound = bound;
      check_equal(inc, engine::solve_one(in), p, context);
      const AttackTree& tree = det ? det->tree : prob->tree;
      apply_random_edit(*session, tree, rng, ++tag);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrency (exercised under tsan in CI): concurrent edits and
// resolves on one session, and concurrent sessions over one shared
// subtree cache.
// ---------------------------------------------------------------------------

TEST(Session, ConcurrentEditsAndResolvesAreSafe) {
  SubtreeCache shared;
  Session::Options o = opts(Problem::Cdpf);
  o.shared = &shared;
  Session s(kModel, o);

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&s, t] {
      for (int i = 0; i < 25; ++i) {
        if (t % 2 == 0) {
          ASSERT_EQ(s.set_cost(i % 2 ? "pick" : "drill",
                               double(1 + (t + i) % 7)),
                    "");
        }
        const Response r = s.resolve();
        ASSERT_TRUE(r.result.ok) << r.result.error;
        // The response snapshot is immutable: its front matches a
        // scratch solve of that same snapshot even while other threads
        // keep editing.
        engine::Instance in;
        in.problem = Problem::Cdpf;
        in.det = r.det.get();
        const auto ref = engine::solve_one(in);
        ASSERT_TRUE(ref.ok);
        ASSERT_TRUE(fronts_equal(r.result.front, ref.front));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(s.resolve_count(), 100u);
}

TEST(Session, ConcurrentSessionsShareTheSubtreeCacheSafely) {
  SubtreeCache shared;
  SessionManager mgr;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    Session::Options o = opts(Problem::Cdpf);
    o.shared = &shared;
    ids.push_back(mgr.open(std::make_unique<Session>(kModel, o)));
  }
  std::vector<std::thread> threads;
  for (const std::uint64_t id : ids) {
    threads.emplace_back([&mgr, id] {
      const auto s = mgr.find(id);
      ASSERT_NE(s, nullptr);
      for (int i = 0; i < 20; ++i) {
        ASSERT_EQ(s->set_cost("phish", double(1 + i % 5)), "");
        ASSERT_TRUE(s->resolve().result.ok);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const std::uint64_t id : ids) EXPECT_TRUE(mgr.close(id));
  EXPECT_EQ(mgr.size(), 0u);
}

// ---------------------------------------------------------------------------
// Protocol: open / edit / resolve / close round trip over JSON.
// ---------------------------------------------------------------------------

TEST(Session, ProtocolSessionRoundTrip) {
  using api::EditOp;
  std::vector<api::Request> reqs;
  const auto add = [&](const std::string& id, api::Operation op) {
    api::Request r;
    r.id = id;
    r.op = std::move(op);
    reqs.push_back(std::move(r));
  };
  add("open", api::SessionOpenRequest{{Problem::Cdpf, 0.0, false, "", kModel}});
  add("r0", api::SessionResolveRequest{1});
  add("cost", api::SessionEditRequest{1, EditOp::SetCost, "pick", 6.0, ""});
  add("r1", api::SessionResolveRequest{1});
  add("subtree", api::SessionEditRequest{1, EditOp::ReplaceSubtree, "break",
                                         0.0, "bas jimmy cost=1 damage=7\n"});
  add("r2", api::SessionResolveRequest{1});
  add("defense",
      api::SessionEditRequest{1, EditOp::ToggleDefense, "jimmy", 0.0, ""});
  add("r3", api::SessionResolveRequest{1});
  add("stats", api::StatsRequest{});
  add("e99", api::SessionEditRequest{99, EditOp::SetCost, "pick", 1.0, ""});
  add("ebas", api::SessionEditRequest{1, EditOp::SetCost, "nope", 1.0, ""});
  add("close", api::SessionCloseRequest{1});
  add("rclosed", api::SessionResolveRequest{1});
  std::string script;
  for (const api::Request& r : reqs) script += api::encode_request(r) + "\n";

  api::Dispatcher d;
  std::istringstream in(script);
  std::ostringstream out;
  EXPECT_EQ(api::serve_json(in, out, d), 4u);  // four resolves counted

  std::map<std::string, api::Response> by_id;
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    api::Decoded<api::Response> dec = api::decode_response(line);
    ASSERT_EQ(dec.code, api::ErrorCode::Ok) << line;
    by_id[dec.value.id] = std::move(dec.value);
  }
  ASSERT_EQ(by_id.size(), reqs.size() + 1) << out.str();  // + shutdown

  EXPECT_EQ(std::get<api::SessionOpenedPayload>(by_id["open"].payload).session,
            1u);
  for (const char* id : {"cost", "subtree", "defense", "close"})
    EXPECT_EQ(by_id[id].code, api::ErrorCode::Ok) << id << by_id[id].error;
  for (const char* id : {"r0", "r1", "r2", "r3"}) {
    ASSERT_EQ(by_id[id].code, api::ErrorCode::Ok) << id << by_id[id].error;
    EXPECT_TRUE(std::get<api::SolvePayload>(by_id[id].payload).is_front);
  }
  const auto& stats = std::get<api::StatsPayload>(by_id["stats"].payload);
  EXPECT_EQ(stats.sessions, 1u);
  EXPECT_EQ(stats.api.session_resolves, 4u);

  EXPECT_EQ(by_id["e99"].code, api::ErrorCode::NoSuchSession);
  EXPECT_EQ(by_id["e99"].error, "no session 99");
  EXPECT_EQ(by_id["ebas"].code, api::ErrorCode::InvalidArgument);
  EXPECT_EQ(by_id["ebas"].error, "set-cost: no BAS named 'nope'");
  EXPECT_EQ(by_id["rclosed"].code, api::ErrorCode::NoSuchSession);
  EXPECT_EQ(by_id["rclosed"].error, "no session 1");
}

}  // namespace
}  // namespace atcd
