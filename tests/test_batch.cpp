/// Tests for the batch solve API (engine/batch.hpp): parallel solve_all
/// must produce results identical to sequential per-instance calls, and
/// per-instance failures must be captured without tearing down the batch.
/// Also the shared worker loop underneath it (util/parallel.hpp): its
/// thread clamp and its thread-count-independent error.

#include "engine/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "casestudies/dataserver.hpp"
#include "casestudies/factory.hpp"
#include "helpers.hpp"
#include "util/parallel.hpp"

namespace atcd {
namespace {

using engine::BatchOptions;
using engine::Instance;
using engine::Problem;
using engine::SolveResult;
using engine::solve_all;
using engine::solve_one;

void expect_same(const SolveResult& a, const SolveResult& b,
                 const std::string& where) {
  ASSERT_EQ(a.ok, b.ok) << where << ": " << a.error << " vs " << b.error;
  EXPECT_EQ(a.backend, b.backend) << where;
  if (!a.ok) {
    EXPECT_EQ(a.error, b.error) << where;
    return;
  }
  EXPECT_TRUE(a.front.same_values(b.front)) << where;
  EXPECT_EQ(a.attack.feasible, b.attack.feasible) << where;
  EXPECT_DOUBLE_EQ(a.attack.cost, b.attack.cost) << where;
  EXPECT_DOUBLE_EQ(a.attack.damage, b.attack.damage) << where;
  EXPECT_EQ(a.attack.witness, b.attack.witness) << where;
}

/// A mixed workload over the case studies and random models: all six
/// problems, treelike and DAG, auto and explicit engines.
struct Workload {
  CdAt factory;
  CdAt dataserver;
  CdpAt factory_prob;
  CdpAt random_tree_prob;
  std::vector<CdAt> random_dags;
  std::vector<Instance> instances;

  Workload() {
    factory = casestudies::make_factory();
    dataserver = casestudies::make_dataserver();
    factory_prob = casestudies::make_factory_probabilistic();
    Rng rng(5150);
    random_tree_prob = atcd::testing::random_cdpat(rng, 6, true);
    for (int i = 0; i < 4; ++i)
      random_dags.push_back(atcd::testing::random_cdat(rng, 5, false));

    instances.push_back(Instance::of(Problem::Cdpf, factory));
    instances.push_back(Instance::of(Problem::Dgc, factory, 2.0));
    instances.push_back(Instance::of(Problem::Cgd, factory, 201.0));
    instances.push_back(Instance::of(Problem::Cdpf, dataserver));
    instances.push_back(
        Instance::of(Problem::Cdpf, factory, 0.0, "enumerative"));
    instances.push_back(Instance::of(Problem::Cedpf, factory_prob));
    instances.push_back(Instance::of(Problem::Edgc, factory_prob, 3.0));
    instances.push_back(Instance::of(Problem::Cged, factory_prob, 1.0));
    instances.push_back(Instance::of(Problem::Cedpf, random_tree_prob));
    for (const auto& m : random_dags)
      instances.push_back(Instance::of(Problem::Dgc, m, 10.0));
  }
};

TEST(Batch, ParallelMatchesSequential) {
  const Workload w;
  ASSERT_GE(w.instances.size(), 8u);

  std::vector<SolveResult> sequential;
  sequential.reserve(w.instances.size());
  for (const auto& in : w.instances) sequential.push_back(solve_one(in));

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    BatchOptions opt;
    opt.threads = threads;
    const auto parallel = solve_all(w.instances, opt);
    ASSERT_EQ(parallel.size(), sequential.size());
    for (std::size_t i = 0; i < parallel.size(); ++i)
      expect_same(parallel[i], sequential[i],
                  "threads=" + std::to_string(threads) + " instance #" +
                      std::to_string(i));
  }
}

TEST(Batch, RecordsThePlannedBackend) {
  const Workload w;
  const auto r = solve_all(w.instances, {});
  EXPECT_EQ(r[0].backend, "bottom-up");    // treelike det CDPF
  EXPECT_EQ(r[3].backend, "bilp");         // DAG det CDPF
  EXPECT_EQ(r[4].backend, "enumerative");  // explicit request
  EXPECT_EQ(r[5].backend, "bottom-up");    // treelike prob CEDPF
}

TEST(Batch, CapturesPerInstanceFailuresWithoutAbortingTheBatch) {
  const auto factory = casestudies::make_factory();
  const auto ds = casestudies::make_dataserver();
  std::vector<Instance> batch;
  batch.push_back(Instance::of(Problem::Cdpf, factory));
  batch.push_back(Instance::of(Problem::Cdpf, ds, 0.0, "bottom-up"));  // DAG
  batch.push_back(Instance::of(Problem::Cdpf, factory, 0.0, "no-such"));
  Instance missing_model;  // det problem without a det model
  missing_model.problem = Problem::Dgc;
  batch.push_back(missing_model);

  const auto r = solve_all(batch, {});
  ASSERT_EQ(r.size(), 4u);
  EXPECT_TRUE(r[0].ok);
  EXPECT_FALSE(r[1].ok);
  EXPECT_NE(r[1].error.find("treelike"), std::string::npos) << r[1].error;
  EXPECT_FALSE(r[2].ok);
  EXPECT_NE(r[2].error.find("unknown engine"), std::string::npos)
      << r[2].error;
  EXPECT_FALSE(r[3].ok);
  EXPECT_NE(r[3].error.find("lacks a"), std::string::npos) << r[3].error;
}

TEST(Batch, EmptyBatchAndOversizedThreadCount) {
  EXPECT_TRUE(solve_all({}, {}).empty());
  const auto factory = casestudies::make_factory();
  std::vector<Instance> one{Instance::of(Problem::Cdpf, factory)};
  BatchOptions opt;
  opt.threads = 64;  // more threads than work
  const auto r = solve_all(one, opt);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_TRUE(r[0].ok);
  EXPECT_EQ(r[0].front.size(), 4u);
}

TEST(WorkerLoop, NeverRunsOnMoreThreadsThanTheHardware) {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  EXPECT_EQ(util::worker_count(65536, 64), std::min<std::size_t>(hw, 64));
  EXPECT_EQ(util::worker_count(0, 64), std::min<std::size_t>(hw, 64));
  EXPECT_EQ(util::worker_count(1, 64), 1u);
  EXPECT_EQ(util::worker_count(65536, 1), 1u);
  EXPECT_EQ(util::worker_count(4, 0), 1u);

  // A request for 65,536 threads over 64 jobs: every job runs once, on
  // no more distinct threads (and worker slots) than the host has cores.
  std::mutex mu;
  std::set<std::thread::id> threads;
  std::set<std::size_t> workers;
  std::vector<int> runs(64, 0);
  util::for_each_index(64, 65536, [&](std::size_t worker, std::size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    threads.insert(std::this_thread::get_id());
    workers.insert(worker);
    ++runs[i];
  });
  EXPECT_LE(threads.size(), hw);
  EXPECT_EQ(threads.size(), workers.size());
  EXPECT_LT(*workers.rbegin(), util::worker_count(65536, 64));
  EXPECT_EQ(std::count(runs.begin(), runs.end(), 1), 64);
}

TEST(WorkerLoop, RethrowsTheLowestFailingIndexOnAnyThreadCount) {
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    try {
      util::for_each_index(200, threads, [](std::size_t, std::size_t i) {
        if (i % 50 == 37) throw std::runtime_error(std::to_string(i));
      });
      ADD_FAILURE() << "no exception at threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "37") << "threads=" << threads;
    }
  }
  // No jobs: nothing runs, nothing throws.
  util::for_each_index(0, 4, [](std::size_t, std::size_t) {
    throw std::runtime_error("ran");
  });
}

}  // namespace
}  // namespace atcd
