// Contention stress for the parallel search, meant to run under
// ThreadSanitizer (cmake -DRODIN_SANITIZE=thread): tiny plans make each
// restart cheap, so with many restarts and 8 workers the best-plan
// accumulator, the atomic cost hint and the shared const trio
// (Database/Stats/CostModel) are hammered from every thread at once. The
// assertions double as a liveness check; the real oracle is TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "cost/cost_model.h"
#include "cost/stats.h"
#include "datagen/music_gen.h"
#include "exec/executor.h"
#include "optimizer/baseline.h"
#include "optimizer/optimizer.h"
#include "optimizer/strategy.h"
#include "oracle/legacy_executor.h"
#include "query/builder.h"
#include "query/paper_queries.h"

namespace rodin {
namespace {

struct StressEnv {
  StressEnv() {
    MusicConfig config;
    config.num_composers = 30;  // tiny: restarts finish in microseconds
    config.lineage_depth = 4;
    db = GenerateMusicDb(config, PaperMusicPhysical());
    stats = std::make_unique<Stats>(Stats::Derive(*db.db));
    cost = std::make_unique<CostModel>(db.db.get(), stats.get());
  }
  GeneratedDb db;
  std::unique_ptr<Stats> stats;
  std::unique_ptr<CostModel> cost;
};

StressEnv& Env() {
  static StressEnv* env = new StressEnv();
  return *env;
}

/// A small spj with enough joins for the move set to fire.
QueryGraph SmallQuery(const Schema& schema) {
  QueryGraphBuilder b;
  NodeBuilder& node = b.Node("Answer");
  node.Input("Composer", "x");
  node.Input("Composer", "y");
  node.Where(Expr::Eq(Expr::Path("x", {"master"}), Expr::Path("y", {})));
  node.Where(Expr::Eq(Expr::Path("x", {"works", "instruments", "iname"}),
                      Expr::Lit(Value::Str("harpsichord"))));
  node.OutPath("n", "x", {"name"});
  return b.Build(schema);
}

TEST(ParallelStressTest, ManyRestartsEightWorkers) {
  StressEnv& env = Env();

  OptimizerOptions base = CostBasedOptions();
  base.transform.rand = RandStrategy::kNone;
  Optimizer opt(env.db.db.get(), env.stats.get(), env.cost.get(), base);
  OptimizeResult r = opt.Optimize(SmallQuery(*env.db.schema));
  ASSERT_TRUE(r.ok()) << r.status.ToString();

  // Cheap restarts in bulk: every restart finishes almost immediately, so
  // publications to the accumulator pile up and interleave.
  TransformOptions options;
  options.rand = RandStrategy::kIterativeImprovement;
  options.rand_restarts = 64;
  options.rand_moves = 12;
  options.rand_local_stop = 6;

  ParallelStrategy strategy(8);
  for (int repeat = 0; repeat < 4; ++repeat) {
    OptContext ctx;
    ctx.db = env.db.db.get();
    ctx.stats = env.stats.get();
    ctx.cost = env.cost.get();
    ctx.rng = Rng(100 + repeat);
    PTPtr plan = r.plan->Clone();
    env.cost->Annotate(plan.get());
    const double before = plan->est_cost;
    ParallelSearchReport report = strategy.Improve(plan, ctx, options);
    EXPECT_EQ(report.per_restart.size(), 65u);  // restart 0 + 64 perturbed
    EXPECT_LE(report.final_cost, before + 1e-9);
    EXPECT_EQ(plan->est_cost, report.final_cost);
  }
}

TEST(ParallelStressTest, ConcurrentStrategiesShareConstState) {
  // Two ParallelStrategy instances running at once over the same const
  // Database/Stats/CostModel: catches any hidden mutable state in the
  // shared trio (the historical offender was a lazily-filled memo inside
  // CostModel::Annotate).
  StressEnv& env = Env();
  OptimizerOptions base = CostBasedOptions();
  base.transform.rand = RandStrategy::kNone;
  Optimizer opt(env.db.db.get(), env.stats.get(), env.cost.get(), base);
  OptimizeResult seedplan = opt.Optimize(Fig3Query(*env.db.schema, 4));
  ASSERT_TRUE(seedplan.ok()) << seedplan.status.ToString();

  TransformOptions options;
  options.rand = RandStrategy::kIterativeImprovement;
  options.rand_restarts = 16;
  options.rand_moves = 20;
  options.rand_local_stop = 8;

  ThreadPool outer(4);
  std::atomic<int> failures{0};
  for (int i = 0; i < 4; ++i) {
    outer.Submit([&env, &seedplan, &options, &failures, i] {
      OptContext ctx;
      ctx.db = env.db.db.get();
      ctx.stats = env.stats.get();
      ctx.cost = env.cost.get();
      ctx.rng = Rng(500 + i);
      PTPtr plan = seedplan.plan->Clone();
      env.cost->Annotate(plan.get());
      ParallelStrategy inner(4);
      ParallelSearchReport report = inner.Improve(plan, ctx, options);
      if (report.per_restart.size() != 17) failures.fetch_add(1);
      if (plan->est_cost != report.final_cost) failures.fetch_add(1);
    });
  }
  outer.Wait();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ParallelStressTest, BatchedExecutorManyThreads) {
  // Morsel-parallel execution under contention: 8 workers over a recursive
  // plan hammer the buffer pool's spinlock-guarded fetch path (charge
  // replay), the shared const Database, and the pool's submit/wait cycle
  // once per operator pass per Fix iteration. Interleaved with a second
  // executor on another thread so two worker pools coexist. The answer
  // check doubles as liveness; the real oracle is TSan.
  StressEnv& env = Env();
  OptimizerOptions base = CostBasedOptions();
  Optimizer opt(env.db.db.get(), env.stats.get(), env.cost.get(), base);
  OptimizeResult plan = opt.Optimize(Fig3Query(*env.db.schema, 4));
  ASSERT_TRUE(plan.ok()) << plan.status.ToString();

  LegacyExecutor reference(env.db.db.get());
  reference.ResetMeasurement(true);
  const Table want = reference.Execute(*plan.plan);

  // Construct + cold-reset serially: ResetMeasurement mutates the shared
  // buffer pool, which is a single-session operation (measured cost on a
  // shared pool is only meaningful for one session at a time). Only the
  // Execute calls — whose pool traffic goes through the guarded fetch
  // path — run concurrently.
  std::vector<std::unique_ptr<Executor>> execs;
  for (int i = 0; i < 2; ++i) {
    execs.push_back(std::make_unique<Executor>(env.db.db.get()));
    execs.back()->ResetMeasurement(true);
  }
  ThreadPool outer(2);
  std::atomic<int> failures{0};
  for (int i = 0; i < 2; ++i) {
    Executor* exec = execs[static_cast<size_t>(i)].get();
    outer.Submit([exec, &plan, &want, &failures, i] {
      for (int round = 0; round < 6; ++round) {
        ExecOptions options;
        options.exec_threads = 8;
        options.batch_rows = 1 + (i * 6 + round) % 16;
        const Table got = exec->Execute(*plan.plan, options);
        if (got.rows.size() != want.rows.size()) failures.fetch_add(1);
      }
    });
  }
  outer.Wait();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ParallelStressTest, ThreadPoolChurn) {
  // Rapid construct/submit/destroy cycles: destructor-vs-worker races.
  std::atomic<int> total{0};
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(1 + round % 8);
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&total] { total.fetch_add(1, std::memory_order_relaxed); });
    }
    if (round % 2 == 0) pool.Wait();  // odd rounds drain in the destructor
  }
  EXPECT_EQ(total.load(), 20 * 32);
}

}  // namespace
}  // namespace rodin
