// Differential test for the batched morsel-parallel engine: for any batch
// size and thread count, the executor must produce the *same rows in the
// same order* as the whole-table evaluator (the test-only LegacyExecutor
// oracle), with bit-identical accounting — every ExecCounters field, the
// buffer pool's fetch/hit/miss totals, and MeasuredCost(). The batched
// engine defers page charges into per-operator logs and replays them in the
// oracle's evaluation order, so "identical" here is exact equality, not a
// tolerance.
//
// Queries cover the paper's Figure 3 recursion, a projection the bytecode
// compiler declines (so the engine falls back to the interpreter), and
// randomized SPJ and recursive queries over randomized databases (reusing
// the PR 1 generators' shapes). Failures reproduce from the seed in the test name; setting
// RODIN_TEST_SEED=N shifts every seed by N for fresh inputs (the effective
// seed is logged on failure).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/session.h"
#include "common/rng.h"
#include "cost/cost_model.h"
#include "cost/stats.h"
#include "datagen/graph_gen.h"
#include "datagen/music_gen.h"
#include "exec/executor.h"
#include "optimizer/baseline.h"
#include "optimizer/optimizer.h"
#include "oracle/legacy_executor.h"
#include "query/builder.h"
#include "query/graph_queries.h"
#include "query/paper_queries.h"
#include "query/parser.h"
#include "query/query_graph.h"
#include "test_seed.h"

namespace rodin {
namespace {

/// Everything one execution produces, packaged for exact comparison.
struct ExecFingerprint {
  std::vector<std::string> rows;  // in emission order
  ExecCounters counters;
  uint64_t fetches = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  double measured_cost = 0;
};

/// Packages one cold run: `exec` is an Executor or the LegacyExecutor
/// oracle, `run` evaluates the plan on it.
template <typename Exec, typename Run>
ExecFingerprint Fingerprint(Database* db, Exec& exec, Run run) {
  exec.ResetMeasurement(/*clear_buffer=*/true);  // cold: deterministic pool
  Table t = run();

  ExecFingerprint fp;
  fp.rows.reserve(t.rows.size());
  for (const Row& row : t.rows) {
    std::string key;
    for (const Value& v : row) key += v.ToString() + "|";
    fp.rows.push_back(std::move(key));
  }
  fp.counters = exec.counters();
  const BufferPool::Stats& s = db->buffer_pool().stats();
  fp.fetches = s.fetches;
  fp.hits = s.hits;
  fp.misses = s.misses;
  fp.measured_cost = exec.MeasuredCost();
  return fp;
}

ExecFingerprint RunConfig(Database* db, const PTNode& plan,
                          const ExecOptions& options) {
  Executor exec(db);
  return Fingerprint(db, exec, [&] { return exec.Execute(plan, options); });
}

ExecFingerprint RunOracle(Database* db, const PTNode& plan) {
  LegacyExecutor oracle(db);
  return Fingerprint(db, oracle, [&] { return oracle.Execute(plan); });
}

/// Runs `plan` under the oracle and under every batched configuration,
/// asserting exact equality of rows, counters and cost.
void ExpectAllConfigsIdentical(Database* db, const PTNode& plan,
                               const std::string& label) {
  const ExecFingerprint want = RunOracle(db, plan);

  const size_t kBatchSizes[] = {1, 7, 1024};
  const size_t kThreadCounts[] = {1, 4};
  for (size_t batch : kBatchSizes) {
    for (size_t threads : kThreadCounts) {
      SCOPED_TRACE(label + " batch_rows=" + std::to_string(batch) +
                   " exec_threads=" + std::to_string(threads));
      ExecOptions options;
      options.batch_rows = batch;
      options.exec_threads = threads;
      const ExecFingerprint got = RunConfig(db, plan, options);

      ASSERT_EQ(got.rows, want.rows);
      EXPECT_EQ(got.counters.predicate_evals, want.counters.predicate_evals);
      EXPECT_EQ(got.counters.method_calls, want.counters.method_calls);
      EXPECT_EQ(got.counters.method_cost, want.counters.method_cost);
      EXPECT_EQ(got.counters.rows_produced, want.counters.rows_produced);
      EXPECT_EQ(got.counters.fix_iterations, want.counters.fix_iterations);
      EXPECT_EQ(got.fetches, want.fetches);
      EXPECT_EQ(got.hits, want.hits);
      EXPECT_EQ(got.misses, want.misses);
      EXPECT_EQ(got.measured_cost, want.measured_cost);  // bitwise, no ULP
    }
  }
}

void OptimizeAndCompare(Database* db, const Stats& stats, const CostModel& cost,
                        const QueryGraph& q, uint64_t seed,
                        const std::string& label) {
  Optimizer optimizer(db, &stats, &cost, CostBasedOptions(seed));
  OptimizeResult plan = optimizer.Optimize(q);
  ASSERT_TRUE(plan.ok()) << plan.status.ToString() << "\n" << q.ToString();
  ExpectAllConfigsIdentical(db, *plan.plan, label);
}

// --- Figure 3: the paper's running example ---------------------------------

TEST(ExecDifferentialTest, Fig3Harpsichord) {
  MusicConfig config;
  config.num_composers = 60;
  config.lineage_depth = 8;
  GeneratedDb g = GenerateMusicDb(config, PaperMusicPhysical());
  Stats stats = Stats::Derive(*g.db);
  CostModel cost(g.db.get(), &stats);
  OptimizeAndCompare(g.db.get(), stats, cost, Fig3Query(*g.schema), 42,
                     "fig3");
}

// --- The interpreter fallback ----------------------------------------------

// The compiler declines a projection list over 255 columns, so the engine
// interprets that one expression while the selection below it still runs
// compiled. A declined expression is the only way a product run reaches
// the interpreter; it must meet the same contract against the oracle.
TEST(ExecDifferentialTest, DeclinedProjectionFallsBackToInterpreter) {
  MusicConfig config;
  config.num_composers = 60;
  config.lineage_depth = 8;
  GeneratedDb g = GenerateMusicDb(config, PaperMusicPhysical());
  const char* const kExprs[] = {"x.name", "x.birthyear", "x.master.name",
                                "x.age"};
  std::string text = "select [";
  for (int k = 0; k < 256; ++k) {
    if (k > 0) text += ", ";
    text += 'c';
    text += std::to_string(k);
    text += ": ";
    text += kExprs[k % 4];
  }
  text += "] from x in Composer where x.birthyear < 1750";

  const ParseResult parsed = ParseQuery(text, *g.schema);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  Stats stats = Stats::Derive(*g.db);
  CostModel cost(g.db.get(), &stats);
  Optimizer optimizer(g.db.get(), &stats, &cost, CostBasedOptions(42));
  OptimizeResult plan = optimizer.Optimize(parsed.graph);
  ASSERT_TRUE(plan.ok()) << plan.status.ToString();
  ExpectAllConfigsIdentical(g.db.get(), *plan.plan, "proj256");

  Session session(g.db.get());
  const ExplainResult ex = session.Explain(text);
  ASSERT_TRUE(ex.ok()) << ex.status.ToString();
  EXPECT_NE(ex.vm_disassembly.find(
                " · projection:\n(interpreted: not compilable)\n"),
            std::string::npos)
      << ex.vm_disassembly;
  EXPECT_NE(ex.vm_disassembly.find(" · predicate:\nchunk: "),
            std::string::npos)
      << ex.vm_disassembly;
}

// --- Randomized queries over randomized databases --------------------------

QueryGraph RandomSpjQuery(Rng* rng, const Schema& schema) {
  QueryGraphBuilder b;
  NodeBuilder& node = b.Node("Answer");
  const int arcs = 1 + static_cast<int>(rng->Below(3));
  std::vector<std::string> vars;
  for (int i = 0; i < arcs; ++i) {
    const std::string var = "x" + std::to_string(i);
    node.Input("Composer", var);
    vars.push_back(var);
    if (i > 0) {
      node.Where(Expr::Eq(Expr::Path(vars[i - 1], {"master"}),
                          rng->Chance(0.5) ? Expr::Path(var, {"master"})
                                           : Expr::Path(var, {})));
    }
  }
  const int sels = 1 + static_cast<int>(rng->Below(3));
  for (int i = 0; i < sels; ++i) {
    const std::string& var = vars[rng->Below(vars.size())];
    switch (rng->Below(4)) {
      case 0:
        node.Where(Expr::Cmp(rng->Chance(0.5) ? CompareOp::kGe : CompareOp::kLt,
                             Expr::Path(var, {"birthyear"}),
                             Expr::Lit(Value::Int(rng->Range(1620, 1720)))));
        break;
      case 1:
        node.Where(Expr::Eq(
            Expr::Path(var, {"works", "instruments", "family"}),
            Expr::Lit(Value::Str(rng->Chance(0.5) ? "keyboard" : "string"))));
        break;
      case 2:
        node.Where(Expr::Eq(
            Expr::Path(var, {"master", "name"}),
            Expr::Lit(Value::Str("composer_" + std::to_string(rng->Below(8))))));
        break;
      default: {
        static const char* kInstr[] = {"harpsichord", "flute", "violin",
                                       "organ"};
        node.Where(Expr::Eq(
            Expr::Path(var, {"works", "instruments", "iname"}),
            Expr::Lit(Value::Str(kInstr[rng->Below(4)]))));
        break;
      }
    }
  }
  node.OutPath("n", vars[0], {"name"});
  if (rng->Chance(0.5)) node.OutPath("y", vars[0], {"birthyear"});
  return b.Build(schema);
}

QueryGraph RandomRecursiveQuery(Rng* rng, const Schema& schema) {
  QueryGraphBuilder b;
  b.Node("Influencer", "P1")
      .Input("Composer", "x")
      .OutPath("master", "x", {"master"})
      .OutPath("disciple", "x")
      .Out("gen", Expr::Lit(Value::Int(1)));
  b.Node("Influencer", "P2")
      .Input("Influencer", "i")
      .Input("Composer", "x")
      .Where(Expr::Eq(Expr::Path("i", {"disciple"}), Expr::Path("x", {"master"})))
      .OutPath("master", "i", {"master"})
      .OutPath("disciple", "x")
      .Out("gen", Expr::Arith(ArithOp::kAdd, Expr::Path("i", {"gen"}),
                              Expr::Lit(Value::Int(1))));

  NodeBuilder& answer = b.Node("Answer", "P3");
  answer.Input("Influencer", "j");
  if (rng->Chance(0.7)) {
    answer.Where(Expr::Cmp(CompareOp::kGe, Expr::Path("j", {"gen"}),
                           Expr::Lit(Value::Int(rng->Range(2, 6)))));
  }
  if (rng->Chance(0.5)) {
    static const char* kInstr[] = {"harpsichord", "flute", "violin", "organ"};
    answer.Where(
        Expr::Eq(Expr::Path("j", {"master", "works", "instruments", "iname"}),
                 Expr::Lit(Value::Str(kInstr[rng->Below(4)]))));
  } else {
    answer.Where(Expr::Cmp(CompareOp::kLt,
                           Expr::Path("j", {"master", "birthyear"}),
                           Expr::Lit(Value::Int(rng->Range(1620, 1720)))));
  }
  answer.OutPath("n", "j", {"disciple", "name"});
  return b.Build(schema);
}

class ExecDifferentialSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecDifferentialSeedTest, MusicSpjAndRecursive) {
  const uint64_t seed = GetParam() + TestSeedBase();
  SCOPED_TRACE("effective seed=" + std::to_string(seed) +
               " (RODIN_TEST_SEED shifts)");
  Rng rng(seed * 101 + 13);

  MusicConfig config;
  config.seed = seed * 31 + 7;
  config.num_composers = 40 + static_cast<uint32_t>(rng.Below(50));
  config.lineage_depth = 3 + static_cast<uint32_t>(rng.Below(8));
  config.harpsichord_fraction = 0.05 + 0.25 * rng.NextDouble();
  config.works_per_composer_max = 4 + static_cast<uint32_t>(rng.Below(5));
  PhysicalConfig physical = PaperMusicPhysical();
  if (rng.Chance(0.5)) {
    physical.sel_indexes.push_back(SelIndexSpec{"Composer", "name"});
  }
  if (rng.Chance(0.5)) {
    physical.sel_indexes.push_back(SelIndexSpec{"Composer", "birthyear"});
  }
  GeneratedDb g = GenerateMusicDb(config, physical);
  Stats stats = Stats::Derive(*g.db);
  CostModel cost(g.db.get(), &stats);

  for (int round = 0; round < 3; ++round) {
    const QueryGraph spj = RandomSpjQuery(&rng, *g.schema);
    OptimizeAndCompare(g.db.get(), stats, cost, spj, seed + round,
                       "spj round " + std::to_string(round));
  }
  for (int round = 0; round < 2; ++round) {
    const QueryGraph rec = RandomRecursiveQuery(&rng, *g.schema);
    OptimizeAndCompare(g.db.get(), stats, cost, rec, seed + round,
                       "recursive round " + std::to_string(round));
  }
}

TEST_P(ExecDifferentialSeedTest, GraphClosure) {
  const uint64_t seed = GetParam() + TestSeedBase();
  SCOPED_TRACE("effective seed=" + std::to_string(seed) +
               " (RODIN_TEST_SEED shifts)");
  Rng rng(seed * 77 + 3);

  GraphConfig config;
  config.seed = seed * 13 + 1;
  config.num_nodes = 60 + static_cast<uint32_t>(rng.Below(60));
  config.chain_depth = 4 + static_cast<uint32_t>(rng.Below(6));
  config.path_len = static_cast<uint32_t>(rng.Below(3));
  config.num_labels = 2 + static_cast<uint32_t>(rng.Below(8));
  GeneratedDb g = GenerateGraphDb(config, DefaultGraphPhysical());
  Stats stats = Stats::Derive(*g.db);
  CostModel cost(g.db.get(), &stats);

  const QueryGraph q = GraphClosureQuery(config, *g.schema);
  OptimizeAndCompare(g.db.get(), stats, cost, q, seed, "graph closure");
}

// 5 seeds x (3 SPJ + 2 recursive) + 5 graph closures = 30 random queries,
// each compared across 6 batched configurations against the legacy oracle.
INSTANTIATE_TEST_SUITE_P(Seeds, ExecDifferentialSeedTest,
                         ::testing::Range<uint64_t>(1, 6),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --- Hash equi-join: identical rows, honestly different accounting ---------

TEST(ExecDifferentialTest, HashEquiJoinSameRows) {
  MusicConfig config;
  config.num_composers = 60;
  config.lineage_depth = 8;
  GeneratedDb g = GenerateMusicDb(config, PaperMusicPhysical());
  Stats stats = Stats::Derive(*g.db);
  CostModel cost(g.db.get(), &stats);
  Optimizer optimizer(g.db.get(), &stats, &cost, CostBasedOptions(42));
  OptimizeResult plan = optimizer.Optimize(Fig3Query(*g.schema));
  ASSERT_TRUE(plan.ok()) << plan.status.ToString();

  ExecOptions nl;
  const ExecFingerprint want = RunConfig(g.db.get(), *plan.plan, nl);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ExecOptions hashed;
    hashed.hash_equijoin = true;
    hashed.exec_threads = threads;
    const ExecFingerprint got = RunConfig(g.db.get(), *plan.plan, hashed);
    // Same rows in the same order; accounting is allowed to differ (fewer
    // predicate evaluations, no per-outer-row re-scan charges).
    ASSERT_EQ(got.rows, want.rows) << "threads=" << threads;
    EXPECT_LE(got.counters.predicate_evals, want.counters.predicate_evals);
  }
}

}  // namespace
}  // namespace rodin
