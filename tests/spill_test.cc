// Spill-to-disk differential suite: forcing every operator working set over
// the temp-page ledger (spill_budget_pages = 1) must change
// *nothing observable* about a query — same rows in the same order, every
// ExecCounters field, the buffer pool's fetch/hit/miss totals and
// MeasuredCost() bit-identical to an unlimited run and to the whole-table
// LegacyExecutor oracle, for every batch_rows x exec_threads configuration.
// The ledger budget deliberately never clamps the buffer pool's LRU
// capacity, so this is exact equality, not a tolerance (docs/ROBUSTNESS.md).
//
// Also covered here: the cumulative live-temp-page ledger (two allocations
// that each fit the budget individually must still spill together), the
// single-oversized-row refusal and its machine-readable kResourceExhausted
// detail, spilled fix-cache hits, and lifecycle (cancel / forced deadline /
// fault-retry) interactions mid-spill.
//
// Queries cover the paper's Figure 3 recursion plus randomized SPJ,
// recursive and graph-closure queries (the exec_differential_test
// generators). Failures reproduce from the seed in the test name;
// RODIN_TEST_SEED=N shifts every seed by N.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/session.h"
#include "common/faults.h"
#include "common/rng.h"
#include "cost/cost_model.h"
#include "cost/stats.h"
#include "datagen/graph_gen.h"
#include "datagen/music_gen.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "optimizer/baseline.h"
#include "optimizer/optimizer.h"
#include "oracle/legacy_executor.h"
#include "query/builder.h"
#include "query/graph_queries.h"
#include "query/paper_queries.h"
#include "query/query_graph.h"
#include "test_seed.h"

namespace rodin {
namespace {

/// An explicit "unlimited" ledger: large enough that nothing spills, and —
/// because an engaged spill_budget_pages takes precedence — immune to a
/// RODIN_SPILL_BUDGET forced by the surrounding CI job.
constexpr size_t kUnlimitedPages = size_t{1} << 30;

QueryContext ForcedSpillContext() {
  QueryContext q;
  q.spill_budget_pages = 1;  // every multi-page working set goes to disk
  return q;
}

QueryContext UnlimitedContext() {
  QueryContext q;
  q.spill_budget_pages = kUnlimitedPages;
  return q;
}

/// Everything one execution produces, packaged for exact comparison.
/// `spills` is observability, not part of the identity: it necessarily
/// differs between the forced and unlimited arms.
struct ExecFingerprint {
  std::vector<std::string> rows;  // in emission order
  ExecCounters counters;
  uint64_t fetches = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  double measured_cost = 0;
  uint64_t spills = 0;
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
  ExecFingerprint fp =
      Fingerprint(db, exec, [&] { return exec.Execute(plan, options); });
  fp.spills = exec.spill_stats().spills;
  return fp;
}

ExecFingerprint RunOracle(Database* db, const PTNode& plan) {
  LegacyExecutor oracle(db);
  return Fingerprint(db, oracle, [&] { return oracle.Execute(plan); });
}

void ExpectSameFingerprint(const ExecFingerprint& got,
                           const ExecFingerprint& want) {
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

/// Runs `plan` under the oracle, then under both ledger arms (forced spill
/// / unlimited) for every batched configuration, asserting exact equality
/// throughout. Returns the maximum spill count seen across the forced arms,
/// so callers that know the query materializes multiple temps can assert
/// the forced arm really exercised the spill path.
uint64_t ExpectSpillIdentical(Database* db, const PTNode& plan,
                              const std::string& label) {
  const QueryContext unlimited = UnlimitedContext();
  const QueryContext forced = ForcedSpillContext();
  const ExecFingerprint want = RunOracle(db, plan);

  uint64_t forced_spills = 0;

  const size_t kBatchSizes[] = {1, 7, 1024};
  const size_t kThreadCounts[] = {1, 4};
  for (size_t batch : kBatchSizes) {
    for (size_t threads : kThreadCounts) {
      for (const QueryContext* arm : {&unlimited, &forced}) {
        const bool is_forced = arm == &forced;
        SCOPED_TRACE(label + " batch_rows=" + std::to_string(batch) +
                     " exec_threads=" + std::to_string(threads) +
                     (is_forced ? " forced-spill" : " unlimited"));
        ExecOptions options;
        options.batch_rows = batch;
        options.exec_threads = threads;
        options.query = arm;
        const ExecFingerprint got = RunConfig(db, plan, options);
        ExpectSameFingerprint(got, want);
        if (is_forced) forced_spills = std::max(forced_spills, got.spills);
        if (!is_forced) EXPECT_EQ(got.spills, 0u);
      }
    }
  }
  return forced_spills;
}

uint64_t OptimizeAndCompare(Database* db, const Stats& stats,
                            const CostModel& cost, const QueryGraph& q,
                            uint64_t seed, const std::string& label) {
  Optimizer optimizer(db, &stats, &cost, CostBasedOptions(seed));
  OptimizeResult plan = optimizer.Optimize(q);
  EXPECT_TRUE(plan.ok()) << plan.status.ToString() << "\n" << q.ToString();
  if (!plan.ok()) return 0;
  return ExpectSpillIdentical(db, *plan.plan, label);
}

// --- Figure 3: the paper's running example ---------------------------------

TEST(SpillDifferentialTest, Fig3HarpsichordForcedSpillIsBitIdentical) {
  MusicConfig config;
  config.num_composers = 60;
  config.lineage_depth = 8;
  GeneratedDb g = GenerateMusicDb(config, PaperMusicPhysical());
  Stats stats = Stats::Derive(*g.db);
  CostModel cost(g.db.get(), &stats);
  const uint64_t spills = OptimizeAndCompare(g.db.get(), stats, cost,
                                             Fig3Query(*g.schema), 42, "fig3");
  // The fixpoint's per-iteration deltas and the memoized result all exceed
  // a 1-page ledger, so the forced arm must really have spilled.
  EXPECT_GT(spills, 0u);
}

// --- Randomized queries over randomized databases --------------------------
// (the exec_differential_test generators, re-run across both ledger arms)

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

class SpillDifferentialSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpillDifferentialSeedTest, MusicSpjAndRecursive) {
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

  for (int round = 0; round < 2; ++round) {
    const QueryGraph spj = RandomSpjQuery(&rng, *g.schema);
    OptimizeAndCompare(g.db.get(), stats, cost, spj, seed + round,
                       "spj round " + std::to_string(round));
  }
  uint64_t recursive_spills = 0;
  for (int round = 0; round < 2; ++round) {
    const QueryGraph rec = RandomRecursiveQuery(&rng, *g.schema);
    recursive_spills += OptimizeAndCompare(
        g.db.get(), stats, cost, rec, seed + round,
        "recursive round " + std::to_string(round));
  }
  // Every recursive query materializes fixpoint deltas wider than one page
  // at these database sizes: the forced arm must have hit the disk.
  EXPECT_GT(recursive_spills, 0u);
}

TEST_P(SpillDifferentialSeedTest, GraphClosure) {
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

// 6 seeds x (2 SPJ + 2 recursive) + 6 graph closures = 30 random queries,
// each compared across 13 engine/ledger arms against the unlimited oracle.
INSTANTIATE_TEST_SUITE_P(Seeds, SpillDifferentialSeedTest,
                         ::testing::Range<uint64_t>(1, 7),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --- The cumulative live-page ledger ---------------------------------------

const char kFig3Text[] = R"(
relation Influencer includes
  (select [master: x.master, disciple: x, gen: 1] from x in Composer)
  union
  (select [master: i.master, disciple: x, gen: i.gen + 1]
   from i in Influencer, x in Composer where i.disciple = x.master)

select [dname: j.disciple.name] from j in Influencer
where j.master.works.instruments.iname = "harpsichord" and j.gen >= 6
)";

// Two recursive views joined in the answer: both memoized fixpoint results
// (plus the join's inner materialization) are live at the same time, so
// there are budgets where every allocation fits individually but the
// cumulative ledger is over — the shape the pre-fix per-allocation check
// silently admitted.
const char kTwoClosuresText[] = R"(
relation Influencer includes
  (select [master: x.master, disciple: x, gen: 1] from x in Composer)
  union
  (select [master: i.master, disciple: x, gen: i.gen + 1]
   from i in Influencer, x in Composer where i.disciple = x.master)

relation Lineage includes
  (select [root: x.master, leaf: x] from x in Composer)
  union
  (select [root: l.root, leaf: x]
   from l in Lineage, x in Composer where l.leaf = x.master)

select [a: i.disciple.name, b: l.leaf.name]
from i in Influencer, l in Lineage
where i.disciple = l.leaf and i.gen >= 3
)";

std::vector<std::string> Keys(const Table& t) {
  std::vector<std::string> out;
  for (const Row& row : t.rows) {
    std::string key;
    for (const Value& v : row) key += v.ToString() + "|";
    out.push_back(std::move(key));
  }
  return out;
}

GeneratedDb MakeLedgerDb() {
  MusicConfig config;
  config.num_composers = 60;
  config.lineage_depth = 8;
  return GenerateMusicDb(config, PaperMusicPhysical());
}

/// The largest single temp allocation kTwoClosuresText makes on
/// MakeLedgerDb(), in pages. Found once by walking the ledger budget up
/// from 1 with the (since removed) fail-fast mode and logging every
/// allocation: seven 1-page fix deltas, the first closure's 2-page fix
/// cache, seven more deltas, the second closure's 3-page fix cache, then a
/// 2-page join build — 7 pages live at the end, so budgets 1..6 tripped
/// and 7 completed. At this budget no allocation exceeds the ledger on its
/// own; the 3-page fix cache overflows it only on top of the 2 pages
/// already live.
constexpr size_t kTwoClosuresLargestAllocPages = 3;

TEST(SpillLedgerTest, CumulativeLiveTempPagesTripAcrossAllocations) {
  GeneratedDb g = MakeLedgerDb();
  Session session(g.db.get());
  QueryOptions unlimited;
  unlimited.cold = true;
  unlimited.query.spill_budget_pages = kUnlimitedPages;
  const QueryRun base = session.Run(kTwoClosuresText, unlimited);
  ASSERT_TRUE(base.ok()) << base.error();

  // Only the *cumulative* ledger can spill a ledger allocation at this
  // budget: the live temps together overflow it although each allocation
  // fits. The regression this pins: a per-allocation check (the original
  // bug) spills none of them, over-committing memory by the live
  // remainder. The spilled run must still be bit-identical to the
  // unlimited one (the ledger never clamps the buffer pool).
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::Counter* spills = metrics.GetCounter("rodin.spill.spills");
  obs::Counter* passes = metrics.GetCounter("rodin.spill.passes");
  // Per-operator spill counts; the first three are the ledger-side
  // operators, whose temps are charged to the ledger.
  const std::vector<obs::Counter*> by_op = {
      metrics.GetCounter("rodin.spill.spills.join-build"),
      metrics.GetCounter("rodin.spill.spills.fix-delta"),
      metrics.GetCounter("rodin.spill.spills.fix-cache"),
      metrics.GetCounter("rodin.spill.spills.dedup"),
      metrics.GetCounter("rodin.spill.spills.union")};
  std::vector<uint64_t> by_op_before;
  for (const obs::Counter* c : by_op) by_op_before.push_back(c->value());
  const uint64_t spills_before = spills->value();
  const uint64_t passes_before = passes->value();
  QueryOptions bounded = unlimited;
  bounded.query.spill_budget_pages = kTwoClosuresLargestAllocPages;
  const QueryRun spilled = session.Run(kTwoClosuresText, bounded);
  ASSERT_TRUE(spilled.ok()) << spilled.status.ToString();
  const uint64_t run_spills = spills->value() - spills_before;
  const uint64_t run_passes = passes->value() - passes_before;
  std::vector<uint64_t> run_by_op;
  for (size_t i = 0; i < by_op.size(); ++i) {
    run_by_op.push_back(by_op[i]->value() - by_op_before[i]);
  }
  const uint64_t ledger_spills = run_by_op[0] + run_by_op[1] + run_by_op[2];
  const uint64_t dedup_spills = run_by_op[3] + run_by_op[4];
  EXPECT_GE(run_spills, 1u);
  EXPECT_EQ(ledger_spills + dedup_spills, run_spills);
  // Which working sets spilled matters too. Under a per-allocation check
  // the live total still outgrows the budget, so the dedup buffers (which
  // size themselves against the ledger's remainder) spill sorted runs
  // instead and no ledger allocation spills at all.
  EXPECT_GE(ledger_spills, 1u);
  // The same fact seen through read-back: each dedup run is merged back
  // exactly once, but a spilled ledger allocation is read back more often
  // — the 2-page join build is re-scanned on every probe pass — so
  // read-back passes outnumber spills only when the cumulative ledger did
  // its job.
  EXPECT_GT(run_passes, run_spills);
  EXPECT_EQ(Keys(spilled.answer), Keys(base.answer));
  EXPECT_EQ(spilled.counters.predicate_evals, base.counters.predicate_evals);
  EXPECT_EQ(spilled.counters.rows_produced, base.counters.rows_produced);
  EXPECT_EQ(spilled.counters.fix_iterations, base.counters.fix_iterations);
  EXPECT_EQ(spilled.measured_cost, base.measured_cost);
}

// --- The one unconditional refusal: a row wider than the budget ------------

QueryGraph WideRecursiveQuery(const Schema& schema) {
  // 260 extra columns push one row past a 1-page ledger (16 bytes/value:
  // 263 columns ~ 4208 bytes > 4096), so the fixpoint delta's first
  // allocation is refused even with spilling on.
  QueryGraphBuilder b;
  NodeBuilder& p1 = b.Node("Influencer", "P1");
  p1.Input("Composer", "x");
  p1.OutPath("master", "x", {"master"});
  p1.OutPath("disciple", "x");
  p1.Out("gen", Expr::Lit(Value::Int(1)));
  NodeBuilder& p2 = b.Node("Influencer", "P2");
  p2.Input("Influencer", "i");
  p2.Input("Composer", "x");
  p2.Where(Expr::Eq(Expr::Path("i", {"disciple"}), Expr::Path("x", {"master"})));
  p2.OutPath("master", "i", {"master"});
  p2.OutPath("disciple", "x");
  p2.Out("gen", Expr::Arith(ArithOp::kAdd, Expr::Path("i", {"gen"}),
                            Expr::Lit(Value::Int(1))));
  for (int i = 0; i < 260; ++i) {
    const std::string col = "c" + std::to_string(i);
    p1.Out(col, Expr::Lit(Value::Int(i)));
    p2.Out(col, Expr::Lit(Value::Int(i)));
  }
  NodeBuilder& answer = b.Node("Answer", "P3");
  answer.Input("Influencer", "j");
  answer.OutPath("n", "j", {"disciple", "name"});
  return b.Build(schema);
}

TEST(SpillLedgerTest, RowWiderThanBudgetIsRefusedEvenWithSpillOn) {
  MusicConfig config;
  config.num_composers = 20;
  config.lineage_depth = 4;
  GeneratedDb g = GenerateMusicDb(config, PaperMusicPhysical());
  Stats stats = Stats::Derive(*g.db);
  CostModel cost(g.db.get(), &stats);
  Optimizer optimizer(g.db.get(), &stats, &cost, CostBasedOptions(42));
  OptimizeResult plan = optimizer.Optimize(WideRecursiveQuery(*g.schema));
  ASSERT_TRUE(plan.ok()) << plan.status.ToString();

  const QueryContext forced = ForcedSpillContext();
  {
    ExecOptions options;
    options.query = &forced;
    Executor exec(g.db.get());
    exec.ResetMeasurement(/*clear_buffer=*/true);
    Table out;
    const Status status = exec.ExecuteInto(*plan.plan, options, &out);
    ASSERT_EQ(status.code, Status::Code::kResourceExhausted)
        << status.ToString();
    EXPECT_NE(status.message.find("no partitioning can split one row"),
              std::string::npos)
        << status.message;
    // The packed detail names the tripping operator and the page
    // arithmetic, so pool managers branch on the payload, not on message
    // text.
    EXPECT_EQ(ResourceDetailOp(status.detail), SpillOpTag::kFixDelta);
    EXPECT_EQ(ResourceDetailRequested(status.detail), TempRowPages(263));
    EXPECT_GT(ResourceDetailRequested(status.detail),
              ResourceDetailRemaining(status.detail));
    EXPECT_LE(ResourceDetailRemaining(status.detail),
              forced.spill_budget_pages);
    EXPECT_TRUE(out.rows.empty());
    // Narrower working sets (the union dedup) may have spilled before the
    // wide row tripped; the point is the refusal fired despite spilling.
  }

  // The same plan under an unlimited ledger completes: the refusal is about
  // the budget, not the query.
  const QueryContext unlimited = UnlimitedContext();
  ExecOptions ok;
  ok.query = &unlimited;
  Executor exec(g.db.get());
  exec.ResetMeasurement(/*clear_buffer=*/true);
  Table out;
  ASSERT_TRUE(exec.ExecuteInto(*plan.plan, ok, &out).ok());
  EXPECT_FALSE(out.rows.empty());
}

// --- Spilled fix-cache hits ------------------------------------------------

TEST(SpillLedgerTest, SpilledFixCacheHitServesIdenticalRows) {
  MusicConfig config;
  config.num_composers = 60;
  config.lineage_depth = 8;
  GeneratedDb g = GenerateMusicDb(config, PaperMusicPhysical());
  Stats stats = Stats::Derive(*g.db);
  CostModel cost(g.db.get(), &stats);
  Optimizer optimizer(g.db.get(), &stats, &cost, CostBasedOptions(42));
  OptimizeResult plan = optimizer.Optimize(Fig3Query(*g.schema));
  ASSERT_TRUE(plan.ok()) << plan.status.ToString();

  const QueryContext forced = ForcedSpillContext();
  const QueryContext unlimited = UnlimitedContext();
  // One executor per arm: the fix cache persists across Execute calls, so
  // the second run is served from the (spilled) memoized result.
  Executor spilling(g.db.get());
  Executor plain(g.db.get());
  ExecOptions forced_options;
  forced_options.query = &forced;
  ExecOptions plain_options;
  plain_options.query = &unlimited;

  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    spilling.ResetMeasurement(/*clear_buffer=*/true);
    const Table got = spilling.Execute(*plan.plan, forced_options);
    plain.ResetMeasurement(/*clear_buffer=*/true);
    const Table want = plain.Execute(*plan.plan, plain_options);
    ASSERT_EQ(Keys(got), Keys(want));
    EXPECT_EQ(spilling.MeasuredCost(), plain.MeasuredCost());
    EXPECT_EQ(spilling.counters().fix_iterations,
              plain.counters().fix_iterations);
  }
  // The cache-hit run re-read the spilled payload from disk.
  EXPECT_GT(spilling.spill_stats().passes, 0u);
}

// --- Lifecycle mid-spill ---------------------------------------------------

class SpillLifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().Configure(FaultConfig{});  // disabled
    g_ = MakeLedgerDb();
  }
  void TearDown() override { FaultInjector::Global().Configure(FaultConfig{}); }
  GeneratedDb g_;
};

TEST_F(SpillLifecycleTest, CancelAbortsForcedSpillRun) {
  Session session(g_.db.get());
  QueryOptions options;
  options.cold = true;
  options.query.spill_budget_pages = 1;
  options.query.cancel.RequestCancel();
  const QueryRun run = session.Run(kFig3Text, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status.code, Status::Code::kCancelled) << run.status.ToString();
  EXPECT_TRUE(run.answer.rows.empty());
}

TEST_F(SpillLifecycleTest, ForcedDeadlineMidFixpointUnderForcedSpill) {
  // The forced deadline fires inside the semi-naive loop, after earlier
  // iterations have already written spill files: the abort must unwind
  // them cleanly (tmpfile-backed spill files self-delete) and surface the
  // deadline, not a spill artifact.
  FaultConfig fc;
  fc.enabled = true;
  fc.page_fetch_fail = 0;
  fc.alloc_fail = 0;
  fc.force_deadline_fix_iter = 2;
  FaultInjector::Global().Configure(fc);

  Session session(g_.db.get());
  QueryOptions options;
  options.cold = true;
  options.query.spill_budget_pages = 1;
  const QueryRun run = session.Run(kFig3Text, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status.code, Status::Code::kDeadlineExceeded)
      << run.status.ToString();
  EXPECT_GE(run.counters.fix_iterations, 1u);
  EXPECT_TRUE(run.answer.rows.empty());
}

TEST_F(SpillLifecycleTest, FaultRetryUnderForcedSpillIsBitIdentical) {
  // A transient page-fetch fault aborts an attempt that had already spilled;
  // the retry must discard the partial spill state and finish bit-identical
  // to a clean unlimited run.
  Session session(g_.db.get());
  QueryOptions clean_options;
  clean_options.cold = true;
  clean_options.query.spill_budget_pages = kUnlimitedPages;
  const QueryRun clean = session.Run(kFig3Text, clean_options);
  ASSERT_TRUE(clean.ok()) << clean.error();

  FaultConfig fc;
  fc.enabled = true;
  fc.page_fetch_fail = 1.0;
  fc.alloc_fail = 0;
  fc.max_faults = 1;
  FaultInjector::Global().Configure(fc);

  QueryOptions forced;
  forced.cold = true;
  forced.query.spill_budget_pages = 1;
  const QueryRun retried = session.Run(kFig3Text, forced);
  ASSERT_TRUE(retried.ok()) << retried.status.ToString();
  EXPECT_EQ(FaultInjector::Global().faults_injected(), 1u);
  EXPECT_EQ(Keys(retried.answer), Keys(clean.answer));
  EXPECT_EQ(retried.counters.predicate_evals, clean.counters.predicate_evals);
  EXPECT_EQ(retried.counters.rows_produced, clean.counters.rows_produced);
  EXPECT_EQ(retried.counters.fix_iterations, clean.counters.fix_iterations);
  EXPECT_EQ(retried.measured_cost, clean.measured_cost);
}

}  // namespace
}  // namespace rodin
