// E12 — batched morsel-parallel execution: wall-clock of the batched engine
// vs the whole-table evaluator (the test-only LegacyExecutor oracle, timed
// as the baseline), and a thread sweep over the batched engine's morsel
// workers, on the Figure 3 recursion and a selective scan.
// Every configuration computes the same answer with bit-identical counters
// and measured cost (asserted here cheaply via row counts; the exhaustive
// check is exec_differential_test) — the sweep measures pure wall time.
//
// Note: speedup is bounded by the cores the host actually has; on a 1-core
// container every thread count collapses to ~1×. The rows/sec counter is
// still meaningful as a throughput baseline.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "common/check.h"
#include "cost/cost_model.h"
#include "cost/stats.h"
#include "datagen/music_gen.h"
#include "exec/executor.h"
#include "optimizer/baseline.h"
#include "optimizer/optimizer.h"
#include "oracle/legacy_executor.h"
#include "query/builder.h"
#include "query/paper_queries.h"

using namespace rodin;

namespace {

struct ExecCase {
  GeneratedDb db;
  std::unique_ptr<Stats> stats;
  std::unique_ptr<CostModel> cost;
  PTPtr plan;
  size_t expect_rows = 0;
};

ExecCase MakeCase(const QueryGraph& (*make_query)(ExecCase*),
                  int num_composers = 300) {
  ExecCase c;
  MusicConfig config;
  config.num_composers = num_composers;  // big enough that morsels amortize
  config.lineage_depth = 10;
  c.db = GenerateMusicDb(config, PaperMusicPhysical());
  c.stats = std::make_unique<Stats>(Stats::Derive(*c.db.db));
  c.cost = std::make_unique<CostModel>(c.db.db.get(), c.stats.get());

  const QueryGraph& q = make_query(&c);
  Optimizer opt(c.db.db.get(), c.stats.get(), c.cost.get(),
                CostBasedOptions(42));
  OptimizeResult r = opt.Optimize(q);
  RODIN_CHECK(r.ok(), r.status.message.c_str());
  c.plan = r.plan->Clone();
  c.cost->Annotate(c.plan.get());

  Executor exec(c.db.db.get());
  exec.ResetMeasurement(true);
  c.expect_rows = exec.Execute(*c.plan).rows.size();
  return c;
}

ExecCase& RecursiveCase() {
  static ExecCase* c = new ExecCase(MakeCase(+[](ExecCase* cc) -> const QueryGraph& {
    static QueryGraph q;
    q = Fig3Query(*cc->db.schema);
    return q;
  }));
  return *c;
}

ExecCase& ScanCase() {
  static ExecCase* c = new ExecCase(MakeCase(+[](ExecCase* cc) -> const QueryGraph& {
    static QueryGraph q;
    QueryGraphBuilder b;
    NodeBuilder& node = b.Node("Answer");
    node.Input("Composer", "x");
    node.Input("Composer", "y");
    node.Where(Expr::Eq(Expr::Path("x", {"master"}), Expr::Path("y", {})));
    node.Where(Expr::Eq(Expr::Path("x", {"works", "instruments", "iname"}),
                        Expr::Lit(Value::Str("harpsichord"))));
    node.OutPath("n", "x", {"name"});
    q = b.Build(*cc->db.schema);
    return q;
  }));
  return *c;
}

// Scan-heavy selective filter over a large extent: deep arithmetic chains
// under each comparison make per-row expression evaluation the dominant
// cost — the eval-bound shape the bytecode VM targets (E14).
ExecCase& FilterCase() {
  static ExecCase* c = new ExecCase(MakeCase(
      +[](ExecCase* cc) -> const QueryGraph& {
        static QueryGraph q;
        QueryGraphBuilder b;
        NodeBuilder& node = b.Node("Answer");
        node.Input("Composer", "x");
        // The interpreter allocates a Value vector per node per row; the
        // VM runs the same dataflow over reused registers.
        auto year_chain = [] {
          ExprPtr e = Expr::Path("x", {"birthyear"});
          for (int i = 0; i < 16; ++i) {
            e = Expr::Arith(i % 2 == 0 ? ArithOp::kAdd : ArithOp::kSub,
                            std::move(e), Expr::Lit(Value::Int(i + 1)));
          }
          return e;
        };
        node.Where(Expr::Cmp(CompareOp::kGe, year_chain(),
                             Expr::Lit(Value::Int(1640))));
        node.Where(Expr::Cmp(CompareOp::kLt, year_chain(),
                             Expr::Lit(Value::Int(1650))));
        node.OutPath("n", "x", {"name"});
        q = b.Build(*cc->db.schema);
        return q;
      },
      /*num_composers=*/3000));
  return *c;
}

// Deep path expression per scanned row: x.master.works.instruments.iname
// fans out through two collections — navigation-bound, the other E14 shape.
ExecCase& DeepPathCase() {
  static ExecCase* c = new ExecCase(MakeCase(
      +[](ExecCase* cc) -> const QueryGraph& {
        static QueryGraph q;
        QueryGraphBuilder b;
        NodeBuilder& node = b.Node("Answer");
        node.Input("Composer", "x");
        node.Where(Expr::Eq(
            Expr::Path("x", {"master", "works", "instruments", "iname"}),
            Expr::Lit(Value::Str("harpsichord"))));
        node.OutPath("n", "x", {"name"});
        q = b.Build(*cc->db.schema);
        return q;
      },
      /*num_composers=*/1000));
  return *c;
}

/// Times cold runs of `c.plan`; `execute` builds an evaluator over the
/// database and returns one run's result.
template <typename Execute>
void TimeRuns(ExecCase& c, benchmark::State& state, Execute execute) {
  size_t rows = 0;
  for (auto _ : state) {
    const Table out = execute();
    rows += out.rows.size();
    if (out.rows.size() != c.expect_rows) {
      state.SkipWithError("row count diverged from reference");
      return;
    }
    benchmark::DoNotOptimize(out.rows.data());
  }
  state.counters["rows/sec"] = benchmark::Counter(
      static_cast<double>(rows), benchmark::Counter::kIsRate);
}

void RunOnce(ExecCase& c, const ExecOptions& options, benchmark::State& state) {
  TimeRuns(c, state, [&] {
    Executor exec(c.db.db.get());
    exec.ResetMeasurement(true);
    return exec.Execute(*c.plan, options);
  });
}

void RunOracle(ExecCase& c, benchmark::State& state) {
  TimeRuns(c, state, [&] {
    LegacyExecutor exec(c.db.db.get());
    exec.ResetMeasurement(true);
    return exec.Execute(*c.plan);
  });
}

void BM_LegacyRecursive(benchmark::State& state) {
  RunOracle(RecursiveCase(), state);
}
BENCHMARK(BM_LegacyRecursive)->Unit(benchmark::kMillisecond)->UseRealTime();

// The batched-engine rows measure interpreted evaluation, as their baseline
// entries did when the executor interpreted by default; the compiled side
// of the same cases is E14's rows below.
void BM_BatchedRecursive(benchmark::State& state) {
  ExecOptions options;
  options.compiled_eval = false;
  options.exec_threads = static_cast<size_t>(state.range(0));
  RunOnce(RecursiveCase(), options, state);
}
BENCHMARK(BM_BatchedRecursive)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_LegacyScanJoin(benchmark::State& state) {
  RunOracle(ScanCase(), state);
}
BENCHMARK(BM_LegacyScanJoin)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_BatchedScanJoin(benchmark::State& state) {
  ExecOptions options;
  options.compiled_eval = false;
  options.exec_threads = static_cast<size_t>(state.range(0));
  RunOnce(ScanCase(), options, state);
}
BENCHMARK(BM_BatchedScanJoin)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_BatchedScanJoinHash(benchmark::State& state) {
  ExecOptions options;
  options.compiled_eval = false;
  options.hash_equijoin = true;
  options.exec_threads = static_cast<size_t>(state.range(0));
  RunOnce(ScanCase(), options, state);
}
BENCHMARK(BM_BatchedScanJoinHash)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// E14 — interpreted vs compiled expression evaluation. Same plans, same
// answers, bit-identical accounting (vm_differential_fuzz_test); these rows
// measure the wall-time side of the contract. Compiled is the executor's
// default; the interpreted rows turn it off.
void BM_ScanFilterInterp(benchmark::State& state) {
  ExecOptions options;
  options.compiled_eval = false;
  RunOnce(FilterCase(), options, state);
}
BENCHMARK(BM_ScanFilterInterp)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ScanFilterCompiled(benchmark::State& state) {
  ExecOptions options;
  RunOnce(FilterCase(), options, state);
}
BENCHMARK(BM_ScanFilterCompiled)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_DeepPathInterp(benchmark::State& state) {
  ExecOptions options;
  options.compiled_eval = false;
  RunOnce(DeepPathCase(), options, state);
}
BENCHMARK(BM_DeepPathInterp)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_DeepPathCompiled(benchmark::State& state) {
  ExecOptions options;
  RunOnce(DeepPathCase(), options, state);
}
BENCHMARK(BM_DeepPathCompiled)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_CompiledRecursive(benchmark::State& state) {
  ExecOptions options;
  options.exec_threads = static_cast<size_t>(state.range(0));
  RunOnce(RecursiveCase(), options, state);
}
BENCHMARK(BM_CompiledRecursive)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_BatchRowsSweep(benchmark::State& state) {
  ExecOptions options;
  options.compiled_eval = false;
  options.batch_rows = static_cast<size_t>(state.range(0));
  RunOnce(RecursiveCase(), options, state);
}
BENCHMARK(BM_BatchRowsSweep)->Arg(1)->Arg(64)->Arg(1024)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
