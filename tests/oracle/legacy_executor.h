#ifndef RODIN_TESTS_ORACLE_LEGACY_EXECUTOR_H_
#define RODIN_TESTS_ORACLE_LEGACY_EXECUTOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "cost/params.h"
#include "exec/executor.h"
#include "exec/row.h"
#include "plan/pt.h"
#include "storage/database.h"

namespace rodin {

/// The pre-batching whole-table evaluator, kept as the differential oracle
/// for the product Executor (and the bench_exec baseline). Every node
/// materializes its full result in one recursive call, charging the
/// database's buffer pool as it goes; the batched engine replays its
/// deferred charges in exactly this post-order, so rows, ExecCounters,
/// pool fetch/hit/miss totals and MeasuredCost() must match it bit for bit.
///
/// Deliberately minimal: no lifecycle budget, no temp-page ledger or spill,
/// no fault injection, no per-operator stats and no tracing. Expressions
/// are always interpreted.
class LegacyExecutor {
 public:
  explicit LegacyExecutor(Database* db, CostParams params = {});

  /// Evaluates `plan` and returns its result. Counters accumulate across
  /// calls until ResetMeasurement(); memoized fixpoint results persist
  /// across calls, as in Executor.
  Table Execute(const PTNode& plan);

  const ExecCounters& counters() const { return counters_; }

  /// Measured cost of everything executed since the last reset (the same
  /// formula as Executor::MeasuredCost).
  double MeasuredCost() const;

  /// Zeroes counters and buffer-pool statistics; optionally drops resident
  /// pages (cold start).
  void ResetMeasurement(bool clear_buffer);

 private:
  Table Eval(const PTNode& node);
  Table EvalEntity(const PTNode& node);
  Table EvalDelta(const PTNode& node);
  Table EvalSel(const PTNode& node);
  Table EvalProj(const PTNode& node);
  Table EvalEJ(const PTNode& node);
  Table EvalIJ(const PTNode& node);
  Table EvalPIJ(const PTNode& node);
  Table EvalUnion(const PTNode& node);
  Table EvalFix(const PTNode& node);

  struct CachedFix {
    Table result;
    TempFile temp;
  };

  Database* db_;
  CostParams params_;
  ExecCounters counters_;
  uint64_t method_cost_fp_ = 0;  // see Executor::method_cost_fp_
  uint64_t start_misses_ = 0;
  /// Delta tables of in-flight fixpoints, by view name, with the temp file
  /// backing each delta.
  std::map<std::string, std::pair<const Table*, TempFile>> deltas_;
  /// Memoized fixpoint results, keyed by plan fingerprint (see
  /// Executor::fix_cache_).
  std::map<std::string, CachedFix> fix_cache_;
};

}  // namespace rodin

#endif  // RODIN_TESTS_ORACLE_LEGACY_EXECUTOR_H_
