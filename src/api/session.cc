#include "api/session.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/faults.h"
#include "common/string_util.h"
#include "plan/pt_printer.h"
#include "query/parser.h"

namespace rodin {

namespace {

ExplainNode BuildExplainNode(const PTNode& node,
                             const std::map<const PTNode*, OpStats>& stats) {
  ExplainNode out;
  out.label = PTNodeLabel(node);
  out.est_cost = node.est_cost;
  out.est_rows = node.est_rows;
  auto it = stats.find(&node);
  if (it != stats.end()) {
    out.executed = true;
    out.measured = it->second;
  }
  for (const auto& c : node.children) {
    out.children.push_back(BuildExplainNode(*c, stats));
  }
  return out;
}

void PrintExplainNode(const ExplainNode& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(node.label);
  if (node.est_cost >= 0) {
    out->append(StrFormat("   {est cost=%.1f rows=%.1f}", node.est_cost,
                          node.est_rows));
  }
  if (node.executed) {
    out->append(StrFormat(
        "   [measured rows=%llu pages=%llu time=%.0fus calls=%llu]",
        static_cast<unsigned long long>(node.measured.rows),
        static_cast<unsigned long long>(node.measured.pages),
        node.measured.micros,
        static_cast<unsigned long long>(node.measured.invocations)));
  }
  out->append("\n");
  for (const ExplainNode& c : node.children) {
    PrintExplainNode(c, depth + 1, out);
  }
}

/// Renders the chunks the engine compiled for `node`'s subtree, in plan
/// pre-order, one block per (operator, role).
void AppendChunkListings(
    const PTNode& node,
    const std::map<const PTNode*, std::vector<ChunkListing>>& listings,
    std::string* out) {
  auto it = listings.find(&node);
  if (it != listings.end()) {
    for (const ChunkListing& l : it->second) {
      *out += PTNodeLabel(node) + " · " + l.role + ":\n";
      *out += l.disassembly.empty() ? "(interpreted: not compilable)\n"
                                    : l.disassembly;
    }
  }
  for (const auto& c : node.children) AppendChunkListings(*c, listings, out);
}

}  // namespace

std::string ExplainResult::ToString() const {
  std::string out = "EXPLAIN\n";
  if (!ok()) {
    out += "status: " + status.ToString() + "\n";
    return out;
  }
  out += "stages:\n";
  for (const StageReport& s : stages) {
    // The truncated marker renders only when set, so untruncated reports
    // stay byte-identical to the pre-anytime format.
    out += StrFormat("  %-12s granularity=%-24s strategy=%-32s plans=%zu%s\n",
                     s.stage.c_str(), s.granularity.c_str(),
                     s.strategy.c_str(), s.plans_explored,
                     s.truncated ? "  [truncated: budget hit]" : "");
  }
  out += "decisions:\n";
  for (const std::string& line : Split(decisions.ToString(), '\n')) {
    if (!line.empty()) out += "  " + line + "\n";
  }
  if (pushed_variant_cost >= 0 && unpushed_variant_cost >= 0) {
    out += StrFormat("push decision: pushed=%.1f unpushed=%.1f -> %s\n",
                     pushed_variant_cost, unpushed_variant_cost,
                     chose_push ? "pushed" : "unpushed");
  }
  if (plan_cached) {
    out += "[plan: cached]\n";
  } else if (reoptimized_drift > 0) {
    out += StrFormat("[plan: re-optimized (drift %.1fx)]\n", reoptimized_drift);
  }
  out += "plan:\n";
  std::string tree;
  PrintExplainNode(plan, 1, &tree);
  out += tree;
  out += StrFormat("est_cost: %.1f\n", est_cost);
  if (measured_cost >= 0) {
    out += StrFormat("measured_cost: %.1f\n", measured_cost);
  }
  if (!vm_disassembly.empty()) {
    out += "bytecode (compiled eval):\n";
    for (const std::string& line : Split(vm_disassembly, '\n')) {
      if (!line.empty()) out += "  " + line + "\n";
    }
  }
  return out;
}

PreparedQuery::PreparedQuery(Session* session, Status status, QueryGraph graph)
    : session_(session), status_(std::move(status)), graph_(std::move(graph)) {
  if (status_.ok()) digest_ = GraphDigest(graph_);
}

QueryRun PreparedQuery::Run(const QueryOptions& options) {
  if (!status_.ok()) {
    QueryRun run;
    run.status = status_;
    return run;
  }
  return session_->RunImpl(graph_, options, nullptr, &digest_);
}

ExplainResult PreparedQuery::Explain(const QueryOptions& options) {
  if (!status_.ok()) {
    ExplainResult ex;
    ex.status = status_;
    return ex;
  }
  return session_->ExplainImpl(graph_, options, &digest_);
}

ResultCursor PreparedQuery::Query(const QueryOptions& options) {
  if (!status_.ok()) return ResultCursor(status_);
  return session_->QueryImpl(graph_, options, &digest_);
}

/// One run's acquired plan — the acquire step's output — and the learn
/// step that runs once the execute step is over. A value type over
/// shared_ptrs: a cursor's keepalive owns one, so its on_finish hook can
/// learn after the session is gone.
struct PlanAcquisition {
  /// The run's armed lifecycle context: one copy of the caller's budget,
  /// deadline clock started at acquisition, referenced by pointer from every
  /// stage. The cancel token inside still shares the caller's flag.
  QueryContext qctx;
  OptimizeResult optimized;
  DecisionLog decisions;
  bool plan_cached = false;      // see QueryRun::plan_cached
  double reoptimized_drift = 0;  // see QueryRun::reoptimized_drift

  // What the learn step needs, resolved at acquisition.
  std::shared_ptr<FeedbackRegistry> feedback;  // null: feedback off this run
  std::shared_ptr<PlanCache> cache;
  std::string cache_key;  // empty: the run bypassed the cache
  uint64_t stats_version = 0;
  double alpha = kDefaultFeedbackAlpha;
  double drift_threshold = kDefaultDriftThreshold;

  /// The learn step: feedback harvest, then drift demotion. Only complete,
  /// clean runs teach the registry — `drained` to the last row, `status`
  /// ok, an untruncated plan, no fault injector. Anything retried under the
  /// injector, truncated by an anytime budget, cancelled, abandoned or
  /// failed contributes zero observations: a perturbed run's measurements
  /// describe the perturbation, not the data.
  ///
  /// Drift demotion: a *cached* plan whose measured cost strayed >=
  /// drift_threshold from its estimate is erased so the next acquisition
  /// re-optimizes under current corrections. Freshly optimized plans are
  /// never demoted — they already used the latest corrections, and demoting
  /// them would re-run the pipeline forever.
  void Learn(const Status& status, bool drained, const Executor& exec,
             obs::Tracer* tracer) const {
    if (feedback == nullptr || !drained || !status.ok() ||
        optimized.truncated() || FaultInjector::Global().enabled()) {
      return;
    }
    uint64_t span = 0;
    if (tracer != nullptr) span = tracer->Begin("feedback.harvest", "cost");
    const size_t harvested = feedback->Harvest(
        FlattenPlanStats(*optimized.plan, exec.op_stats()), stats_version,
        alpha);
    if (tracer != nullptr) {
      tracer->AddArg(span, "observations", static_cast<double>(harvested));
      tracer->End(span);
    }
    const double measured = exec.MeasuredCost();
    const double est = optimized.cost;
    if (!plan_cached || cache_key.empty() || measured <= 0 || est <= 0) return;
    const double ratio = std::max(measured / est, est / measured);
    if (ratio >= drift_threshold && cache->Erase(cache_key)) {
      feedback->NoteDemotion(cache_key, ratio);
    }
  }
};

Session::Session(Database* db, OptimizerOptions options, CostParams cost_params,
                 std::shared_ptr<PlanCache> plan_cache,
                 std::shared_ptr<FeedbackRegistry> feedback)
    : db_(db),
      options_(options),
      cost_params_(cost_params),
      plan_cache_(std::move(plan_cache)),
      feedback_(std::move(feedback)) {
  RODIN_CHECK(db != nullptr && db->finalized(),
              "Session needs a finalized database");
  tm_ = TxnManager::For(db);
  if (plan_cache_ == nullptr) plan_cache_ = std::make_shared<PlanCache>();
  if (feedback_ == nullptr) feedback_ = std::make_shared<FeedbackRegistry>();
  TxnManager::ReadGuard guard(tm_);
  MaybeRefreshStats();
}

void Session::MaybeRefreshStats() {
  const uint64_t version = tm_->stats_version();
  if (stats_ != nullptr && version == stats_version_) return;
  stats_ = std::make_unique<Stats>(Stats::Derive(*db_));
  cost_ = std::make_unique<CostModel>(db_, stats_.get(), cost_params_);
  physical_identity_ = PhysicalIdentity(*db_);
  // Statistics moved, so plans chosen under the old ones must not be served
  // any more; entries fingerprinted at an older version drop at next lookup.
  stats_version_ = version;
}

MutationResult Session::Apply(uint64_t txn_id, const MutationBatch& batch) {
  MutationResult staged;
  const Status st = tm_->Stage(txn_id, batch, &staged);
  if (!st.ok()) staged.status = st;
  return staged;
}

CommitResult Session::Mutate(const MutationBatch& batch,
                             MutationResult* staged) {
  uint64_t txn_id = 0;
  const Status begin = tm_->Begin(&txn_id);
  if (!begin.ok()) {
    CommitResult res;
    res.status = begin;
    return res;
  }
  MutationResult local;
  const Status stage = tm_->Stage(txn_id, batch, &local);
  if (!stage.ok()) {
    tm_->Rollback(txn_id);
    CommitResult res;
    res.status = stage;
    return res;
  }
  if (staged != nullptr) *staged = local;
  CommitResult res = tm_->Commit(txn_id);
  if (res.status.code == Status::Code::kConflict) {
    // One-shot callers have no handle to retry with; don't leave the write
    // slot wedged behind an abandoned transaction.
    tm_->Rollback(txn_id);
  }
  return res;
}

OptimizeResult Session::Optimize(const QueryGraph& graph) {
  TxnManager::ReadGuard guard(tm_);
  MaybeRefreshStats();
  Optimizer optimizer(db_, stats_.get(), cost_.get(), options_);
  return optimizer.Optimize(graph);
}

void Session::ResetMeasurement(Executor* exec, bool cold) const {
  if (shared_db_) {
    exec->ResetMeasurementShared();
  } else {
    exec->ResetMeasurement(cold);
  }
}

void Session::OptimizeThroughCache(const QueryGraph& graph,
                                   const OptimizerOptions& opt_options,
                                   const ObsSink& sink,
                                   const QueryOptions& options,
                                   const std::string* graph_digest,
                                   const FeedbackCorrections* corrections,
                                   PlanAcquisition* acq) {
  // The injector makes any attempt (optimizer or executor) abortable and
  // retryable; a plan produced or reused under it could differ from the
  // clean-run plan in unverifiable ways. Bypass entirely: no lookups, no
  // inserts — under an enabled injector the hit rate is 0 by construction.
  const bool use_cache = TestDefaults::Global().plan_cache &&
                         !options.bypass_plan_cache &&
                         !FaultInjector::Global().enabled();
  // Budget-aware costing: an explicit per-query memory budget enters the
  // cost params (the spill penalty term) and with them the plan-cache
  // fingerprint, so budgeted and unbudgeted runs of one query never share
  // a cached plan. The spill-budget ledger override and the test harness's
  // forced ledger deliberately do NOT enter: they are spill-forcing test
  // plumbing, and perturbing plan choice would break the bit-identity they
  // exist to exercise.
  CostParams effective_params = cost_params_;
  effective_params.memory_budget_pages = options.query.memory_budget_pages;
  if (use_cache) {
    acq->cache_key = ComposeFingerprint(
        graph_digest != nullptr ? *graph_digest : GraphDigest(graph),
        physical_identity_, effective_params, opt_options);
    if (plan_cache_->Lookup(acq->cache_key, stats_version_, &acq->optimized,
                            &acq->decisions)) {
      acq->plan_cached = true;
      return;
    }
    // Miss. If the feedback loop demoted this fingerprint for cost drift,
    // this optimization is the re-optimization the demotion asked for —
    // consume the note so EXPLAIN can say why the pipeline ran again.
    acq->reoptimized_drift = feedback_->TakeDemotionNote(acq->cache_key);
  }

  // Feedback corrections scale the cost model's cardinality estimates
  // toward observed reality (see cost/feedback.h) without entering the
  // fingerprint: a corrected re-optimization overwrites the entry under the
  // same key rather than forking it. An empty snapshot costs nothing — the
  // model ignores a null/empty corrections pointer entirely, so plans are
  // bit-identical to feedback-off until the first harvest lands.
  std::optional<CostModel> corrected;
  const CostModel* cost = cost_.get();
  if (corrections != nullptr && !corrections->empty()) {
    corrected.emplace(db_, stats_.get(), effective_params, corrections);
    cost = &*corrected;
  } else if (effective_params.memory_budget_pages != 0) {
    corrected.emplace(db_, stats_.get(), effective_params, nullptr);
    cost = &*corrected;
  }
  Optimizer optimizer(db_, stats_.get(), cost, opt_options);
  acq->optimized = optimizer.Optimize(graph, sink);

  // Truncated stages mean the search stopped early under this run's budget;
  // a later run with a looser budget deserves the full search, so
  // incomplete plans are never cached.
  if (use_cache && acq->optimized.ok() && !acq->optimized.truncated()) {
    plan_cache_->Insert(acq->cache_key, {acq->optimized.Clone(),
                                         acq->decisions, stats_version_});
  }
}

Status Session::AcquirePlan(const QueryGraph& graph,
                            const QueryOptions& options,
                            const std::string* graph_digest,
                            bool inject_faults, obs::Tracer* tracer,
                            PlanAcquisition* acq) {
  Status status = options.Validate();
  if (!status.ok()) return status;
  MaybeRefreshStats();
  if (options.collect_trace && tracer == nullptr) {
    // Silently dropping the flag (the old behaviour) made callers believe
    // they had a trace when cursor.trace() never existed.
    return Status::Error(
        Status::Code::kInvalidArgument,
        "collect_trace is not supported on the streaming Query path; use "
        "Session::Run or Session::Explain to collect a trace");
  }
  // The retry loop snapshots and restores the buffer pool's resident set
  // between attempts. A live streaming cursor defers its page charges to
  // finalize time; interleaving that replay with a restore would corrupt
  // the pool's accounting, so the retryable paths refuse to start until the
  // session's outstanding cursors are drained (or destroyed).
  if (inject_faults && FaultInjector::Global().enabled() &&
      live_streams() > 0) {
    const uint64_t live = live_streams();
    status = Status::Error(
        Status::Code::kInvalidArgument,
        StrFormat("cannot Run/Explain with fault injection while %llu "
                  "streaming cursor(s) from this session are still live; "
                  "drain or destroy them first",
                  static_cast<unsigned long long>(live)));
    // Structured contract (docs/ROBUSTNESS.md): the refusal carries the
    // live-cursor count, so pool managers branch on detail, not on text.
    status.detail = live;
    return status;
  }

  acq->qctx = options.query;
  acq->qctx.ArmDeadline();
  ObsSink sink;
  sink.decisions = &acq->decisions;
  sink.tracer = tracer;
  OptimizerOptions opt_options = options_;
  opt_options.search_threads =
      options.search_threads.value_or(opt_options.search_threads);
  opt_options.seed = options.seed.value_or(opt_options.seed);
  opt_options.query = &acq->qctx;
  opt_options.inject_faults = inject_faults;

  // Feedback: QueryOptions::feedback over its inherit defaults (off outside
  // the test harness; kDefaultDriftThreshold / kDefaultFeedbackAlpha). Same
  // rule as the plan cache: an enabled injector perturbs and retries
  // attempts, so neither side of the loop may run — corrections applied
  // mid-test would make a retried run's plan differ from the clean run it
  // must be bit-identical to. Full bypass, both apply and harvest.
  if (options.feedback.enabled.value_or(TestDefaults::Global().feedback) &&
      !FaultInjector::Global().enabled()) {
    acq->feedback = feedback_;
  }
  if (options.feedback.drift_threshold > 0) {
    acq->drift_threshold = options.feedback.drift_threshold;
  }
  if (options.feedback.ewma_alpha > 0) acq->alpha = options.feedback.ewma_alpha;
  acq->cache = plan_cache_;
  acq->stats_version = stats_version_;
  FeedbackCorrections corrections;
  if (acq->feedback != nullptr) {
    uint64_t span = 0;
    if (tracer != nullptr) span = tracer->Begin("feedback.apply", "cost");
    corrections = feedback_->Snapshot(stats_version_);
    if (tracer != nullptr) {
      tracer->AddArg(span, "corrections",
                     static_cast<double>(corrections.size()));
      tracer->End(span);
    }
  }
  OptimizeThroughCache(graph, opt_options, sink, options, graph_digest,
                       acq->feedback != nullptr ? &corrections : nullptr, acq);
  return acq->optimized.status;
}

QueryRun Session::RunImpl(const QueryGraph& graph, const QueryOptions& options,
                          Executor* exec, const std::string* graph_digest) {
  QueryRun run;
  run.graph = graph;

  // The whole run holds the TxnManager read gate: a commit drains readers
  // before mutating anything, so this run sees either the full pre- or full
  // post-commit state — never a torn one. The guard is re-entrant, so
  // Explain's delegation here nests fine.
  TxnManager::ReadGuard read_gate(tm_);
  obs::Tracer tracer;
  obs::Tracer* trace = options.collect_trace ? &tracer : nullptr;
  // Run/Explain are the retryable, non-streaming paths: they are the only
  // ones that consult the fault injector. Shared-db (multi-tenant) sessions
  // never do: the retry path's pool snapshot/restore cannot be made safe
  // while concurrent sessions charge the same pool.
  PlanAcquisition acq;
  run.status =
      AcquirePlan(graph, options, graph_digest, !shared_db_, trace, &acq);

  if (run.status.ok() && !options.explain_only) {
    Executor local(db_, cost_params_);
    Executor& e = exec != nullptr ? *exec : local;
    // Harvesting needs per-operator figures; the collection itself never
    // touches ExecCounters, so counters stay bit-identical feedback-off.
    if (acq.feedback != nullptr) e.CollectOpStats(true);
    e.set_tracer(trace);
    ExecOptions exec_options = options.MakeExecOptions(&acq.qctx);

    // Retry-with-backoff for transient (kFault) aborts. Only the execution
    // phase re-runs — the optimizer already committed its plan and its
    // metrics. Between attempts every piece of measurement state is
    // restored (counters, fix cache, and for warm runs the resident set),
    // so the surviving attempt's answer, counters and measured cost are
    // bit-identical to a run that never faulted.
    //
    // Injection stops after kFaultedAttemptLimit faulted attempts (a
    // circuit breaker): per-batch fault draws make a long query's per-
    // attempt fault probability approach 1, so without the breaker no
    // number of retries would converge. A clean attempt is unperturbed by
    // the draws, so the breaker never changes a surviving run's results.
    std::vector<PageId> resident;
    if (!shared_db_ && FaultInjector::Global().enabled() && !options.cold) {
      resident = db_->buffer_pool().SnapshotResident();
    }
    constexpr int kMaxAttempts = 16;
    constexpr int kFaultedAttemptLimit = 8;
    Status exec_status;
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      if (attempt > 0) {
        e.ClearFixCache();
        if (!options.cold) db_->buffer_pool().RestoreResident(resident);
        std::this_thread::sleep_for(
            std::chrono::microseconds(1u << std::min(attempt, 10)));
      }
      exec_options.inject_faults = !shared_db_ && attempt < kFaultedAttemptLimit;
      ResetMeasurement(&e, options.cold);
      exec_status =
          e.ExecuteInto(*acq.optimized.plan, exec_options, &run.answer);
      if (!exec_status.retryable()) break;
    }
    if (!exec_status.ok()) run.status = exec_status;
    run.measured_cost = e.MeasuredCost();
    run.counters = e.counters();
    e.set_tracer(nullptr);
    db_->buffer_pool().PublishMetrics();
    acq.Learn(run.status, /*drained=*/true, e, trace);
  }

  run.optimized = std::move(acq.optimized);
  run.decisions = std::move(acq.decisions);
  run.plan_cached = acq.plan_cached;
  run.reoptimized_drift = acq.reoptimized_drift;
  if (run.optimized.plan != nullptr) {
    run.plan_text = PrintPT(*run.optimized.plan);
  }
  // A run refused before planning (bad options, live cursors) has no trace.
  const bool planned = run.optimized.plan != nullptr || !run.optimized.ok();
  if (trace != nullptr && planned) run.trace = tracer.Finish();
  return run;
}

QueryRun Session::Run(const QueryGraph& graph, const QueryOptions& options) {
  return RunImpl(graph, options, nullptr, nullptr);
}

QueryRun Session::Run(const std::string& text, const QueryOptions& options) {
  return Prepare(text).Run(options);
}

namespace {

/// Everything a live cursor keeps alive: the executor doing the work and
/// the acquired plan, whose armed context the engine's per-batch polls
/// reference however long the caller holds the cursor (a copy of the
/// caller's cancel token means RequestCancel() from any thread stops the
/// next Next()), and whose learn step the finalize hook runs.
struct QueryState {
  QueryState(Database* db, CostParams params) : exec(db, params) {}
  Executor exec;
  PlanAcquisition acq;
};

}  // namespace

ResultCursor Session::QueryImpl(const QueryGraph& graph,
                                const QueryOptions& options,
                                const std::string* graph_digest) {
  // Optimization and stream setup run under the read gate; the cursor is
  // registered with the TxnManager *before* the gate releases, so a commit
  // can never slip between setup and registration — it refuses (kConflict)
  // while the cursor lives, which is what keeps the cursor's raw extent
  // coordinates valid across user-paced pulls (docs/ROBUSTNESS.md).
  TxnManager::ReadGuard read_gate(tm_);
  auto state = std::make_shared<QueryState>(db_, cost_params_);
  // Fault injection stays off: a half-consumed stream cannot be
  // transparently retried.
  const Status status = AcquirePlan(graph, options, graph_digest,
                                    /*inject_faults=*/false,
                                    /*tracer=*/nullptr, &state->acq);
  if (!status.ok()) return ResultCursor(status);

  const PTNode& plan = *state->acq.optimized.plan;
  if (state->acq.feedback != nullptr) state->exec.CollectOpStats(true);
  ResetMeasurement(&state->exec, options.cold);
  ResultCursor cursor = state->exec.ExecuteStream(
      plan, options.MakeExecOptions(&state->acq.qctx));
  cursor.set_plan_text(PrintPT(plan));
  // The finalize hook fires exactly once per cursor (drained, failed or
  // destroyed), so the live-stream count is balanced even for abandoned
  // cursors. The database and its TxnManager outlive the cursor; the shared
  // counter and the state (whose learn step holds the registry and cache by
  // shared_ptr) keep the hook safe past session teardown.
  live_streams_->fetch_add(1);
  tm_->BeginCursor();
  cursor.set_on_finish([db = db_, tm = tm_, live = live_streams_, state](
                           const Status& st, bool drained) {
    db->buffer_pool().PublishMetrics();
    live->fetch_sub(1);
    tm->EndCursor();
    state->acq.Learn(st, drained, state->exec, /*tracer=*/nullptr);
  });
  cursor.set_keepalive(std::move(state));
  return cursor;
}

ResultCursor Session::Query(const QueryGraph& graph,
                            const QueryOptions& options) {
  return QueryImpl(graph, options, nullptr);
}

ResultCursor Session::Query(const std::string& text,
                            const QueryOptions& options) {
  return Prepare(text).Query(options);
}

PreparedQuery Session::Prepare(const std::string& text) {
  ParseResult parsed = ParseQuery(text, db_->schema());
  return PreparedQuery(this, parsed.status, std::move(parsed.graph));
}

PreparedQuery Session::Prepare(const QueryGraph& graph) {
  return PreparedQuery(this, Status::Ok(), graph);
}

ExplainResult Session::ExplainImpl(const QueryGraph& graph,
                                   const QueryOptions& options,
                                   const std::string* graph_digest) {
  ExplainResult ex;
  Executor exec(db_, cost_params_);
  exec.CollectOpStats(true);
  QueryRun run = RunImpl(graph, options, &exec, graph_digest);
  ex.status = run.status;
  ex.trace = run.trace;
  if (!run.ok()) return ex;

  ex.stages = run.optimized.stages;
  ex.decisions = std::move(run.decisions);
  ex.plan_text = run.plan_text;
  ex.est_cost = run.optimized.cost;
  ex.measured_cost = run.measured_cost;
  ex.counters = run.counters;
  ex.pushed_variant_cost = run.optimized.pushed_variant_cost;
  ex.unpushed_variant_cost = run.optimized.unpushed_variant_cost;
  ex.chose_push = run.optimized.pushed_sel || run.optimized.pushed_join ||
                  run.optimized.pushed_proj;
  ex.plan_cached = run.plan_cached;
  ex.reoptimized_drift = run.reoptimized_drift;
  ex.plan = BuildExplainNode(*run.optimized.plan, exec.op_stats());
  ex.node_stats_ = FlattenPlanStats(*run.optimized.plan, exec.op_stats());
  AppendChunkListings(*run.optimized.plan, exec.chunk_listings(),
                      &ex.vm_disassembly);
  return ex;
}

ExplainResult Session::Explain(const QueryGraph& graph,
                               const QueryOptions& options) {
  return ExplainImpl(graph, options, nullptr);
}

ExplainResult Session::Explain(const std::string& text,
                               const QueryOptions& options) {
  return Prepare(text).Explain(options);
}

}  // namespace rodin
