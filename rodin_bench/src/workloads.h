// The three workloads and the layer probes they share.
#ifndef RODIN_BENCH_WORKLOADS_H_
#define RODIN_BENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "api/session.h"
#include "bench_util.h"
#include "exec/result_cursor.h"

namespace rodin_bench {

/// `fig3` and `adhoc_plans`.
Report RunEmbedded(const RunConfig& cfg);

/// The served 90r10w burst of the `adhoc_plans` traced run: `seconds` of
/// in-process server load with a paced writer. Adds the metrics of
/// kServedOnlyMetrics, and its operations to the run's counts.
void ServedBurst(const RunConfig& cfg, double seconds, SpanRecorder* spans,
                 Report* r);

/// The paper's Figure 3 query text.
extern const std::string kFig3Text;

/// Drains `cursor` into `rows`; false when the run failed.
bool Drain(rodin::ResultCursor* cursor, std::vector<rodin::Row>* rows);

/// Fails unless the Figure 3 query on the seed-42 database (300 composers,
/// the generator's lineage depth 8) still returns its 54 rows; set-up
/// refuses to start otherwise.
rodin::Status Fig3Canary();

/// Timed calls into the query, api, optimizer and cost layers and a
/// profiled execution, for `reps` passes over `texts` starting at index
/// `start`. Adds the query.*, api.plan_acquire_us, optimizer.*,
/// cost.root_qerror and exec.self_us.* metrics.
void ProbeLayers(rodin::Session* session, const std::vector<std::string>& texts,
                 size_t start, int reps, SpanRecorder* spans, Report* r);

/// Writes the run's spans under cfg.trace_dir and notes where.
void WriteSpans(const RunConfig& cfg, const SpanRecorder& spans, Report* r);

struct MetricName {
  const char* name;
  const char* unit;
};

/// Per-layer metrics only the served burst measures: the paced writer, the
/// transaction layer and the server.
inline constexpr MetricName kServedOnlyMetrics[] = {
    {"write_p50_ms", "ms"},
    {"write_p90_ms", "ms"},
    {"txn.commit_us", "us"},
    {"txn.conflict_retries_per_write", "count"},
    {"txn.commit_ok_ratio", "ratio"},
    {"server.overhead_us", "us"},
    {"server.shed_ratio", "ratio"},
};

}  // namespace rodin_bench

#endif  // RODIN_BENCH_WORKLOADS_H_
