// Shared pieces of rodin_bench: the clock, order statistics, the answer
// digest every workload checks against its oracle, the in-memory span
// recorder of a traced run, and the Report a workload fills.
#ifndef RODIN_BENCH_BENCH_UTIL_H_
#define RODIN_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "storage/value.h"

namespace rodin_bench {

using Clock = std::chrono::steady_clock;

/// Microseconds elapsed since `since`.
double MicrosSince(Clock::time_point since);

/// The p-quantile (0..1) of `values` by linear interpolation between order
/// statistics; 0 for an empty sample.
double Quantile(std::vector<double> values, double p);

/// What a query answered, reduced to a row count plus an order-insensitive
/// digest (the wrapping sum of a 64-bit FNV-1a hash per row, over the
/// rendered values). Two answers with the same rows in any order compare
/// equal; the oracle of every workload is one of these per distinct text.
struct Answer {
  uint64_t rows = 0;
  uint64_t digest = 0;

  bool operator==(const Answer& other) const {
    return rows == other.rows && digest == other.digest;
  }
  bool operator!=(const Answer& other) const { return !(*this == other); }
};

Answer Digest(const std::vector<std::vector<rodin::Value>>& rows);

/// Spans of a traced run, kept in memory and written once at the end as a
/// Chrome trace_event JSON array. A span records its parent and the request
/// it belongs to, so a request's layers can be read back as a tree.
/// Thread-safe: the served workload records from several client threads.
class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span; returns its id (never 0). `parent` 0 = a root span.
  uint64_t Begin(const char* name, uint64_t parent, uint64_t request);
  /// Closes span `id` and returns its duration in microseconds.
  double End(uint64_t id);

  /// Writes every span; false when the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t parent;
    uint64_t request;
    double start_us;
    double end_us;
  };
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// What one run of a workload produced. Metrics keep their insertion order
/// and carry their unit; a per-layer metric a workload cannot measure from
/// outside the program is added with value 0 and listed in `missing` with
/// the reason, so it is never silently dropped.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  struct Missing {
    std::string name;
    std::string reason;
  };

  std::vector<Metric> metrics;
  std::vector<Missing> missing;
  /// Extra key/value pairs for the environment stamp (for example the
  /// paced writer's lateness).
  std::vector<std::pair<std::string, double>> stamp;
  /// Free-text lines printed before the result (for example where the
  /// spans of a traced run were written).
  std::vector<std::string> notes;

  uint64_t attempted = 0;
  uint64_t failed = 0;  // failed or refused operations plus wrong answers
  uint64_t wrong = 0;   // answers that differ from the oracle
  std::string setup_error;  // non-empty: set-up refused to start

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void AddMissing(const std::string& name, const std::string& unit,
                  const std::string& reason) {
    metrics.push_back({name, 0.0, unit});
    missing.push_back({name, reason});
  }
};

/// One invocation's settings, parsed from the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  // where a traced run writes its spans
};

/// How often a run sets its workload up. `setup_s` is the median of the
/// repetitions; the workload keeps the last instance and measures on it.
constexpr int kSetupReps = 9;

double PeakRssMb();

}  // namespace rodin_bench

#endif  // RODIN_BENCH_BENCH_UTIL_H_
