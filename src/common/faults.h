#ifndef RODIN_COMMON_FAULTS_H_
#define RODIN_COMMON_FAULTS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace rodin {

/// Fault-injection configuration. Off by default; enabled only through
/// FaultInjector::Configure — the product reads no environment. The test
/// harness (tests/test_env.cc) parses the RODIN_FAULTS variable of the CI
/// fault leg into this struct before the first test runs.
struct FaultConfig {
  bool enabled = false;
  double page_fetch_fail = 0.01;  // P(a page fetch fails with kFault)
  double alloc_fail = 0.005;      // P(a temp-file allocation fails)
  uint64_t seed = 0x5eedfau;      // RNG seed
  /// Stop injecting after this many faults (0 = unlimited). Lets tests
  /// force exactly one fault and then observe a clean retry.
  uint64_t max_faults = 0;
  int force_deadline_stage = -1;     // 1-based optimizer stage, -1 = off
  int force_deadline_fix_iter = -1;  // 1-based fixpoint iteration, -1 = off
};

/// Process-wide defaults that only a test harness changes: tests/test_env.cc
/// installs them from the RODIN_SPILL_BUDGET, RODIN_PLAN_CACHE and
/// RODIN_FEEDBACK variables of the CI legs before the first test runs, so
/// every test runs under the leg's configuration. Nothing in the product
/// writes them, so a shipped binary always runs with the initial values
/// below and behaves only as its flags, QueryOptions and wire fields say.
/// Written once before any query runs; not synchronized.
struct TestDefaults {
  /// Temp-page ledger budget of a query that sets neither
  /// spill_budget_pages nor memory_budget_pages (0 = unlimited).
  size_t spill_budget_pages = 0;
  /// Sessions consult their plan cache (false = every run re-optimizes).
  bool plan_cache = true;
  /// QueryOptions::feedback.enabled of a query that leaves it unset.
  bool feedback = false;

  static TestDefaults& Global();
};

/// Process-global fault injector. Probabilistic decisions draw from one
/// atomic splitmix64 stream, so they are thread-safe; the *sequence* of
/// faults is deterministic for a fixed seed only under single-threaded
/// execution, which is why the injection sites all live on the coordinator
/// thread (page-fetch faults fire at batch boundaries, alloc faults at
/// temp-file allocation — never inside worker morsels).
///
/// The injector is consulted only where ExecOptions::inject_faults /
/// OptimizerOptions wiring turned it on — Session's non-streaming paths.
/// Raw Executor use (differential tests, benches) and streaming cursors
/// never inject, so an enabled injector leaves their behaviour untouched.
class FaultInjector {
 public:
  /// The singleton; disabled until Configure() enables it.
  static FaultInjector& Global();

  /// Replaces the configuration and resets the RNG and fault counter.
  void Configure(const FaultConfig& config);

  const FaultConfig& config() const { return config_; }
  bool enabled() const { return config_.enabled; }

  /// True if this page fetch should fail with kFault.
  bool InjectPageFetchFault();

  /// True if this temp-file allocation should fail with kFault.
  bool InjectAllocFault();

  /// True if a forced deadline fires at the start of optimizer stage
  /// `stage` (1-based).
  bool ForceDeadlineAtStage(int stage) const;

  /// True if a forced deadline fires at the start of semi-naive iteration
  /// `iter` (1-based).
  bool ForceDeadlineAtFixIter(int iter) const;

  /// Total faults injected since the last Configure().
  uint64_t faults_injected() const {
    return faults_.load(std::memory_order_relaxed);
  }

 private:
  FaultInjector();

  /// Draws a uniform double in [0,1) and charges one fault against
  /// max_faults if it is below `probability`.
  bool Draw(double probability);

  FaultConfig config_;
  std::atomic<uint64_t> rng_state_{0};
  std::atomic<uint64_t> faults_{0};
};

}  // namespace rodin

#endif  // RODIN_COMMON_FAULTS_H_
