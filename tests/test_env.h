#ifndef RODIN_TESTS_TEST_ENV_H_
#define RODIN_TESTS_TEST_ENV_H_

#include <cstddef>
#include <string>

#include "common/faults.h"

/// The test harness's side of CI's configuration legs. The product reads no
/// environment; every gtest binary links test_env.cc, which reads these
/// variables once, before the first test runs, and installs them into
/// TestDefaults::Global() and FaultInjector::Global():
///
///   RODIN_SPILL_BUDGET  temp-page ledger of a query that sets no budget
///                       (pages; unset / "" = unlimited)
///   RODIN_PLAN_CACHE    "0" / "off" / "OFF" / "false" = plan cache off
///                       (anything else, or unset = on)
///   RODIN_FAULTS        fault injection: unset, "" or "0" = disabled;
///                       "1" = enabled with FaultConfig's defaults;
///                       "k=v,k=v,..." = enabled with overrides, e.g.
///                       "page_fetch=0.01,alloc=0.005,seed=7,max=3,
///                        stage=3,fix_iter=2" (keys page_fetch, alloc,
///                       seed, max, stage, fix_iter map onto FaultConfig's
///                       page_fetch_fail, alloc_fail, seed, max_faults,
///                       force_deadline_stage, force_deadline_fix_iter)
///   RODIN_FEEDBACK      anything but unset / "" / "0" = feedback on for
///                       queries that leave feedback.enabled unset
namespace rodin::test_env {

/// The parsers, exposed for test_env_test. A null value means unset.
size_t ParseSpillBudget(const char* value);
bool ParsePlanCache(const char* value);
FaultConfig ParseFaults(const std::string& value);
bool ParseFeedback(const char* value);

/// Reinstalls the fault configuration the binary was launched with: the
/// teardown of a test that reconfigured the process-wide injector.
void RestoreFaults();

}  // namespace rodin::test_env

#endif  // RODIN_TESTS_TEST_ENV_H_
