#include "test_env.h"

#include <cstdlib>
#include <sstream>

namespace rodin::test_env {

size_t ParseSpillBudget(const char* value) {
  if (value == nullptr || value[0] == '\0') return 0;
  return static_cast<size_t>(std::strtoull(value, nullptr, 10));
}

bool ParsePlanCache(const char* value) {
  if (value == nullptr) return true;
  const std::string s(value);
  return !(s == "0" || s == "off" || s == "OFF" || s == "false");
}

FaultConfig ParseFaults(const std::string& value) {
  FaultConfig config;
  if (value.empty() || value == "0") return config;  // disabled
  config.enabled = true;
  if (value == "1") return config;  // defaults
  std::stringstream ss(value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const size_t eq = item.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    if (key == "page_fetch") {
      config.page_fetch_fail = std::strtod(val.c_str(), nullptr);
    } else if (key == "alloc") {
      config.alloc_fail = std::strtod(val.c_str(), nullptr);
    } else if (key == "seed") {
      config.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "max") {
      config.max_faults = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "stage") {
      config.force_deadline_stage =
          static_cast<int>(std::strtol(val.c_str(), nullptr, 10));
    } else if (key == "fix_iter") {
      config.force_deadline_fix_iter =
          static_cast<int>(std::strtol(val.c_str(), nullptr, 10));
    }
  }
  return config;
}

bool ParseFeedback(const char* value) {
  return value != nullptr && value[0] != '\0' && std::string(value) != "0";
}

namespace {

/// Reads the environment once and installs it process-wide.
struct Launch {
  FaultConfig faults;

  Launch() {
    TestDefaults& defaults = TestDefaults::Global();
    defaults.spill_budget_pages =
        ParseSpillBudget(std::getenv("RODIN_SPILL_BUDGET"));
    defaults.plan_cache = ParsePlanCache(std::getenv("RODIN_PLAN_CACHE"));
    defaults.feedback = ParseFeedback(std::getenv("RODIN_FEEDBACK"));
    const char* faults_env = std::getenv("RODIN_FAULTS");
    faults = ParseFaults(faults_env != nullptr ? faults_env : "");
    FaultInjector::Global().Configure(faults);
  }
};

const Launch& TheLaunch() {
  static const Launch launch;
  return launch;
}

// Dynamic initialization runs before main(), so before the first test.
const Launch& kInstalled = TheLaunch();

}  // namespace

void RestoreFaults() { FaultInjector::Global().Configure(TheLaunch().faults); }

}  // namespace rodin::test_env
