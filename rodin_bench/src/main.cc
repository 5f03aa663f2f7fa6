// rodin_bench: runs one named workload for a fixed time, checks every
// answer against the set-up oracle and prints the metrics. The last line of
// standard output is the result object; lines before it starting with '#'
// carry the environment stamp, metrics that could not be measured, and
// notes.
//
//   rodin_bench --workload fig3|adhoc_plans --seed N
//               --seconds S --trace 0|1 [--trace-dir DIR] [--git-sha SHA]
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

#ifndef RODIN_BENCH_BUILD_TYPE
#define RODIN_BENCH_BUILD_TYPE "unknown"
#endif

#ifdef __clang__
#define RODIN_BENCH_COMPILER "clang " __clang_version__
#else
#define RODIN_BENCH_COMPILER "gcc " __VERSION__
#endif

namespace {

using rodin_bench::Report;
using rodin_bench::RunConfig;

int Usage(const char* why) {
  std::fprintf(stderr,
               "rodin_bench: %s\n"
               "usage: rodin_bench --workload fig3|adhoc_plans --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR] [--git-sha SHA]\n",
               why);
  return 2;
}

/// A JSON string literal of `s` (the stamp and notes carry free text).
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
    out += c;
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string git_sha = "unknown";
  cfg.trace_dir = ".";
  if (argc % 2 != 1) return Usage("every flag takes a value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(cfg.seconds > 0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      cfg.trace = value == "1";
    } else if (flag == "--trace-dir") {
      cfg.trace_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (cfg.workload != "fig3" && cfg.workload != "adhoc_plans") {
    return Usage(("unknown workload '" + cfg.workload + "'").c_str());
  }

  const std::string build_type = RODIN_BENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::fprintf(stderr, "rodin_bench: warning: build type %s is not Release\n",
                 build_type.c_str());
  }
  const rodin::Status canary = rodin_bench::Fig3Canary();
  if (!canary.ok()) {
    std::fprintf(stderr, "rodin_bench: set-up refused: %s\n",
                 canary.message.c_str());
    return 3;
  }

  const Report r = rodin_bench::RunEmbedded(cfg);
  if (!r.setup_error.empty()) {
    std::fprintf(stderr, "rodin_bench: set-up refused: %s\n",
                 r.setup_error.c_str());
    return 3;
  }

  std::string stamp = "{\"nproc\": " +
                      std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                      ", \"build_type\": " + Quote(build_type) +
                      ", \"compiler\": " + Quote(RODIN_BENCH_COMPILER) +
                      ", \"git_sha\": " + Quote(git_sha) +
                      ", \"workload\": " + Quote(cfg.workload) +
                      ", \"seed\": " + std::to_string(cfg.seed) +
                      ", \"seconds\": " + Number(cfg.seconds) +
                      ", \"trace\": " + (cfg.trace ? "1" : "0") +
                      ", \"wrong\": " + std::to_string(r.wrong);
  for (const auto& [key, value] : r.stamp) {
    stamp += ", " + Quote(key) + ": " + Number(value);
  }
  std::printf("# env %s}\n", stamp.c_str());
  for (const Report::Missing& m : r.missing) {
    std::printf("# missing %s: %s\n", m.name.c_str(), m.reason.c_str());
  }
  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());

  std::string metrics;
  for (const Report::Metric& m : r.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += Quote(m.name) + ": {\"value\": " + Number(m.value) +
               ", \"unit\": " + Quote(m.unit) + "}";
  }
  const bool correct = r.wrong == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics.c_str());
  return correct ? 0 : 1;
}
