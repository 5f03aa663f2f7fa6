#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

namespace rodin_bench {

double MicrosSince(Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Clock::now() - since)
      .count();
}

double Quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Answer Digest(const std::vector<std::vector<rodin::Value>>& rows) {
  Answer a;
  a.rows = rows.size();
  for (const auto& row : rows) {
    uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
    for (const rodin::Value& v : row) {
      for (char c : v.ToString()) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
      }
      h ^= 0x1f;  // column separator
      h *= 1099511628211ull;
    }
    a.digest += h;
  }
  return a;
}

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {
  spans_.reserve(1 << 14);
}

uint64_t SpanRecorder::Begin(const char* name, uint64_t parent,
                             uint64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, parent, request, MicrosSince(origin_), -1});
  return spans_.size();
}

double SpanRecorder::End(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[id - 1];
  s.end_us = MicrosSince(origin_);
  return s.end_us - s.start_us;
}

bool SpanRecorder::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%llu,\"request\":%llu}}%s\n",
                 s.name, s.start_us, s.end_us - s.start_us, i + 1,
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace rodin_bench
