#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace rodin::obs {

size_t ThreadShardIndex() {
  static std::atomic<size_t> next{0};
  thread_local const size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return index;
}

void Histogram::Observe(double v) {
  const uint64_t n = count_.fetch_add(1, std::memory_order_relaxed);
  // sum: relaxed fetch_add on atomic<double> (C++20).
  sum_.fetch_add(v, std::memory_order_relaxed);
  // min/max via CAS loops; first observation seeds both.
  if (n == 0) {
    min_.store(v, std::memory_order_relaxed);
    max_.store(v, std::memory_order_relaxed);
  } else {
    double cur = min_.load(std::memory_order_relaxed);
    while (v < cur &&
           !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  size_t bucket = 0;
  if (v >= 1) {
    bucket = std::min<size_t>(
        kBuckets - 1, static_cast<size_t>(std::floor(std::log2(v))));
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return s;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>(name);
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>(name);
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(name);
  return slot.get();
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::Samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Sample> out;
  for (const auto& [name, c] : counters_) {
    out.push_back(Sample{name, "counter",
                         static_cast<double>(c->value()), c->value()});
  }
  for (const auto& [name, g] : gauges_) {
    out.push_back(Sample{name, "gauge", g->value(), 0});
  }
  for (const auto& [name, h] : histograms_) {
    const Histogram::Snapshot s = h->snapshot();
    out.push_back(Sample{name, "histogram", s.mean(), s.count});
  }
  std::sort(out.begin(), out.end(),
            [](const Sample& a, const Sample& b) { return a.name < b.name; });
  return out;
}

std::string MetricsRegistry::ToString() const {
  std::string out;
  for (const Sample& s : Samples()) {
    if (s.kind == "histogram") {
      out += StrFormat("%-44s %-9s mean=%.1f n=%llu\n", s.name.c_str(),
                       s.kind.c_str(), s.value,
                       static_cast<unsigned long long>(s.count));
    } else {
      out += StrFormat("%-44s %-9s %.0f\n", s.name.c_str(), s.kind.c_str(),
                       s.value);
    }
  }
  return out;
}

}  // namespace rodin::obs
