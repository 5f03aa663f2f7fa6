#ifndef RODIN_OBS_TRACE_H_
#define RODIN_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace rodin::obs {

/// One recorded event. Duration events (dur_us >= 0) are spans; dur_us < 0
/// marks an instant event. Timestamps are microseconds since the tracer's
/// epoch (its construction), from the monotonic clock.
struct TraceEvent {
  std::string name;
  std::string cat;  // "optimizer" | "exec" | "decision" | ...
  double ts_us = 0;
  double dur_us = -1;
  int depth = 0;  // span-stack depth at Begin time (tree rendering)
  std::vector<std::pair<std::string, std::string>> args;
};

/// An immutable finished trace: what Tracer::Finish() hands out.
class Trace {
 public:
  explicit Trace(std::vector<TraceEvent> events, size_t dropped = 0)
      : events_(std::move(events)), dropped_(dropped) {}

  const std::vector<TraceEvent>& events() const { return events_; }
  /// Events discarded because the tracer hit its event cap.
  size_t dropped() const { return dropped_; }

  bool HasSpan(const std::string& name) const;

  /// Chrome trace_event JSON ("X" complete events + "i" instants): load in
  /// chrome://tracing or https://ui.perfetto.dev.
  std::string ToChromeJson() const;

  /// Human-readable indented tree of the recorded spans.
  std::string ToTreeString() const;

 private:
  std::vector<TraceEvent> events_;
  size_t dropped_ = 0;
};

/// Span-based tracer. Begin() returns a span id whose End() fills the
/// duration from the monotonic clock; Instant() records point events.
/// Thread-safe (one mutex — spans bracket stages and operator evaluations,
/// not per-tuple work, so the lock is off every hot path). Bounded: after
/// kMaxEvents further records are counted as dropped instead of stored.
class Tracer {
 public:
  static constexpr size_t kMaxEvents = 1 << 17;

  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint64_t Begin(const std::string& name, const std::string& cat);
  void End(uint64_t id);
  void AddArg(uint64_t id, const std::string& key, std::string value);
  void AddArg(uint64_t id, const std::string& key, double value);
  void Instant(const std::string& name, const std::string& cat,
               std::vector<std::pair<std::string, std::string>> args = {});

  size_t event_count() const;

  /// Closes the tracer and returns the recorded trace. Spans still open are
  /// ended at the current time.
  std::shared_ptr<Trace> Finish();

 private:
  double NowUs() const {
    return std::chrono::duration_cast<
               std::chrono::duration<double, std::micro>>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  mutable std::mutex mu_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<TraceEvent> events_;  // span id = index
  std::vector<uint64_t> open_;      // ids of spans not yet ended
  int depth_ = 0;
  size_t dropped_ = 0;
};

/// RAII span: opens on construction (when `tracer` is non-null), closes on
/// scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* cat)
      : tracer_(tracer) {
    if (tracer_ != nullptr) id_ = tracer_->Begin(name, cat);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  void Arg(const std::string& key, double value) {
    if (tracer_ != nullptr) tracer_->AddArg(id_, key, value);
  }
  void Arg(const std::string& key, std::string value) {
    if (tracer_ != nullptr) tracer_->AddArg(id_, key, std::move(value));
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  uint64_t id_ = 0;
};

}  // namespace rodin::obs

#endif  // RODIN_OBS_TRACE_H_
