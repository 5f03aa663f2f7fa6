#ifndef RODIN_SERVER_GOVERNOR_H_
#define RODIN_SERVER_GOVERNOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/status.h"

namespace rodin::server {

/// Admission control for the query server: a fixed number of concurrent
/// query slots, shed-immediately beyond that. There is deliberately no
/// admission queue — a queued request under overload only grows its own
/// latency, and the client is better placed to decide between backoff and
/// giving up. A shed request costs one frame round-trip and no engine work.
///
/// Shedding returns Status::Code::kOverloaded, the *retryable* overload
/// signal, with Status::detail = the in-flight count at refusal. It is
/// distinct from kResourceExhausted (a per-query memory budget verdict:
/// retrying the identical query yields the identical refusal), so clients
/// can branch on Status::retryable() alone.
///
/// Counters are per-instance relaxed atomics, not the process-wide obs
/// metrics, so each server's stats endpoint reports only its own traffic.
class Governor {
 public:
  explicit Governor(size_t max_in_flight) : max_in_flight_(max_in_flight) {}

  /// Takes a query slot, or sheds with kOverloaded (never blocks).
  Status Admit();

  /// Returns a slot taken by a successful Admit().
  void Release();

  struct Snapshot {
    uint64_t in_flight = 0;
    uint64_t admitted = 0;  // lifetime successful admissions
    uint64_t shed = 0;      // lifetime kOverloaded refusals
    uint64_t peak_in_flight = 0;
  };
  Snapshot snapshot() const;

  size_t max_in_flight() const { return max_in_flight_; }

 private:
  const size_t max_in_flight_;
  std::atomic<uint64_t> in_flight_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> peak_in_flight_{0};
};

}  // namespace rodin::server

#endif  // RODIN_SERVER_GOVERNOR_H_
