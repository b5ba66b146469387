// The engine's typed lifecycle stream: one LifecycleEvent per job, task
// attempt or node transition, handed to every attached LifecycleObserver.
//
// Four observers consume it: the telemetry counters
// (telemetry/lifecycle_counters.hpp), the CSV execution trace (below), the
// causal span recorder (trace/recorder.hpp) and the Perfetto timeline
// (telemetry/perfetto.hpp). Each reads the fields it needs; strings are
// only formatted by the two text observers. Observers never feed back into
// scheduling or RNG, so attaching any of them cannot change a run.
#pragma once

#include <cstddef>
#include <string>

#include "mrs/common/csv.hpp"
#include "mrs/common/ids.hpp"
#include "mrs/common/units.hpp"
#include "mrs/mapreduce/job.hpp"

namespace mrs::mapreduce {

enum class LifecycleKind {
  // Printed in the CSV trace (and, where they pair up, drawn by Perfetto).
  kJobActivated,
  kJobFinished,
  kMapAssigned,
  kMapFinished,
  kMapKilled,
  kReduceAssigned,
  kReduceFinished,
  kReduceKilled,
  kSpeculativeLaunch,
  kNodeFailed,
  kNodeRecovered,
  kJobDeferred,
  kJobRejected,
  kJobAborted,
  kNodeBlacklisted,
  kNodeUnblacklisted,
  kStallTimeout,
  // Phase boundaries and retries only the span recorder and the counters
  // read; the CSV trace never printed them.
  kMapRunning,         ///< startup done: fetch/compute begins
  kReduceShuffling,    ///< startup done: shuffle begins
  kReduceShuffleDone,  ///< shuffle done: sort+reduce compute begins
  kTaskRequeued,       ///< a stall-killed task left backoff for the pool
};
inline constexpr std::size_t kLifecycleKinds =
    static_cast<std::size_t>(LifecycleKind::kTaskRequeued) + 1;

[[nodiscard]] constexpr const char* to_string(LifecycleKind k) {
  switch (k) {
    case LifecycleKind::kJobActivated: return "job-activated";
    case LifecycleKind::kJobFinished: return "job-finished";
    case LifecycleKind::kMapAssigned: return "map-assigned";
    case LifecycleKind::kMapFinished: return "map-finished";
    case LifecycleKind::kMapKilled: return "map-killed";
    case LifecycleKind::kReduceAssigned: return "reduce-assigned";
    case LifecycleKind::kReduceFinished: return "reduce-finished";
    case LifecycleKind::kReduceKilled: return "reduce-killed";
    case LifecycleKind::kSpeculativeLaunch: return "speculative-launch";
    case LifecycleKind::kNodeFailed: return "node-failed";
    case LifecycleKind::kNodeRecovered: return "node-recovered";
    case LifecycleKind::kJobDeferred: return "job-deferred";
    case LifecycleKind::kJobRejected: return "job-rejected";
    case LifecycleKind::kJobAborted: return "job-aborted";
    case LifecycleKind::kNodeBlacklisted: return "node-blacklisted";
    case LifecycleKind::kNodeUnblacklisted: return "node-unblacklisted";
    case LifecycleKind::kStallTimeout: return "stall-timeout";
    case LifecycleKind::kMapRunning: return "map-running";
    case LifecycleKind::kReduceShuffling: return "reduce-shuffling";
    case LifecycleKind::kReduceShuffleDone: return "reduce-shuffle-done";
    case LifecycleKind::kTaskRequeued: return "task-requeued";
  }
  return "?";
}

/// One lifecycle transition. Plain data: `job` points into the engine's
/// job table and stays valid for the engine's lifetime.
struct LifecycleEvent {
  Seconds time = 0.0;
  LifecycleKind kind = LifecycleKind::kJobActivated;
  const JobSpec* job = nullptr;  ///< id + name; null for node events
  std::size_t task = 0;          ///< task index (task events)
  bool is_map = false;           ///< map (true) or reduce task
  bool backup = false;           ///< the speculative attempt of a map
  NodeId node{};                 ///< placement / failing node
  Locality locality = Locality::kRemote;  ///< at (backup) assignment
  /// Attempts (task finished), stall retries (stall timeout) or the
  /// admission attempt (job deferred).
  std::size_t count = 0;
  /// JCT (job finished), retry_in (job deferred) or the drawn compute
  /// duration (map running, reduce shuffle done).
  double value = 0.0;
  bool remote = false;     ///< map running: input streamed over the network
  bool straggler = false;  ///< map running: straggler-inflated draw
};

class LifecycleObserver {
 public:
  virtual ~LifecycleObserver() = default;
  virtual void on_event(const LifecycleEvent& event) = 0;
};

/// Whether the CSV trace prints `e`: the printed kinds, minus the kill of
/// a lone backup attempt (the task itself keeps running).
[[nodiscard]] constexpr bool printed(const LifecycleEvent& e) {
  return e.kind < LifecycleKind::kMapRunning &&
         !(e.kind == LifecycleKind::kMapKilled && e.backup);
}

/// "Wordcount_10GB" (job), "Wordcount_10GB/map/17" (task), "node/23".
[[nodiscard]] std::string format_subject(const LifecycleEvent& e);
/// e.g. "node=23 locality=node-local"; empty for kinds without details.
[[nodiscard]] std::string format_detail(const LifecycleEvent& e);

/// Streams the printed events to a CSV file (time,kind,subject,detail).
class CsvTraceObserver final : public LifecycleObserver {
 public:
  explicit CsvTraceObserver(const std::string& path)
      : writer_(path, {"time", "kind", "subject", "detail"}) {}

  void on_event(const LifecycleEvent& e) override;

 private:
  CsvWriter writer_;
};

}  // namespace mrs::mapreduce
