// Chrome trace-event ("Trace Event Format") exporter, loadable in
// ui.perfetto.dev and chrome://tracing.
//
// The timeline is built from the engine's lifecycle stream as it runs:
// assigned->finished/killed pairs become complete ("X") slices on a track
// per cluster node, job activation->finish (or ->abort) pairs become
// slices on a job track, and kills/failures/speculative launches become
// instant events. Killed attempts are tied to their re-executions (and
// primaries to their speculative backups) with flow events, so retry
// chains render as arrows across node tracks. Placement decision records,
// when provided, become instant events on the offering node's track.
// Sampled time-series columns are emitted as counter ("C") events, and the
// host wall-clock timer aggregates as one summary slice each on a
// dedicated process. Sim seconds map to trace microseconds.
#pragma once

#include <map>
#include <span>
#include <string>

#include "mrs/mapreduce/lifecycle.hpp"
#include "mrs/telemetry/registry.hpp"
#include "mrs/telemetry/sampler.hpp"
#include "mrs/trace/decision.hpp"

namespace mrs::telemetry {

class PerfettoTrace final : public mapreduce::LifecycleObserver {
 public:
  void on_event(const mapreduce::LifecycleEvent& e) override;

  /// The complete {"traceEvents":[...]} JSON document: the timeline so
  /// far, then decisions, sampled counters and wall-clock timers.
  [[nodiscard]] std::string document(
      const Snapshot& snapshot, const TimeSeries& series,
      std::span<const trace::PlacementDecisionRecord> decisions = {}) const;

  /// Write document(...) to `path`; throws std::runtime_error on I/O
  /// error.
  void write(const std::string& path, const Snapshot& snapshot,
             const TimeSeries& series,
             std::span<const trace::PlacementDecisionRecord> decisions =
                 {}) const;

 private:
  struct OpenSlice {
    Seconds start = 0.0;
    std::size_t tid = 0;
    std::string detail;
  };

  std::string timeline_;  ///< ",\n"-joined lifecycle trace events
  // assigned -> finished/killed pairing, keyed by subject. Re-assignments
  // after a kill re-open the key, so every attempt gets its own slice.
  std::map<std::string, OpenSlice> open_tasks_;
  std::map<std::string, OpenSlice> open_jobs_;
  std::size_t next_job_tid_ = 0;
  // Flow arrows linking an aborted attempt to its re-execution: a kill
  // opens a flow ("s") on the killed slice's track, the next assignment of
  // the same subject closes it ("f") on the new node's track.
  std::map<std::string, long> pending_retry_;
  long next_flow_id_ = 1;
};

}  // namespace mrs::telemetry
