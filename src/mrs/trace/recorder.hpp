// TraceRecorder: builds JobTrace span trees from the engine's lifecycle
// stream.
//
// The recorder is one LifecycleObserver among several; it reads ids,
// indices, times and flags off each event and never consumes RNG or feeds
// back into scheduling, so attaching it cannot perturb placements
// (byte-identity with tracing off is tested).
#pragma once

#include <vector>

#include "mrs/mapreduce/lifecycle.hpp"
#include "mrs/trace/span.hpp"

namespace mrs::trace {

class TraceRecorder final : public mapreduce::LifecycleObserver {
 public:
  /// Job activation/finish/abort open and close a JobTrace; map and reduce
  /// assignments (a speculative launch assigns the map's backup) open an
  /// attempt, phase events fill its boundaries, and finishes/kills close
  /// it. A map finish also closes the losing side of a speculation race
  /// as killed.
  void on_event(const mapreduce::LifecycleEvent& e) override;

  /// All traces, indexed by JobId value. Entries for jobs that never
  /// activated (admission-rejected) have activated == false.
  [[nodiscard]] const std::vector<JobTrace>& jobs() const { return jobs_; }

 private:
  JobTrace& job(JobId id);
  /// The open attempt of `e`'s task (its backup side for maps), or null.
  AttemptSpan* open_attempt(const mapreduce::LifecycleEvent& e);

  std::vector<JobTrace> jobs_;
};

}  // namespace mrs::trace
