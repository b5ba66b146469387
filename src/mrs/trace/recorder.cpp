#include "mrs/trace/recorder.hpp"

#include "mrs/common/check.hpp"

namespace mrs::trace {

using mapreduce::LifecycleEvent;
using mapreduce::LifecycleKind;

JobTrace& TraceRecorder::job(JobId id) {
  MRS_REQUIRE(id.valid());
  if (id.value() >= jobs_.size()) jobs_.resize(id.value() + 1);
  return jobs_[id.value()];
}

AttemptSpan* TraceRecorder::open_attempt(const LifecycleEvent& e) {
  JobTrace& jt = job(e.job->id);
  auto& tasks = e.is_map ? jt.maps : jt.reduces;
  MRS_REQUIRE(e.task < tasks.size());
  auto& attempts = tasks[e.task].attempts;
  for (auto it = attempts.rbegin(); it != attempts.rend(); ++it) {
    if (it->backup == e.backup && !it->closed) return &*it;
  }
  return nullptr;
}

void TraceRecorder::on_event(const LifecycleEvent& e) {
  switch (e.kind) {
    case LifecycleKind::kJobActivated: {
      JobTrace& jt = job(e.job->id);
      jt.job = e.job->id;
      jt.name = e.job->name;
      jt.tenant = e.job->tenant;
      jt.submit = e.job->submit_time;
      jt.admitted = e.time;
      jt.activated = true;
      jt.maps.resize(e.job->map_tasks.size());
      jt.reduces.resize(e.job->reduce_count);
      break;
    }
    case LifecycleKind::kJobFinished:
    case LifecycleKind::kJobAborted: {
      JobTrace& jt = job(e.job->id);
      jt.finish = e.time;
      jt.aborted = e.kind == LifecycleKind::kJobAborted;
      break;
    }
    case LifecycleKind::kMapAssigned:
    case LifecycleKind::kSpeculativeLaunch:
    case LifecycleKind::kReduceAssigned: {
      JobTrace& jt = job(e.job->id);
      auto& tasks = e.is_map ? jt.maps : jt.reduces;
      MRS_REQUIRE(e.task < tasks.size());
      AttemptSpan a;
      a.attempt = tasks[e.task].attempts.size() + 1;
      a.node = e.node;
      a.locality = static_cast<int>(e.locality);
      a.backup = e.backup;
      a.assigned = e.time;
      tasks[e.task].attempts.push_back(a);
      break;
    }
    case LifecycleKind::kMapRunning:
      if (AttemptSpan* a = open_attempt(e)) {
        a->ready = e.time;
        a->remote_fetch = e.remote;
        a->nominal_compute = e.value;
        a->straggler = e.straggler;
      }
      break;
    case LifecycleKind::kReduceShuffling:
      if (AttemptSpan* a = open_attempt(e)) a->ready = e.time;
      break;
    case LifecycleKind::kReduceShuffleDone:
      if (AttemptSpan* a = open_attempt(e)) {
        a->shuffle_done = e.time;
        a->nominal_compute = e.value;
      }
      break;
    case LifecycleKind::kMapFinished: {
      JobTrace& jt = job(e.job->id);
      MRS_REQUIRE(e.task < jt.maps.size());
      for (AttemptSpan& a : jt.maps[e.task].attempts) {
        if (a.closed) continue;
        a.closed = true;
        a.end = e.time;
        a.finished = (a.backup == e.backup);  // the losing racer is killed
      }
      break;
    }
    case LifecycleKind::kReduceFinished:
    case LifecycleKind::kMapKilled:
    case LifecycleKind::kReduceKilled:
      if (AttemptSpan* a = open_attempt(e)) {
        a->closed = true;
        a->end = e.time;
        a->finished = e.kind == LifecycleKind::kReduceFinished;
      }
      break;
    default:
      break;
  }
}

}  // namespace mrs::trace
