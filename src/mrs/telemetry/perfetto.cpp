#include "mrs/telemetry/perfetto.hpp"

#include <fstream>
#include <stdexcept>

#include "mrs/common/strfmt.hpp"
#include "mrs/telemetry/export.hpp"

namespace mrs::telemetry {

namespace {

// Process ids grouping the trace tracks in the Perfetto UI.
constexpr int kTasksPid = 1;     ///< per-node task slices & instants
constexpr int kJobsPid = 2;      ///< per-job lifetime slices
constexpr int kCountersPid = 3;  ///< sampled time-series counters
constexpr int kWallPid = 4;      ///< host wall-clock timer aggregates

std::string us(Seconds t) { return strf("%.3f", t * 1e6); }

void append_event(std::string& out, const std::string& body) {
  if (!out.empty()) out += ",\n";
  out += body;
}

void append_process_name(std::string& out, int pid, const char* name) {
  append_event(out,
               strf("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                    "\"tid\":0,\"args\":{\"name\":\"%s\"}}",
                    pid, name));
}

}  // namespace

void PerfettoTrace::on_event(const mapreduce::LifecycleEvent& e) {
  if (!printed(e)) return;
  using mapreduce::LifecycleKind;
  std::string& out = timeline_;
  const std::string subject = mapreduce::format_subject(e);
  switch (e.kind) {
    case LifecycleKind::kJobActivated: {
      open_jobs_[subject] = {e.time, next_job_tid_++, {}};
      break;
    }
    case LifecycleKind::kJobFinished:
    case LifecycleKind::kJobAborted: {
      // An aborted job's slice ends at the abort, in its own category.
      const auto it = open_jobs_.find(subject);
      if (it == open_jobs_.end()) break;
      append_event(
          out,
          strf("{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%s,"
               "\"dur\":%s,\"pid\":%d,\"tid\":%zu,\"args\":{\"detail\":"
               "\"%s\"}}",
               json_escape(subject).c_str(),
               e.kind == LifecycleKind::kJobAborted ? "aborted" : "job",
               us(it->second.start).c_str(),
               us(e.time - it->second.start).c_str(), kJobsPid,
               it->second.tid,
               json_escape(mapreduce::format_detail(e)).c_str()));
      open_jobs_.erase(it);
      break;
    }
    case LifecycleKind::kMapAssigned:
    case LifecycleKind::kReduceAssigned: {
      open_tasks_[subject] = {e.time, e.node.value(),
                              mapreduce::format_detail(e)};
      const auto flow = pending_retry_.find(subject);
      if (flow != pending_retry_.end()) {
        append_event(
            out,
            strf("{\"name\":\"retry\",\"cat\":\"retry\",\"ph\":\"f\","
                 "\"bp\":\"e\",\"id\":%ld,\"ts\":%s,\"pid\":%d,"
                 "\"tid\":%zu}",
                 flow->second, us(e.time).c_str(), kTasksPid,
                 e.node.value()));
        pending_retry_.erase(flow);
      }
      break;
    }
    case LifecycleKind::kMapFinished:
    case LifecycleKind::kMapKilled:
    case LifecycleKind::kReduceFinished:
    case LifecycleKind::kReduceKilled: {
      const auto it = open_tasks_.find(subject);
      if (it == open_tasks_.end()) break;
      const bool killed = e.kind == LifecycleKind::kMapKilled ||
                          e.kind == LifecycleKind::kReduceKilled;
      append_event(
          out,
          strf("{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%s,"
               "\"dur\":%s,\"pid\":%d,\"tid\":%zu,\"args\":{\"assigned\":"
               "\"%s\",\"end\":\"%s\"}}",
               json_escape(subject).c_str(),
               killed ? "killed" : (e.is_map ? "map" : "reduce"),
               us(it->second.start).c_str(),
               us(e.time - it->second.start).c_str(), kTasksPid,
               it->second.tid, json_escape(it->second.detail).c_str(),
               json_escape(mapreduce::format_detail(e)).c_str()));
      if (killed) {
        const long id = next_flow_id_++;
        append_event(
            out,
            strf("{\"name\":\"retry\",\"cat\":\"retry\",\"ph\":\"s\","
                 "\"id\":%ld,\"ts\":%s,\"pid\":%d,\"tid\":%zu}",
                 id, us(e.time).c_str(), kTasksPid, it->second.tid));
        pending_retry_[subject] = id;
      }
      open_tasks_.erase(it);
      break;
    }
    case LifecycleKind::kSpeculativeLaunch:
    case LifecycleKind::kNodeFailed:
    case LifecycleKind::kNodeRecovered:
    case LifecycleKind::kStallTimeout: {
      const std::size_t tid = e.node.value();
      append_event(
          out,
          strf("{\"name\":\"%s: %s\",\"cat\":\"event\",\"ph\":\"i\","
               "\"s\":\"g\",\"ts\":%s,\"pid\":%d,\"tid\":%zu,\"args\":"
               "{\"detail\":\"%s\"}}",
               to_string(e.kind), json_escape(subject).c_str(),
               us(e.time).c_str(), kTasksPid, tid,
               json_escape(mapreduce::format_detail(e)).c_str()));
      // Speculation flow: tie the still-running primary attempt's slice
      // to the backup launch on the other node's track.
      if (e.kind == LifecycleKind::kSpeculativeLaunch) {
        const auto primary = open_tasks_.find(subject);
        if (primary != open_tasks_.end()) {
          const long id = next_flow_id_++;
          append_event(
              out,
              strf("{\"name\":\"speculate\",\"cat\":\"speculation\","
                   "\"ph\":\"s\",\"id\":%ld,\"ts\":%s,\"pid\":%d,"
                   "\"tid\":%zu}",
                   id, us(e.time).c_str(), kTasksPid, primary->second.tid));
          append_event(
              out,
              strf("{\"name\":\"speculate\",\"cat\":\"speculation\","
                   "\"ph\":\"f\",\"bp\":\"e\",\"id\":%ld,\"ts\":%s,"
                   "\"pid\":%d,\"tid\":%zu}",
                   id, us(e.time).c_str(), kTasksPid, tid));
        }
      }
      break;
    }
    default:
      break;
  }
}

std::string PerfettoTrace::document(
    const Snapshot& snapshot, const TimeSeries& series,
    std::span<const trace::PlacementDecisionRecord> decisions) const {
  std::string out;
  append_process_name(out, kTasksPid, "cluster nodes (task slices)");
  append_process_name(out, kJobsPid, "jobs");
  append_process_name(out, kCountersPid, "sampled gauges");
  append_process_name(out, kWallPid, "host wall-clock (aggregates)");
  if (!timeline_.empty()) append_event(out, timeline_);

  // Placement decision records as thread-scoped instants on the offering
  // node's track — hovering one shows why a slot was (not) filled.
  for (const auto& d : decisions) {
    append_event(
        out,
        strf("{\"name\":\"decision: %s\",\"cat\":\"decision\",\"ph\":\"i\","
             "\"s\":\"t\",\"ts\":%s,\"pid\":%d,\"tid\":%ld,\"args\":"
             "{\"kind\":\"%s\",\"job\":%lld,\"task\":%lld,"
             "\"candidates\":%zu,\"p\":%.17g,\"cost\":%.17g}}",
             trace::to_string(d.outcome), us(d.time).c_str(), kTasksPid,
             d.node.valid() ? static_cast<long>(d.node.value()) : 0L,
             d.is_map ? "map" : "reduce",
             d.job.valid() ? static_cast<long long>(d.job.value()) : -1LL,
             d.task == SIZE_MAX ? -1LL : static_cast<long long>(d.task),
             d.candidates, d.p, d.cost));
  }

  // Sampled gauges as counter tracks.
  for (const auto& row : series.rows) {
    for (std::size_t i = 0; i < series.columns.size(); ++i) {
      append_event(
          out,
          strf("{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%s,\"pid\":%d,"
               "\"tid\":0,\"args\":{\"value\":%.17g}}",
               json_escape(series.columns[i]).c_str(), us(row.t).c_str(),
               kCountersPid, row.values[i]));
    }
  }

  // Wall-clock aggregates: one summary slice per timer starting at t=0
  // with the accumulated duration (they are host-time totals, not
  // sim-time spans, hence the dedicated process).
  long wall_tid = 0;
  for (const auto& t : snapshot.timers) {
    append_event(
        out,
        strf("{\"name\":\"%s\",\"cat\":\"wall\",\"ph\":\"X\",\"ts\":0,"
             "\"dur\":%.3f,\"pid\":%d,\"tid\":%ld,\"args\":{\"count\":%llu,"
             "\"max_ms\":%.6f}}",
             json_escape(t.name).c_str(),
             static_cast<double>(t.total_ns) / 1e3, kWallPid, wall_tid++,
             static_cast<unsigned long long>(t.count),
             static_cast<double>(t.max_ns) / 1e6));
  }

  return "{\"traceEvents\":[\n" + out + "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void PerfettoTrace::write(
    const std::string& path, const Snapshot& snapshot,
    const TimeSeries& series,
    std::span<const trace::PlacementDecisionRecord> decisions) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("PerfettoTrace::write: cannot open " + path);
  }
  out << document(snapshot, series, decisions);
  if (!out) {
    throw std::runtime_error("PerfettoTrace::write: write failed: " + path);
  }
}

}  // namespace mrs::telemetry
