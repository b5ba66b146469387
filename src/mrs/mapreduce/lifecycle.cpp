#include "mrs/mapreduce/lifecycle.hpp"

#include "mrs/common/strfmt.hpp"

namespace mrs::mapreduce {

std::string format_subject(const LifecycleEvent& e) {
  if (e.job == nullptr) return strf("node/%zu", e.node.value());
  switch (e.kind) {
    case LifecycleKind::kJobActivated:
    case LifecycleKind::kJobFinished:
    case LifecycleKind::kJobDeferred:
    case LifecycleKind::kJobRejected:
    case LifecycleKind::kJobAborted:
      return e.job->name;
    default:
      return strf("%s/%s/%zu", e.job->name.c_str(),
                  e.is_map ? "map" : "reduce", e.task);
  }
}

std::string format_detail(const LifecycleEvent& e) {
  switch (e.kind) {
    case LifecycleKind::kJobFinished:
      return strf("jct=%.3f", e.value);
    case LifecycleKind::kJobDeferred:
      return strf("retry_in=%.1f attempt=%zu", e.value, e.count);
    case LifecycleKind::kMapAssigned:
    case LifecycleKind::kReduceAssigned:
      return strf("node=%zu locality=%s", e.node.value(),
                  to_string(e.locality));
    case LifecycleKind::kMapFinished:
    case LifecycleKind::kReduceFinished:
      return strf("node=%zu attempts=%zu", e.node.value(), e.count);
    case LifecycleKind::kSpeculativeLaunch:
      return strf("backup-node=%zu", e.node.value());
    case LifecycleKind::kStallTimeout:
      return strf("node=%zu retries=%zu", e.node.value(), e.count);
    default:
      return {};
  }
}

void CsvTraceObserver::on_event(const LifecycleEvent& e) {
  if (!printed(e)) return;
  writer_.row({strf("%.6f", e.time), to_string(e.kind), format_subject(e),
               format_detail(e)});
}

}  // namespace mrs::mapreduce
