#include <cstring>
#include <map>
#include <set>

#include "mrs/common/strfmt.hpp"
#include "perfbench.hpp"

namespace perfbench {

using mrs::strf;

RunCheck check_run(const mrs::driver::ExperimentResult& r,
                   std::size_t submitted) {
  RunCheck out;
  out.submitted = submitted;
  auto fail = [&out](std::string msg) {
    if (out.failures.size() < 20) out.failures.push_back(std::move(msg));
  };

  if (!r.completed) fail("run did not drain");

  // Each submitted job resolves exactly once: one record (completed or
  // aborted) or an admission rejection, never both and never twice.
  std::set<std::size_t> seen;
  for (const auto& j : r.job_records) {
    if (!seen.insert(j.id.value()).second) {
      fail(strf("job %zu has more than one record", j.id.value()));
    }
  }
  if (r.job_records.size() + r.jobs_rejected != submitted) {
    fail(strf("%zu records + %zu rejected != %zu submitted",
              r.job_records.size(), r.jobs_rejected, submitted));
  }

  std::size_t maps = 0, reduces = 0;
  std::map<std::size_t, std::pair<std::set<std::size_t>, std::set<std::size_t>>>
      tasks_of;  // job -> (map indices, reduce indices)
  for (const auto& t : r.task_records) {
    auto& [m, rd] = tasks_of[t.job.value()];
    if (t.is_map) {
      ++maps;
      if (!m.insert(t.index).second) {
        fail(strf("job %zu map %zu recorded twice", t.job.value(), t.index));
      }
    } else {
      ++reduces;
      if (!rd.insert(t.index).second) {
        fail(strf("job %zu reduce %zu recorded twice", t.job.value(),
                  t.index));
      }
    }
  }
  const auto maps_finished = r.telemetry.counter("engine.maps.finished");
  const auto reduces_finished = r.telemetry.counter("engine.reduces.finished");
  if (maps != maps_finished) {
    fail(strf("%zu map records != engine.maps.finished %llu", maps,
              static_cast<unsigned long long>(maps_finished)));
  }
  if (reduces != reduces_finished) {
    fail(strf("%zu reduce records != engine.reduces.finished %llu", reduces,
              static_cast<unsigned long long>(reduces_finished)));
  }

  for (const auto& j : r.job_records) {
    if (j.aborted || j.finish_time < j.submit_time) continue;
    static const std::set<std::size_t> kNone;
    const auto it = tasks_of.find(j.id.value());
    const auto& mi = it == tasks_of.end() ? kNone : it->second.first;
    const auto& ri = it == tasks_of.end() ? kNone : it->second.second;
    // Distinct indices, as many as tasks, all in range: one per task.
    auto one_each = [](const std::set<std::size_t>& idx, std::size_t n) {
      return idx.size() == n && (idx.empty() || *idx.rbegin() < n);
    };
    const std::size_t m = mi.size();
    const std::size_t rd = ri.size();
    if (!one_each(mi, j.map_count) || !one_each(ri, j.reduce_count)) {
      fail(strf("job %zu completed with %zu/%zu map and %zu/%zu reduce "
                "records",
                j.id.value(), m, j.map_count, rd, j.reduce_count));
      continue;
    }
    ++out.completed_ok;
  }
  return out;
}

namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
};

}  // namespace

std::uint64_t record_digest(const mrs::driver::ExperimentResult& r) {
  Fnv f;
  f.u64(r.job_records.size());
  for (const auto& j : r.job_records) {
    f.u64(j.id.value());
    f.bytes(j.name.data(), j.name.size());
    f.u64(static_cast<std::uint64_t>(j.kind));
    f.u64(j.tenant.value());
    f.u64(j.map_count);
    f.u64(j.reduce_count);
    f.f64(j.input_bytes);
    f.f64(j.shuffle_bytes);
    f.f64(j.submit_time);
    f.f64(j.finish_time);
    f.u64(j.aborted ? 1 : 0);
  }
  f.u64(r.task_records.size());
  for (const auto& t : r.task_records) {
    f.u64(t.job.value());
    f.u64(static_cast<std::uint64_t>(t.kind));
    f.u64(t.is_map ? 1 : 0);
    f.u64(t.index);
    f.u64(t.node.value());
    f.u64(static_cast<std::uint64_t>(t.locality));
    f.f64(t.assigned_at);
    f.f64(t.finished_at);
    f.f64(t.placement_cost);
    f.f64(t.network_bytes);
    f.u64(t.attempts);
  }
  return f.h;
}

}  // namespace perfbench
