// The three workloads. Each setup makes its inputs from the seed alone,
// through the program's public workload and driver headers; the shapes
// (sizes, rates, chaos intensity) are chosen so that a driver call takes a
// few host seconds and the per-seed cost varies little (NOTES.md gives the
// reasons).
#include <algorithm>
#include <cmath>

#include "mrs/common/rng.hpp"
#include "mrs/common/strfmt.hpp"
#include "mrs/workload/table2.hpp"
#include "mrs/workload/trace_gen.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace driver = mrs::driver;
namespace workload = mrs::workload;
using mrs::mapreduce::JobKind;

namespace {

/// The paper's 60-node single-rack cluster running Table II's Grep batch.
Inputs paper60_grep(std::uint64_t seed, const std::string&) {
  Inputs in;
  in.stream.base = driver::paper_config(workload::table2_batch(JobKind::kGrep),
                                        driver::SchedulerKind::kPna, seed);
  in.jobs = in.stream.base.jobs.size();
  return in;
}

/// A k=8 fat-tree (128 hosts) fed an open-loop Poisson stream of the
/// Table II mix: eight copies of the 30-job catalog at job-scale 0.05 in a
/// random order. The stream is drawn once, from a fixed seed, and the
/// benchmark's seed moves block placement and background traffic. When the
/// seed drew the stream too, how arrivals bunched moved the host time per
/// seed by up to 20%, more than any other input did.
Inputs fattree8_poisson(std::uint64_t seed, const std::string&) {
  constexpr std::size_t kCopies = 8;
  constexpr double kJobScale = 0.05;
  constexpr double kRatePerHour = 90.0;
  constexpr std::uint64_t kStreamSeed = 1;
  Inputs in;
  mrs::Rng rng = mrs::Rng(kStreamSeed).split("perfbench-fattree8");
  std::vector<workload::JobDescription> jobs;
  for (std::size_t c = 0; c < kCopies; ++c) {
    for (workload::JobDescription d : workload::table2_catalog()) {
      d.map_count = std::max<std::size_t>(
          1, std::llround(static_cast<double>(d.map_count) * kJobScale));
      d.reduce_count = std::max<std::size_t>(
          1, std::llround(static_cast<double>(d.reduce_count) * kJobScale));
      d.nominal_gb *= kJobScale;
      jobs.push_back(std::move(d));
    }
  }
  for (std::size_t i = jobs.size() - 1; i > 0; --i) {
    std::swap(jobs[i], jobs[rng.index(i + 1)]);
  }
  double t = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    t += rng.exponential(3600.0 / kRatePerHour);
    jobs[i].job_id = mrs::strf("%zu", i + 1);
    jobs[i].name += mrs::strf("#%04zu", i + 1);
    in.arrivals.push_back({t, std::move(jobs[i])});
  }

  driver::StreamConfig& s = in.stream;
  s.base = driver::paper_config({}, driver::SchedulerKind::kPna, seed);
  s.base.fat_tree_k = 8;
  s.base.nodes = 8 * 8 * 8 / 4;
  s.arrivals.duration = t + 1.0;  // the steady window spans every arrival
  in.streamed = true;
  in.jobs = in.arrivals.size();
  return in;
}

/// Yields arrivals of another source until their tasks (maps + reduces)
/// reach `budget`.
class TaskBudget final : public workload::ArrivalSource {
 public:
  TaskBudget(workload::ArrivalSource& inner, std::size_t budget)
      : inner_(inner), left_(budget) {}
  [[nodiscard]] std::optional<workload::Arrival> next() override {
    if (left_ == 0) return std::nullopt;
    auto a = inner_.next();
    if (!a) return a;
    const std::size_t tasks = a->job.map_count + a->job.reduce_count;
    left_ -= std::min(left_, tasks);
    return a;
  }

 private:
  workload::ArrivalSource& inner_;
  std::size_t left_;
};

/// A SWIM-style production trace written to a file and replayed through
/// the streaming reader onto 12 nodes in 3 racks under link cuts, with the
/// stall watchdog, blacklisting and the observers (causal tracing, the
/// sampler and the telemetry file) on. The trace is cut at a fixed number
/// of tasks, so heavy-tailed job sizes do not change the work per seed,
/// and its mean rate leaves burst peaks below the cluster's knee, so it
/// drains.
Inputs trace12_chaos(std::uint64_t seed, const std::string& dir) {
  constexpr double kHorizon = 48.0 * 3600.0;  // never reached: the cut is
  constexpr std::size_t kTasks = 40000;       // ~2000 jobs, ~33 h
  Inputs in;
  in.trace_path = dir + "/trace12-chaos.trace.csv";
  workload::TraceGenConfig g;
  g.duration = kHorizon;
  g.mean_rate_per_hour = 60.0;
  g.mix.map_count_scale = 0.05;
  g.mix.reduce_count_scale = 0.05;
  // Half the generator's default size jitter: with the default, the seed's
  // few largest jobs set the flow solver's region sizes, and host time per
  // seed varied by 40% at the same task count.
  g.mix.size_jitter_sigma = 0.5;
  workload::ProductionTraceGenerator gen(g, mrs::Rng(seed));
  TaskBudget cut(gen, kTasks);
  in.jobs = workload::write_arrival_trace(in.trace_path, cut);

  driver::StreamConfig& s = in.stream;
  s.base = driver::paper_config({}, driver::SchedulerKind::kPna, seed);
  s.base.nodes = 12;
  s.base.racks = 3;
  s.base.net_faults.link_mtbf = 600.0;
  s.base.net_faults.link_repair_time = 60.0;
  s.base.net_faults.repair_jitter = 0.3;
  s.base.engine.stall_timeout = 30.0;
  s.base.engine.stall_backoff_base = 5.0;
  s.base.engine.stall_backoff_cap = 60.0;
  s.base.engine.blacklist.enabled = true;
  // Causal tracing stays in memory: its JSONL (~12 MB a call) would make
  // the run time mostly a measure of the disk.
  s.base.enable_tracing = true;
  s.base.telemetry_path = dir + "/trace12-chaos.telemetry.jsonl";
  s.base.sample_period = 10.0;
  s.arrivals.process = workload::ArrivalProcess::kTrace;
  s.arrivals.trace_path = in.trace_path;
  s.arrivals.duration = kHorizon;
  s.stream_trace = true;
  in.streamed = true;
  return in;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      {"paper60-grep", paper60_grep},
      {"fattree8-poisson", fattree8_poisson},
      {"trace12-chaos", trace12_chaos},
  };
  return kAll;
}

const Workload* find_workload(std::string_view name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

driver::ExperimentResult run_driver(const Inputs& in, Variant variant) {
  driver::StreamConfig s = in.stream;
  if (variant == Variant::kNaive) s.base.naive_scheduler_path = true;
  if (variant == Variant::kObserversOff) {
    s.base.enable_tracing = false;
    s.base.causal_trace_path.clear();
    s.base.telemetry_path.clear();
    s.base.sample_period = 0.0;
  }
  if (!in.streamed) return driver::run_experiment(s.base);
  if (in.arrivals.empty()) return driver::run_stream_experiment(s).run;
  workload::BufferedArrivalSource source(in.arrivals);
  return driver::run_stream_experiment(s, source).run;
}

mrs::net::Topology topology_of(const driver::ExperimentConfig& cfg) {
  if (cfg.fat_tree_k != 0) {
    return mrs::net::make_fat_tree({cfg.fat_tree_k, cfg.host_link});
  }
  if (cfg.racks == 1) return mrs::net::make_single_rack(cfg.nodes, cfg.host_link);
  mrs::net::TreeTopologyConfig tree;
  tree.racks = cfg.racks;
  tree.hosts_per_rack = (cfg.nodes + cfg.racks - 1) / cfg.racks;
  tree.host_link = cfg.host_link;
  tree.uplink = cfg.rack_uplink;
  return mrs::net::make_multi_rack_tree(tree);
}

}  // namespace perfbench
