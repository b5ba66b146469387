// perfbench — one workload, one seed, one run.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics: the workload's set-up is timed
// in repeated batches, one untimed driver call is checked and gives the
// simulated metrics, then the driver call is repeated for S seconds, each
// repeat checked to give the same records. Between the calls a speed probe
// times fixed kernels; the mean host times of the calls and the set-up are
// reported scaled to the probe's reference speed. --trace 1 prints the
// per-layer metrics of one traced pass instead, writes its spans to
// DIR/NAME/spans.json, and runs the reference
// checks: the naive scheduler path and the naive flow solver must agree
// with the fast paths. The last stdout line is the JSON result; the exit
// code is 0 iff every check held.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "mrs/common/stats.hpp"
#include "mrs/metrics/summary.hpp"
#include "mrs/workload/arrivals.hpp"
#include "perfbench.hpp"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

const Clock::time_point g_start = Clock::now();

/// Progress on stderr, so a slow phase can be told apart from a hang.
void progress(const char* phase) {
  std::fprintf(stderr, "perfbench: %8.2f s  %s\n", since(g_start), phase);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir = ".bench_build/perfbench-out";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\nworkloads:",
               why);
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fputc('\n', stderr);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = val;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0') o.seconds = -1.0;
    } else if (arg == "--trace") {
      o.trace = val == "0" ? 0 : val == "1" ? 1 : -1;
    } else if (arg == "--out-dir") {
      o.out_dir = val;
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (find_workload(o.workload) == nullptr) usage("unknown --workload");
  if (!have_seed) usage("--seed needs a non-negative integer");
  if (!(o.seconds > 0.0)) usage("--seconds needs a positive number");
  if (o.trace < 0) usage("--trace needs 0 or 1");
  return o;
}

/// Outcome checks shared by both modes: the run's invariants, plus the
/// simulated metrics the untimed call yields.
struct Checked {
  RunCheck check;
  std::uint64_t digest = 0;
  std::vector<double> jct;  ///< completion times of completed jobs
  double node_local_frac = 0.0;
};

Checked check(const Inputs& in, const mrs::driver::ExperimentResult& r) {
  Checked c;
  c.check = check_run(r, in.jobs);
  c.digest = record_digest(r);
  for (const auto& j : r.job_records) {
    if (!j.aborted && j.finish_time >= j.submit_time) {
      c.jct.push_back(j.completion_time());
    }
  }
  c.node_local_frac =
      mrs::metrics::locality_summary(r.task_records).node_local_pct / 100.0;
  return c;
}

/// The reference checks: the naive scheduler path gives byte-identical
/// records, and the naive flow solver drains the replay in the same
/// completion order. Returns the fast replay and appends any failure.
ReplayStats reference(const Inputs& in, std::uint64_t digest,
                      const std::vector<Transfer>& transfers,
                      const mrs::net::Topology& topo,
                      std::vector<std::string>& failures, SpanRecorder& spans) {
  auto timed = [&spans](const char* name, auto&& fn) {
    const std::size_t id = spans.open(name);
    auto out = fn();
    spans.close(id);
    return out;
  };
  const std::size_t fetchers = in.stream.base.engine.shuffle_parallel_fetchers;
  progress("reference checks: flow replay");
  // The naive replay goes first, so the measured fast one runs warm.
  const ReplayStats naive = timed("net.replay.naive", [&] {
    return replay_flows(transfers, topo, true, fetchers);
  });
  const ReplayStats fast = timed("net.replay", [&] {
    return replay_flows(transfers, topo, false, fetchers);
  });
  if (fast.completion_order != naive.completion_order) {
    failures.push_back("flow replay: naive solver completion order differs");
  }
  progress("reference checks: naive scheduler path");
  const std::uint64_t naive_digest = timed("reference.naive_driver", [&] {
    return record_digest(run_driver(in, Variant::kNaive));
  });
  if (naive_digest != digest) {
    failures.push_back("records differ under naive_scheduler_path");
  }
  return fast;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double file_mb(const std::string& path) {
  std::error_code ec;
  const auto n = path.empty() ? 0 : fs::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(n) / (1024.0 * 1024.0);
}

mrs::telemetry::TimerValue timer(const mrs::telemetry::Snapshot& s,
                                 const std::string& name) {
  for (const auto& t : s.timers) {
    if (t.name == name) return t;
  }
  return {};
}

double timer_s(const mrs::telemetry::Snapshot& s, const std::string& name) {
  return static_cast<double>(timer(s, name).total_ns) * 1e-9;
}

void print_checks(const RunCheck& rc, const std::vector<std::string>& extra) {
  std::printf("checks: %zu/%zu jobs completed and consistent\n",
              rc.completed_ok, rc.submitted);
  for (const auto& f : rc.failures) std::printf("  FAILED: %s\n", f.c_str());
  for (const auto& f : extra) std::printf("  FAILED: %s\n", f.c_str());
}

int finish(const Report& report, const RunCheck& rc,
           const std::vector<std::string>& failures) {
  print_checks(rc, failures);
  const bool correct = rc.failures.empty() && failures.empty();
  const std::uint64_t failed =
      correct ? rc.submitted - rc.completed_ok : rc.submitted;
  for (const auto& m : report.metrics()) {
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", report.json(correct, rc.submitted, failed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int run_untraced(const Options& o, const Workload& wl, const std::string& dir) {
  // Set-up takes microseconds to milliseconds, so it is timed in batches
  // of repeated calls, each batch at least 20 ms, and setup_s is the
  // mean of the batches' per-call means. One batch follows every timed
  // driver call, so set-up samples the same stretch of machine time as
  // wall_s; work moved into set-up then shows as setup_s.
  std::vector<double> setup_s;
  Inputs in;
  auto setup_batch = [&] {
    const auto t0 = Clock::now();
    int calls = 0;
    do {
      in = wl.setup(o.seed, dir);
      ++calls;
    } while (since(t0) < 0.02);
    setup_s.push_back(since(t0) / calls);
  };
  setup_batch();
  progress("set-up done; untimed checked call");

  // The first call warms caches and the allocator; it is checked and
  // gives the simulated metrics but is not timed.
  const Checked c = check(in, run_driver(in, Variant::kFast));
  // Read before the timed calls: how many fit in the window depends on
  // the machine's speed, and heap reuse across calls shifts the peak. The
  // speed probe's buffers are allocated after it.
  const double rss = peak_rss_mb();
  SpeedProbe probe;
  std::vector<double> passes;
  progress("timed driver calls");
  std::vector<std::string> failures;
  std::vector<double> wall_s;
  const auto t_end = Clock::now() + std::chrono::duration<double>(o.seconds);
  while (wall_s.size() < 3 || Clock::now() < t_end) {
    const auto t0 = Clock::now();
    const auto r = run_driver(in, Variant::kFast);
    wall_s.push_back(since(t0));
    if (record_digest(r) != c.digest) {
      failures.push_back("a repeated driver call gave different records");
      break;
    }
    setup_batch();
    // The probe gets a tenth of the calls' time, so the machine's speed
    // is sampled as densely on long calls as on short ones.
    const std::size_t first = passes.size();
    const auto t_probe = Clock::now();
    do {
      passes.push_back(probe.sample());
    } while (since(t_probe) < 0.1 * wall_s.back());
    std::fprintf(stderr,
                 "perfbench: call %zu %.4f s; probe %zu passes, mean %.4f s\n",
                 wall_s.size(), wall_s.back(), passes.size() - first,
                 mean({passes.begin() + first, passes.end()}));
  }
  // Host times at the reference machine speed, from means over the run:
  // the probe ran between the calls, so it saw the same drift as they did.
  const double speed = SpeedProbe::factor(passes);
  Report rep;
  rep.add("wall_s", mean(wall_s) * speed, "s");
  rep.add("setup_s", mean(setup_s) * speed, "s");
  rep.add("peak_rss_mb", rss, "MB");
  rep.add("completed_frac",
          static_cast<double>(c.check.completed_ok) /
              static_cast<double>(in.jobs),
          "ratio");
  // Every run prints every metric. p90 keeps >= 10 samples above it only
  // from 100 jobs on; below that the rule's choice is printed beside it.
  const auto tail = tail_percentile(c.jct);
  rep.add("sim_jct_p50_s", c.jct.empty() ? 0.0 : median(c.jct), "s");
  rep.add("sim_jct_p90_s",
          c.jct.empty() ? 0.0 : mrs::percentile(c.jct, 0.9), "s");
  rep.add("sim_node_local_frac", c.node_local_frac, "ratio");

  std::sort(wall_s.begin(), wall_s.end());
  std::printf("%s seed=%llu: %zu timed driver calls, host wall "
              "min/median/max %.4f/%.4f/%.4f s; %zu set-up batches with "
              "median %.4g s; speed factor %.4f\n",
              wl.name.c_str(), static_cast<unsigned long long>(o.seed),
              wall_s.size(), wall_s.front(), median(wall_s), wall_s.back(),
              setup_s.size(), median(setup_s), speed);
  std::printf("jct samples n=%zu; ", c.jct.size());
  if (tail) {
    std::printf("percentile rule: p%g = %.3f s with %zu samples beyond\n",
                100.0 * tail->q, tail->value, tail->beyond);
  } else {
    std::printf("percentile rule: no percentile leaves 10 samples beyond "
                "(p90 printed for completeness)\n");
  }
  if (wl.name == "paper60-grep") {
    std::printf("accuracy: sim_node_local_frac %.4f vs paper Table III PNA "
                "%.4f (the paper's value covers all three batches)\n",
                c.node_local_frac, kPaperNodeLocalFrac);
  }
  return finish(rep, c.check, failures);
}

int run_traced(const Options& o, const Workload& wl, const std::string& dir) {
  SpanRecorder spans;
  const std::size_t root = spans.open("bench." + wl.name);

  std::size_t id = spans.open("workload.gen");
  const Inputs in = wl.setup(o.seed, dir);
  const double gen_s = spans.close(id);
  const mrs::net::Topology topo = topology_of(in.stream.base);

  // Untraced baseline: a warm-up, then three calls in no span of their
  // own. Where the workload has observers, each is followed by a call
  // with them off, so both sides of observers.overhead_s see the same
  // stretch of machine time.
  const bool observers = in.stream.base.enable_tracing;
  std::vector<double> untraced, on_run_s, off_run_s;
  (void)run_driver(in, Variant::kFast);
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    on_run_s.push_back(
        timer_s(run_driver(in, Variant::kFast).telemetry, "driver.run_wall"));
    untraced.push_back(since(t0));
    if (observers) {
      id = spans.open("driver.call.observers_off");
      off_run_s.push_back(timer_s(
          run_driver(in, Variant::kObserversOff).telemetry, "driver.run_wall"));
      spans.close(id);
    }
  }

  id = spans.open("driver.call");
  const auto r = run_driver(in, Variant::kFast);
  const double call_s = spans.close(id);
  id = spans.open("bench.checks");
  const Checked c = check(in, r);
  const std::vector<Transfer> transfers = rebuild_transfers(r, topo);
  spans.close(id);

  std::vector<std::string> failures;
  const ReplayStats replay =
      reference(in, c.digest, transfers, topo, failures, spans);

  double pull_s = 0.0;
  if (!in.trace_path.empty()) {
    id = spans.open("workload.pull");
    mrs::workload::TraceStreamReader reader(in.trace_path,
                                            in.stream.arrivals.duration);
    std::size_t rows = 0;
    while (reader.next()) ++rows;
    pull_s = spans.close(id);
    if (rows != in.jobs) failures.push_back("trace pull lost rows");
  }
  spans.close(root);
  spans.write_json(dir + "/spans.json");

  const auto& tel = r.telemetry;
  auto count = [&tel](const char* n) {
    return static_cast<double>(tel.counter(n));
  };
  const double run_s = timer_s(tel, "driver.run_wall");
  const double hb_s = timer_s(tel, "engine.heartbeat_wall");
  const auto hb = timer(tel, "engine.heartbeat_wall");
  const auto score = timer(tel, "pna.score_wall");
  const double assigned =
      count("engine.maps.assigned") + count("engine.reduces.assigned");
  const double finished =
      count("engine.maps.finished") + count("engine.reduces.finished");
  const double skips = count("pna.map.pmin_skips") +
                       count("pna.reduce.pmin_skips") +
                       count("pna.map.bernoulli_rejects") +
                       count("pna.reduce.bernoulli_rejects");
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  std::size_t observer_spans = 0;
  for (const auto& jt : r.job_traces) {
    observer_spans += 1;
    for (const auto& t : jt.maps) observer_spans += t.attempts.size();
    for (const auto& t : jt.reduces) observer_spans += t.attempts.size();
  }
  Report rep;
  rep.add("driver.run_s", run_s, "s");
  rep.add("driver.collect_s", call_s - run_s, "s");
  rep.add("workload.arrivals", static_cast<double>(in.jobs), "count");
  rep.add("workload.gen_s", gen_s, "s");
  rep.add("workload.pull_s", pull_s, "s");
  rep.add("workload.pull_us",
          ratio(pull_s, static_cast<double>(in.jobs)) * 1e6, "us");
  rep.add("sim.events", static_cast<double>(r.events_processed), "count");
  rep.add("sim.events_per_s",
          ratio(static_cast<double>(r.events_processed), run_s), "1/s");
  rep.add("mapreduce.heartbeats", count("engine.heartbeats"), "count");
  rep.add("mapreduce.heartbeat_s", hb_s, "s");
  rep.add("mapreduce.heartbeat_us",
          ratio(hb_s, static_cast<double>(hb.count)) * 1e6, "us");
  rep.add("mapreduce.heartbeat_max_ms", static_cast<double>(hb.max_ns) * 1e-6,
          "ms");
  rep.add("mapreduce.outside_heartbeat_s", run_s - hb_s, "s");
  rep.add("mapreduce.tasks_assigned", assigned, "count");
  rep.add("mapreduce.tasks_killed",
          count("engine.maps.killed") + count("engine.reduces.killed"),
          "count");
  rep.add("mapreduce.useful_task_ratio", ratio(finished, assigned), "ratio");
  rep.add("core.score_s", static_cast<double>(score.total_ns) * 1e-9, "s");
  rep.add("core.score_calls", static_cast<double>(score.count), "count");
  rep.add("core.cost_evals",
          count("pna.map.cost_evals") + count("pna.reduce.cost_evals"),
          "count");
  rep.add("core.candidates_scanned",
          count("pna.map.candidates_scanned") +
              count("pna.reduce.candidates_scanned"),
          "count");
  rep.add("core.bernoulli_rejects",
          count("pna.map.bernoulli_rejects") +
              count("pna.reduce.bernoulli_rejects"),
          "count");
  rep.add("core.offer_accept_ratio", ratio(assigned, assigned + skips),
          "ratio");
  rep.add("net.replay.transfers", static_cast<double>(replay.transfers),
          "count");
  rep.add("net.replay.s", replay.host_s, "s");
  rep.add("net.replay.us_per_event",
          ratio(replay.host_s, static_cast<double>(replay.changes)) * 1e6,
          "us");
  rep.add("net.replay.instants", static_cast<double>(replay.instants),
          "count");
  rep.add("net.replay.changes_per_instant",
          ratio(static_cast<double>(replay.changes),
                static_cast<double>(replay.instants)),
          "ratio");
  rep.add("net.replay.active_flows_mean", replay.active_flows_mean, "count");
  rep.add("control.links_cut", count("net.fault.links_cut"), "count");
  rep.add("control.stall_timeouts", count("engine.transfer.stall_timeouts"),
          "count");
  rep.add("control.transfer_retries", count("engine.transfer.retries"),
          "count");
  rep.add("control.jobs_aborted", static_cast<double>(r.jobs_aborted),
          "count");
  rep.add("observers.spans", static_cast<double>(observer_spans), "count");
  rep.add("observers.decisions", static_cast<double>(r.decisions.size()),
          "count");
  rep.add("observers.output_mb", file_mb(in.stream.base.telemetry_path),
          "MB");
  rep.add("observers.overhead_s",
          observers ? median(on_run_s) - median(off_run_s) : 0.0, "s");
  rep.add("bench.trace_overhead_frac", call_s / median(untraced) - 1.0,
          "ratio");

  std::printf("%s seed=%llu traced pass; spans (self time):\n",
              wl.name.c_str(), static_cast<unsigned long long>(o.seed));
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const Span& s = spans.spans()[i];
    std::printf("  %-30s %9.4f s  self %9.4f s\n", s.name.c_str(),
                s.end - s.start, self_time(spans.spans(), i));
  }
  std::printf("heartbeat_s + outside_heartbeat_s - run_s = %.3g s\n",
              hb_s + (run_s - hb_s) - run_s);
  return finish(rep, c.check, failures);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const Workload& wl = *find_workload(o.workload);
  try {
    const std::string dir = o.out_dir + "/" + wl.name;
    fs::create_directories(dir);
    return o.trace == 0 ? run_untraced(o, wl, dir) : run_traced(o, wl, dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
