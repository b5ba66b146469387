// pnats_sim — command-line front end for the simulator.
//
// Runs a workload under a chosen scheduler and prints a summary; optionally
// persists the full task/job records for offline analysis.
//
// Usage:
//   pnats_sim [options]
//     --scheduler NAME    fifo|fair|coupling|larts|mincost|probabilistic|
//                         unrelated (default probabilistic)
//     --batch NAME        wordcount|terasort|grep|all|mixed (default mixed)
//     --jobs-file CSV     custom jobs (name,kind,maps,reduces); overrides
//                         --batch
//     --nodes N           cluster size (default 60)
//     --racks N           topology racks (default 1)
//     --fat-tree K        k-ary fat-tree topology (k even; k^3/4 hosts,
//                         overrides --nodes/--racks)
//     --naive-flow-solver reference full-scan max-min flow solver
//     --flow-threads N    worker threads for full flow recomputes
//     --seed N            root RNG seed (default 42)
//     --pmin X            P_min threshold (default 0.4)
//     --replication N     DFS replication factor (default 2)
//     --placement NAME    hdfs|random|skewed (default hdfs)
//     --distance NAME     hops|inverse-rate|weighted|load-aware
//                         (default load-aware)
//     --straggler-p X     per-attempt straggler probability (default 0)
//     --speculation       enable speculative execution
//     --mtbf SECONDS      cluster MTBF for failure injection (default off)
//     --repair-jitter X   relative jitter on repair times, in [0, 1)
//                         (default 0 = fixed 120 s repairs)
//
//   Network chaos (degraded networks; docs/robustness.md):
//     --link-mtbf S       mean time between single-link cuts (default off)
//     --link-repair S     link repair time (default 60)
//     --switch-mtbf S     mean time between correlated switch faults that
//                         cut every link on a sampled switch (default off)
//     --switch-repair S   switch repair time (default 120)
//     --surge S           mean time between background-traffic surge
//                         episodes on a rack's uplinks (default off)
//     --surge-duration S  surge episode length (default 120)
//     --surge-util X      extra utilization a surge adds (default 0.5)
//     --net-repair-jitter X  relative jitter on link/switch repairs
//     --stall-timeout S   kill + retry transfers stalled at rate 0 for S
//                         seconds, with capped exponential backoff
//                         (default 0 = off)
//
//   Overload control plane:
//     --admission NAME    always-admit|static-threshold|token-bucket|
//                         adaptive (default always-admit = no-op)
//     --admission-threshold L   backlog limit (jobs in system) for
//                         static-threshold / starting point for adaptive
//                         (default 12)
//     --admission-delay S defer when the queueing-delay EWMA exceeds S
//                         (static-threshold; default off)
//     --admission-rate X  token-bucket refill rate in jobs/hour
//                         (default 600)
//     --max-deferrals N   deferral budget before a hard reject (default 4)
//     --max-attempts N    abort a job when a task loses N attempts to
//                         node failures (default 0 = never)
//     --blacklist         enable node blacklisting on repeated failures
//     --blacklist-failures N  failures within the window that list a node
//                         (default 2)
//     --probation S       post-recovery unschedulable period (default 300)
//     --out DIR           save records under DIR (result_io format)
//     --trace FILE        write an execution trace CSV
//     --telemetry-out F   write telemetry JSONL (sampled time-series +
//                         final counter/gauge/histogram/timer snapshot)
//     --perfetto-out F    write a Chrome trace-event JSON timeline
//                         (load at ui.perfetto.dev or chrome://tracing)
//     --sample-period S   gauge sampling period in sim-seconds (default 10
//                         when --telemetry-out/--perfetto-out is set)
//     --trace-out F       write the causal trace JSONL (span trees,
//                         placement decision records, per-job critical-path
//                         blame; feed to trace_analyze — docs/tracing.md)
//     --sample-node-slots append per-node busy/free slot gauge columns to
//                         the sampled time-series
//     --log-level NAME    trace|debug|info|warn|off (default warn)
//     --quiet             summary line only
//     --help
//
//   Open-loop streaming mode (steady-state metrics instead of a batch):
//     --arrivals NAME     poisson|mmpp|trace — submit an open-loop job
//                         stream drawn from the Table II catalog instead
//                         of replaying a closed batch
//     --rate X            mean arrival rate in jobs/hour (default 60)
//     --duration S        arrival horizon in sim-seconds (default 3600)
//     --warmup S          measurement window start (default duration/6)
//     --arrival-trace F   CSV (time,name,kind,gb,maps,reduces,tenant,
//                         weight; legacy 5/7-column files load too) to
//                         replay when --arrivals trace
//     --stream-trace      with --arrivals trace: pull the trace through
//                         the streaming reader (one record in memory at a
//                         time) instead of buffering every arrival — the
//                         memory-bounded path for production-scale traces
//                         (requires a time-sorted file)
//     --job-scale X       scale catalog map/reduce counts by X (quick
//                         sweeps; default 1.0)
//
//   Synthetic production-trace generation (writes a trace CSV and exits;
//   --rate/--duration/--job-scale/--seed shape the stream):
//     --gen-trace F       stream a SWIM/Facebook-style trace (diurnal +
//                         bursty intensity, heavy-tailed sizes, Zipf
//                         users mapped to tenants) to F
//     --gen-users N       synthetic user population (default 8)
//     --gen-diurnal X     diurnal amplitude in [0,1) (default 0.6)
//     --gen-burst X       burst-episode rate multiplier (default 3.0)
//     --gen-sigma X       lognormal size-jitter sigma (default 1.0)
//
//   Multi-tenant streams (implies open-loop mode; default process poisson):
//     --tenants N         number of tenants; each draws its own arrival
//                         sub-stream (default rate = --rate / N each)
//     --tenant-rates A,B,...      per-tenant jobs/hour (N values)
//     --tenant-processes P,Q,...  per-tenant poisson|mmpp (N values)
//     --tenant-bursts A,B,...     per-tenant MMPP burst multipliers
//     --tenant-weights A,B,...    per-tenant fair-share weights (> 0)
//     --tenant-quotas A,B,...     admission quota weights: tenant t may
//                         hold at most admission-threshold * w_t / sum(w)
//                         jobs in system (omit = quotas off)
//     --fair-order NAME   fair|weighted — fair scheduler job order
//                         (weighted uses JobSpec::weight deficits)
//
//   Heterogeneous node classes (omit --node-classes for the homogeneous
//   cluster; per-class lists follow the --node-classes order):
//     --node-classes name:weight,...  class names + assignment weights
//     --class-speeds A,B,...   per-class CPU speed factors (default 1)
//     --class-slots M/R,...    per-class map/reduce slot counts
//                              (default 4/2)
//     --class-links A,B,...    per-class NIC capacity scale (default 1)
//     --class-disks A,B,...    per-class local disk rate in MiB/s
//                              (default 150)
//     --class-assign MODE      weighted|by-rack (default weighted;
//                              by-rack assigns class = rack % classes)
//     --cost-mix X        PNA combined cost: 0 = network bytes*distance
//                         only (the paper), 1 = compute seconds only,
//                         between = blend (default 0)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "mrs/common/log.hpp"
#include "mrs/common/strfmt.hpp"
#include "mrs/driver/experiment.hpp"
#include "mrs/driver/result_io.hpp"
#include "mrs/driver/stream_experiment.hpp"
#include "mrs/metrics/summary.hpp"
#include "mrs/workload/trace_gen.hpp"

namespace {

using namespace mrs;

[[noreturn]] void usage(int code) {
  std::fputs(
      "usage: pnats_sim [--scheduler NAME] [--batch NAME|--jobs-file CSV]\n"
      "                 [--nodes N]\n"
      "                 [--racks N] [--fat-tree K] [--naive-flow-solver]\n"
      "                 [--flow-threads N]\n"
      "                 [--seed N] [--pmin X] [--replication N]\n"
      "                 [--placement hdfs|random|skewed]\n"
      "                 [--distance hops|inverse-rate|weighted|load-aware]\n"
      "                 [--straggler-p X] [--speculation] [--mtbf SECONDS]\n"
      "                 [--repair-jitter X] [--link-mtbf S] [--link-repair S]\n"
      "                 [--switch-mtbf S] [--switch-repair S] [--surge S]\n"
      "                 [--surge-duration S] [--surge-util X]\n"
      "                 [--net-repair-jitter X] [--stall-timeout S]\n"
      "                 [--admission NAME]\n"
      "                 [--admission-threshold L] [--admission-delay S]\n"
      "                 [--admission-rate JOBS/H] [--max-deferrals N]\n"
      "                 [--max-attempts N] [--blacklist]\n"
      "                 [--blacklist-failures N] [--probation S]\n"
      "                 [--out DIR] [--trace FILE] [--telemetry-out FILE]\n"
      "                 [--perfetto-out FILE] [--sample-period S]\n"
      "                 [--trace-out FILE] [--sample-node-slots]\n"
      "                 [--log-level trace|debug|info|warn|off] [--quiet]\n"
      "                 [--arrivals poisson|mmpp|trace] [--rate JOBS/H]\n"
      "                 [--duration S] [--warmup S] [--arrival-trace CSV]\n"
      "                 [--stream-trace] [--gen-trace CSV] [--gen-users N]\n"
      "                 [--gen-diurnal X] [--gen-burst X] [--gen-sigma X]\n"
      "                 [--job-scale X] [--tenants N] [--tenant-rates A,B]\n"
      "                 [--tenant-processes P,Q] [--tenant-bursts A,B]\n"
      "                 [--tenant-weights A,B] [--tenant-quotas A,B]\n"
      "                 [--fair-order fair|weighted]\n"
      "                 [--node-classes name:w,...] [--class-speeds A,B]\n"
      "                 [--class-slots M/R,...] [--class-links A,B]\n"
      "                 [--class-disks A,B] [--class-assign weighted|by-rack]\n"
      "                 [--cost-mix X]\n",
      code == 0 ? stdout : stderr);
  std::exit(code);
}

control::AdmissionPolicyKind parse_admission(const std::string& s) {
  using control::AdmissionPolicyKind;
  for (auto k : {AdmissionPolicyKind::kAlwaysAdmit,
                 AdmissionPolicyKind::kStaticThreshold,
                 AdmissionPolicyKind::kTokenBucket,
                 AdmissionPolicyKind::kAdaptive}) {
    if (s == control::to_string(k)) return k;
  }
  std::fprintf(stderr, "unknown admission policy '%s'\n", s.c_str());
  usage(2);
}

driver::SchedulerKind parse_scheduler(const std::string& s) {
  if (s == "fifo") return driver::SchedulerKind::kFifo;
  if (s == "fair") return driver::SchedulerKind::kFair;
  if (s == "coupling") return driver::SchedulerKind::kCoupling;
  if (s == "larts") return driver::SchedulerKind::kLarts;
  if (s == "mincost") return driver::SchedulerKind::kMinCost;
  if (s == "probabilistic" || s == "pna") {
    return driver::SchedulerKind::kPna;
  }
  if (s == "unrelated") return driver::SchedulerKind::kUnrelated;
  std::fprintf(stderr, "unknown scheduler '%s'\n", s.c_str());
  usage(2);
}

LogLevel parse_log_level(const std::string& s) {
  if (s == "trace") return LogLevel::kTrace;
  if (s == "debug") return LogLevel::kDebug;
  if (s == "info") return LogLevel::kInfo;
  if (s == "warn") return LogLevel::kWarn;
  if (s == "off") return LogLevel::kOff;
  std::fprintf(stderr, "unknown log level '%s'\n", s.c_str());
  usage(2);
}

/// Split "a,b,c" on commas (no escaping; empty fields preserved).
std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

std::vector<double> parse_double_list(const std::string& flag,
                                      const std::string& s) {
  std::vector<double> out;
  for (const auto& f : split_list(s)) {
    try {
      out.push_back(std::stod(f));
    } catch (const std::exception&) {
      std::fprintf(stderr, "%s: bad number '%s'\n", flag.c_str(), f.c_str());
      usage(2);
    }
  }
  return out;
}

/// Build the heterogeneity config from the --node-classes / --class-*
/// flags, rejecting malformed input with a usage message before the
/// config-layer MRS_REQUIRE validation would abort.
hetero::HeteroConfig parse_hetero(const std::string& node_classes,
                                  const std::string& class_speeds,
                                  const std::string& class_slots,
                                  const std::string& class_links,
                                  const std::string& class_disks,
                                  const std::string& class_assign) {
  hetero::HeteroConfig cfg;
  for (const auto& field : split_list(node_classes)) {
    const auto colon = field.find(':');
    hetero::NodeClass cls;
    cls.name = field.substr(0, colon);
    if (cls.name.empty()) {
      std::fprintf(stderr, "--node-classes: empty class name in '%s'\n",
                   field.c_str());
      usage(2);
    }
    if (colon != std::string::npos) {
      try {
        cls.weight = std::stod(field.substr(colon + 1));
      } catch (const std::exception&) {
        std::fprintf(stderr, "--node-classes: bad weight in '%s'\n",
                     field.c_str());
        usage(2);
      }
    }
    if (cls.weight <= 0.0) {
      std::fprintf(stderr, "--node-classes: weight must be > 0 in '%s'\n",
                   field.c_str());
      usage(2);
    }
    cfg.classes.push_back(std::move(cls));
  }
  const std::size_t n = cfg.classes.size();
  auto per_class = [&](const std::string& flag, const std::string& s) {
    std::vector<double> vals = parse_double_list(flag, s);
    if (vals.size() != n) {
      std::fprintf(stderr, "%s needs %zu comma-separated values\n",
                   flag.c_str(), n);
      usage(2);
    }
    for (double v : vals) {
      if (v <= 0.0) {
        std::fprintf(stderr, "%s: values must be > 0\n", flag.c_str());
        usage(2);
      }
    }
    return vals;
  };
  if (!class_speeds.empty()) {
    const auto v = per_class("--class-speeds", class_speeds);
    for (std::size_t i = 0; i < n; ++i) cfg.classes[i].cpu_speed = v[i];
  }
  if (!class_links.empty()) {
    const auto v = per_class("--class-links", class_links);
    for (std::size_t i = 0; i < n; ++i) cfg.classes[i].link_scale = v[i];
  }
  if (!class_disks.empty()) {
    const auto v = per_class("--class-disks", class_disks);
    for (std::size_t i = 0; i < n; ++i) {
      cfg.classes[i].disk_rate = units::MiB(v[i]);
    }
  }
  if (!class_slots.empty()) {
    const auto fields = split_list(class_slots);
    if (fields.size() != n) {
      std::fprintf(stderr, "--class-slots needs %zu M/R values\n", n);
      usage(2);
    }
    for (std::size_t i = 0; i < n; ++i) {
      unsigned long m = 0, r = 0;
      if (std::sscanf(fields[i].c_str(), "%lu/%lu", &m, &r) != 2 || m < 1) {
        std::fprintf(stderr,
                     "--class-slots: bad 'M/R' field '%s' (M >= 1, R >= 0)\n",
                     fields[i].c_str());
        usage(2);
      }
      cfg.classes[i].map_slots = m;
      cfg.classes[i].reduce_slots = r;
    }
  }
  if (class_assign == "weighted") {
    cfg.assign = hetero::AssignMode::kWeighted;
  } else if (class_assign == "by-rack") {
    cfg.assign = hetero::AssignMode::kByRack;
  } else {
    std::fprintf(stderr, "unknown class assign mode '%s'\n",
                 class_assign.c_str());
    usage(2);
  }
  hetero::validate(cfg);  // config-layer invariants (duplicate names etc.)
  return cfg;
}

std::vector<workload::JobDescription> parse_batch(const std::string& s) {
  using mapreduce::JobKind;
  if (s == "wordcount") return workload::table2_batch(JobKind::kWordcount);
  if (s == "terasort") return workload::table2_batch(JobKind::kTerasort);
  if (s == "grep") return workload::table2_batch(JobKind::kGrep);
  if (s == "all") return workload::table2_catalog();
  if (s == "mixed") {
    std::vector<workload::JobDescription> jobs;
    const auto& cat = workload::table2_catalog();
    for (int i : {0, 2, 10, 12, 20, 22}) jobs.push_back(cat[i]);
    return jobs;
  }
  std::fprintf(stderr, "unknown batch '%s'\n", s.c_str());
  usage(2);
}

/// One line per node class: drawn composition plus executed-task counters
/// (the lazy hetero.class.* metrics; zero when a class never ran a task).
/// "60 nodes x 1 racks" or "16 nodes (fat-tree k=4)": the topology the
/// run builds, not the --nodes/--racks flags a fat-tree overrides.
std::string topology_label(const driver::ExperimentConfig& cfg) {
  if (cfg.fat_tree_k != 0) {
    return strf("%zu nodes (fat-tree k=%zu)", cfg.nodes, cfg.fat_tree_k);
  }
  return strf("%zu nodes x %zu racks", cfg.nodes, cfg.racks);
}

void print_class_summary(const driver::ExperimentResult& result) {
  for (const auto& c : result.node_classes) {
    const auto finished = [&](const char* what) {
      return static_cast<unsigned long long>(result.telemetry.counter(
          "hetero.class." + c.name + "." + what));
    };
    std::printf("  class %-10s nodes=%zu speed=%.2f slots=%zu/%zu "
                "link=%.2f maps=%llu reduces=%llu\n",
                c.name.c_str(), c.nodes, c.cpu_speed, c.map_slots,
                c.reduce_slots, c.link_scale, finished("maps_finished"),
                finished("reduces_finished"));
  }
}

/// One line of network-chaos counters (only when chaos or the stall
/// watchdog was on): what the injector did and how the engine degraded.
/// CI smokes grep the key=value pairs.
void print_chaos_summary(const driver::ExperimentResult& result,
                         const driver::ExperimentConfig& cfg) {
  if (!cfg.net_faults.enabled() && cfg.engine.stall_timeout <= 0.0) return;
  const auto c = [&](const char* name) {
    return static_cast<unsigned long long>(result.telemetry.counter(name));
  };
  std::printf("  chaos     links_cut=%llu switch_events=%llu "
              "surge_episodes=%llu stall_timeouts=%llu retries=%llu\n",
              c("net.fault.links_cut"), c("net.fault.switch_events"),
              c("net.surge.episodes"), c("engine.transfer.stall_timeouts"),
              c("engine.transfer.retries"));
}

/// Per-run critical-path blame aggregate (printed only when --trace-out
/// enabled the causal tracer). Shares are fractions of total response
/// time; "dom" counts jobs whose largest bucket is that one.
void print_critical_path_summary(const driver::ExperimentResult& result) {
  if (!result.tracing_enabled) return;
  const auto& cp = result.critical_path;
  if (cp.jobs == 0) return;
  std::printf("  critical-path n=%zu:", cp.jobs);
  for (std::size_t b = 0; b < trace::kBlameBuckets; ++b) {
    std::printf(" %s=%.1f%%(dom %zu)", trace::kBlameBucketNames[b],
                100.0 * cp.share(b), cp.dominant_count[b]);
  }
  std::printf("\n");
  for (const auto& t : cp.tenants) {
    std::printf("    %-12s n=%-5zu queue=%.1f%% network=%.1f%% "
                "compute=%.1f%% retry=%.1f%%\n",
                t.name.c_str(), t.jobs, 100.0 * t.share(0),
                100.0 * t.share(1), 100.0 * t.share(2), 100.0 * t.share(3));
  }
  for (const auto& c : cp.classes) {
    std::printf("    class %-6s n=%-5zu queue=%.1f%% network=%.1f%% "
                "compute=%.1f%% retry=%.1f%%\n",
                c.name.c_str(), c.jobs, 100.0 * c.share(0),
                100.0 * c.share(1), 100.0 * c.share(2), 100.0 * c.share(3));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string scheduler = "probabilistic";
  std::string batch = "mixed";
  std::string placement = "hdfs";
  std::string distance = "load-aware";
  std::string out_dir, trace_path, jobs_file;
  std::string arrivals_mode, arrival_trace, gen_trace;
  std::string telemetry_out, perfetto_out, trace_out;
  std::string admission = "always-admit";
  std::string fair_order = "fair";
  std::string tenant_rates, tenant_processes, tenant_bursts;
  std::string tenant_weights, tenant_quotas;
  std::string node_classes, class_speeds, class_slots, class_links;
  std::string class_disks, class_assign = "weighted";
  std::size_t tenants_n = 0;
  std::size_t nodes = 60, racks = 1, replication = 2;
  std::size_t fat_tree_k = 0, flow_threads = 1;
  bool naive_flow_solver = false;
  std::size_t max_deferrals = 4, max_attempts = 0, blacklist_failures = 2;
  std::uint64_t seed = 42;
  double pmin = 0.4, straggler_p = 0.0, mtbf = 0.0, repair_jitter = 0.0;
  double link_mtbf = 0.0, link_repair = 60.0;
  double switch_mtbf = 0.0, switch_repair = 120.0;
  double surge_mtbf = 0.0, surge_duration = 120.0, surge_util = 0.5;
  double net_repair_jitter = 0.0, stall_timeout = 0.0;
  double rate = 60.0, duration = 3600.0, warmup = -1.0, job_scale = 1.0;
  double sample_period = -1.0;
  double admission_threshold = 12.0, admission_delay = 0.0;
  double admission_rate = 600.0, probation = 300.0;
  double cost_mix = 0.0;
  bool speculation = false, quiet = false, blacklist = false;
  bool sample_node_slots = false;
  bool stream_trace = false;
  std::size_t gen_users = 8;
  double gen_diurnal = 0.6, gen_burst = 3.0, gen_sigma = 1.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(2);
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") usage(0);
    else if (arg == "--scheduler") scheduler = next();
    else if (arg == "--batch") batch = next();
    else if (arg == "--jobs-file") jobs_file = next();
    else if (arg == "--nodes") nodes = std::stoul(next());
    else if (arg == "--racks") racks = std::stoul(next());
    else if (arg == "--fat-tree") fat_tree_k = std::stoul(next());
    else if (arg == "--naive-flow-solver") naive_flow_solver = true;
    else if (arg == "--flow-threads") flow_threads = std::stoul(next());
    else if (arg == "--seed") seed = std::stoull(next());
    else if (arg == "--pmin") pmin = std::stod(next());
    else if (arg == "--replication") replication = std::stoul(next());
    else if (arg == "--placement") placement = next();
    else if (arg == "--distance") distance = next();
    else if (arg == "--straggler-p") straggler_p = std::stod(next());
    else if (arg == "--speculation") speculation = true;
    else if (arg == "--mtbf") mtbf = std::stod(next());
    else if (arg == "--repair-jitter") repair_jitter = std::stod(next());
    else if (arg == "--link-mtbf") link_mtbf = std::stod(next());
    else if (arg == "--link-repair") link_repair = std::stod(next());
    else if (arg == "--switch-mtbf") switch_mtbf = std::stod(next());
    else if (arg == "--switch-repair") switch_repair = std::stod(next());
    else if (arg == "--surge") surge_mtbf = std::stod(next());
    else if (arg == "--surge-duration") surge_duration = std::stod(next());
    else if (arg == "--surge-util") surge_util = std::stod(next());
    else if (arg == "--net-repair-jitter") {
      net_repair_jitter = std::stod(next());
    }
    else if (arg == "--stall-timeout") stall_timeout = std::stod(next());
    else if (arg == "--admission") admission = next();
    else if (arg == "--admission-threshold") {
      admission_threshold = std::stod(next());
    }
    else if (arg == "--admission-delay") admission_delay = std::stod(next());
    else if (arg == "--admission-rate") admission_rate = std::stod(next());
    else if (arg == "--max-deferrals") max_deferrals = std::stoul(next());
    else if (arg == "--max-attempts") max_attempts = std::stoul(next());
    else if (arg == "--blacklist") blacklist = true;
    else if (arg == "--blacklist-failures") {
      blacklist_failures = std::stoul(next());
    }
    else if (arg == "--probation") probation = std::stod(next());
    else if (arg == "--out") out_dir = next();
    else if (arg == "--trace") trace_path = next();
    else if (arg == "--telemetry-out") telemetry_out = next();
    else if (arg == "--perfetto-out") perfetto_out = next();
    else if (arg == "--trace-out") trace_out = next();
    else if (arg == "--sample-node-slots") sample_node_slots = true;
    else if (arg == "--sample-period") sample_period = std::stod(next());
    else if (arg == "--log-level") set_log_level(parse_log_level(next()));
    else if (arg == "--arrivals") arrivals_mode = next();
    else if (arg == "--rate") rate = std::stod(next());
    else if (arg == "--duration") duration = std::stod(next());
    else if (arg == "--warmup") warmup = std::stod(next());
    else if (arg == "--arrival-trace") arrival_trace = next();
    else if (arg == "--stream-trace") stream_trace = true;
    else if (arg == "--gen-trace") gen_trace = next();
    else if (arg == "--gen-users") gen_users = std::stoul(next());
    else if (arg == "--gen-diurnal") gen_diurnal = std::stod(next());
    else if (arg == "--gen-burst") gen_burst = std::stod(next());
    else if (arg == "--gen-sigma") gen_sigma = std::stod(next());
    else if (arg == "--job-scale") job_scale = std::stod(next());
    else if (arg == "--tenants") tenants_n = std::stoul(next());
    else if (arg == "--tenant-rates") tenant_rates = next();
    else if (arg == "--tenant-processes") tenant_processes = next();
    else if (arg == "--tenant-bursts") tenant_bursts = next();
    else if (arg == "--tenant-weights") tenant_weights = next();
    else if (arg == "--tenant-quotas") tenant_quotas = next();
    else if (arg == "--fair-order") fair_order = next();
    else if (arg == "--node-classes") node_classes = next();
    else if (arg == "--class-speeds") class_speeds = next();
    else if (arg == "--class-slots") class_slots = next();
    else if (arg == "--class-links") class_links = next();
    else if (arg == "--class-disks") class_disks = next();
    else if (arg == "--class-assign") class_assign = next();
    else if (arg == "--cost-mix") cost_mix = std::stod(next());
    else if (arg == "--quiet") quiet = true;
    else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(2);
    }
  }

  auto cfg = driver::paper_config(
      jobs_file.empty() ? parse_batch(batch)
                        : workload::load_jobs_csv(jobs_file),
      parse_scheduler(scheduler), seed);
  cfg.nodes = nodes;
  cfg.racks = racks;
  if (fat_tree_k != 0) {
    if (fat_tree_k < 2 || fat_tree_k % 2 != 0) {
      std::fputs("--fat-tree K must be even and >= 2\n", stderr);
      usage(2);
    }
    // A k-ary fat-tree has exactly k^3/4 hosts; derive the node count so
    // slot accounting matches the topology.
    cfg.fat_tree_k = fat_tree_k;
    cfg.nodes = fat_tree_k * fat_tree_k * fat_tree_k / 4;
  }
  cfg.naive_flow_solver = naive_flow_solver;
  cfg.flow_solver_threads = flow_threads;
  cfg.pna.p_min = pmin;
  if (cost_mix < 0.0 || cost_mix > 1.0) {
    std::fputs("--cost-mix must be in [0, 1]\n", stderr);
    usage(2);
  }
  cfg.pna.cost_mix = cost_mix;
  if (node_classes.empty()) {
    if (!class_speeds.empty() || !class_slots.empty() ||
        !class_links.empty() || !class_disks.empty()) {
      std::fputs("--class-* flags require --node-classes\n", stderr);
      usage(2);
    }
  } else {
    cfg.hetero = parse_hetero(node_classes, class_speeds, class_slots,
                              class_links, class_disks, class_assign);
  }
  cfg.workload.replication = replication;
  cfg.engine.fault.straggler_probability = straggler_p;
  cfg.engine.fault.speculative_execution = speculation;
  cfg.failures.cluster_mtbf = mtbf;
  cfg.failures.repair_jitter = repair_jitter;
  cfg.net_faults.link_mtbf = link_mtbf;
  cfg.net_faults.link_repair_time = link_repair;
  cfg.net_faults.switch_mtbf = switch_mtbf;
  cfg.net_faults.switch_repair_time = switch_repair;
  cfg.net_faults.surge_mtbf = surge_mtbf;
  cfg.net_faults.surge_duration = surge_duration;
  cfg.net_faults.surge_utilization = surge_util;
  cfg.net_faults.repair_jitter = net_repair_jitter;
  cfg.engine.stall_timeout = stall_timeout;
  cfg.admission.policy = parse_admission(admission);
  cfg.admission.max_jobs_in_system = admission_threshold;
  cfg.admission.max_queueing_delay = admission_delay;
  cfg.admission.bucket_rate_per_hour = admission_rate;
  cfg.admission.deferral.max_deferrals = max_deferrals;
  if (!tenant_quotas.empty()) {
    cfg.admission.tenant_quota_weights =
        parse_double_list("--tenant-quotas", tenant_quotas);
  }
  if (fair_order == "weighted") {
    cfg.fair.job_order = mapreduce::JobOrder::kWeightedFair;
  } else if (fair_order != "fair") {
    std::fprintf(stderr, "unknown fair order '%s'\n", fair_order.c_str());
    usage(2);
  }
  cfg.engine.max_task_attempts = max_attempts;
  cfg.engine.blacklist.enabled = blacklist;
  cfg.engine.blacklist.failure_threshold = blacklist_failures;
  cfg.engine.blacklist.probation = probation;
  cfg.trace_path = trace_path;
  cfg.telemetry_path = telemetry_out;
  cfg.perfetto_path = perfetto_out;
  cfg.causal_trace_path = trace_out;
  cfg.sample_node_slots = sample_node_slots;
  if (sample_period != -1.0 && sample_period < 0.0) {
    std::fputs("--sample-period must be >= 0 sim-seconds\n", stderr);
    usage(2);
  }
  // Sampling defaults on (10 sim-seconds) whenever an exporter wants the
  // time-series; an explicit --sample-period 0 turns it back off.
  cfg.sample_period =
      sample_period >= 0.0
          ? sample_period
          : (!telemetry_out.empty() || !perfetto_out.empty() ? 10.0 : 0.0);
  if (placement == "random") {
    cfg.workload.placement = dfs::PlacementPolicy::kRandom;
  } else if (placement == "skewed") {
    cfg.workload.placement = dfs::PlacementPolicy::kSkewed;
  } else if (placement != "hdfs") {
    std::fprintf(stderr, "unknown placement '%s'\n", placement.c_str());
    usage(2);
  }
  if (distance == "hops") {
    cfg.distance_mode = driver::DistanceMode::kHops;
  } else if (distance == "inverse-rate") {
    cfg.distance_mode = driver::DistanceMode::kInverseRate;
  } else if (distance == "weighted") {
    cfg.distance_mode = driver::DistanceMode::kWeightedPerLink;
  } else if (distance == "load-aware") {
    cfg.distance_mode = driver::DistanceMode::kLoadAware;
  } else {
    std::fprintf(stderr, "unknown distance '%s'\n", distance.c_str());
    usage(2);
  }

  // Trace generation mode: stream the synthetic production trace straight
  // to disk (one record in memory at a time) and exit.
  if (!gen_trace.empty()) {
    if (duration <= 0.0 || rate <= 0.0 || job_scale <= 0.0 ||
        gen_users == 0 || gen_diurnal < 0.0 || gen_diurnal >= 1.0 ||
        gen_burst < 1.0 || gen_sigma < 0.0) {
      std::fputs("--gen-trace needs --duration/--rate/--job-scale > 0, "
                 "--gen-users >= 1, --gen-diurnal in [0,1), "
                 "--gen-burst >= 1 and --gen-sigma >= 0\n",
                 stderr);
      usage(2);
    }
    workload::TraceGenConfig gcfg;
    gcfg.duration = duration;
    gcfg.mean_rate_per_hour = rate;
    gcfg.diurnal_amplitude = gen_diurnal;
    gcfg.burst_rate_multiplier = gen_burst;
    gcfg.users = gen_users;
    gcfg.mix.size_jitter_sigma = gen_sigma;
    gcfg.mix.map_count_scale = job_scale;
    gcfg.mix.reduce_count_scale = job_scale;
    workload::ProductionTraceGenerator gen(gcfg, Rng(seed));
    const std::size_t rows = workload::write_arrival_trace(gen_trace, gen);
    std::printf("generated trace written to %s (jobs=%zu users=%zu "
                "horizon=%.0fs mean-rate=%.1f jobs/h)\n",
                gen_trace.c_str(), rows, gen_users, duration, rate);
    return 0;
  }

  // A tenant count alone is enough to ask for a multi-tenant stream; the
  // global process field is ignored once per-tenant processes exist.
  if (tenants_n > 0 && arrivals_mode.empty()) arrivals_mode = "poisson";

  if (!arrivals_mode.empty()) {
    driver::StreamConfig scfg;
    scfg.base = cfg;
    if (arrivals_mode == "poisson") {
      scfg.arrivals.process = workload::ArrivalProcess::kPoisson;
    } else if (arrivals_mode == "mmpp") {
      scfg.arrivals.process = workload::ArrivalProcess::kMmpp;
    } else if (arrivals_mode == "trace") {
      scfg.arrivals.process = workload::ArrivalProcess::kTrace;
      if (arrival_trace.empty()) {
        std::fputs("--arrivals trace requires --arrival-trace FILE\n",
                   stderr);
        usage(2);
      }
      scfg.arrivals.trace_path = arrival_trace;
      scfg.stream_trace = stream_trace;
    } else if (stream_trace) {
      std::fputs("--stream-trace requires --arrivals trace\n", stderr);
      usage(2);
    } else {
      std::fprintf(stderr, "unknown arrival process '%s'\n",
                   arrivals_mode.c_str());
      usage(2);
    }
    if (duration <= 0.0) {
      std::fputs("--duration must be > 0\n", stderr);
      usage(2);
    }
    if (arrivals_mode != "trace" && rate <= 0.0) {
      std::fputs("--rate must be > 0 jobs/hour\n", stderr);
      usage(2);
    }
    if (warmup >= duration) {
      std::fputs("--warmup must be < --duration\n", stderr);
      usage(2);
    }
    if (job_scale <= 0.0) {
      std::fputs("--job-scale must be > 0\n", stderr);
      usage(2);
    }
    scfg.arrivals.rate_per_hour = rate;
    scfg.arrivals.duration = duration;
    scfg.arrivals.mix.map_count_scale = job_scale;
    scfg.arrivals.mix.reduce_count_scale = job_scale;
    scfg.warmup = warmup < 0.0 ? duration / 6.0 : warmup;

    if (tenants_n > 0) {
      if (arrivals_mode == "trace") {
        std::fputs("--tenants is incompatible with --arrivals trace "
                   "(tag tenants in the trace file instead)\n",
                   stderr);
        usage(2);
      }
      // Per-tenant override lists must cover every tenant when given.
      auto want_n = [&](const std::string& flag, std::size_t got) {
        if (got != tenants_n) {
          std::fprintf(stderr, "%s needs %zu comma-separated values\n",
                       flag.c_str(), tenants_n);
          usage(2);
        }
      };
      std::vector<double> rates, bursts, weights;
      std::vector<std::string> procs;
      if (!tenant_rates.empty()) {
        rates = parse_double_list("--tenant-rates", tenant_rates);
        want_n("--tenant-rates", rates.size());
      }
      if (!tenant_bursts.empty()) {
        bursts = parse_double_list("--tenant-bursts", tenant_bursts);
        want_n("--tenant-bursts", bursts.size());
      }
      if (!tenant_weights.empty()) {
        weights = parse_double_list("--tenant-weights", tenant_weights);
        want_n("--tenant-weights", weights.size());
      }
      if (!tenant_processes.empty()) {
        procs = split_list(tenant_processes);
        want_n("--tenant-processes", procs.size());
      }
      scfg.arrivals.tenants.resize(tenants_n);
      for (std::size_t t = 0; t < tenants_n; ++t) {
        auto& tc = scfg.arrivals.tenants[t];
        tc.mix = scfg.arrivals.mix;
        tc.mmpp = scfg.arrivals.mmpp;
        // Default: split the global rate evenly so --rate still names the
        // total offered load.
        tc.rate_per_hour =
            rates.empty() ? rate / static_cast<double>(tenants_n) : rates[t];
        if (!bursts.empty()) tc.mmpp.burst_rate_multiplier = bursts[t];
        if (!weights.empty()) tc.weight = weights[t];
        if (procs.empty()) {
          tc.process = scfg.arrivals.process;
        } else if (procs[t] == "poisson") {
          tc.process = workload::ArrivalProcess::kPoisson;
        } else if (procs[t] == "mmpp") {
          tc.process = workload::ArrivalProcess::kMmpp;
        } else {
          std::fprintf(stderr, "unknown tenant process '%s'\n",
                       procs[t].c_str());
          usage(2);
        }
      }
    }

    if (!quiet) {
      std::printf("pnats_sim: open-loop %s stream | %.1f jobs/h over %.0fs "
                  "(warmup %.0fs) | %s | scheduler=%s seed=%llu\n",
                  arrivals_mode.c_str(), rate, duration, scfg.warmup,
                  topology_label(scfg.base).c_str(),
                  driver::to_string(cfg.scheduler),
                  static_cast<unsigned long long>(seed));
    }
    const auto stream = driver::run_stream_experiment(scfg);
    const auto& ss = stream.steady;
    // Streamed traces never buffer the arrival vector; count from the
    // per-job records instead.
    const std::size_t arrival_count = stream.arrivals.empty()
                                          ? stream.run.job_records.size()
                                          : stream.arrivals.size();
    std::printf("%s: drained=%s arrivals=%zu makespan=%.1fs\n",
                stream.run.scheduler_name.c_str(),
                stream.run.completed ? "yes" : "NO", arrival_count,
                stream.run.makespan);
    std::printf("steady-state [%.0fs, %.0fs): offered=%.1f jobs/h "
                "goodput=%.1f jobs/h submitted=%zu completed=%zu "
                "(%.1f MiB/s offered)\n",
                ss.window.begin, ss.window.end, ss.offered_jobs_per_hour,
                ss.throughput_jobs_per_hour, ss.jobs_submitted,
                ss.jobs_completed, units::to_MiB(ss.offered_bytes_per_sec));
    std::printf("  response  p50=%.1fs p95=%.1fs p99=%.1fs mean=%.1fs "
                "(n=%zu)\n",
                ss.response_time.p50, ss.response_time.p95,
                ss.response_time.p99, ss.response_time.mean,
                ss.response_time.count);
    std::printf("  queueing  p50=%.1fs p95=%.1fs p99=%.1fs mean=%.1fs\n",
                ss.queueing_delay.p50, ss.queueing_delay.p95,
                ss.queueing_delay.p99, ss.queueing_delay.mean);
    std::printf("  occupancy L=%.2f jobs | map-util=%.1f%% "
                "reduce-util=%.1f%%\n",
                ss.mean_jobs_in_system, 100.0 * ss.map_slot_utilization,
                100.0 * ss.reduce_slot_utilization);
    std::printf("  control   policy=%s rejected=%zu (%.1f%%) deferred=%zu "
                "aborted=%zu | deferral p50=%.1fs p99=%.1fs\n",
                stream.run.admission_policy.empty()
                    ? "none"
                    : stream.run.admission_policy.c_str(),
                ss.jobs_rejected, 100.0 * ss.rejection_rate,
                ss.jobs_deferred, ss.jobs_aborted, ss.deferral_delay.p50,
                ss.deferral_delay.p99);
    if (ss.tenants.size() > 1) {
      for (const auto& t : ss.tenants) {
        std::printf("  tenant %zu submitted=%zu completed=%zu "
                    "rejected=%zu deferred=%zu goodput=%.1f jobs/h "
                    "response p50=%.1fs p99=%.1fs L=%.2f\n",
                    t.tenant.value(), t.jobs_submitted, t.jobs_completed,
                    t.jobs_rejected, t.jobs_deferred,
                    t.throughput_jobs_per_hour, t.response_time.p50,
                    t.response_time.p99, t.mean_jobs_in_system);
      }
    }
    print_class_summary(stream.run);
    print_chaos_summary(stream.run, scfg.base);
    print_critical_path_summary(stream.run);
    if (!out_dir.empty()) {
      driver::save_result(out_dir, "stream", stream.run);
      std::printf("records saved under %s/stream_*.csv\n", out_dir.c_str());
    }
    if (!telemetry_out.empty()) {
      std::printf("telemetry written to %s (%zu samples)\n",
                  telemetry_out.c_str(), stream.run.samples.rows.size());
    }
    if (!perfetto_out.empty()) {
      std::printf("perfetto trace written to %s\n", perfetto_out.c_str());
    }
    if (!trace_out.empty()) {
      std::printf("causal trace written to %s (%zu jobs, %zu decisions)\n",
                  trace_out.c_str(), stream.run.job_traces.size(),
                  stream.run.decisions.size());
    }
    return stream.run.completed ? 0 : 1;
  }

  if (stream_trace) {
    std::fputs("--stream-trace requires --arrivals trace\n", stderr);
    usage(2);
  }
  if (!quiet) {
    std::printf("pnats_sim: %zu jobs | %s | scheduler=%s seed=%llu\n",
                cfg.jobs.size(), topology_label(cfg).c_str(),
                driver::to_string(cfg.scheduler),
                static_cast<unsigned long long>(seed));
  }
  const auto result = driver::run_experiment(cfg);

  RunningStats jct;
  for (const auto& j : result.job_records) {
    // Truncated runs carry sentinel records (finish < submit) for jobs
    // that never finished — they have no completion time.
    if (j.finish_time >= j.submit_time) jct.add(j.completion_time());
  }
  const auto loc = metrics::locality_summary(result.task_records,
                                             metrics::TaskFilter::kAll);
  std::printf("%s: completed=%s jobs=%zu meanJCT=%.1fs makespan=%.1fs "
              "local=%.1f%% map-util=%.1f%%\n",
              result.scheduler_name.c_str(),
              result.completed ? "yes" : "NO",
              result.job_records.size(), jct.mean(), result.makespan,
              loc.node_local_pct,
              100.0 * result.utilization.map_utilization());
  print_class_summary(result);
  print_chaos_summary(result, cfg);
  print_critical_path_summary(result);

  if (!quiet) {
    for (const auto& j : result.job_records) {
      if (j.finish_time >= j.submit_time) {
        std::printf("  %-18s %8.1fs\n", j.name.c_str(),
                    j.completion_time());
      } else {
        std::printf("  %-18s unfinished\n", j.name.c_str());
      }
    }
  }
  if (!out_dir.empty()) {
    driver::save_result(out_dir, "run", result);
    std::printf("records saved under %s/run_*.csv\n", out_dir.c_str());
  }
  if (!trace_path.empty()) {
    std::printf("trace written to %s\n", trace_path.c_str());
  }
  if (!telemetry_out.empty()) {
    std::printf("telemetry written to %s (%zu samples)\n",
                telemetry_out.c_str(), result.samples.rows.size());
  }
  if (!perfetto_out.empty()) {
    std::printf("perfetto trace written to %s\n", perfetto_out.c_str());
  }
  if (!trace_out.empty()) {
    std::printf("causal trace written to %s (%zu jobs, %zu decisions)\n",
                trace_out.c_str(), result.job_traces.size(),
                result.decisions.size());
  }
  return result.completed ? 0 : 1;
}
