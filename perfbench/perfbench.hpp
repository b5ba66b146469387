// Shared pieces of the end-to-end benchmark: the report it prints, the
// percentile rule, host-time spans, correctness checks, the flow replay
// and the three workloads. Everything here calls the simulator only
// through its public headers; see NOTES.md for the method.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mrs/driver/stream_experiment.hpp"
#include "mrs/net/topology.hpp"

namespace perfbench {

// --- report ------------------------------------------------------------

/// Metric names are `[A-Za-z0-9_.-]+`, start with a letter or digit and
/// have at most 64 characters.
[[nodiscard]] bool valid_metric_name(std::string_view name);
/// Units are non-empty, at most 16 of `[A-Za-z0-9_/%.-]`.
[[nodiscard]] bool valid_unit(std::string_view unit);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The metrics of one run, in insertion order. add() throws
/// std::invalid_argument on a bad name or unit, a duplicate name or a
/// non-finite value, so nothing malformed reaches the printed line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<Metric>& metrics() const {
    return metrics_;
  }
  /// The single-line JSON result object.
  [[nodiscard]] std::string json(bool correct, std::uint64_t attempted,
                                 std::uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

/// The highest of p50, p90, p99 and p99.9 that leaves at least
/// `min_beyond` samples above it.
struct TailPercentile {
  double q = 0.0;         ///< quantile in (0, 1)
  double value = 0.0;     ///< linear-interpolated percentile
  std::size_t n = 0;      ///< sample count
  std::size_t beyond = 0; ///< samples ranked above the percentile
};
/// nullopt when even the median leaves fewer than `min_beyond` samples
/// above it (n < 2 * min_beyond).
[[nodiscard]] std::optional<TailPercentile> tail_percentile(
    const std::vector<double>& samples, std::size_t min_beyond = 10);

/// Median of a non-empty sample.
[[nodiscard]] double median(std::vector<double> v);
/// Mean of a non-empty sample.
[[nodiscard]] double mean(const std::vector<double>& v);

// --- machine-speed probe -----------------------------------------------

/// Fixed kernels timed between driver calls. The shared machine's speed
/// drifts by up to ~1.4x over seconds to minutes, and the kernels slow
/// down with it as much as the simulator does; timed on the same stretch
/// of time as the calls, they measure that drift.
class SpeedProbe {
 public:
  SpeedProbe();
  /// Runs every kernel once; returns the pass's host time in seconds.
  double sample();
  /// Reference pass time ÷ the mean of `passes`: above 1 on a machine
  /// faster than the reference, below 1 on a slower one. Host times
  /// multiplied by it read as seconds at the reference speed. A ratio of
  /// means weights each stretch of time by its length, as a call's host
  /// time does.
  [[nodiscard]] static double factor(const std::vector<double>& passes);

 private:
  std::vector<std::uint64_t> gather_;
  std::vector<std::uint32_t> sort_;
  std::vector<std::pair<double, std::uint32_t>> heap_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> values_;
  std::uint64_t sink_ = 0;  ///< keeps the kernels' results live
};

// --- spans -------------------------------------------------------------

/// One host-time interval recorded around a call into a layer. `parent`
/// indexes the enclosing span, -1 for a root.
struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the recorder was created
  double end = 0.0;
  int parent = -1;
};

/// A span's duration minus the part of it that its children cover. The
/// children may nest or overlap; each instant is subtracted once.
[[nodiscard]] double self_time(const std::vector<Span>& spans,
                               std::size_t index);

/// Keeps spans in memory; nesting follows the open() / close() order.
class SpanRecorder {
 public:
  SpanRecorder();
  [[nodiscard]] std::size_t open(const std::string& name);
  /// Closes `id`, which must be the innermost open span. Returns its
  /// duration in seconds.
  double close(std::size_t id);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Writes every span with its duration and self time as JSON.
  void write_json(const std::string& path) const;

 private:
  double now() const;
  std::int64_t origin_ns_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

// --- checks ------------------------------------------------------------

/// Outcome of the per-run correctness checks on one driver call.
struct RunCheck {
  std::size_t submitted = 0;
  /// Jobs that finished, were not aborted and pass every per-job check.
  std::size_t completed_ok = 0;
  std::vector<std::string> failures;  ///< empty when every check holds
};

/// Checks one result: every submitted job resolves exactly once, the task
/// record counts match engine.maps.finished / engine.reduces.finished,
/// every completed job has one record per task, and the run drained.
[[nodiscard]] RunCheck check_run(const mrs::driver::ExperimentResult& r,
                                 std::size_t submitted);

/// FNV-1a digest over the bits of every job and task record.
[[nodiscard]] std::uint64_t record_digest(
    const mrs::driver::ExperimentResult& r);

// --- flow replay -------------------------------------------------------

/// One network transfer rebuilt from task records.
struct Transfer {
  double ready = 0.0;  ///< earliest start
  mrs::NodeId src;
  mrs::NodeId dst;
  double bytes = 0.0;
  /// Transfers of one group share a pool of fetchers (one group per
  /// reduce; each map read is a group of its own).
  std::size_t group = 0;
};

/// Remote map reads and shuffle fetches of a run, sorted by ready time.
/// A map that moved bytes reads them from a replica holder whose distance
/// matches its recorded locality (picked deterministically, since records
/// do not name the holder). A reduce fetches from each other node holding
/// maps of its job, as the engine does: one transfer per source node,
/// carrying that node's maps' share of the reduce's bytes, ready once the
/// reduce is assigned and the node's last map has finished.
[[nodiscard]] std::vector<Transfer> rebuild_transfers(
    const mrs::driver::ExperimentResult& r, const mrs::net::Topology& topo);

struct ReplayStats {
  std::size_t transfers = 0;
  std::size_t changes = 0;   ///< starts + completions
  std::size_t instants = 0;  ///< distinct sim times with a change
  double active_flows_mean = 0.0;  ///< active flows after each change
  double host_s = 0.0;
  std::vector<std::uint64_t> completion_order;  ///< flow ids
};

/// Drives a standalone net::FlowModel through `transfers` with its public
/// start / advance_to / next_completion / collect_completed calls until it
/// drains, running at most `fetchers` transfers of a group at once (the
/// engine's shuffle_parallel_fetchers). Throws std::runtime_error if it
/// cannot drain.
[[nodiscard]] ReplayStats replay_flows(const std::vector<Transfer>& transfers,
                                       const mrs::net::Topology& topo,
                                       bool naive_solver, std::size_t fetchers);

// --- workloads ---------------------------------------------------------

enum class Variant {
  kFast,          ///< as configured
  kNaive,         ///< naive_scheduler_path: the reference implementation
  kObserversOff,  ///< tracing, sampler and telemetry files off
};

/// Everything one driver call needs, made by Workload::setup from a seed.
struct Inputs {
  mrs::driver::StreamConfig stream;  ///< base = the experiment config
  bool streamed = false;  ///< run through run_stream_experiment
  std::vector<mrs::workload::Arrival> arrivals;  ///< buffered stream
  std::size_t jobs = 0;   ///< jobs submitted
  std::string trace_path;  ///< generated trace file, if any
};

struct Workload {
  std::string name;
  /// The program's public set-up calls for `seed`; files go to `dir`.
  Inputs (*setup)(std::uint64_t seed, const std::string& dir) = nullptr;
};

[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// The driver call: runs the simulation for `in` under `variant`.
[[nodiscard]] mrs::driver::ExperimentResult run_driver(const Inputs& in,
                                                       Variant variant);

/// The topology the run used, rebuilt with the public builders.
[[nodiscard]] mrs::net::Topology topology_of(
    const mrs::driver::ExperimentConfig& cfg);

/// The paper's Table III node-local share for PNA (all three batches).
inline constexpr double kPaperNodeLocalFrac = 0.8984;

}  // namespace perfbench
