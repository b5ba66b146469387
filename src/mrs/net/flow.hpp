// Flow-level network simulation with max-min fair bandwidth sharing.
//
// Every remote data transfer in the simulator (map input fetch, shuffle
// segment) is a flow along the unique route between two hosts. Active flows
// sharing a link split its effective capacity max-min fairly (progressive
// filling), the standard flow-level approximation of TCP behaviour. Rates
// are piecewise constant between "rate events" (flow arrival/departure or a
// background-traffic resample); the discrete-event engine advances the model
// between events and asks for the next completion time.
//
// Scaling design. A flow event only perturbs the rates of flows that share a
// link with it, transitively: the affected *connected component* of the
// flow/link incidence graph. The solver therefore keeps, per directed link,
// the list of active flows crossing it and the current rate aggregate, and
// on each solve re-derives shares only for the components reachable from
// the touched links, with a lazy min-heap over (equal share, directed index)
// replacing the full linear bottleneck scan. The progressive filling itself
// is canonicalized — capped flows freeze in ascending (cap, flow-index)
// order, bottleneck members in ascending flow-index order, ties on the
// bottleneck broken by directed index — which makes a component-local solve
// bit-identical to the full-network solve, so the retained reference path
// (`set_naive_flow_solver`) can gate the fast path byte-for-byte, and
// independent components can even be solved on parallel threads
// (`set_flow_solver_threads`) without changing a single bit.
//
// Lazy solving: one solve per simulated instant. Fetcher pumps and
// completion->start chains make many flow changes at one instant, and an
// eager re-solve after each would be overwritten by the next. So `start`,
// `cancel`, completions and `recompute_rates` only record what changed (the
// touched links, or "full"); the first query that depends on rates
// (`next_completion`, `info`, `stalled_count`, `directed_link_load`, or
// `advance_to` moving time) runs one solve over the union of the touched
// components; sim::NetworkService makes that query once per instant, when
// the instant ends. Because a component's solve is a pure function of its
// flows and capacities, the result is bit-identical to solving after every
// change. The capacities are the one input that could move in between, so
// the model is its LinkConditionModel's CapacityListener and settles
// pending work before any resample, fault toggle or surge lands.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "mrs/common/ids.hpp"
#include "mrs/common/units.hpp"
#include "mrs/net/link_condition.hpp"
#include "mrs/net/topology.hpp"

namespace mrs::net {

struct FlowInfo {
  NodeId src;
  NodeId dst;
  Bytes total = 0.0;
  Bytes remaining = 0.0;
  Seconds start_time = 0.0;
  BytesPerSec rate = 0.0;  ///< current max-min allocation
  /// Application-limited ceiling (e.g. a map task streaming its input no
  /// faster than it can process it). +inf = network-limited.
  BytesPerSec rate_cap = 0.0;
  bool active = false;
  /// True while the flow crosses a zero-effective-capacity (cut) link: the
  /// flow is parked at rate 0, makes no progress, and is excluded from
  /// next_completion() until a repair restores capacity.
  bool stalled = false;
};

class FlowModel final : private CapacityListener {
 public:
  /// `cond` may be null: links then run at nominal capacity. Otherwise it
  /// must outlive the model, which listens to it for capacity changes.
  FlowModel(const Topology* topo, const LinkConditionModel* cond = nullptr);
  ~FlowModel();
  FlowModel(const FlowModel&) = delete;
  FlowModel& operator=(const FlowModel&) = delete;

  /// Start a transfer of `size` bytes from `src` to `dst` at time `now`.
  /// Requires src != dst (local reads are not network flows) and size > 0.
  /// `rate_cap`, when finite, bounds the flow's share (application-limited
  /// sender/receiver). Marks its component for the next solve.
  FlowId start(NodeId src, NodeId dst, Bytes size, Seconds now,
               BytesPerSec rate_cap =
                   std::numeric_limits<BytesPerSec>::infinity());

  /// Abort an active flow. Marks its component for the next solve.
  void cancel(FlowId id, Seconds now);

  /// Move every active flow forward to time `t` at its current rate
  /// (settling pending changes first when time moves). `t` must not be
  /// before the last update.
  void advance_to(Seconds t);

  /// Earliest (time, flow) completion under current rates, if any flow is
  /// both active and not stalled on a cut link.
  [[nodiscard]] std::optional<std::pair<Seconds, FlowId>> next_completion()
      const;

  /// Flows whose remaining bytes reached zero since the last collect; each
  /// is returned exactly once. They were deactivated (and their components
  /// marked for the next solve) by the advance_to that completed them.
  std::vector<FlowId> collect_completed();

  /// Mark the whole network for re-solving at the next settling query.
  /// start/cancel/completion mark only their component; call this after
  /// the LinkConditionModel resamples or a link fault is toggled.
  /// (Condition-model epochs are also tracked, so the first solve after a
  /// resample covers the full network anyway.)
  void recompute_rates();

  /// Reference path: solve the whole network with a full linear bottleneck
  /// scan on every event, exactly like the pre-incremental solver. The
  /// incremental path is bit-identical to this (see the header comment);
  /// the differential tests gate that property.
  void set_naive_flow_solver(bool naive) { naive_ = naive; }
  [[nodiscard]] bool naive_flow_solver() const { return naive_; }

  /// Solve independent connected components on up to `n` worker threads
  /// during full recomputations. Deterministic: components are disjoint in
  /// both the flows and the links they write, so the result is bit-identical
  /// to the serial solve regardless of thread scheduling. <= 1 disables.
  void set_flow_solver_threads(std::size_t n) {
    solver_threads_ = n == 0 ? 1 : n;
  }
  [[nodiscard]] std::size_t flow_solver_threads() const {
    return solver_threads_;
  }

  /// Settles pending changes first (as do stalled_count and
  /// directed_link_load).
  [[nodiscard]] const FlowInfo& info(FlowId id) const;
  [[nodiscard]] std::size_t active_count() const {
    return active_list_.size();
  }
  /// Active flows currently parked on a cut link.
  [[nodiscard]] std::size_t stalled_count() const {
    settle();
    return stalled_count_;
  }
  [[nodiscard]] Seconds now() const { return now_; }

  /// Sum of current flow rates crossing a directed link (for tests and
  /// utilization metrics). Aggregates are maintained by the solver.
  [[nodiscard]] BytesPerSec directed_link_load(std::size_t directed_index)
      const {
    settle();
    return directed_index < link_rate_sum_.size()
               ? link_rate_sum_[directed_index]
               : 0.0;
  }

  /// Number of active flows crossing a directed link (maintained
  /// incrementally; O(1)). This is what a link monitor / path probe sees.
  [[nodiscard]] std::size_t flows_on(std::size_t directed_index) const {
    return directed_index < link_flow_count_.size()
               ? link_flow_count_[directed_index]
               : 0;
  }

  /// Total bytes delivered by completed flows so far.
  [[nodiscard]] Bytes bytes_delivered() const { return bytes_delivered_; }

  /// Flow changes so far: starts, cancels of active flows and completions.
  [[nodiscard]] std::uint64_t change_count() const { return changes_; }
  /// Solves run so far (region or full, over a non-empty active set). At
  /// most one per settle, so many changes at one instant count once. The
  /// same on every solver path (naive, threaded), since all coalesce alike.
  [[nodiscard]] std::uint64_t solve_count() const { return solves_; }

 private:
  /// A flow's membership slot on one directed link (for O(1) swap-removal).
  struct LinkMember {
    std::size_t flow;
    std::uint32_t hop;  ///< index into the flow's path
  };

  /// Reusable progressive-filling state for one region (a union of
  /// connected components). Epoch-stamped so activation is O(region), not
  /// O(network); each solver thread owns one.
  struct Workspace {
    std::uint64_t epoch = 0;
    std::vector<std::uint64_t> link_stamp;  ///< per directed link
    std::vector<std::size_t> link_slot;     ///< directed link -> region slot
    std::vector<std::size_t> links;         ///< region slot -> directed index
    std::vector<double> cap;                ///< residual capacity per slot
    std::vector<std::size_t> count;         ///< unfrozen flows per slot
    std::vector<std::vector<std::size_t>> members;  ///< flow slots, ascending
    std::vector<std::size_t> flows;         ///< region slot -> flow index
    std::vector<char> frozen;
    std::vector<std::pair<double, std::size_t>> by_cap;  ///< (cap, flow slot)
    std::vector<std::pair<double, std::size_t>> heap;  ///< (share, dir index)
  };

  [[nodiscard]] BytesPerSec capacity_of(std::size_t directed_index) const;
  /// Run the pending solve, if any. Const because the rates are a cache of
  /// a pure function of the active set and the capacities; the queries that
  /// read them stay const.
  void settle() const {
    if (dirty_) const_cast<FlowModel*>(this)->solve_pending();
  }
  void solve_pending();
  void before_capacity_change() override { settle(); }
  /// Record a change to the flows crossing `path` for the next solve.
  void mark_changed(std::span<const DirectedLink> path);
  /// Mark flow `index` inactive and swap-remove it from the active list and
  /// every per-link membership list.
  void deactivate(std::size_t index);
  void add_to_links(std::size_t index);
  void remove_from_links(std::size_t index);
  /// Full-network solve (all components; optionally in parallel).
  void solve_full();
  /// Gather the active flows of every component touching `seed_links` into
  /// `region_flows_`, sorted ascending.
  void collect_region(std::span<const std::size_t> seed_links);
  /// Drain `bfs_stack_` (directed links marked with the current visit
  /// epoch), appending every newly reached flow to `out_flows`.
  void drain_bfs(std::vector<std::size_t>& out_flows);
  void apply_stall_delta(int delta);
  /// Canonical progressive filling over `flows` (ascending flow indices,
  /// forming a union of whole components). `linear_scan` selects the naive
  /// full-scan bottleneck search instead of the heap. Returns the change in
  /// the number of stalled flows (for the caller to aggregate; keeps the
  /// routine write-disjoint across parallel component solves).
  int solve_region(const std::vector<std::size_t>& flows, Workspace& ws,
                   bool linear_scan);

  const Topology* topo_;
  const LinkConditionModel* cond_;
  std::vector<FlowInfo> flows_;
  std::vector<std::span<const DirectedLink>> paths_;  ///< per flow
  std::vector<FlowId> newly_completed_;
  // Active-flow index: per-event work is O(active), not O(ever created).
  std::vector<std::size_t> active_list_;
  std::vector<std::size_t> active_pos_;  ///< flow index -> slot in list
  std::vector<std::size_t> link_flow_count_;  ///< active flows per dir link
  std::vector<std::vector<LinkMember>> link_flows_;  ///< per directed link
  std::vector<std::vector<std::size_t>> flow_link_slots_;  ///< per flow/hop
  std::vector<BytesPerSec> link_rate_sum_;  ///< maintained rate aggregates
  Seconds now_ = 0.0;
  Bytes bytes_delivered_ = 0.0;
  bool naive_ = false;
  std::size_t solver_threads_ = 1;
  std::size_t stalled_count_ = 0;
  std::uint64_t cond_epoch_seen_ = 0;
  // Pending work for the next settle: directed links of every flow started,
  // cancelled or completed since the last solve, and whether a full solve
  // was asked for.
  std::vector<std::size_t> pending_seeds_;
  bool full_pending_ = false;
  bool dirty_ = false;
  std::uint64_t changes_ = 0;
  std::uint64_t solves_ = 0;
  // Region-discovery scratch (BFS over the flow/link incidence graph).
  std::uint64_t visit_epoch_ = 0;
  std::vector<std::uint64_t> link_seen_;
  std::vector<std::uint64_t> flow_seen_;
  std::vector<std::size_t> bfs_stack_;
  std::vector<std::size_t> region_flows_;
  std::vector<std::size_t> naive_flows_;  ///< sorted active list (reference)
  // Component partition scratch for full solves.
  std::vector<std::vector<std::size_t>> component_flows_;
  std::vector<int> component_stall_delta_;
  Workspace ws_;
  std::vector<Workspace> thread_ws_;
};

}  // namespace mrs::net
