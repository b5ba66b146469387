// Couples the flow-level network model to the discrete-event engine.
//
// Callers start transfers and get a completion callback; the service keeps
// exactly one pending "next flow completes" event in the simulation,
// re-armed at the end of every instant in which the flow set (and therefore
// the rate allocation) changed — so the flow model solves once per instant,
// not once per change — and periodically re-applies background-traffic
// resamples.
#pragma once

#include <functional>
#include <limits>
#include <unordered_map>

#include "mrs/common/ids.hpp"
#include "mrs/net/flow.hpp"
#include "mrs/net/link_condition.hpp"
#include "mrs/sim/simulation.hpp"

namespace mrs::sim {

class NetworkService {
 public:
  using TransferCallback = std::function<void()>;

  /// `cond` may be null (clean network at nominal capacity). When present,
  /// the service re-samples background traffic on the model's interval and
  /// recomputes flow rates.
  NetworkService(Simulation* simulation, const net::Topology* topo,
                 net::LinkConditionModel* cond = nullptr);

  /// Start a transfer; `done` fires (once) when the last byte arrives.
  /// Requires src != dst — local reads are not network transfers.
  /// `rate_cap`, when finite, bounds the flow's rate (application-limited
  /// streams, e.g. a map task reading input only as fast as it computes).
  FlowId transfer(NodeId src, NodeId dst, Bytes size, TransferCallback done,
                  BytesPerSec rate_cap =
                      std::numeric_limits<BytesPerSec>::infinity());

  /// Abort an in-flight transfer; its callback will not fire.
  void cancel(FlowId id);

  /// Out-of-band link-condition change (fault injection, surge episodes):
  /// advance the condition model and flows to sim-now, recompute rates so
  /// flows crossing a cut park (or resume after repair) immediately rather
  /// than at the next flow event, and dispatch any resulting completions.
  void on_condition_changed();

  [[nodiscard]] const net::FlowModel& flows() const { return flows_; }
  [[nodiscard]] std::size_t active_transfers() const {
    return flows_.active_count();
  }

  /// Select the reference full-scan flow solver (see
  /// FlowModel::set_naive_flow_solver). Set before the first transfer.
  void set_naive_flow_solver(bool naive) {
    flows_.set_naive_flow_solver(naive);
  }
  /// Worker threads for full flow recomputations (deterministic; see
  /// FlowModel::set_flow_solver_threads).
  void set_flow_solver_threads(std::size_t n) {
    flows_.set_flow_solver_threads(n);
  }

 private:
  /// Advance the model to sim-now, dispatch completions, and drop the
  /// completion event; it is re-armed once, when the instant ends.
  void sync();
  /// Schedule the next completion; runs at the end of an instant in which
  /// sync() dropped the previous event.
  void arm_completion_event();
  /// Keep a background-resample tick armed while flows are active; the tick
  /// self-cancels when the network goes idle so the event queue can drain.
  void arm_condition_tick();

  Simulation* simulation_;
  net::LinkConditionModel* cond_;
  net::FlowModel flows_;
  std::unordered_map<FlowId, TransferCallback> callbacks_;
  EventHandle completion_event_;
  bool arm_pending_ = false;  ///< an instant-end re-arm is registered
  bool condition_tick_armed_ = false;
};

}  // namespace mrs::sim
