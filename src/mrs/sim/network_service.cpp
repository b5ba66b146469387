#include "mrs/sim/network_service.hpp"

#include <utility>
#include <vector>

namespace mrs::sim {

NetworkService::NetworkService(Simulation* simulation,
                               const net::Topology* topo,
                               net::LinkConditionModel* cond)
    : simulation_(simulation), cond_(cond), flows_(topo, cond) {
  MRS_REQUIRE(simulation_ != nullptr);
}

void NetworkService::arm_condition_tick() {
  if (cond_ == nullptr || condition_tick_armed_) return;
  if (flows_.active_count() == 0) return;
  // Keep the background-traffic process and flow rates in lock-step with
  // simulation time while transfers are in flight. The tick self-cancels
  // when the network idles so the event queue can drain.
  constexpr Seconds kTick = 5.0;
  condition_tick_armed_ = true;
  simulation_->schedule_in(kTick, [this] {
    condition_tick_armed_ = false;
    if (flows_.active_count() == 0) return;
    cond_->advance_to(simulation_->now());
    flows_.advance_to(simulation_->now());
    flows_.recompute_rates();
    sync();
    arm_condition_tick();
  });
}

FlowId NetworkService::transfer(NodeId src, NodeId dst, Bytes size,
                                TransferCallback done, BytesPerSec rate_cap) {
  MRS_REQUIRE(done != nullptr);
  const FlowId id =
      flows_.start(src, dst, size, simulation_->now(), rate_cap);
  callbacks_.emplace(id, std::move(done));
  sync();
  arm_condition_tick();
  return id;
}

void NetworkService::on_condition_changed() {
  if (cond_ != nullptr) cond_->advance_to(simulation_->now());
  flows_.advance_to(simulation_->now());
  flows_.recompute_rates();
  sync();
  arm_condition_tick();
}

void NetworkService::cancel(FlowId id) {
  flows_.cancel(id, simulation_->now());
  callbacks_.erase(id);
  sync();
}

void NetworkService::arm_completion_event() {
  const auto next = flows_.next_completion();
  if (!next) return;
  completion_event_ = simulation_->schedule_at(next->first, [this] { sync(); });
}

void NetworkService::sync() {
  // Completions are due now, so time advances and completions dispatch
  // immediately; only the next-completion event waits for the instant to
  // end, when the rates it depends on are final.
  flows_.advance_to(simulation_->now());
  // Dispatch in a loop: a completion callback may start new transfers,
  // which themselves call sync() re-entrantly via transfer(); collecting
  // before dispatching keeps each callback firing exactly once.
  for (;;) {
    const std::vector<FlowId> completed = flows_.collect_completed();
    if (completed.empty()) break;
    for (FlowId id : completed) {
      auto it = callbacks_.find(id);
      if (it == callbacks_.end()) continue;  // cancelled mid-flight
      TransferCallback cb = std::move(it->second);
      callbacks_.erase(it);
      cb();
    }
  }
  simulation_->cancel(completion_event_);
  completion_event_ = EventHandle{};
  if (!arm_pending_) {
    arm_pending_ = true;
    simulation_->at_instant_end([this] {
      arm_pending_ = false;
      arm_completion_event();
    });
  }
}

}  // namespace mrs::sim
