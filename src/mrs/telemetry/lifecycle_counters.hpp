// Lifecycle counters: the observer that turns the engine's lifecycle
// stream into the `engine.*` counters, `control.jobs.aborted`, the
// per-locality assignment buckets and, on clusters with named node
// classes, the lazily created `hetero.class.<name>.*` counters.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "mrs/mapreduce/lifecycle.hpp"
#include "mrs/telemetry/registry.hpp"

namespace mrs::telemetry {

class LifecycleCounters final : public mapreduce::LifecycleObserver {
 public:
  /// Registers every lifecycle counter in `registry` (which must outlive
  /// this). `node_class` names each node's class, or is empty on a
  /// homogeneous cluster, which then registers no per-class counters.
  LifecycleCounters(Registry& registry, std::vector<std::string> node_class);

  void on_event(const mapreduce::LifecycleEvent& e) override;

 private:
  Registry& registry_;
  std::vector<std::string> node_class_;  ///< "hetero.class.<name>." by node
  /// The counter each kind bumps (null: none), indexed by LifecycleKind.
  std::array<Counter*, mapreduce::kLifecycleKinds> by_kind_{};
  /// [is_map][locality] assignment buckets.
  Counter* locality_[2][3] = {};
  /// Per node: its class's maps_assigned, maps_finished, reduces_assigned
  /// and reduces_finished counters, looked up on the node's first such
  /// event. Every node of a class gets the same counters from the
  /// registry, so a class appears once any of its nodes is touched.
  std::vector<std::array<Counter*, 4>> node_counters_;
};

}  // namespace mrs::telemetry
