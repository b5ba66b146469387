#include "mrs/telemetry/lifecycle_counters.hpp"

#include "mrs/common/strfmt.hpp"

namespace mrs::telemetry {

using mapreduce::LifecycleKind;

namespace {

/// Counter name per LifecycleKind, in declaration order ("" = none).
constexpr const char* kKindCounter[] = {
    "engine.jobs.activated",
    "engine.jobs.finished",
    "engine.maps.assigned",
    "engine.maps.finished",
    "engine.maps.killed",
    "engine.reduces.assigned",
    "engine.reduces.finished",
    "engine.reduces.killed",
    "engine.speculative_launches",
    "engine.nodes.failed",
    "engine.nodes.recovered",
    "",  // job deferred
    "",  // job rejected
    "control.jobs.aborted",
    "",  // node blacklisted
    "",  // node unblacklisted
    "engine.transfer.stall_timeouts",
    "",  // map running
    "",  // reduce shuffling
    "",  // reduce shuffle done
    "engine.transfer.retries",
};
static_assert(std::size(kKindCounter) == mapreduce::kLifecycleKinds);

/// Slot of `e` in its node's per-class counters; -1 when it has none. A
/// speculative launch assigns the backup attempt to its node, and that
/// attempt's finish counts there, so it counts as an assignment too.
int class_slot(const mapreduce::LifecycleEvent& e) {
  switch (e.kind) {
    case LifecycleKind::kMapAssigned: return 0;
    case LifecycleKind::kMapFinished: return 1;
    case LifecycleKind::kReduceAssigned: return 2;
    case LifecycleKind::kReduceFinished: return 3;
    case LifecycleKind::kSpeculativeLaunch: return e.is_map ? 0 : 2;
    default: return -1;
  }
}

}  // namespace

LifecycleCounters::LifecycleCounters(Registry& registry,
                                     std::vector<std::string> node_class)
    : registry_(registry),
      node_class_(std::move(node_class)),
      node_counters_(node_class_.size()) {
  for (std::string& name : node_class_) name = "hetero.class." + name + ".";
  for (std::size_t k = 0; k < by_kind_.size(); ++k) {
    if (*kKindCounter[k] != '\0') {
      by_kind_[k] = &registry.counter(kKindCounter[k]);
    }
  }
  static constexpr const char* kLocality[3] = {"node", "rack", "remote"};
  for (int l = 0; l < 3; ++l) {
    locality_[1][l] =
        &registry.counter(strf("engine.maps.locality.%s", kLocality[l]));
    locality_[0][l] =
        &registry.counter(strf("engine.reduces.locality.%s", kLocality[l]));
  }
}

void LifecycleCounters::on_event(const mapreduce::LifecycleEvent& e) {
  // A lone backup kill leaves its task running: not a task kill.
  if (e.kind == LifecycleKind::kMapKilled && e.backup) return;
  if (Counter* c = by_kind_[static_cast<std::size_t>(e.kind)]) c->inc();
  if (e.kind == LifecycleKind::kMapAssigned ||
      e.kind == LifecycleKind::kReduceAssigned) {
    locality_[e.is_map][static_cast<int>(e.locality)]->inc();
  }
  const int slot = class_slot(e);
  if (slot < 0 || node_class_.empty()) return;
  auto& counters = node_counters_.at(e.node.value());
  if (counters[0] == nullptr) {
    static constexpr const char* kNames[4] = {
        "maps_assigned", "maps_finished", "reduces_assigned",
        "reduces_finished"};
    for (int i = 0; i < 4; ++i) {
      counters[i] = &registry_.counter(node_class_[e.node.value()] + kNames[i]);
    }
  }
  counters[slot]->inc();
}

}  // namespace mrs::telemetry
