// Shared test fixture: a self-contained small cluster around the engine.
#pragma once

#include <string>
#include <vector>

#include "mrs/cluster/cluster.hpp"
#include "mrs/dfs/block_store.hpp"
#include "mrs/mapreduce/engine.hpp"
#include "mrs/mapreduce/lifecycle.hpp"
#include "mrs/net/distance.hpp"
#include "mrs/sim/network_service.hpp"
#include "mrs/sim/simulation.hpp"

namespace mrs::testing {

/// Keeps every lifecycle event an engine emits.
struct LifecycleLog final : mapreduce::LifecycleObserver {
  void on_event(const mapreduce::LifecycleEvent& e) override {
    events.push_back(e);
  }
  [[nodiscard]] std::size_t count(mapreduce::LifecycleKind kind) const {
    std::size_t n = 0;
    for (const auto& e : events) n += e.kind == kind ? 1 : 0;
    return n;
  }
  std::vector<mapreduce::LifecycleEvent> events;
};

struct MiniCluster {
  explicit MiniCluster(std::size_t nodes,
                       cluster::NodeConfig node_cfg = {},
                       mapreduce::EngineConfig engine_cfg = {},
                       std::uint64_t seed = 7)
      : topo(net::make_single_rack(nodes, units::Gbps(1))),
        store(nodes),
        placer(&topo, Rng(seed)),
        clstr(&topo, node_cfg, Rng(seed + 1)),
        network(&sim, &topo),
        distance(topo),
        engine(&sim, &clstr, &store, &network, &distance, engine_cfg) {}

  mapreduce::JobRun& submit_job(std::size_t maps, std::size_t reduces,
                                Bytes block = 64.0 * units::kMiB,
                                double selectivity = 1.0,
                                std::size_t replication = 2) {
    mapreduce::JobSpec spec;
    spec.name = "job" + std::to_string(counter);
    spec.reduce_count = reduces;
    spec.map_selectivity = selectivity;
    spec.selectivity_jitter = 0.0;
    spec.map_rate = 32.0 * units::kMiB;
    spec.reduce_rate = 32.0 * units::kMiB;
    spec.task_startup = 0.5;
    for (std::size_t j = 0; j < maps; ++j) {
      const BlockId b = store.add_block(
          block,
          placer.place(replication, dfs::PlacementPolicy::kHdfsDefault));
      spec.map_tasks.push_back({b, block});
    }
    return engine.submit(std::move(spec), Rng(100 + counter++));
  }

  void run(mapreduce::TaskScheduler& sched, Seconds max_time = 1e6) {
    engine.set_scheduler(&sched);
    engine.start();
    sim.run(max_time);
  }

  sim::Simulation sim;
  net::Topology topo;
  dfs::BlockStore store;
  dfs::BlockPlacer placer;
  cluster::Cluster clstr;
  sim::NetworkService network;
  net::HopDistanceProvider distance;
  mapreduce::Engine engine;
  int counter = 0;
};

}  // namespace mrs::testing
