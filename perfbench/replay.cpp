#include <algorithm>
#include <chrono>
#include <deque>
#include <limits>
#include <map>
#include <stdexcept>

#include "mrs/net/flow.hpp"
#include "perfbench.hpp"

namespace perfbench {

using mrs::NodeId;
using mrs::mapreduce::Locality;

std::vector<Transfer> rebuild_transfers(const mrs::driver::ExperimentResult& r,
                                        const mrs::net::Topology& topo) {
  const std::size_t hosts = topo.host_count();
  std::vector<Transfer> out;
  std::size_t group = 0;
  // job -> source node -> (maps on it, last finish time)
  std::map<std::size_t, std::map<std::size_t, std::pair<std::size_t, double>>>
      maps_of;
  std::map<std::size_t, std::size_t> map_count;
  for (const auto& t : r.task_records) {
    if (!t.is_map) continue;
    auto& [n, last] = maps_of[t.job.value()][t.node.value()];
    ++n;
    last = std::max(last, t.finished_at);
    ++map_count[t.job.value()];
    if (t.network_bytes <= 0.0 || t.locality == Locality::kNodeLocal) {
      continue;
    }
    // Holder: the first host after a per-task offset whose rack relation
    // to the reader matches the recorded locality.
    const bool same_rack = t.locality == Locality::kRackLocal;
    const std::size_t offset =
        (t.job.value() * 7919 + t.index * 104729) % hosts;
    for (std::size_t k = 0; k < hosts; ++k) {
      const NodeId src((offset + k) % hosts);
      if (src == t.node || topo.same_rack(src, t.node) != same_rack) {
        continue;
      }
      out.push_back({t.assigned_at, src, t.node, t.network_bytes, group++});
      break;
    }
  }
  for (const auto& t : r.task_records) {
    if (t.is_map || t.network_bytes <= 0.0) continue;
    const auto it = maps_of.find(t.job.value());
    if (it == maps_of.end()) continue;
    const std::size_t remote =
        map_count[t.job.value()] -
        (it->second.count(t.node.value()) ? it->second.at(t.node.value()).first
                                          : 0);
    if (remote == 0) continue;
    const double per_map = t.network_bytes / static_cast<double>(remote);
    for (const auto& [node, maps] : it->second) {
      if (node == t.node.value()) continue;
      out.push_back({std::max(t.assigned_at, maps.second), NodeId(node),
                     t.node, per_map * static_cast<double>(maps.first),
                     group});
    }
    ++group;
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Transfer& a, const Transfer& b) {
                     return a.ready < b.ready;
                   });
  return out;
}

ReplayStats replay_flows(const std::vector<Transfer>& transfers,
                         const mrs::net::Topology& topo, bool naive_solver,
                         std::size_t fetchers) {
  constexpr double kNever = std::numeric_limits<double>::infinity();
  if (fetchers == 0) throw std::invalid_argument("replay needs a fetcher");
  ReplayStats st;
  st.transfers = transfers.size();
  st.completion_order.reserve(transfers.size());
  const auto t0 = std::chrono::steady_clock::now();

  mrs::net::FlowModel model(&topo);
  model.set_naive_flow_solver(naive_solver);
  double active_sum = 0.0;
  double last_instant = -kNever;
  auto change_at = [&](double t) {
    ++st.changes;
    active_sum += static_cast<double>(model.active_count());
    if (t != last_instant) {
      ++st.instants;
      last_instant = t;
    }
  };

  // Per group: transfers in flight and ready ones waiting for a fetcher.
  std::map<std::size_t, std::pair<std::size_t, std::deque<std::size_t>>>
      groups;
  std::vector<std::size_t> group_of_flow;  // flow id -> group
  auto start = [&](std::size_t i) {
    const Transfer& x = transfers[i];
    const mrs::FlowId id = model.start(x.src, x.dst, x.bytes, model.now());
    if (group_of_flow.size() <= id.value()) {
      group_of_flow.resize(id.value() + 1);
    }
    group_of_flow[id.value()] = x.group;
    ++groups[x.group].first;
    change_at(model.now());
  };

  std::size_t next = 0;
  while (next < transfers.size() || model.active_count() > 0) {
    const double t_ready =
        next < transfers.size() ? transfers[next].ready : kNever;
    const auto done = model.next_completion();
    const double t = std::min(t_ready, done ? done->first : kNever);
    if (t == kNever) throw std::runtime_error("flow replay cannot drain");
    model.advance_to(std::max(t, model.now()));
    for (mrs::FlowId id : model.collect_completed()) {
      st.completion_order.push_back(id.value());
      change_at(model.now());
      auto& [active, waiting] = groups[group_of_flow[id.value()]];
      --active;
      if (!waiting.empty()) {
        const std::size_t i = waiting.front();
        waiting.pop_front();
        start(i);
      }
    }
    for (; next < transfers.size() && transfers[next].ready <= model.now();
         ++next) {
      auto& [active, waiting] = groups[transfers[next].group];
      if (active < fetchers) {
        start(next);
      } else {
        waiting.push_back(next);
      }
    }
  }
  if (st.completion_order.size() != transfers.size()) {
    throw std::runtime_error("flow replay lost transfers");
  }
  st.host_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
  st.active_flows_mean =
      st.changes > 0 ? active_sum / static_cast<double>(st.changes) : 0.0;
  return st;
}

}  // namespace perfbench
