// Randomized differential tests for the flow solver: the incremental
// component-local path, the retained naive full-scan reference
// (set_naive_flow_solver), and the deterministic parallel component sweep
// (set_flow_solver_threads) must agree byte-for-byte — on every flow's rate,
// remaining bytes, stall flag, completion order, and every maintained
// per-link rate aggregate — across thousands of interleaved start / cancel /
// advance / resample / fault events on fat-trees from k=4 up to the 1k-host
// k=16 case. The FlowLazySolve cases pin the one-solve-per-instant
// contract against an eager twin.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mrs/common/rng.hpp"
#include "mrs/net/flow.hpp"
#include "mrs/net/link_condition.hpp"
#include "mrs/net/topology.hpp"

namespace mrs::net {
namespace {

constexpr double kGb = 1e9 / 8.0;

struct DifferentialOptions {
  std::size_t events = 1000;
  bool with_condition = false;  ///< background-traffic resamples (epochs)
  bool with_faults = false;     ///< random link cuts/repairs
  bool with_switch_faults = false;  ///< correlated whole-switch cuts/repairs
  std::size_t max_live = 200;   ///< force drains past this backlog
};

class Differential {
 public:
  Differential(const Topology* topo, std::uint64_t seed,
               const DifferentialOptions& opt)
      : topo_(topo), opt_(opt), rng_(seed) {
    for (std::size_t v = 0; v < topo_->vertex_count(); ++v) {
      if (topo_->vertex(v).kind == VertexKind::kSwitch) {
        switch_vertices_.push_back(v);
      }
    }
    BackgroundTrafficConfig bg;
    if (opt_.with_condition) {
      bg.mean_utilization = 0.3;
      bg.burst_utilization = 0.4;
      bg.burst_probability = 0.1;
      bg.resample_interval = 3.0;
    }
    for (std::size_t m = 0; m < 3; ++m) {
      // Each model gets its own condition model seeded identically, so all
      // three observe the same capacity series without sharing state.
      conds_.push_back(opt_.with_condition
                           ? std::make_unique<LinkConditionModel>(
                                 topo_, bg, Rng(seed * 7 + 1))
                           : nullptr);
      models_.push_back(
          std::make_unique<FlowModel>(topo_, conds_[m].get()));
    }
    models_[1]->set_naive_flow_solver(true);
    models_[2]->set_flow_solver_threads(4);
  }

  void run() {
    for (std::size_t e = 0; e < opt_.events; ++e) {
      step();
      compare_models();
      if (e % 64 == 0) compare_link_loads();
      ASSERT_FALSE(::testing::Test::HasFatalFailure() ||
                   ::testing::Test::HasNonfatalFailure())
          << "solver divergence at event " << e;
    }
  }

 private:
  void advance_conditions(Seconds t) {
    for (auto& cond : conds_) {
      if (cond) cond->advance_to(t);
    }
  }

  void step() {
    const double roll = rng_.uniform(0.0, 1.0);
    if (live_.empty()) {
      start_flow();
    } else if (live_.size() >= opt_.max_live || (roll >= 0.45 && roll < 0.8)) {
      run_to_next_completion();
    } else if (roll < 0.45) {
      start_flow();
    } else if (roll < 0.93) {
      cancel_flow();
    } else if (opt_.with_faults && roll < 0.97) {
      toggle_fault();
    } else if (opt_.with_switch_faults && roll < 0.985) {
      toggle_switch_fault();
    } else {
      for (auto& fm : models_) fm->recompute_rates();
    }
  }

  void start_flow() {
    now_ += rng_.uniform(0.0, 0.05);
    advance_conditions(now_);
    const NodeId src(rng_.index(topo_->host_count()));
    NodeId dst(rng_.index(topo_->host_count()));
    if (dst == src) dst = NodeId((src.value() + 1) % topo_->host_count());
    const Bytes size = rng_.uniform(0.01, 1.0) * kGb;
    const BytesPerSec cap =
        rng_.bernoulli(0.3) ? rng_.uniform(0.02, 0.6) * kGb : 1e18;
    FlowId id{};
    for (std::size_t m = 0; m < 3; ++m) {
      const FlowId got = models_[m]->start(src, dst, size, now_, cap);
      if (m == 0) {
        id = got;
      } else {
        ASSERT_EQ(got.value(), id.value());
      }
    }
    live_.push_back(id);
    collect_all();
  }

  void cancel_flow() {
    const std::size_t pick = rng_.index(live_.size());
    const FlowId id = live_[pick];
    live_[pick] = live_.back();
    live_.pop_back();
    now_ += rng_.uniform(0.0, 0.02);
    advance_conditions(now_);
    for (auto& fm : models_) fm->cancel(id, now_);
    collect_all();
  }

  void run_to_next_completion() {
    const auto next = models_[0]->next_completion();
    for (std::size_t m = 1; m < 3; ++m) {
      const auto other = models_[m]->next_completion();
      ASSERT_EQ(other.has_value(), next.has_value());
      if (next) {
        ASSERT_EQ(other->first, next->first);  // bitwise-equal ETA
        ASSERT_EQ(other->second.value(), next->second.value());
      }
    }
    // All live flows may be stalled on cut links (no ETA): idle forward.
    now_ = next ? std::max(now_, next->first) + 1e-9 : now_ + 1.0;
    advance_conditions(now_);
    for (auto& fm : models_) fm->advance_to(now_);
    collect_all();
  }

  void toggle_fault() {
    const LinkId link(rng_.index(topo_->link_count()));
    const bool cut = !conds_[0]->link_faulted(link);
    for (auto& cond : conds_) cond->set_link_fault(link, cut);
    // Half the time rates are re-solved immediately (the NetworkService
    // pattern); otherwise the epoch tracker must catch the change at the
    // next flow event on its own.
    if (rng_.bernoulli(0.5)) {
      for (auto& fm : models_) fm->recompute_rates();
    }
  }

  void toggle_switch_fault() {
    // Correlated whole-switch event, mirroring NetworkFaultInjector: set
    // EVERY link adjacent to a sampled switch to the new state in one
    // batch, regardless of each link's prior state (some may already be
    // down from single-link cuts), then re-solve once. The incremental
    // solver must absorb the multi-link epoch bump exactly like the naive
    // full scan does.
    const std::size_t v =
        switch_vertices_[rng_.index(switch_vertices_.size())];
    const bool cut = rng_.bernoulli(0.5);
    for (const auto& adj : topo_->neighbors(v)) {
      for (auto& cond : conds_) cond->set_link_fault(adj.link, cut);
    }
    if (rng_.bernoulli(0.5)) {
      for (auto& fm : models_) fm->recompute_rates();
    }
  }

  void collect_all() {
    const std::vector<FlowId> done = models_[0]->collect_completed();
    for (std::size_t m = 1; m < 3; ++m) {
      const std::vector<FlowId> other = models_[m]->collect_completed();
      ASSERT_EQ(other.size(), done.size());
      for (std::size_t j = 0; j < done.size(); ++j) {
        ASSERT_EQ(other[j].value(), done[j].value());  // identical order
      }
    }
    for (const FlowId id : done) {
      for (std::size_t j = 0; j < live_.size(); ++j) {
        if (live_[j] == id) {
          live_[j] = live_.back();
          live_.pop_back();
          break;
        }
      }
    }
  }

  void compare_models() {
    ASSERT_EQ(models_[1]->active_count(), models_[0]->active_count());
    ASSERT_EQ(models_[2]->active_count(), models_[0]->active_count());
    ASSERT_EQ(models_[1]->stalled_count(), models_[0]->stalled_count());
    ASSERT_EQ(models_[2]->stalled_count(), models_[0]->stalled_count());
    for (const FlowId id : live_) {
      const FlowInfo& a = models_[0]->info(id);
      for (std::size_t m = 1; m < 3; ++m) {
        const FlowInfo& b = models_[m]->info(id);
        // EXPECT_EQ on doubles is exact equality: byte-identity, not an
        // epsilon comparison.
        ASSERT_EQ(b.rate, a.rate) << "flow " << id.value() << " model " << m;
        ASSERT_EQ(b.remaining, a.remaining) << "flow " << id.value();
        ASSERT_EQ(b.stalled, a.stalled) << "flow " << id.value();
        ASSERT_EQ(b.active, a.active) << "flow " << id.value();
      }
    }
  }

  void compare_link_loads() {
    for (std::size_t d = 0; d < topo_->link_count() * 2; ++d) {
      const BytesPerSec load = models_[0]->directed_link_load(d);
      ASSERT_EQ(models_[1]->directed_link_load(d), load) << "link " << d;
      ASSERT_EQ(models_[2]->directed_link_load(d), load) << "link " << d;
      ASSERT_EQ(models_[1]->flows_on(d), models_[0]->flows_on(d));
      ASSERT_EQ(models_[2]->flows_on(d), models_[0]->flows_on(d));
    }
  }

  const Topology* topo_;
  DifferentialOptions opt_;
  Rng rng_;
  Seconds now_ = 0.0;
  std::vector<std::unique_ptr<LinkConditionModel>> conds_;
  std::vector<std::unique_ptr<FlowModel>> models_;
  std::vector<FlowId> live_;
  std::vector<std::size_t> switch_vertices_;
};

class FlowDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowDifferential, CleanFatTreeK4) {
  const Topology topo = make_fat_tree({4, units::Gbps(1)});
  DifferentialOptions opt;
  opt.events = 2500;
  Differential(&topo, GetParam(), opt).run();
}

TEST_P(FlowDifferential, CleanFatTreeK8) {
  const Topology topo = make_fat_tree({8, units::Gbps(1)});
  DifferentialOptions opt;
  opt.events = 1200;
  Differential(&topo, GetParam(), opt).run();
}

TEST_P(FlowDifferential, BackgroundTrafficFatTreeK4) {
  const Topology topo = make_fat_tree({4, units::Gbps(1)});
  DifferentialOptions opt;
  opt.events = 1500;
  opt.with_condition = true;
  Differential(&topo, GetParam(), opt).run();
}

TEST_P(FlowDifferential, FaultsFatTreeK4) {
  const Topology topo = make_fat_tree({4, units::Gbps(1)});
  DifferentialOptions opt;
  opt.events = 1500;
  opt.with_condition = true;
  opt.with_faults = true;
  Differential(&topo, GetParam(), opt).run();
}

TEST_P(FlowDifferential, FaultsFatTreeK8) {
  const Topology topo = make_fat_tree({8, units::Gbps(1)});
  DifferentialOptions opt;
  opt.events = 800;
  opt.with_condition = true;
  opt.with_faults = true;
  Differential(&topo, GetParam(), opt).run();
}

TEST_P(FlowDifferential, SwitchFaultsFatTreeK4) {
  // Correlated switch-level cuts layered over single-link cuts: the batch
  // multi-link state flips are the fault pattern NetworkFaultInjector
  // produces, and the three solvers must stay byte-identical through them.
  const Topology topo = make_fat_tree({4, units::Gbps(1)});
  DifferentialOptions opt;
  opt.events = 1500;
  opt.with_condition = true;
  opt.with_faults = true;
  opt.with_switch_faults = true;
  Differential(&topo, GetParam(), opt).run();
}

TEST_P(FlowDifferential, SwitchFaultsFatTreeK8) {
  const Topology topo = make_fat_tree({8, units::Gbps(1)});
  DifferentialOptions opt;
  opt.events = 800;
  opt.with_condition = true;
  opt.with_faults = true;
  opt.with_switch_faults = true;
  Differential(&topo, GetParam(), opt).run();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowDifferential, ::testing::Values(1, 2, 7));

// Lazy solving: every change of one instant waits for one solve at the
// first rate query. A twin that runs a settling query after each mutation
// reproduces the eager solver; the two must agree bit for bit.
void expect_same_bits(const Topology& topo, const FlowModel& lazy,
                      const FlowModel& eager, std::size_t flows) {
  ASSERT_EQ(lazy.stalled_count(), eager.stalled_count());
  for (std::size_t i = 0; i < flows; ++i) {
    const FlowInfo& a = eager.info(FlowId(i));
    const FlowInfo& b = lazy.info(FlowId(i));
    ASSERT_EQ(b.rate, a.rate) << "flow " << i;
    ASSERT_EQ(b.remaining, a.remaining) << "flow " << i;
    ASSERT_EQ(b.stalled, a.stalled) << "flow " << i;
    ASSERT_EQ(b.active, a.active) << "flow " << i;
  }
  for (std::size_t d = 0; d < topo.link_count() * 2; ++d) {
    ASSERT_EQ(lazy.directed_link_load(d), eager.directed_link_load(d))
        << "link " << d;
  }
}

TEST(FlowLazySolve, ManyChangesAtOneInstantSolveOnce) {
  const Topology topo = make_fat_tree({4, units::Gbps(1)});
  FlowModel lazy(&topo);
  FlowModel eager(&topo);
  Rng rng(5);
  std::vector<FlowId> live;
  std::size_t created = 0;
  Seconds now = 0.0;
  for (int instant = 0; instant < 300; ++instant) {
    // Half the instants land just past the next completion, so
    // completions, starts and cancels share one instant.
    const auto next = eager.next_completion();
    now = next && rng.bernoulli(0.5) ? std::max(now, next->first) + 1e-9
                                     : now + rng.uniform(0.001, 0.05);
    lazy.advance_to(now);
    eager.advance_to(now);
    (void)eager.next_completion();
    const std::vector<FlowId> done = lazy.collect_completed();
    const std::vector<FlowId> eager_done = eager.collect_completed();
    ASSERT_EQ(done.size(), eager_done.size());
    for (std::size_t j = 0; j < done.size(); ++j) {
      ASSERT_EQ(done[j].value(), eager_done[j].value());
      std::erase(live, done[j]);
    }
    const std::uint64_t solves_before = lazy.solve_count();
    const std::size_t ops = 1 + rng.index(8);
    for (std::size_t op = 0; op < ops; ++op) {
      if (live.empty() || rng.bernoulli(0.6)) {
        const NodeId src(rng.index(topo.host_count()));
        const NodeId dst((src.value() + 1 + rng.index(topo.host_count() - 1)) %
                         topo.host_count());
        const Bytes size = rng.uniform(0.01, 0.5) * kGb;
        const BytesPerSec cap =
            rng.bernoulli(0.3) ? rng.uniform(0.02, 0.6) * kGb : 1e18;
        live.push_back(lazy.start(src, dst, size, now, cap));
        eager.start(src, dst, size, now, cap);
        ++created;
      } else {
        const std::size_t pick = rng.index(live.size());
        lazy.cancel(live[pick], now);
        eager.cancel(live[pick], now);
        live[pick] = live.back();
        live.pop_back();
      }
      (void)eager.next_completion();  // the eager twin settles every change
    }
    ASSERT_EQ(lazy.solve_count(), solves_before) << "solved before a query";
    expect_same_bits(topo, lazy, eager, created);
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "instant " << instant;
    ASSERT_EQ(lazy.solve_count(),
              solves_before + (lazy.active_count() > 0 ? 1u : 0u));
  }
  EXPECT_EQ(lazy.change_count(), eager.change_count());
  EXPECT_LT(lazy.solve_count() * 2, eager.solve_count());
}

TEST(FlowLazySolve, PendingChangesSettleBeforeCapacityChanges) {
  // A start left pending when the condition model resamples, cuts a link
  // or surges one must be solved with the capacities in effect when it
  // started, exactly as the eager solver did.
  const Topology topo = make_fat_tree({4, units::Gbps(1)});
  BackgroundTrafficConfig bg;
  bg.mean_utilization = 0.3;
  bg.burst_utilization = 0.4;
  bg.burst_probability = 0.2;
  bg.resample_interval = 30.0;
  bg.uplinks_only = false;
  LinkConditionModel lazy_cond(&topo, bg, Rng(9));
  LinkConditionModel eager_cond(&topo, bg, Rng(9));
  FlowModel lazy(&topo, &lazy_cond);
  FlowModel eager(&topo, &eager_cond);
  Rng rng(3);
  std::size_t created = 0;
  // Starts one flow in both models and returns its first link.
  auto start_both = [&](Seconds t) {
    const NodeId src(rng.index(topo.host_count()));
    const NodeId dst((src.value() + 1 + rng.index(topo.host_count() - 1)) %
                     topo.host_count());
    const Bytes size = rng.uniform(1.0, 4.0) * kGb;
    lazy.start(src, dst, size, t);
    eager.start(src, dst, size, t);
    (void)eager.next_completion();
    ++created;
    return topo.path(src, dst)[0].link;
  };
  for (int i = 0; i < 12; ++i) start_both(0.0);
  expect_same_bits(topo, lazy, eager, created);

  // Resample: the condition model crosses its 30 s grid point at the
  // instant of the pending start (a heartbeat's distance query does this).
  start_both(30.0);
  lazy_cond.advance_to(30.0);
  eager_cond.advance_to(30.0);
  expect_same_bits(topo, lazy, eager, created);

  // Fault toggle on the pending flow's first hop.
  const LinkId cut = start_both(31.0);
  lazy_cond.set_link_fault(cut, true);
  eager_cond.set_link_fault(cut, true);
  expect_same_bits(topo, lazy, eager, created);

  // Surge on the pending flow's first hop.
  const LinkId surged = start_both(32.0);
  lazy_cond.add_link_surge(surged, 0.5);
  eager_cond.add_link_surge(surged, 0.5);
  expect_same_bits(topo, lazy, eager, created);

  // Re-solving under the new capacities and draining stays identical too.
  lazy.recompute_rates();
  eager.recompute_rates();
  lazy_cond.set_link_fault(cut, false);
  eager_cond.set_link_fault(cut, false);
  lazy.recompute_rates();
  eager.recompute_rates();
  while (eager.active_count() > 0) {
    const auto next = eager.next_completion();
    ASSERT_TRUE(next.has_value());
    const Seconds t = std::max(next->first, eager.now()) + 1e-9;
    lazy.advance_to(t);
    eager.advance_to(t);
    const std::vector<FlowId> done = lazy.collect_completed();
    const std::vector<FlowId> eager_done = eager.collect_completed();
    ASSERT_EQ(done.size(), eager_done.size());
    for (std::size_t j = 0; j < done.size(); ++j) {
      ASSERT_EQ(done[j].value(), eager_done[j].value());
    }
    (void)eager.next_completion();
    expect_same_bits(topo, lazy, eager, created);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
}

// The 1k-host case: one seed, fewer events (the naive reference scans all
// 6144 directed links per filling round, so this is the expensive one).
TEST(FlowDifferentialLarge, CleanFatTreeK16) {
  const Topology topo = make_fat_tree({16, units::Gbps(1)});
  DifferentialOptions opt;
  opt.events = 250;
  Differential(&topo, 11, opt).run();
}

}  // namespace
}  // namespace mrs::net
