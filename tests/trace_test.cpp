// Tests for the engine's lifecycle stream and the CSV execution trace.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "mrs/common/csv.hpp"
#include "mrs/mapreduce/lifecycle.hpp"
#include "mrs/sched/fifo.hpp"
#include "test_harness.hpp"

namespace mrs::mapreduce {
namespace {

using mrs::testing::LifecycleLog;
using mrs::testing::MiniCluster;

TEST(Trace, EngineEmitsLifecycleEvents) {
  MiniCluster h(4);
  JobRun& job = h.submit_job(6, 3);
  LifecycleLog log;
  h.engine.add_observer(&log);
  sched::FifoScheduler fifo;
  h.run(fifo);
  ASSERT_TRUE(h.engine.all_jobs_complete());

  EXPECT_EQ(log.count(LifecycleKind::kJobActivated), 1u);
  EXPECT_EQ(log.count(LifecycleKind::kJobFinished), 1u);
  EXPECT_EQ(log.count(LifecycleKind::kMapAssigned), job.map_count());
  EXPECT_EQ(log.count(LifecycleKind::kMapRunning), job.map_count());
  EXPECT_EQ(log.count(LifecycleKind::kMapFinished), job.map_count());
  EXPECT_EQ(log.count(LifecycleKind::kReduceAssigned), job.reduce_count());
  EXPECT_EQ(log.count(LifecycleKind::kReduceShuffling), job.reduce_count());
  EXPECT_EQ(log.count(LifecycleKind::kReduceShuffleDone),
            job.reduce_count());
  EXPECT_EQ(log.count(LifecycleKind::kReduceFinished), job.reduce_count());
  EXPECT_EQ(log.count(LifecycleKind::kMapKilled), 0u);
  EXPECT_EQ(log.count(LifecycleKind::kNodeFailed), 0u);
}

TEST(Trace, EventsAreTimeOrdered) {
  MiniCluster h(3);
  h.submit_job(8, 2);
  LifecycleLog log;
  h.engine.add_observer(&log);
  sched::FifoScheduler fifo;
  h.run(fifo);
  const auto& events = log.events;
  ASSERT_FALSE(events.empty());
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].time, events[i - 1].time);
  }
  // First event is the job activation, last its completion.
  EXPECT_EQ(events.front().kind, LifecycleKind::kJobActivated);
  EXPECT_EQ(events.back().kind, LifecycleKind::kJobFinished);
}

TEST(Trace, SubjectsNameJobAndTask) {
  MiniCluster h(3);
  h.submit_job(2, 1);
  LifecycleLog log;
  h.engine.add_observer(&log);
  sched::FifoScheduler fifo;
  h.run(fifo);
  bool saw_map = false;
  for (const auto& e : log.events) {
    if (e.kind == LifecycleKind::kMapAssigned) {
      EXPECT_NE(format_subject(e).find("job0/map/"), std::string::npos);
      const std::string detail = format_detail(e);
      EXPECT_NE(detail.find("node="), std::string::npos);
      EXPECT_NE(detail.find("locality="), std::string::npos);
      saw_map = true;
    }
  }
  EXPECT_TRUE(saw_map);
}

TEST(Trace, FailureEventsRecorded) {
  MiniCluster h(4);
  h.submit_job(10, 2);
  LifecycleLog log;
  h.engine.add_observer(&log);
  sched::FifoScheduler fifo;
  h.engine.set_scheduler(&fifo);
  h.engine.start();
  h.sim.schedule_at(2.0, [&] { h.engine.fail_node(NodeId(0)); });
  h.sim.schedule_at(30.0, [&] { h.engine.recover_node(NodeId(0)); });
  h.sim.run(1e6);
  EXPECT_EQ(log.count(LifecycleKind::kNodeFailed), 1u);
  EXPECT_EQ(log.count(LifecycleKind::kNodeRecovered), 1u);
  EXPECT_GT(log.count(LifecycleKind::kMapKilled) +
                log.count(LifecycleKind::kReduceKilled),
            0u);
}

TEST(Trace, CsvSinkWritesRows) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "pnats_trace_test.csv")
          .string();
  {
    MiniCluster h(3);
    h.submit_job(3, 1);
    CsvTraceObserver csv(path);
    h.engine.add_observer(&csv);
    sched::FifoScheduler fifo;
    h.run(fifo);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "time,kind,subject,detail");
  std::size_t rows = 0;
  bool saw_finished = false;
  while (std::getline(in, line)) {
    ++rows;
    if (line.find("job-finished") != std::string::npos) saw_finished = true;
    // Phase boundaries feed the span recorder only.
    EXPECT_EQ(line.find("map-running"), std::string::npos);
    EXPECT_EQ(line.find("reduce-shuffl"), std::string::npos);
  }
  // activation + (assigned, finished) per task + finish.
  EXPECT_EQ(rows, 1u + 2u * (3u + 1u) + 1u);
  EXPECT_TRUE(saw_finished);
  std::remove(path.c_str());
}

// The CSV trace must survive hostile job names: commas, quotes and
// embedded newlines have to come back byte-identical through CsvReader.
TEST(Trace, CsvDetailRoundTripsThroughReader) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "pnats_trace_roundtrip.csv")
          .string();
  JobSpec spec;
  spec.name = "job \"A\", the first\nof two";
  const std::vector<LifecycleEvent> events = {
      {.time = 1.5, .kind = LifecycleKind::kMapAssigned, .job = &spec,
       .task = 0, .is_map = true, .node = NodeId(3),
       .locality = Locality::kNodeLocal},
      {.time = 2.25, .kind = LifecycleKind::kMapKilled, .job = &spec,
       .task = 0, .is_map = true},
      {.time = 3.0, .kind = LifecycleKind::kJobFinished, .job = &spec,
       .value = 3.0},
  };
  {
    CsvTraceObserver csv(path);
    for (const auto& e : events) csv.on_event(e);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  CsvReader reader(in);
  std::vector<std::string> f;
  ASSERT_TRUE(reader.row(f));
  EXPECT_EQ(f, (std::vector<std::string>{"time", "kind", "subject",
                                         "detail"}));
  for (const auto& e : events) {
    ASSERT_TRUE(reader.row(f));
    ASSERT_EQ(f.size(), 4u);
    EXPECT_DOUBLE_EQ(std::stod(f[0]), e.time);
    EXPECT_EQ(f[1], to_string(e.kind));
    EXPECT_EQ(f[2], format_subject(e));
    EXPECT_EQ(f[3], format_detail(e));
  }
  EXPECT_FALSE(reader.row(f));
  EXPECT_EQ(format_subject(events[0]), spec.name + "/map/0");
  EXPECT_EQ(format_detail(events[0]), "node=3 locality=node-local");
  EXPECT_EQ(format_detail(events[2]), "jct=3.000");
  std::remove(path.c_str());
}

TEST(Trace, TwoObserversSeeOneStream) {
  MiniCluster h(3);
  h.submit_job(4, 2);
  LifecycleLog a, b;
  h.engine.add_observer(&a);
  h.engine.add_observer(&b);
  sched::FifoScheduler fifo;
  h.run(fifo);
  ASSERT_FALSE(a.events.empty());
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].time, b.events[i].time);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(format_subject(a.events[i]), format_subject(b.events[i]));
    EXPECT_EQ(format_detail(a.events[i]), format_detail(b.events[i]));
  }
}

TEST(Trace, NoSinkNoCrash) {
  MiniCluster h(3);
  h.submit_job(4, 2);
  sched::FifoScheduler fifo;
  h.run(fifo);  // no observer attached: emission is a no-op
  EXPECT_TRUE(h.engine.all_jobs_complete());
}

}  // namespace
}  // namespace mrs::mapreduce
