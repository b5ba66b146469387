// Golden-output gate for the four observer files: the CSV execution trace,
// the telemetry JSONL, the Perfetto/Chrome trace and the causal-trace
// JSONL. One fixed small config exercises every lifecycle path (hetero
// classes, node failures with speculation, link cuts with the stall
// watchdog and blacklisting, admission deferrals and rejections), and each
// file is pinned by an FNV-64 digest. Host-time lines (telemetry timers,
// Perfetto "wall" slices) vary per run and are dropped before hashing.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "mrs/common/csv.hpp"
#include "mrs/driver/experiment.hpp"

namespace mrs::driver {
namespace {

ExperimentConfig golden_config(const std::string& dir) {
  using mapreduce::JobKind;
  ExperimentConfig cfg;
  cfg.nodes = 12;
  cfg.racks = 3;
  cfg.seed = 11;
  cfg.hetero.classes = {{"big", 1.0, 2.0, 4, 2},
                        {"small", 1.0, 0.5, 2, 1}};
  cfg.failures.cluster_mtbf = 60.0;
  cfg.failures.repair_time = 60.0;
  cfg.engine.fault.straggler_probability = 0.15;
  cfg.engine.fault.speculative_execution = true;
  cfg.engine.max_task_attempts = 4;
  cfg.net_faults.link_mtbf = 120.0;
  cfg.net_faults.link_repair_time = 90.0;
  cfg.engine.stall_timeout = 10.0;
  cfg.engine.stall_backoff_base = 2.0;
  cfg.engine.stall_backoff_cap = 16.0;
  cfg.engine.blacklist.enabled = true;
  cfg.engine.blacklist.failure_threshold = 2;
  cfg.engine.blacklist.probation = 30.0;
  cfg.admission.policy = control::AdmissionPolicyKind::kStaticThreshold;
  cfg.admission.max_jobs_in_system = 3.0;
  cfg.admission.deferral.max_deferrals = 2;
  cfg.admission.deferral.initial_backoff = 20.0;
  for (int i = 0; i < 10; ++i) {
    const JobKind kind = i % 3 == 0   ? JobKind::kWordcount
                         : i % 3 == 1 ? JobKind::kTerasort
                                      : JobKind::kGrep;
    cfg.jobs.push_back({std::to_string(i), "job" + std::to_string(i), kind,
                        1.0, static_cast<std::size_t>(8 + i),
                        static_cast<std::size_t>(2 + i % 3)});
    cfg.submit_times.push_back(15.0 * i);
  }
  cfg.sample_period = 30.0;
  cfg.trace_path = dir + "/golden.trace.csv";
  cfg.telemetry_path = dir + "/golden.telemetry.jsonl";
  cfg.perfetto_path = dir + "/golden.perfetto.json";
  cfg.causal_trace_path = dir + "/golden.causal.jsonl";
  return cfg;
}

/// FNV-1a 64 over every line of `path` that contains no `drop` marker.
std::uint64_t digest(const std::string& path, const char* drop) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::string line;
  while (std::getline(in, line)) {
    if (drop != nullptr && line.find(drop) != std::string::npos) continue;
    line += '\n';
    for (const unsigned char c : line) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

TEST(GoldenOutput, ObserverFilesMatchPinnedDigests) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pnats_golden_output")
          .string();
  std::filesystem::create_directories(dir);
  const ExperimentConfig cfg = golden_config(dir);
  const ExperimentResult result = run_experiment(cfg);
  ASSERT_TRUE(result.completed);

  // The config must keep reaching every lifecycle path it exists to pin.
  std::map<std::string, std::size_t> kinds;
  {
    std::ifstream in(cfg.trace_path);
    CsvReader reader(in);
    std::vector<std::string> f;
    ASSERT_TRUE(reader.row(f));
    while (reader.row(f)) ++kinds[f.at(1)];
  }
  for (const char* kind :
       {"job-activated", "job-finished", "job-deferred", "job-rejected",
        "job-aborted",
        "map-assigned", "map-finished", "map-killed", "reduce-assigned",
        "reduce-finished", "reduce-killed", "speculative-launch",
        "node-failed", "node-recovered", "node-blacklisted",
        "node-unblacklisted", "stall-timeout"}) {
    EXPECT_GT(kinds[kind], 0u) << kind;
  }

  const std::uint64_t csv = digest(cfg.trace_path, nullptr);
  const std::uint64_t telemetry =
      digest(cfg.telemetry_path, "\"type\":\"timer\"");
  const std::uint64_t perfetto = digest(cfg.perfetto_path, "\"cat\":\"wall\"");
  const std::uint64_t causal = digest(cfg.causal_trace_path, nullptr);
  std::printf("csv=0x%016llxULL telemetry=0x%016llxULL\n"
              "perfetto=0x%016llxULL causal=0x%016llxULL\n",
              static_cast<unsigned long long>(csv),
              static_cast<unsigned long long>(telemetry),
              static_cast<unsigned long long>(perfetto),
              static_cast<unsigned long long>(causal));
  EXPECT_EQ(csv, 0x42aa55df7d369fd4ULL);
  EXPECT_EQ(telemetry, 0x203f69e1ded9dd93ULL);
  EXPECT_EQ(perfetto, 0x5d0b55e85c158b8cULL);
  EXPECT_EQ(causal, 0xd9233d40d4380dd0ULL);
  if (!HasFailure()) std::filesystem::remove_all(dir);
}

TEST(GoldenOutput, PerClassFinishesNeverExceedAssignments) {
  // A speculative backup that wins counts as a finish on the backup node's
  // class, so its launch must count as an assignment there.
  ExperimentConfig cfg = golden_config("");
  cfg.trace_path.clear();
  cfg.telemetry_path.clear();
  cfg.perfetto_path.clear();
  cfg.causal_trace_path.clear();
  const telemetry::Snapshot tel = run_experiment(cfg).telemetry;
  ASSERT_GT(tel.counter("engine.speculative_launches"), 0u);
  for (const std::string cls : {"big", "small"}) {
    for (const std::string task : {"maps", "reduces"}) {
      const std::string prefix = "hetero.class." + cls + "." + task;
      const std::uint64_t finished = tel.counter(prefix + "_finished");
      EXPECT_GT(finished, 0u) << prefix;
      EXPECT_LE(finished, tel.counter(prefix + "_assigned")) << prefix;
    }
  }
}

}  // namespace
}  // namespace mrs::driver
