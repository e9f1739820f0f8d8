// Campaign runner acceptance tests: train-once dedup, warm-cache reruns,
// and the headline property — a campaign killed mid-run resumes to
// bit-identical aggregates at any thread count.
#include "campaign/runner.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "campaign/artifact_cache.hpp"
#include "campaign/report.hpp"
#include "core/experiment.hpp"
#include "fault/fault_injector.hpp"
#include "obs/metrics.hpp"
#include "util/byte_format.hpp"
#include "util/thread_pool.hpp"

namespace solsched::campaign {
namespace {

// Axes shrunk to the test-helper grid scale: every shard is one day of
// 12 periods x 10 slots, the pipeline is two-epoch / six-bucket tiny.
const char* kSharedKnobs =
    "fault=blackout=2;schedulers=inter,proposed;periods=12;slots=10;days=1;"
    "train_days=1;n_caps=2;dp_buckets=6;pretrain_epochs=2;finetune_epochs=10";

CampaignSpec one_workload_spec() {
  return CampaignSpec::parse(
      "workloads=ecg;seeds=1..8;intensities=0,1;" + std::string(kSharedKnobs));
}

// 2 workloads x 16 seeds x 2 intensities = 64 scenarios.
CampaignSpec big_spec() {
  return CampaignSpec::parse("workloads=ecg,wam;seeds=1..16;intensities=0,1;" +
                             std::string(kSharedKnobs));
}

std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

class CampaignRunner : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::enabled();
    obs::set_enabled(true);
    obs::MetricsRegistry::global().reset();
  }
  void TearDown() override {
    util::ThreadPool::set_global_threads(
        util::ThreadPool::thread_count_from_env());
    obs::set_enabled(was_enabled_);
  }
  bool was_enabled_ = false;
};

TEST_F(CampaignRunner, SharedConfigGridTrainsExactlyOnce) {
  CampaignConfig config;
  config.spec = one_workload_spec();
  config.dir = fresh_dir("camp_train_once");
  const CampaignResult result = run_campaign(config);
  EXPECT_TRUE(result.finished);
  EXPECT_EQ(result.total_shards, 16u);
  EXPECT_EQ(result.executed, 16u);
  EXPECT_EQ(result.resumed, 0u);
  // All 16 scenarios share one offline config: exactly one training.
  EXPECT_EQ(result.trainings, 1u);
  EXPECT_EQ(result.artifact_disk_hits, 0u);
  const auto snap = obs::MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counter_or("campaign.train.runs"), 1);
  EXPECT_EQ(snap.counter_or("campaign.artifact_cache.disk_misses"), 1);
  EXPECT_EQ(snap.counter_or("campaign.shards.executed"), 16);
  EXPECT_EQ(snap.counter_or("campaign.journal.appends"), 16);
  ASSERT_EQ(result.records.size(), 16u);
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    EXPECT_EQ(result.records[i].shard, i);
    EXPECT_EQ(result.records[i].rows.size(), 2u);  // inter + proposed.
    EXPECT_FALSE(result.records[i].artifact_hit);
    EXPECT_NE(result.records[i].artifact_key, 0u);
    // Every shard carries the trained controller's predict_batch decision
    // fingerprint, identical across shards of the shared artifact.
    EXPECT_NE(result.records[i].controller_fingerprint, 0u);
    EXPECT_EQ(result.records[i].controller_fingerprint,
              result.records[0].controller_fingerprint);
  }
}

TEST_F(CampaignRunner, WarmCacheRunTrainsZeroTimes) {
  const std::string cache = fresh_dir("camp_warm_cache");
  CampaignConfig config;
  config.spec = one_workload_spec();
  config.dir = fresh_dir("camp_warm_a");
  config.cache_dir = cache;
  const CampaignResult cold = run_campaign(config);
  EXPECT_EQ(cold.trainings, 1u);

  obs::MetricsRegistry::global().reset();
  config.dir = fresh_dir("camp_warm_b");
  const CampaignResult warm = run_campaign(config);
  EXPECT_TRUE(warm.finished);
  EXPECT_EQ(warm.trainings, 0u);
  EXPECT_EQ(warm.artifact_disk_hits, 1u);
  EXPECT_EQ(warm.artifact_hits, warm.executed);
  const auto snap = obs::MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counter_or("campaign.train.runs"), 0);
  EXPECT_EQ(snap.counter_or("campaign.artifact_cache.disk_hits"), 1);
  EXPECT_EQ(snap.counter_or("campaign.artifact_cache.hits"), 16);
  // Cache-hit and train-then-reload controllers are the same artifact, so
  // the rows — and hence the aggregates — are bit-identical.
  EXPECT_EQ(aggregate_json(warm.records), aggregate_json(cold.records));
  // Same artifact → same predict_batch fingerprint, trained or reloaded.
  ASSERT_FALSE(warm.records.empty());
  EXPECT_NE(warm.records[0].controller_fingerprint, 0u);
  EXPECT_EQ(warm.records[0].controller_fingerprint,
            cold.records[0].controller_fingerprint);
}

// The ISSUE acceptance test: a >= 64-scenario campaign killed mid-run
// resumes to aggregates bit-identical to an uninterrupted run, verified at
// 1 and N threads (shared artifact cache keeps it one training per
// workload across all executions).
TEST_F(CampaignRunner, KilledCampaignResumesBitIdentical) {
  const std::string cache = fresh_dir("camp_kill_cache");
  const CampaignSpec spec = big_spec();
  ASSERT_GE(spec.expand().size(), 64u);

  // Reference: uninterrupted, fully serial.
  util::ThreadPool::set_global_threads(1);
  CampaignConfig config;
  config.spec = spec;
  config.cache_dir = cache;
  config.dir = fresh_dir("camp_kill_serial");
  const CampaignResult serial = run_campaign(config);
  ASSERT_TRUE(serial.finished);
  const std::string want = aggregate_json(serial.records);

  // Killed at ~17 completions under 4 threads, then resumed.
  util::ThreadPool::set_global_threads(4);
  config.dir = fresh_dir("camp_kill_resume");
  config.stop_after = 17;
  const CampaignResult stopped = run_campaign(config);
  EXPECT_FALSE(stopped.finished);
  EXPECT_GE(stopped.executed, 17u);
  EXPECT_LT(stopped.executed, 64u);
  config.stop_after = 0;
  const CampaignResult resumed = run_campaign(config);
  ASSERT_TRUE(resumed.finished);
  EXPECT_EQ(resumed.resumed, stopped.executed);
  EXPECT_EQ(resumed.executed + resumed.resumed, 64u);
  EXPECT_EQ(aggregate_json(resumed.records), want);

  // Uninterrupted at 4 threads agrees too.
  config.dir = fresh_dir("camp_kill_parallel");
  const CampaignResult parallel = run_campaign(config);
  ASSERT_TRUE(parallel.finished);
  EXPECT_EQ(aggregate_json(parallel.records), want);
  // One training per workload across every execution above.
  const auto snap = obs::MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counter_or("campaign.train.runs"), 2);
}

TEST_F(CampaignRunner, ResumeHealsCrashTornJournalTail) {
  const std::string cache = fresh_dir("camp_torn_cache");
  CampaignConfig config;
  config.spec = one_workload_spec();
  config.cache_dir = cache;
  config.dir = fresh_dir("camp_torn_ref");
  const std::string want = aggregate_json(run_campaign(config).records);

  config.dir = fresh_dir("camp_torn");
  config.stop_after = 5;
  run_campaign(config);
  // Simulate a kill mid-append: a partial record with no newline.
  std::ofstream(config.dir + "/journal.jsonl", std::ios::app)
      << "{\"shard\": 99, \"key\": \"to";
  config.stop_after = 0;
  const CampaignResult resumed = run_campaign(config);
  ASSERT_TRUE(resumed.finished);
  EXPECT_EQ(aggregate_json(resumed.records), want);
}

TEST_F(CampaignRunner, RefusesJournalOfDifferentSpec) {
  CampaignConfig config;
  config.spec = one_workload_spec();
  config.dir = fresh_dir("camp_mismatch");
  config.stop_after = 1;
  run_campaign(config);
  config.spec.seeds.push_back(99);  // Different grid, same directory.
  EXPECT_THROW(run_campaign(config), std::runtime_error);
}

TEST_F(CampaignRunner, NoProposedSchedulerSkipsTraining) {
  CampaignConfig config;
  config.spec = CampaignSpec::parse(
      "workloads=ecg;seeds=1..2;schedulers=inter,edf;periods=12;slots=10;"
      "days=1");
  config.dir = fresh_dir("camp_untrained");
  const CampaignResult result = run_campaign(config);
  EXPECT_TRUE(result.finished);
  EXPECT_EQ(result.trainings, 0u);
  const auto snap = obs::MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counter_or("campaign.train.runs"), 0);
  ASSERT_EQ(result.records.size(), 2u);
  for (const ShardRecord& rec : result.records) {
    EXPECT_EQ(rec.rows.size(), 2u);  // inter + edf, no pipeline involved.
    EXPECT_EQ(rec.artifact_key, 0u);
  }
}

TEST_F(CampaignRunner, RerunOfFinishedCampaignExecutesNothing) {
  CampaignConfig config;
  config.spec = one_workload_spec();
  config.dir = fresh_dir("camp_idem");
  const CampaignResult first = run_campaign(config);
  ASSERT_TRUE(first.finished);
  const CampaignResult again = run_campaign(config);
  EXPECT_TRUE(again.finished);
  EXPECT_EQ(again.executed, 0u);
  EXPECT_EQ(again.resumed, 16u);
  EXPECT_EQ(again.trainings, 0u);
  EXPECT_EQ(aggregate_json(again.records), aggregate_json(first.records));
}

// Golden pin for a fixed one-shard spec: the artifact-cache key (the entry's
// file name) and the controller's predict_batch fingerprint are on disk in
// every cache directory and journal, so a hash refactor must not move them.
TEST_F(CampaignRunner, ArtifactKeyAndControllerFingerprintArePinned) {
  CampaignConfig config;
  config.spec = CampaignSpec::parse("workloads=ecg;seeds=1;intensities=0;" +
                                    std::string(kSharedKnobs));
  config.dir = fresh_dir("camp_golden");
  config.cache_dir = fresh_dir("camp_golden_cache");
  const CampaignResult result = run_campaign(config);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].artifact_key, 0xf9ebf1a782f586edull);
  EXPECT_EQ(result.records[0].controller_fingerprint, 0x9f603f10d1fef136ull);
  // The whole serialized controller (bank, thresholds, normalizer, DBN
  // weights), not only the decisions the fingerprint probes.
  std::ifstream file(config.cache_dir + "/f9ebf1a782f586ed.controller");
  ASSERT_TRUE(file.good());
  std::ostringstream bytes;
  bytes << file.rdbuf();
  EXPECT_EQ(util::fnv1a(bytes.str()), 0x13452dd574d49289ull)
      << "0x" << std::hex << util::fnv1a(bytes.str());
}

// The Optimal row is planned once per (workload, seed) and replayed at each
// intensity: six traces, six DP runs at any thread count, and every record
// byte-identical to one built from a per-scenario run_comparison that plans
// for itself (the independent reference). A spec without "optimal" plans
// nothing.
TEST_F(CampaignRunner, PlansOncePerTrace) {
  const std::string tiny =
      "fault=blackout=3;periods=12;slots=10;days=1;train_days=1;n_caps=2;"
      "dp_buckets=6;pretrain_epochs=2;finetune_epochs=10";
  const std::string grid = "workloads=wam,ecg;seeds=1..3;intensities=0,0.5,1;";
  const std::string cache = fresh_dir("camp_plan_cache");
  // Train both controllers first: training runs a DP of its own.
  CampaignConfig warm;
  warm.spec = CampaignSpec::parse(grid + "schedulers=proposed;" + tiny);
  warm.dir = fresh_dir("camp_plan_warm");
  warm.cache_dir = cache;
  ASSERT_EQ(run_campaign(warm).trainings, 2u);

  const auto dp_runs = [&](const std::string& schedulers, std::size_t threads,
                           const char* dir) {
    util::ThreadPool::set_global_threads(threads);
    obs::MetricsRegistry::global().reset();
    CampaignConfig config;
    config.spec = CampaignSpec::parse(grid + "schedulers=" + schedulers + ";" +
                                      tiny);
    config.dir = fresh_dir(dir);
    config.cache_dir = cache;
    CampaignResult result = run_campaign(config);
    EXPECT_EQ(result.trainings, 0u);
    EXPECT_EQ(result.executed, 18u);
    return std::make_pair(
        obs::MetricsRegistry::global().snapshot().counter_or("sched.dp.runs"),
        std::move(result));
  };
  const std::string all_ten =
      "asap,edf,duty,inter,intra,proposed,optimal,ccedf,laedf,greedy";
  const auto [serial_runs, serial] = dp_runs(all_ten, 1, "camp_plan_1t");
  const auto [parallel_runs, parallel] = dp_runs(all_ten, 4, "camp_plan_4t");
  EXPECT_EQ(serial_runs, 6);
  EXPECT_EQ(parallel_runs, 6);
  EXPECT_EQ(dp_runs("inter,proposed", 4, "camp_plan_none").first, 0);
  util::ThreadPool::set_global_threads(1);

  const CampaignSpec spec =
      CampaignSpec::parse(grid + "schedulers=" + all_ten + ";" + tiny);
  const ArtifactCache artifacts(cache);
  nvp::NodeConfig node;
  node.grid = spec.grid(1);
  std::size_t power_failure_slots = 0;
  ASSERT_EQ(serial.records.size(), 18u);
  ASSERT_EQ(parallel.records.size(), 18u);
  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    const ShardRecord& record = serial.records[i];
    core::TrainedController trained;
    ASSERT_TRUE(artifacts.load(record.artifact_key, &trained));
    const solar::SolarTrace trace = spec.generator(record.seed).generate_days(
        spec.eval_days, spec.grid(1), spec.eval_day0);
    const fault::FaultInjector faults(
        spec.fault_plan().scaled(record.intensity), trace.grid());
    core::ComparisonConfig cmp;
    cmp.scheduler_ids = spec.schedulers;
    cmp.dp = core::PipelineConfig::default_dp();
    cmp.dp.energy_buckets = spec.dp_buckets;
    cmp.faults = &faults;

    ShardRecord expected = record;  // Scenario and artifact provenance.
    expected.rows.clear();
    for (const core::ComparisonRow& row : core::run_comparison(
             CampaignSpec::workload_graph(record.workload), trace, node,
             &trained, cmp)) {
      ShardRow out;
      out.algo = row.algo;
      out.dmr = row.dmr;
      out.energy_utilization = row.energy_utilization;
      out.migration_efficiency = row.migration_efficiency;
      out.brownouts = row.brownouts;
      out.solar_j = row.sim.total_solar_j();
      out.served_j = row.sim.total_served_j();
      out.loss_j = row.sim.total_loss_j();
      out.power_failure_slots = row.sim.total_power_failure_slots();
      out.fallbacks = row.sim.total_fallbacks();
      power_failure_slots += out.power_failure_slots;
      expected.rows.push_back(std::move(out));
    }
    EXPECT_EQ(expected.rows.size(), 10u);
    EXPECT_EQ(record.to_json(), expected.to_json()) << "shard " << i;
    EXPECT_EQ(parallel.records[i].to_json(), expected.to_json())
        << "shard " << i;
  }
  // The grid draws real blackouts, so intensities really differ.
  EXPECT_GT(power_failure_slots, 0u);
}

}  // namespace
}  // namespace solsched::campaign
