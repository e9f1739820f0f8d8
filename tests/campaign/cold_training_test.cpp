// A cold campaign trains its workloads concurrently: the artifact phase is
// one parallel_for over the remaining workloads. These tests pin that the
// trained artifacts, the records and the aggregate do not depend on the
// thread count, and that a failed artifact phase journals no shard. The
// binary is labelled campaign and concurrency, so the ThreadSanitizer
// phase of scripts/tier1.sh runs it.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "campaign/journal.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "util/thread_pool.hpp"

namespace solsched::campaign {
namespace {

// Three workloads at the test-helper grid scale: one day of 12 periods x
// 10 slots, a two-epoch / six-bucket pipeline.
const std::string kColdSpec =
    "workloads=ecg,wam,shm;seeds=1..2;intensities=0,1;fault=blackout=3;"
    "schedulers=inter,proposed;periods=12;slots=10;days=1;train_days=1;"
    "n_caps=2;dp_buckets=6;pretrain_epochs=2;finetune_epochs=10";

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Every regular file directly in `dir`, by name, with its bytes.
std::map<std::string, std::string> files_in(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream file(entry.path());
    std::ostringstream bytes;
    bytes << file.rdbuf();
    out[entry.path().filename().string()] = bytes.str();
  }
  return out;
}

std::size_t journaled_shards(const CampaignConfig& config) {
  const std::string path = config.dir + "/journal.jsonl";
  if (!std::filesystem::exists(path)) return 0;
  return Journal::load(path, config.spec.digest()).records.size();
}

class CampaignRunner : public ::testing::Test {
 protected:
  void TearDown() override {
    util::ThreadPool::set_global_threads(
        util::ThreadPool::thread_count_from_env());
  }

  static CampaignConfig cold_config(const std::string& name) {
    CampaignConfig config;
    config.spec = CampaignSpec::parse(kColdSpec);
    config.dir = fresh_dir(name);
    config.cache_dir = fresh_dir(name + "_cache");
    return config;
  }
};

TEST_F(CampaignRunner, ColdWorkloadsTrainConcurrentlyBitIdentical) {
  struct Cold {
    CampaignResult result;
    std::map<std::string, std::string> controllers;
  };
  const auto cold = [](std::size_t threads, const std::string& name) {
    util::ThreadPool::set_global_threads(threads);
    const CampaignConfig config = cold_config(name);
    Cold run{run_campaign(config), {}};
    run.controllers = files_in(config.cache_dir);
    return run;
  };
  const Cold serial = cold(1, "cold_train_1t");
  const Cold parallel = cold(4, "cold_train_4t");

  EXPECT_EQ(serial.result.trainings, 3u);
  EXPECT_EQ(parallel.result.trainings, 3u);
  EXPECT_EQ(parallel.result.artifact_disk_hits, 0u);
  ASSERT_EQ(serial.controllers.size(), 3u);
  EXPECT_TRUE(serial.controllers == parallel.controllers)
      << "the .controller files differ between 1 and 4 threads";
  ASSERT_EQ(serial.result.records.size(), 12u);
  ASSERT_EQ(parallel.result.records.size(), 12u);
  for (std::size_t i = 0; i < serial.result.records.size(); ++i)
    EXPECT_EQ(serial.result.records[i].to_json(),
              parallel.result.records[i].to_json())
        << "shard " << i;
  const std::string aggregate = aggregate_json(serial.result.records);
  EXPECT_EQ(aggregate_json(parallel.result.records), aggregate);

  // The same campaign against the warm cache loads all three artifacts,
  // concurrently too, and trains nothing.
  CampaignConfig rerun = cold_config("cold_train_rerun");
  rerun.cache_dir = ::testing::TempDir() + "/cold_train_4t_cache";
  const CampaignResult warm = run_campaign(rerun);
  EXPECT_EQ(warm.trainings, 0u);
  EXPECT_EQ(warm.artifact_disk_hits, 3u);
  EXPECT_EQ(aggregate_json(warm.records), aggregate);
}

// A failed artifact phase throws before any shard runs, at any thread
// count, and the artifacts that did finish stay in the cache.
TEST_F(CampaignRunner, ColdTrainingFailureJournalsNoShard) {
  // Learn the artifact file names from a campaign that succeeds.
  const CampaignConfig good = cold_config("cold_fail_good");
  std::map<std::string, std::string> artifact_file;  // workload -> name
  for (const ShardRecord& record : run_campaign(good).records) {
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.controller",
                  static_cast<unsigned long long>(record.artifact_key));
    artifact_file[record.workload] = name;
  }
  ASSERT_EQ(artifact_file.size(), 3u);
  const std::map<std::string, std::string> trained = files_in(good.cache_dir);

  for (std::size_t threads : {1u, 4u}) {
    util::ThreadPool::set_global_threads(threads);
    const std::string tag = "_" + std::to_string(threads) + "t";

    // A cache directory that cannot be created, as in
    // ArtifactCache.UnwritableDirectoryThrows.
    CampaignConfig unwritable = cold_config("cold_fail_dir" + tag);
    unwritable.cache_dir = "/proc/no_such_dir_xyz";
    EXPECT_THROW(run_campaign(unwritable), std::runtime_error);
    EXPECT_EQ(journaled_shards(unwritable), 0u) << threads << " threads";

    // A store that fails inside the pool: wam, the last workload in order,
    // finds a directory where its artifact file belongs. ecg and shm train
    // to completion (concurrently at 4 threads) and stay cached.
    const CampaignConfig blocked = cold_config("cold_fail_store" + tag);
    std::filesystem::create_directories(blocked.cache_dir + "/" +
                                        artifact_file.at("wam"));
    EXPECT_THROW(run_campaign(blocked), std::runtime_error);
    EXPECT_EQ(journaled_shards(blocked), 0u) << threads << " threads";
    const std::map<std::string, std::string> kept = files_in(blocked.cache_dir);
    EXPECT_EQ(kept.size(), 2u) << threads << " threads";
    for (const char* workload : {"ecg", "shm"}) {
      const std::string& name = artifact_file.at(workload);
      ASSERT_EQ(kept.count(name), 1u) << workload << ", " << threads;
      EXPECT_EQ(kept.at(name), trained.at(name)) << workload << ", " << threads;
    }
  }
}

}  // namespace
}  // namespace solsched::campaign
