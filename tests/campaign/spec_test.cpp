// Campaign spec grammar, deterministic expansion and digest stability.
#include "campaign/spec.hpp"

#include <gtest/gtest.h>

namespace solsched::campaign {
namespace {

const char* kSpec =
    "workloads=ecg,wam;seeds=1..3;intensities=0,0.5;fault=blackout=2;"
    "schedulers=inter,proposed;periods=12;slots=10;dt=30;days=1;day0=partly;"
    "train_days=1;train_seed=7;n_caps=2;dp_buckets=6;pretrain_epochs=2;"
    "finetune_epochs=10";

TEST(CampaignSpec, ParsesAllKeys) {
  const CampaignSpec spec = CampaignSpec::parse(kSpec);
  EXPECT_EQ(spec.workloads, (std::vector<std::string>{"ecg", "wam"}));
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(spec.intensities, (std::vector<double>{0.0, 0.5}));
  EXPECT_EQ(spec.fault_spec, "blackout=2");
  EXPECT_EQ(spec.eval_days, 1u);
  EXPECT_EQ(spec.eval_day0, solar::DayKind::kPartlyCloudy);
  EXPECT_EQ(spec.train_seed, 7u);
  EXPECT_EQ(spec.periods, 12u);
  EXPECT_EQ(spec.slots, 10u);
  EXPECT_TRUE(spec.has_scheduler("proposed"));
  EXPECT_FALSE(spec.has_scheduler("edf"));
}

TEST(CampaignSpec, ExpandIsWorkloadMajorAndStable) {
  const CampaignSpec spec = CampaignSpec::parse(kSpec);
  const std::vector<Scenario> scenarios = spec.expand();
  ASSERT_EQ(scenarios.size(), 2u * 3u * 2u);
  for (std::size_t i = 0; i < scenarios.size(); ++i)
    EXPECT_EQ(scenarios[i].shard, i);
  EXPECT_EQ(scenarios[0].key(), "ecg/s1/i0");
  EXPECT_EQ(scenarios[1].key(), "ecg/s1/i0.5");
  EXPECT_EQ(scenarios[2].key(), "ecg/s2/i0");
  EXPECT_EQ(scenarios[6].key(), "wam/s1/i0");   // Workload-major.
  EXPECT_EQ(scenarios[11].key(), "wam/s3/i0.5");
}

// canonical() is itself a valid spec string, and parsing it is a fixed
// point — the property the journal digest check rests on.
TEST(CampaignSpec, CanonicalRoundTripsThroughParse) {
  const CampaignSpec spec = CampaignSpec::parse(kSpec);
  const std::string canon = spec.canonical();
  EXPECT_EQ(CampaignSpec::parse(canon).canonical(), canon);
  EXPECT_EQ(CampaignSpec::parse(canon).digest(), spec.digest());
}

TEST(CampaignSpec, DigestSeparatesDifferentGrids) {
  const CampaignSpec a = CampaignSpec::parse(kSpec);
  CampaignSpec b = a;
  b.eval_day0 = solar::DayKind::kRainy;
  EXPECT_NE(a.digest(), b.digest());
  CampaignSpec c = a;
  c.seeds.push_back(99);
  EXPECT_NE(a.digest(), c.digest());
}

TEST(CampaignSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(CampaignSpec::parse("bogus_key=1"), std::invalid_argument);
  EXPECT_THROW(CampaignSpec::parse("workloads=quake"), std::invalid_argument);
  EXPECT_THROW(CampaignSpec::parse("schedulers=fifo"), std::invalid_argument);
  EXPECT_THROW(CampaignSpec::parse("seeds=3..1"), std::invalid_argument);
  EXPECT_THROW(CampaignSpec::parse("seeds="), std::invalid_argument);
  EXPECT_THROW(CampaignSpec::parse("intensities=-1"), std::invalid_argument);
  EXPECT_THROW(CampaignSpec::parse("days=0"), std::invalid_argument);
  EXPECT_THROW(CampaignSpec::parse("day0=stormy"), std::invalid_argument);
  EXPECT_THROW(CampaignSpec::parse("fault=blackout=oops"),
               std::invalid_argument);
  EXPECT_THROW(CampaignSpec::parse("no_equals_here"), std::invalid_argument);
}

TEST(CampaignSpec, WorkloadGraphsResolve) {
  for (const char* name : {"wam", "ecg", "shm", "rand1", "rand2", "rand3"})
    EXPECT_FALSE(CampaignSpec::workload_graph(name).tasks().empty()) << name;
  EXPECT_THROW(CampaignSpec::workload_graph("nope"), std::invalid_argument);
}

TEST(CampaignSpec, GeneratorScalesDayWindowToGrid) {
  const CampaignSpec spec = CampaignSpec::parse(kSpec);
  const auto trace =
      spec.generator(3).generate_days(1, spec.grid(1), spec.eval_day0);
  EXPECT_EQ(trace.grid().n_days, 1u);
  EXPECT_EQ(trace.grid().n_periods, 12u);
  // Some sun must fall inside the shrunk day.
  EXPECT_GT(trace.total_energy_j(), 0.0);
}

// Golden pin: canonical() is stamped (via digest()) into every journal
// header, so its bytes — %.17g intensities included — and the FNV-1a digest
// over them must never move under a formatter or hash refactor.
TEST(CampaignSpec, CanonicalFormAndDigestArePinned) {
  const CampaignSpec spec = CampaignSpec::parse(
      "workloads=ecg,wam;seeds=1..2;intensities=0,0.1,1.5;fault=blackout=2;"
      "schedulers=inter,proposed;periods=12;slots=10;days=1;train_days=1;"
      "n_caps=2;dp_buckets=6;pretrain_epochs=2;finetune_epochs=10");
  EXPECT_EQ(spec.canonical(),
            "workloads=ecg,wam;seeds=1,2;intensities=0,0.10000000000000001,1.5;"
            "schedulers=inter,proposed;fault=blackout=2;days=1;day0=clear;"
            "train_days=1;train_seed=2015;n_caps=2;periods=12;slots=10;dt=30;"
            "dp_buckets=6;pretrain_epochs=2;finetune_epochs=10");
  EXPECT_EQ(spec.digest(), 0x89283172b6f0c8caull);
}

}  // namespace
}  // namespace solsched::campaign
