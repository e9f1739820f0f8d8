// End-to-end pin of the slot simulator: every online registry policy plus
// Optimal, on one paper-grid partly-cloudy day of each paper workload and
// random case, fault-free and under a blackout plan, must reproduce one
// recorded FNV-1a digest of its SimResult (every PeriodRecord field plus
// the initial and final bank energy). Any drift in nvp::simulate, the PMU,
// PeriodState or a policy's slot decision changes a digest.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "dvfs/dvfs_sim.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "nvp/node_sim.hpp"
#include "sched/asap.hpp"
#include "sched/registry.hpp"
#include "solar/trace_generator.hpp"
#include "task/benchmarks.hpp"
#include "util/byte_format.hpp"

namespace solsched::nvp {
namespace {

std::uint64_t fold(std::uint64_t h, double x) {
  return util::fnv1a_u64(h, std::bit_cast<std::uint64_t>(x));
}

std::uint64_t fold(std::uint64_t h, std::size_t n) {
  return util::fnv1a_u64(h, static_cast<std::uint64_t>(n));
}

std::uint64_t sim_digest(const SimResult& r) {
  std::uint64_t h = fold(util::kFnv1aOffsetBasis, r.periods.size());
  for (const PeriodRecord& p : r.periods) {
    h = fold(h, p.day);
    h = fold(h, p.period);
    h = fold(h, p.dmr);
    h = fold(h, p.misses);
    h = fold(h, p.completions);
    h = fold(h, p.brownout_slots);
    h = fold(h, p.cap_index);
    h = fold(h, p.solar_in_j);
    h = fold(h, p.load_served_j);
    h = fold(h, p.stored_j);
    h = fold(h, p.migrated_in_j);
    h = fold(h, p.cap_supplied_j);
    h = fold(h, p.conversion_loss_j);
    h = fold(h, p.leakage_loss_j);
    h = fold(h, p.spilled_j);
    h = fold(h, p.power_failures);
    h = fold(h, p.power_failure_slots);
    h = fold(h, p.backups);
    h = fold(h, p.restores);
    h = fold(h, p.fallbacks);
    h = fold(h, p.backup_energy_j);
    h = fold(h, p.restore_energy_j);
    h = fold(h, p.lost_progress_s);
  }
  h = fold(h, r.initial_bank_energy_j);
  return fold(h, r.final_bank_energy_j);
}

/// The pinned policies: every registry entry that needs no trained
/// controller (the eight online ones plus Optimal), and "asap-all", the
/// sizing-time ASAP that also runs tasks past their deadline.
std::vector<std::string> pinned_ids() {
  std::vector<std::string> ids;
  for (const sched::SchedulerInfo& info : sched::Registry::global().entries())
    if (!info.needs_controller) ids.push_back(info.id);
  ids.push_back("asap-all");
  return ids;
}

/// The paper workloads, and its three random cases ("random1".."random3",
/// 3 to 5 NVPs), where a slot can sum the powers of three or more tasks.
task::TaskGraph workload(const std::string& name) {
  if (name.rfind("random", 0) == 0)
    return task::random_case(name.back() - '0');
  if (name == "wam") return task::wam_benchmark();
  if (name == "ecg") return task::ecg_benchmark();
  return task::shm_benchmark();
}

struct PinCase {
  task::TaskGraph graph;
  solar::SolarTrace trace;
  NodeConfig node;
  std::unique_ptr<fault::FaultInjector> faults;  ///< Null = fault-free.
};

PinCase make_case(const std::string& workload_name, bool blackout) {
  PinCase c{workload(workload_name),
            solar::TraceGenerator(solar::TraceGeneratorConfig{})
                .generate_day(solar::DayKind::kPartlyCloudy,
                              solar::default_grid()),
            NodeConfig{}, nullptr};
  c.node.initial_usable_j = 10.0;
  // Plan seed 2: the default seed 1 happens to draw no blackout on the
  // first paper-grid day, which would make this case a copy of the clean one.
  if (blackout)
    c.faults = std::make_unique<fault::FaultInjector>(
        fault::FaultPlan::parse("seed=2,blackout=3").scaled(1.0),
        c.trace.grid());
  return c;
}

std::unique_ptr<Scheduler> make_policy(const std::string& id) {
  if (id == "asap-all") return std::make_unique<sched::AsapScheduler>(false);
  sched::SchedulerContext ctx;
  ctx.dp = core::PipelineConfig::default_dp();
  return sched::make_scheduler(id, ctx);
}

/// Digests recorded on the list-returning slot loop that preceded the
/// mask-native one, keyed "<workload>/<fault>/<policy id>".
const std::map<std::string, std::uint64_t>& recorded() {
  static const std::map<std::string, std::uint64_t> digests = {
    {"wam/clean/asap", 0x773b0b9b5f41a1e7ull},
    {"wam/clean/edf", 0x773b0b9b5f41a1e7ull},
    {"wam/clean/duty", 0xbf67005a76d31f27ull},
    {"wam/clean/inter", 0x01bdf833baa84005ull},
    {"wam/clean/intra", 0xbe055d8c134d8453ull},
    {"wam/clean/optimal", 0x1b999b1af60b9d97ull},
    {"wam/clean/ccedf", 0x5274e40384a9f67bull},
    {"wam/clean/laedf", 0xdc0b9cbf9ac6b666ull},
    {"wam/clean/greedy", 0x2dc9c5cfc4eea7a8ull},
    {"wam/clean/asap-all", 0xe798ad99c0e7199aull},
    {"wam/blackout/asap", 0x20b300558039b8c3ull},
    {"wam/blackout/edf", 0x20b300558039b8c3ull},
    {"wam/blackout/duty", 0xfed01c147c139562ull},
    {"wam/blackout/inter", 0x7fb82772ba66852bull},
    {"wam/blackout/intra", 0x6bfecc15654f40d6ull},
    {"wam/blackout/optimal", 0xee64eb4735de834dull},
    {"wam/blackout/ccedf", 0xfa168d171d988734ull},
    {"wam/blackout/laedf", 0xe9111c1a47587d2full},
    {"wam/blackout/greedy", 0x653ceddbd7651690ull},
    {"wam/blackout/asap-all", 0x0f8a27dde1b45c00ull},
    {"ecg/clean/asap", 0x333a518bf220a3abull},
    {"ecg/clean/edf", 0x333a518bf220a3abull},
    {"ecg/clean/duty", 0x6dd07e6b886e8548ull},
    {"ecg/clean/inter", 0x717f879c62f41446ull},
    {"ecg/clean/intra", 0xd6f11124d224f14eull},
    {"ecg/clean/optimal", 0x3d26f9bbf08ae6ecull},
    {"ecg/clean/ccedf", 0x31cd77a91fb88b38ull},
    {"ecg/clean/laedf", 0xf57fe219fbffbe7bull},
    {"ecg/clean/greedy", 0x70215f004565fcc2ull},
    {"ecg/clean/asap-all", 0x07bd17c3f0affd0aull},
    {"ecg/blackout/asap", 0x78f0281ef636ab10ull},
    {"ecg/blackout/edf", 0x78f0281ef636ab10ull},
    {"ecg/blackout/duty", 0x7f337dda60c24f5full},
    {"ecg/blackout/inter", 0x173929dec8f8da55ull},
    {"ecg/blackout/intra", 0x11e11328882fe1f6ull},
    {"ecg/blackout/optimal", 0xe62ec813fe643b79ull},
    {"ecg/blackout/ccedf", 0x14e2b2b654aee1e7ull},
    {"ecg/blackout/laedf", 0x33d534333a6fec8aull},
    {"ecg/blackout/greedy", 0x66445c08e74de4ccull},
    {"ecg/blackout/asap-all", 0x48a18a833ba98b63ull},
    {"shm/clean/asap", 0x6a75e520dc7bf01eull},
    {"shm/clean/edf", 0x6a75e520dc7bf01eull},
    {"shm/clean/duty", 0xc2d70493b4a6046eull},
    {"shm/clean/inter", 0x4dab4820051fccf0ull},
    {"shm/clean/intra", 0xc1f7b642cc3be1e0ull},
    {"shm/clean/optimal", 0x164fb1c299efdb89ull},
    {"shm/clean/ccedf", 0x03fda7f5336440aaull},
    {"shm/clean/laedf", 0x816f9d95cb359584ull},
    {"shm/clean/greedy", 0xec053bfc217ac79eull},
    {"shm/clean/asap-all", 0x2736c7a3d5fe99e5ull},
    {"shm/blackout/asap", 0xc9d40fbc02b5dbd9ull},
    {"shm/blackout/edf", 0xc9d40fbc02b5dbd9ull},
    {"shm/blackout/duty", 0x80aae730c8422911ull},
    {"shm/blackout/inter", 0x616a35482ee55115ull},
    {"shm/blackout/intra", 0x1cbe87eb99c77a53ull},
    {"shm/blackout/optimal", 0x646809c395fa418cull},
    {"shm/blackout/ccedf", 0x37a0b5d0ff024ce6ull},
    {"shm/blackout/laedf", 0x89bcc538bbe498a6ull},
    {"shm/blackout/greedy", 0x0ce0201817f1ce75ull},
    {"shm/blackout/asap-all", 0xe6ad573800fde523ull},
    {"random1/clean/asap", 0x12c22aaadc8f95a1ull},
    {"random1/clean/edf", 0x12c22aaadc8f95a1ull},
    {"random1/clean/duty", 0x0b7e6d3f0d41123eull},
    {"random1/clean/inter", 0xc4a381f3d6799e09ull},
    {"random1/clean/intra", 0xbfd18904b80a59e8ull},
    {"random1/clean/optimal", 0x9620c818d3568a64ull},
    {"random1/clean/ccedf", 0xaad653f6c4d927a5ull},
    {"random1/clean/laedf", 0x9be8cf90b44287dcull},
    {"random1/clean/greedy", 0xbd6f3d74f7fd5243ull},
    {"random1/clean/asap-all", 0xf5e681451df79737ull},
    {"random1/blackout/asap", 0xeb14d9c6d4af3a3dull},
    {"random1/blackout/edf", 0xeb14d9c6d4af3a3dull},
    {"random1/blackout/duty", 0xc07bb1a4c4258250ull},
    {"random1/blackout/inter", 0x2c99463f9dcf9abfull},
    {"random1/blackout/intra", 0x3d704a8d47bc95f6ull},
    {"random1/blackout/optimal", 0x3a19ce8432d83b84ull},
    {"random1/blackout/ccedf", 0xabc2fe51c0248401ull},
    {"random1/blackout/laedf", 0x2689a56cb8785997ull},
    {"random1/blackout/greedy", 0x911e7b850cedd40full},
    {"random1/blackout/asap-all", 0xb9b663314eb8c334ull},
    {"random2/clean/asap", 0x261b6063946adc0eull},
    {"random2/clean/edf", 0x261b6063946adc0eull},
    {"random2/clean/duty", 0xe1179305ca26aa6bull},
    {"random2/clean/inter", 0x15162a739e4ae6e2ull},
    {"random2/clean/intra", 0xb91d34b8d0bcf1aaull},
    {"random2/clean/optimal", 0x26fa0d4a8e172a53ull},
    {"random2/clean/ccedf", 0x35d02b77b2c40c33ull},
    {"random2/clean/laedf", 0xea72ec4d02ce7b78ull},
    {"random2/clean/greedy", 0x4e0bc6baca5e0496ull},
    {"random2/clean/asap-all", 0xd612f35585f6398aull},
    {"random2/blackout/asap", 0x592c7ef20c951853ull},
    {"random2/blackout/edf", 0x592c7ef20c951853ull},
    {"random2/blackout/duty", 0xb19171b14953d3d6ull},
    {"random2/blackout/inter", 0x2a3e8b0fc9d6feb3ull},
    {"random2/blackout/intra", 0x09f955f1b8ce1a7full},
    {"random2/blackout/optimal", 0xd4defd2c8d2c9d70ull},
    {"random2/blackout/ccedf", 0xfb62401016d13bc3ull},
    {"random2/blackout/laedf", 0x3b193144d5d10d9bull},
    {"random2/blackout/greedy", 0xfe4d9f66e741175aull},
    {"random2/blackout/asap-all", 0xfecfa6dd01bd8b20ull},
    {"random3/clean/asap", 0xa34ddd3d35b34ac7ull},
    {"random3/clean/edf", 0xa34ddd3d35b34ac7ull},
    {"random3/clean/duty", 0xab8b716008fa39d1ull},
    {"random3/clean/inter", 0x2bd65e347b718cb2ull},
    {"random3/clean/intra", 0xa115c8e50e0c43dbull},
    {"random3/clean/optimal", 0xde82ac8a4b3c04e7ull},
    {"random3/clean/ccedf", 0x01435944ac5336c7ull},
    {"random3/clean/laedf", 0x1512ed3bc1312247ull},
    {"random3/clean/greedy", 0xbe392966f728773full},
    {"random3/clean/asap-all", 0xb5661d553a494982ull},
    {"random3/blackout/asap", 0x87a17c0f8a062389ull},
    {"random3/blackout/edf", 0x87a17c0f8a062389ull},
    {"random3/blackout/duty", 0xf1a402f390b5d7a8ull},
    {"random3/blackout/inter", 0xc8863ea075c392d9ull},
    {"random3/blackout/intra", 0x76176d0233a1e04aull},
    {"random3/blackout/optimal", 0xc7ed9d0903a9c42bull},
    {"random3/blackout/ccedf", 0x41febd3cd0609cf4ull},
    {"random3/blackout/laedf", 0xa625505653accc35ull},
    {"random3/blackout/greedy", 0x559279c5be2ea2a6ull},
    {"random3/blackout/asap-all", 0x5dd9c014b77e8749ull},
  };
  return digests;
}

TEST(SimPin, EveryPolicyMatchesRecordedDigest) {
  for (const std::string w :
       {"wam", "ecg", "shm", "random1", "random2", "random3"})
    for (const bool blackout : {false, true}) {
      const PinCase c = make_case(w, blackout);
      if (blackout) {
        ASSERT_GT(c.faults->blackout_events(), 0u);
      }
      for (const std::string& id : pinned_ids()) {
        const std::string key =
            w + "/" + (blackout ? "blackout" : "clean") + "/" + id;
        const auto policy = make_policy(id);
        const std::uint64_t d = sim_digest(
            simulate(c.graph, c.trace, *policy, c.node, nullptr,
                     c.faults.get()));
        const auto it = recorded().find(key);
        ASSERT_NE(it, recorded().end()) << key;
        EXPECT_EQ(d, it->second)
            << key << " digest 0x" << std::hex << d;
      }
    }
}

/// A wrapper written against the list form only, shaped like a timing
/// decorator: it forwards every call and overrides schedule_slot, never
/// decide_slot, so nvp::simulate reaches it through the list adapter.
class ListFormWrapper final : public Scheduler {
 public:
  explicit ListFormWrapper(Scheduler& inner) : inner_(&inner) {}
  std::string name() const override { return inner_->name(); }
  void begin_trace(const task::TaskGraph& graph, const NodeConfig& config,
                   const solar::SolarTrace& trace) override {
    inner_->begin_trace(graph, config, trace);
  }
  PeriodPlan begin_period(const PeriodContext& ctx) override {
    return inner_->begin_period(ctx);
  }
  std::vector<std::size_t> schedule_slot(const SlotContext& ctx) override {
    return inner_->schedule_slot(ctx);
  }

 private:
  Scheduler* inner_;
};

TEST(SimPin, ListAdapterIsFaithful) {
  for (const std::string w : {"wam", "ecg", "shm"}) {
    const PinCase c = make_case(w, true);
    for (const std::string& id : pinned_ids()) {
      const auto policy = make_policy(id);
      ListFormWrapper wrapper(*policy);
      const std::uint64_t d = sim_digest(simulate(
          c.graph, c.trace, wrapper, c.node, nullptr, c.faults.get()));
      EXPECT_EQ(d, recorded().at(w + "/blackout/" + id)) << w << "/" << id;
    }
  }
}

TEST(SimPin, OverridingNeitherThrows) {
  class Neither final : public Scheduler {
   public:
    std::string name() const override { return "neither"; }
    PeriodPlan begin_period(const PeriodContext&) override { return {}; }
  } neither;
  const PinCase c = make_case("wam", false);
  try {
    simulate(c.graph, c.trace, neither, c.node);
    FAIL() << "a policy overriding neither slot method must be refused";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("overrides neither"),
              std::string::npos)
        << e.what();
  }
  SlotContext ctx;
  EXPECT_THROW(neither.schedule_slot(ctx), std::logic_error);
  EXPECT_THROW(neither.decide_slot(ctx), std::logic_error);
}

// The DVFS simulator shares PeriodState and the per-NVP EDF heads with the
// main engine, so its load matcher is pinned the same way (all workloads,
// fault-free; simulate_dvfs takes no injector).
TEST(SimPin, DvfsLoadMatcherMatchesRecordedDigest) {
  const std::map<std::string, std::uint64_t> digests = {
      {"wam", 0x07936ee8dfe66e43ull},
      {"ecg", 0x4a35aaf8612a0ce4ull},
      {"shm", 0x18bb2a0f65df56d4ull}};
  for (const auto& [w, want] : digests) {
    const PinCase c = make_case(w, false);
    dvfs::DvfsLoadMatcher policy;
    const std::uint64_t d = sim_digest(
        dvfs::simulate_dvfs(c.graph, c.trace, policy, c.node, {}));
    EXPECT_EQ(d, want) << w << " digest 0x" << std::hex << d;
  }
}

}  // namespace
}  // namespace solsched::nvp
