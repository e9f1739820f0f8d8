#include "nvp/scheduler.hpp"

#include <stdexcept>

namespace solsched::nvp {
namespace {

/// Marks a default adapter as running for its scope; throws if one already
/// is, i.e. the class overrides neither decide_slot nor schedule_slot.
struct AdapterGuard {
  AdapterGuard(bool& running, const Scheduler& policy) : flag(running) {
    if (flag)
      throw std::logic_error(policy.name() +
                             ": overrides neither decide_slot nor "
                             "schedule_slot");
    flag = true;
  }
  ~AdapterGuard() { flag = false; }
  bool& flag;
};

}  // namespace

SlotAction Scheduler::decide_slot(const SlotContext& ctx) {
  const AdapterGuard guard(in_adapter_, *this);
  SlotAction action;
  for (std::size_t id : schedule_slot(ctx)) action.add(*ctx.graph, id);
  return action;
}

std::vector<std::size_t> Scheduler::schedule_slot(const SlotContext& ctx) {
  const AdapterGuard guard(in_adapter_, *this);
  const SlotAction action = decide_slot(ctx);
  return {action.begin(), action.end()};
}

}  // namespace solsched::nvp
