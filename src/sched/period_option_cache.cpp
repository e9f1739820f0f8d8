#include "sched/period_option_cache.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "obs/metrics.hpp"
#include "util/byte_format.hpp"

namespace solsched::sched {
namespace {

inline std::uint64_t bits_of(double x) noexcept {
  // Collapse -0.0 onto +0.0 so numerically equal keys hash equally.
  if (x == 0.0) x = 0.0;
  return std::bit_cast<std::uint64_t>(x);
}

}  // namespace

PeriodOptionCache::PeriodOptionCache(std::size_t max_entries)
    : max_entries_(std::max<std::size_t>(1, max_entries)) {}

std::uint64_t PeriodOptionCache::hash_solar(const std::vector<double>& solar_w,
                                            double capacity_f, double v0) {
  // Only picks the bucket: Key equality compares the full key.
  std::uint64_t h = util::kFnv1aOffsetBasis;
  for (double s : solar_w) h = util::fnv1a_u64(h, bits_of(s));
  h = util::fnv1a_u64(h, bits_of(capacity_f));
  return util::fnv1a_u64(h, bits_of(v0));
}

std::size_t PeriodOptionCache::KeyHash::operator()(
    const Key& key) const noexcept {
  return static_cast<std::size_t>(key.solar_hash);
}

std::shared_ptr<const std::vector<PeriodOption>>
PeriodOptionCache::lookup_or_compute(
    const std::vector<double>& solar_w, double capacity_f, double v0,
    const std::function<std::vector<PeriodOption>()>& compute) {
  Key key;
  key.solar_hash = hash_solar(solar_w, capacity_f, v0);
  key.capacity_f = capacity_f;
  key.v0 = v0;
  key.solar_w = solar_w;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
      ++stats_.hits;
      OBS_COUNTER_ADD("sched.option_cache.hits", 1);
      return it->second;
    }
    ++stats_.misses;
    OBS_COUNTER_ADD("sched.option_cache.misses", 1);
  }

  // Computed outside the lock: evaluations dominate and may themselves use
  // the thread pool. A concurrent duplicate compute is possible but both
  // sides produce the identical value (pareto_options is pure).
  auto value = std::make_shared<const std::vector<PeriodOption>>(compute());

  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = map_.emplace(std::move(key), value);
  if (inserted) {
    insertion_order_.push_back(&it->first);
    while (map_.size() > max_entries_) {
      map_.erase(map_.find(*insertion_order_.front()));
      insertion_order_.pop_front();
      ++stats_.evictions;
      OBS_COUNTER_ADD("sched.option_cache.evictions", 1);
    }
  }
  stats_.entries = map_.size();
  return it->second;
}

OptionCacheStats PeriodOptionCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void PeriodOptionCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
  insertion_order_.clear();
  stats_ = OptionCacheStats{};
}

double PeriodOptionCache::quantize_v0(double v0, double v_low, double v_high,
                                      std::size_t steps) {
  if (steps == 0 || v_high <= v_low) return v0;
  // The DP buckets usable energy by frac = sqrt(usable / max_usable); v0
  // maps onto that axis independently of capacitance:
  //   frac^2 = (v0^2 - v_low^2) / (v_high^2 - v_low^2).
  const double span = v_high * v_high - v_low * v_low;
  const double frac2 =
      std::clamp((v0 * v0 - v_low * v_low) / span, 0.0, 1.0);
  const double frac = std::sqrt(frac2);
  const double q = std::round(frac * static_cast<double>(steps)) /
                   static_cast<double>(steps);
  return std::sqrt(v_low * v_low + span * q * q);
}

}  // namespace solsched::sched
