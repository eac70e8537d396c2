#include "serve/plan_cache.hpp"

namespace qsv::serve {

std::shared_ptr<const CachedPlan> PlanCache::get_or_build(
    const PlanKey& key,
    const std::function<std::shared_ptr<const CachedPlan>()>& build) {
  if (capacity_ > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      return it->second.plan;
    }
  }

  // Build without the lock: plans can take a while (transpile + trace
  // pricing) and must not serialize unrelated connections.
  std::shared_ptr<const CachedPlan> plan = build();

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.misses;
  if (key.transpile) {
    ++stats_.transpiles;
  }
  if (capacity_ == 0) {
    return plan;
  }
  const auto [it, inserted] = entries_.try_emplace(key, Entry{plan, {}});
  if (!inserted) {
    // Lost a build race: keep the incumbent so every caller shares one.
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return it->second.plan;
  }
  lru_.push_front(&it->first);
  it->second.lru = lru_.begin();
  while (entries_.size() > capacity_) {
    entries_.erase(entries_.find(*lru_.back()));
    lru_.pop_back();
    ++stats_.evictions;
  }
  stats_.entries = entries_.size();
  return plan;
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PlanCacheStats s = stats_;
  s.entries = entries_.size();
  return s;
}

}  // namespace qsv::serve
