// The transpiled-plan cache: repeated circuits pay transpile + trace
// pricing once, ever.
//
// Keyed by (canonical serialised circuit, rank count, transpile flag). The
// serialised circuit is its identity and is compared in full on every
// lookup: a hash of it would let a second circuit with a colliding hash run
// the first one's plan. Serialising the parsed circuit also makes comments
// and spacing irrelevant. Ranks pin the
// decomposition the plan was made for (cache blocking depends on the
// local-qubit split; the priced estimate depends on the node count). Entries are
// immutable and shared: concurrent jobs execute the same plan object without
// copying.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "circuit/circuit.hpp"
#include "perf/report.hpp"

namespace qsv::serve {

struct PlanKey {
  std::string circuit;  // canonical bytes of the parsed circuit
  int ranks = 0;
  bool transpile = true;

  auto operator<=>(const PlanKey&) const = default;
};

/// Everything derived from one (circuit, decomposition) pair. Immutable
/// after construction.
struct CachedPlan {
  explicit CachedPlan(Circuit c) : circuit(std::move(c)) {}

  /// The (possibly cache-blocking-transpiled) circuit the executor runs.
  Circuit circuit;
  /// Modeled full-circuit cost on the server's machine model (admission's
  /// energy check, and the fleet's joules/request accounting).
  RunReport estimate;
  /// Whether the transpiler changed the circuit (reported for the record):
  /// its canonical bytes differ from the key's.
  bool transpiled = false;
};

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Builds that ran the transpiler (== misses with transpile requested).
  std::uint64_t transpiles = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;
};

/// Bounded LRU cache of CachedPlan, thread-safe. Capacity 0 disables
/// caching entirely (every lookup is a miss and nothing is stored) — the
/// loadgen's cache-off ablation.
class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity) : capacity_(capacity) {}

  /// Returns the cached plan for `key`, or builds one with `build` (called
  /// without the lock held — two threads may race to build the same entry;
  /// the first insert wins and the loser's build is discarded). `build`
  /// reports whether it ran the transpiler via its return value's
  /// `transpiled` field; the transpile counter counts builds that asked.
  [[nodiscard]] std::shared_ptr<const CachedPlan> get_or_build(
      const PlanKey& key,
      const std::function<std::shared_ptr<const CachedPlan>()>& build);

  [[nodiscard]] PlanCacheStats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const CachedPlan> plan;
    std::list<const PlanKey*>::iterator lru;
  };

  std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<const PlanKey*> lru_;  // keys of entries_, front = most recent
  std::map<PlanKey, Entry> entries_;
  PlanCacheStats stats_;
};

}  // namespace qsv::serve
