// The paper's cache-blocking transpilation (§2.2, fig. 1b).
//
// For circuits that already end in a qubit-permutation suffix of SWAP gates
// (the QFT's terminal bit reversal), the suffix can be hoisted to an earlier
// cut point; every gate after the cut is conjugated by the permutation
// ("vertically flipped" in the paper's words). Choosing the cut just before
// the first Hadamard that would touch a distributed qubit makes every
// Hadamard local, leaving the (already present) distributed SWAPs as the
// only communicating operations.
#pragma once

#include <optional>

#include "circuit/transpile/pass.hpp"

namespace qsv {

struct CacheBlockingOptions {
  /// Number of node-local qubits L (ranks hold 2^L amplitudes).
  int local_qubits = 0;

  /// Reflect before the first non-diagonal gate targeting a qubit at or
  /// above this threshold. Defaults to local_qubits; the paper uses 30 on a
  /// 32-local-qubit layout "to prevent any increase in gate execution time"
  /// (the two top local qubits pay a NUMA-stride penalty, Table 1).
  std::optional<int> reflect_threshold;
};

class CacheBlockingPass final : public Pass {
 public:
  explicit CacheBlockingPass(CacheBlockingOptions opts);

  [[nodiscard]] std::string name() const override { return "cache-blocking"; }
  [[nodiscard]] Circuit run(const Circuit& input) const override;

  /// Extracts the trailing run of SWAP gates from `c` and returns the qubit
  /// relabelling pi it implements (conjugating a gate on qubit q by the
  /// suffix yields the gate on pi[q]), along with the suffix length.
  /// Exposed for tests and for the greedy pass.
  struct Suffix {
    std::vector<qubit_t> perm;  // pi
    std::size_t num_swaps = 0;
  };
  [[nodiscard]] static Suffix trailing_swap_permutation(const Circuit& c);

 private:
  CacheBlockingOptions opts_;
};

/// Convenience: build the paper's "Fast" QFT — the ascending QFT with fused
/// phases, cache-blocked for the given decomposition.
[[nodiscard]] Circuit build_cache_blocked_qft(int num_qubits, int local_qubits,
                                              std::optional<int> threshold = {});

}  // namespace qsv
