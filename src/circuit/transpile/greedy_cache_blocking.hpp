// Generalised cache-blocking for arbitrary circuits (the paper's future-work
// "cache-blocking transpiler"; the same idea Qiskit uses for multi-process
// distribution, Doi & Horii 2020).
//
// A logical-to-physical qubit mapping is maintained. Whenever a non-diagonal
// gate would target a distributed physical qubit, that qubit is swapped with
// the least-recently-used local physical qubit first; the inserted SWAP is
// itself distributed, but pays off when the target is acted on repeatedly.
// SWAPs at the end restore the identity layout, so the output circuit is
// drop-in equivalent to the input.
#pragma once

#include <cstddef>

#include "circuit/transpile/pass.hpp"

namespace qsv {

/// Instructions, from the current one on, that the reuse lookahead scans.
inline constexpr std::size_t kGreedyLookaheadWindow = 64;

struct GreedyCacheBlockingOptions {
  /// Number of node-local qubits L.
  int local_qubits = 0;

  /// Reuse lookahead: a localising SWAP costs one full exchange, so it only
  /// pays off when the target is acted on repeatedly (the paper's §2.2:
  /// "it can be compensated if the target is frequently acted on"). A
  /// distributed target is localised only when at least `min_reuse`
  /// upcoming non-diagonal gates (within kGreedyLookaheadWindow
  /// instructions, including the current one) target the same logical
  /// qubit. 1 = classic always-localise greedy.
  int min_reuse = 1;
};

class GreedyCacheBlockingPass final : public Pass {
 public:
  explicit GreedyCacheBlockingPass(GreedyCacheBlockingOptions opts);

  [[nodiscard]] std::string name() const override {
    return "greedy-cache-blocking";
  }
  [[nodiscard]] Circuit run(const Circuit& input) const override;

  struct Result {
    Circuit circuit;
    std::size_t inserted_swaps = 0;
  };
  [[nodiscard]] Result run_with_stats(const Circuit& input) const;

 private:
  GreedyCacheBlockingOptions opts_;
};

}  // namespace qsv
