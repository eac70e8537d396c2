// Single-address-space statevector simulator (the "one big node" view).
//
// This is the reference engine: the distributed engine must agree with it
// amplitude-for-amplitude on every circuit. It is also the engine behind the
// examples when they run on a single simulated node.
#pragma once

#include <map>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/gate.hpp"
#include "circuit/sweep_plan.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "sv/storage.hpp"
#include "sv/sweep.hpp"

namespace qsv {

/// Statevector over `num_qubits` qubits held in storage `S` (SoaStorage).
template <class S>
class BasicStateVector {
 public:
  /// Initialises |0...0>.
  explicit BasicStateVector(int num_qubits);

  [[nodiscard]] int num_qubits() const { return num_qubits_; }
  [[nodiscard]] amp_index num_amps() const { return storage_.size(); }

  [[nodiscard]] cplx amplitude(amp_index i) const;
  void set_amplitude(amp_index i, cplx v);

  /// Resets to |0...0>.
  void init_zero_state();

  /// Resets to the computational basis state |index>.
  void init_basis_state(amp_index index);

  /// Initialises to a normalised random state (deterministic per rng state).
  void init_random_state(Rng& rng);

  /// Applies one gate.
  void apply(const Gate& g);

  /// Applies every gate of a circuit (register sizes must match). Runs of
  /// consecutive cache-tileable gates execute through the sweep executor
  /// (one pass over the statevector per run) when sweeping is enabled —
  /// the default; results are identical to gate-by-gate application.
  void apply(const Circuit& c);

  /// Sweep-executor knobs (enabled/tile size/minimum run length).
  void set_sweep_options(const SweepOptions& opts) { sweep_opts_ = opts; }
  [[nodiscard]] const SweepOptions& sweep_options() const {
    return sweep_opts_;
  }

  /// Counters over every sweep run executed so far.
  [[nodiscard]] const SweepStats& sweep_stats() const { return sweep_stats_; }

  /// Probability that measuring `qubit` yields 1.
  [[nodiscard]] real_t probability_of_one(qubit_t qubit) const;

  /// Probability of the full basis outcome |index>.
  [[nodiscard]] real_t probability_of_outcome(amp_index index) const;

  /// Measures `qubit`, collapsing the state; returns the outcome (0/1).
  int measure(qubit_t qubit, Rng& rng);

  /// Samples a full basis state without collapsing.
  [[nodiscard]] amp_index sample(Rng& rng) const;

  /// Draws `shots` samples and returns outcome -> count (the shot
  /// histogram a real quantum device would produce).
  [[nodiscard]] std::map<amp_index, int> sample_counts(int shots,
                                                       Rng& rng) const;

  /// Squared norm (should stay 1 under unitary evolution).
  [[nodiscard]] real_t norm_sq() const;

  /// <this|other>.
  [[nodiscard]] cplx inner_product(const BasicStateVector& other) const;

  /// |<this|other>|^2.
  [[nodiscard]] real_t fidelity(const BasicStateVector& other) const;

  /// max_i |this_i - other_i|.
  [[nodiscard]] real_t max_amp_diff(const BasicStateVector& other) const;

  /// All amplitudes as a dense vector (test utility; register must be small).
  [[nodiscard]] std::vector<cplx> to_vector() const;

  /// Direct storage access (used by the micro-benchmarks).
  [[nodiscard]] S& storage() { return storage_; }
  [[nodiscard]] const S& storage() const { return storage_; }

 private:
  int num_qubits_;
  S storage_;
  SweepOptions sweep_opts_;
  SweepStats sweep_stats_;
};

using StateVector = BasicStateVector<SoaStorage>;

extern template class BasicStateVector<SoaStorage>;

}  // namespace qsv
