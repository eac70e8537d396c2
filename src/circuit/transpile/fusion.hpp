// Gate fusion: merge runs of uncontrolled single-qubit gates acting on the
// same qubit into one dense kUnitary1, and absorb them into an adjacent
// uncontrolled two-qubit dense gate on the same qubit (one 4x4 pass instead
// of 4x4 + 2x2).
//
// Every statevector pass over the slice costs a full memory sweep (the
// dominant local cost in the paper's model), so collapsing g3*g2*g1 into a
// single matrix trades flops for sweeps — the same idea as QuEST's fused
// controlled-phase layer, applied to general circuits.
#pragma once

#include "circuit/transpile/pass.hpp"

namespace qsv {

class FusionPass final : public Pass {
 public:
  [[nodiscard]] std::string name() const override { return "fusion"; }
  [[nodiscard]] Circuit run(const Circuit& input) const override;
};

}  // namespace qsv
