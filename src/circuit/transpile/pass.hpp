// Transpiler pass interface.
#pragma once

#include <string>

#include "circuit/circuit.hpp"

namespace qsv {

/// A circuit-to-circuit rewrite preserving the overall unitary.
class Pass {
 public:
  virtual ~Pass() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual Circuit run(const Circuit& input) const = 0;
};

}  // namespace qsv
