#include "dist/guards.hpp"

#include <cmath>
#include <string>

namespace qsv {
namespace {

/// Allowed |‖ψ‖² - 1| drift at a norm check.
constexpr double kNormTolerance = 1e-9;

}  // namespace

template <class S>
void StateGuard<S>::check(std::uint64_t gate_index) {
  ++stats_.checks;
  // The check's cost is paid whether or not it passes.
  if (ExecListener* listener = sv_.listener()) {
    ExecEvent e;
    e.kind = ExecEvent::Kind::kGuard;
    e.local_amps = sv_.local_amps();
    listener->on_event(e);
  }
  const real_t norm = sv_.norm_sq();
  if (std::abs(norm - 1.0) > kNormTolerance) {
    ++stats_.violations;
    throw GuardViolation(
        "norm invariant violated after gate " + std::to_string(gate_index) +
            ": |psi|^2 = " + std::to_string(norm) + " drifted more than " +
            std::to_string(kNormTolerance) + " from 1",
        gate_index);
  }
}

template class StateGuard<SoaStorage>;

}  // namespace qsv
