#include "circuit/transpile/fusion.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "circuit/matrix.hpp"

namespace qsv {
namespace {

/// "Nice" gates (H, X, CP, ...) stay as they are in a run shorter than
/// this: a run of 1 never pays for becoming a dense matrix.
constexpr std::size_t kMinFusedRun = 2;

/// A gate is fusible when it is an uncontrolled single-target unitary with
/// a 2x2 matrix form.
bool fusible_1q(const Gate& g) {
  if (!g.controls.empty()) {
    return false;
  }
  switch (g.kind) {
    case GateKind::kSwap:
    case GateKind::kFusedPhase:
    case GateKind::kUnitary2:
    case GateKind::kCx:
    case GateKind::kCz:
    case GateKind::kCPhase:
      return false;
    default:
      return true;
  }
}

std::vector<real_t> params_of(const Mat2& m) {
  std::vector<real_t> p;
  p.reserve(8);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      p.push_back(m.m[r][c].real());
      p.push_back(m.m[r][c].imag());
    }
  }
  return p;
}

std::vector<real_t> params_of(const Mat4& m) {
  std::vector<real_t> p;
  p.reserve(32);
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      p.push_back(m.m[r][c].real());
      p.push_back(m.m[r][c].imag());
    }
  }
  return p;
}

/// (M_b tensor M_a) in the subspace order 2*bit(b) + bit(a).
Mat4 kron(const Mat2& mb, const Mat2& ma) {
  Mat4 r;
  for (int br = 0; br < 2; ++br) {
    for (int bc = 0; bc < 2; ++bc) {
      for (int ar = 0; ar < 2; ++ar) {
        for (int ac = 0; ac < 2; ++ac) {
          r.m[2 * br + ar][2 * bc + ac] = mb.m[br][bc] * ma.m[ar][ac];
        }
      }
    }
  }
  return r;
}

}  // namespace

Circuit FusionPass::run(const Circuit& input) const {
  Circuit out(input.num_qubits(),
              input.name().empty() ? "fused" : input.name() + "_fused");

  // Pending fusible run per qubit, in application order.
  std::map<qubit_t, std::vector<Gate>> pending;

  auto run_matrix = [](const std::vector<Gate>& gates) {
    Mat2 m = Mat2::identity();
    for (const Gate& g : gates) {
      m = gate_matrix2(g).mul(m);  // later gates multiply on the left
    }
    return m;
  };

  auto flush = [&](qubit_t q) {
    auto it = pending.find(q);
    if (it == pending.end() || it->second.empty()) {
      return;
    }
    std::vector<Gate>& gates = it->second;
    // An all-diagonal run stays as-is: a dense kUnitary1 would turn cheap
    // fully-local scans into a pair kernel (and, on a rank-bit qubit, into
    // a distributed gate), and a general diagonal cannot be expressed as a
    // single gate without a global-phase kind.
    const bool all_diagonal =
        std::all_of(gates.begin(), gates.end(),
                    [](const Gate& g) { return g.is_diagonal(); });
    if (!all_diagonal && gates.size() >= kMinFusedRun) {
      out.add(make_unitary1(q, params_of(run_matrix(gates))));
    } else {
      for (Gate& g : gates) {
        out.add(std::move(g));
      }
    }
    gates.clear();
  };

  for (const Gate& g : input) {
    if (fusible_1q(g)) {
      pending[g.targets[0]].push_back(g);
      continue;
    }

    // Try to absorb pending runs into an uncontrolled 2-qubit dense gate.
    if (g.kind == GateKind::kUnitary2 && g.controls.empty()) {
      const qubit_t a = g.targets[0];
      const qubit_t b = g.targets[1];
      Mat2 ma = Mat2::identity();
      Mat2 mb = Mat2::identity();
      bool any = false;
      if (auto it = pending.find(a); it != pending.end() &&
                                     !it->second.empty()) {
        ma = run_matrix(it->second);
        it->second.clear();
        any = true;
      }
      if (auto it = pending.find(b); it != pending.end() &&
                                     !it->second.empty()) {
        mb = run_matrix(it->second);
        it->second.clear();
        any = true;
      }
      if (any) {
        const Mat4 fused = gate_matrix4(g).mul(kron(mb, ma));
        out.add(make_unitary2(a, b, params_of(fused)));
      } else {
        out.add(g);
      }
      continue;
    }

    // Blocking gate: flush every qubit it touches, then emit.
    for (qubit_t q : g.targets) {
      flush(q);
    }
    for (qubit_t q : g.controls) {
      flush(q);
    }
    out.add(g);
  }

  for (auto& [q, gates] : pending) {
    flush(q);
  }
  return out;
}

}  // namespace qsv
