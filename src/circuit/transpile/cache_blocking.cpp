#include "circuit/transpile/cache_blocking.hpp"

#include <algorithm>
#include <numeric>

#include "circuit/builders.hpp"
#include "circuit/locality.hpp"
#include "common/error.hpp"
#include "common/log.hpp"

namespace qsv {

CacheBlockingPass::CacheBlockingPass(CacheBlockingOptions opts)
    : opts_(opts) {
  QSV_REQUIRE(opts_.local_qubits >= 1, "local_qubits must be positive");
  if (opts_.reflect_threshold) {
    QSV_REQUIRE(*opts_.reflect_threshold >= 1 &&
                    *opts_.reflect_threshold <= opts_.local_qubits,
                "reflect_threshold must be in [1, local_qubits]");
  }
}

CacheBlockingPass::Suffix CacheBlockingPass::trailing_swap_permutation(
    const Circuit& c) {
  Suffix s;
  s.perm.resize(c.num_qubits());
  std::iota(s.perm.begin(), s.perm.end(), 0);

  // Find where the trailing SWAP-only run begins.
  std::size_t begin = c.size();
  while (begin > 0 && c.gate(begin - 1).kind == GateKind::kSwap) {
    --begin;
  }
  s.num_swaps = c.size() - begin;

  // Compose the transpositions in application order: conjugating by the
  // whole suffix relabels q to (p_m o ... o p_1)(q).
  for (std::size_t i = begin; i < c.size(); ++i) {
    const Gate& g = c.gate(i);
    const qubit_t a = g.targets[0];
    const qubit_t b = g.targets[1];
    for (qubit_t& v : s.perm) {
      if (v == a) {
        v = b;
      } else if (v == b) {
        v = a;
      }
    }
  }
  return s;
}

Circuit CacheBlockingPass::run(const Circuit& input) const {
  const int n = input.num_qubits();
  const int L = opts_.local_qubits;
  if (L >= n) {
    return input;  // single-rank register: nothing is distributed
  }
  const int threshold = opts_.reflect_threshold.value_or(L);

  const Suffix suffix = trailing_swap_permutation(input);
  if (suffix.num_swaps == 0) {
    QSV_DEBUG("cache-blocking: no trailing SWAP suffix, circuit unchanged");
    return input;
  }
  const std::size_t body_end = input.size() - suffix.num_swaps;
  const auto& perm = suffix.perm;

  // Find the cut: first non-diagonal body gate whose target is at or above
  // the threshold but would land below it after relabelling.
  std::size_t cut = body_end;
  for (std::size_t i = 0; i < body_end; ++i) {
    const Gate& g = input.gate(i);
    if (g.is_diagonal()) {
      continue;
    }
    const bool bad = std::any_of(g.targets.begin(), g.targets.end(),
                                 [&](qubit_t t) { return t >= threshold; });
    const bool good_after =
        std::all_of(g.targets.begin(), g.targets.end(),
                    [&](qubit_t t) { return perm[t] < threshold; });
    if (bad && good_after) {
      cut = i;
      break;
    }
  }
  if (cut == body_end) {
    QSV_DEBUG("cache-blocking: no qualifying gate before the suffix");
    return input;
  }

  // Rewrite only when the number of distributed non-SWAP gates strictly
  // decreases. Count them in the tail before and after the relabelling;
  // the hoisted SWAP suffix itself costs the same in either position, so
  // the benefit is exactly this reduction.
  std::size_t before = 0;
  std::size_t after = 0;
  for (std::size_t i = cut; i < body_end; ++i) {
    const Gate& g = input.gate(i);
    if (g.kind == GateKind::kSwap) {
      continue;
    }
    if (classify_gate(g, L) == GateLocality::kDistributed) {
      ++before;
    }
    Gate r = g;
    for (qubit_t& q : r.targets) {
      q = perm[q];
    }
    for (qubit_t& q : r.controls) {
      q = perm[q];
    }
    if (classify_gate(r, L) == GateLocality::kDistributed) {
      ++after;
    }
  }
  if (after >= before) {
    QSV_DEBUG("cache-blocking: no benefit (" << before << " -> " << after
                                             << "), circuit unchanged");
    return input;
  }

  Circuit out(n, input.name().empty() ? "cache_blocked"
                                      : input.name() + "_cache_blocked");
  // Head: unchanged.
  for (std::size_t i = 0; i < cut; ++i) {
    out.add(input.gate(i));
  }
  // Hoisted permutation: re-emit the original suffix SWAPs in order.
  for (std::size_t i = body_end; i < input.size(); ++i) {
    out.add(input.gate(i));
  }
  // Tail: conjugated by the permutation.
  for (std::size_t i = cut; i < body_end; ++i) {
    Gate r = input.gate(i);
    for (qubit_t& q : r.targets) {
      q = perm[q];
    }
    for (qubit_t& q : r.controls) {
      q = perm[q];
    }
    if (r.kind == GateKind::kSwap) {
      std::sort(r.targets.begin(), r.targets.end());
    }
    if ((r.kind == GateKind::kCPhase || r.kind == GateKind::kCz) &&
        r.controls[0] < r.targets[0]) {
      std::swap(r.controls[0], r.targets[0]);
    }
    out.add(std::move(r));
  }
  return out;
}

Circuit build_cache_blocked_qft(int num_qubits, int local_qubits,
                                std::optional<int> threshold) {
  QftOptions qopts;
  qopts.ascending = true;
  qopts.fused_phases = true;
  qopts.final_swaps = true;
  const Circuit qft = build_qft(num_qubits, qopts);

  CacheBlockingOptions copts;
  copts.local_qubits = std::min(local_qubits, num_qubits);
  copts.reflect_threshold = threshold;
  if (local_qubits >= num_qubits) {
    return qft;  // single rank: no blocking needed
  }
  return CacheBlockingPass(copts).run(qft);
}

}  // namespace qsv
