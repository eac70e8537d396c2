#include "circuit/transpile/greedy_cache_blocking.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/error.hpp"

namespace qsv {

GreedyCacheBlockingPass::GreedyCacheBlockingPass(
    GreedyCacheBlockingOptions opts)
    : opts_(opts) {
  QSV_REQUIRE(opts_.local_qubits >= 1, "local_qubits must be positive");
  QSV_REQUIRE(opts_.min_reuse >= 1, "min_reuse must be at least 1");
}

Circuit GreedyCacheBlockingPass::run(const Circuit& input) const {
  return run_with_stats(input).circuit;
}

GreedyCacheBlockingPass::Result GreedyCacheBlockingPass::run_with_stats(
    const Circuit& input) const {
  const int n = input.num_qubits();
  const int L = opts_.local_qubits;

  Result res{Circuit(n, input.name().empty()
                            ? "greedy_blocked"
                            : input.name() + "_greedy_blocked"),
             0};

  if (L >= n) {
    res.circuit = input;
    return res;
  }

  std::vector<qubit_t> phys_of(n);  // logical -> physical
  std::vector<qubit_t> log_at(n);   // physical -> logical
  std::iota(phys_of.begin(), phys_of.end(), 0);
  std::iota(log_at.begin(), log_at.end(), 0);

  std::vector<std::size_t> last_use(n, 0);  // per physical slot
  std::size_t clock = 0;

  auto do_swap = [&](qubit_t pa, qubit_t pb) {
    res.circuit.add(make_swap(pa, pb));
    ++res.inserted_swaps;
    const qubit_t la = log_at[pa];
    const qubit_t lb = log_at[pb];
    std::swap(log_at[pa], log_at[pb]);
    phys_of[la] = pb;
    phys_of[lb] = pa;
  };

  // How many upcoming non-diagonal gates (inside the lookahead window,
  // starting at instruction `from`) target `logical`.
  auto reuse_count = [&](qubit_t logical, std::size_t from) {
    std::size_t count = 0;
    const std::size_t end =
        std::min(input.size(), from + kGreedyLookaheadWindow);
    for (std::size_t k = from; k < end; ++k) {
      const Gate& f = input.gate(k);
      if (f.is_diagonal()) {
        continue;
      }
      if (std::find(f.targets.begin(), f.targets.end(), logical) !=
          f.targets.end()) {
        ++count;
      }
    }
    return count;
  };

  for (std::size_t gi = 0; gi < input.size(); ++gi) {
    const Gate& g = input.gate(gi);
    ++clock;
    // Physical operand view under the current layout.
    Gate mapped = g;
    for (qubit_t& q : mapped.targets) {
      q = phys_of[q];
    }
    for (qubit_t& q : mapped.controls) {
      q = phys_of[q];
    }

    if (!mapped.is_diagonal()) {
      // Localise every distributed physical target (diagonal gates and all
      // control bits are communication-free wherever they live), unless the
      // lookahead says the exchange would not be repaid.
      for (std::size_t ti = 0; ti < mapped.targets.size(); ++ti) {
        qubit_t& pt = mapped.targets[ti];
        if (pt < L) {
          continue;
        }
        if (opts_.min_reuse > 1 &&
            reuse_count(g.targets[ti], gi) <
                static_cast<std::size_t>(opts_.min_reuse)) {
          continue;  // touch-once target: leave it distributed
        }
        // Victim: least-recently-used local slot not already an operand.
        qubit_t victim = -1;
        std::size_t best = std::numeric_limits<std::size_t>::max();
        for (qubit_t v = 0; v < L; ++v) {
          const bool in_use =
              std::find(mapped.targets.begin(), mapped.targets.end(), v) !=
                  mapped.targets.end() ||
              std::find(mapped.controls.begin(), mapped.controls.end(), v) !=
                  mapped.controls.end();
          if (in_use) {
            continue;
          }
          if (last_use[v] < best) {
            best = last_use[v];
            victim = v;
          }
        }
        QSV_REQUIRE(victim >= 0,
                    "no local qubit available to cache-block into");
        do_swap(victim, pt);
        // The gate's other operands may have moved if they sat at `victim`
        // — excluded above — so only this target needs updating.
        pt = victim;
      }
    }

    for (qubit_t q : mapped.targets) {
      last_use[q] = clock;
    }
    for (qubit_t q : mapped.controls) {
      last_use[q] = clock;
    }
    if (mapped.kind == GateKind::kSwap) {
      // A program SWAP exchanges logical *states*, not the layout; emitting
      // it on the physical operands implements it exactly, layout unchanged.
      std::sort(mapped.targets.begin(), mapped.targets.end());
    }
    if ((mapped.kind == GateKind::kCPhase || mapped.kind == GateKind::kCz) &&
        mapped.controls[0] < mapped.targets[0]) {
      std::swap(mapped.controls[0], mapped.targets[0]);
    }
    res.circuit.add(std::move(mapped));
  }

  // Sort the layout back to identity with explicit SWAPs (selection style:
  // at most n-1 swaps).
  for (qubit_t p = 0; p < n; ++p) {
    while (log_at[p] != p) {
      do_swap(p, phys_of[p]);
    }
  }
  return res;
}

}  // namespace qsv
