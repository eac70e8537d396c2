#include "sv/statevector.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "sv/kernels.hpp"
#include "sv/simd/simd.hpp"

namespace qsv {
namespace {

/// Amplitudes per block of a reduction.
constexpr amp_index kSumBlock = amp_index{1} << 12;

/// Sum of f(i) over [0, n): each fixed-size block is summed serially, in
/// parallel across blocks, and the block sums are added in block order, so
/// the result is the same double at every OpenMP thread count.
template <class F>
real_t block_sum(amp_index n, F f) {
  const std::int64_t blocks =
      static_cast<std::int64_t>((n + kSumBlock - 1) / kSumBlock);
  std::vector<real_t> partial(static_cast<std::size_t>(blocks));
  real_t* const out = partial.data();
  parallel_for(n, blocks, [=](std::int64_t b) {
    const amp_index first = static_cast<amp_index>(b) * kSumBlock;
    const amp_index last = std::min(n, first + kSumBlock);
    real_t s = 0;
    for (amp_index i = first; i < last; ++i) {
      s += f(i);
    }
    out[b] = s;
  });
  real_t acc = 0;
  for (const real_t s : partial) {
    acc += s;
  }
  return acc;
}

}  // namespace

template <class S>
BasicStateVector<S>::BasicStateVector(int num_qubits)
    : num_qubits_(num_qubits),
      storage_(amp_index{1} << num_qubits) {
  QSV_REQUIRE(num_qubits >= 1 && num_qubits <= 30,
              "in-memory statevector supports 1..30 qubits");
  // Resolve the kernel backend on the constructing thread: a QSV_SIMD
  // value this host cannot run throws here, not from a kernel that a sweep
  // tile calls inside a parallel region, where it would abort the process.
  (void)simd::active_backend();
  storage_.set(0, cplx{1, 0});  // the storage starts zeroed
}

template <class S>
cplx BasicStateVector<S>::amplitude(amp_index i) const {
  QSV_REQUIRE(i < num_amps(), "amplitude index out of range");
  return storage_.get(i);
}

template <class S>
void BasicStateVector<S>::set_amplitude(amp_index i, cplx v) {
  QSV_REQUIRE(i < num_amps(), "amplitude index out of range");
  storage_.set(i, v);
}

template <class S>
void BasicStateVector<S>::init_zero_state() {
  storage_.fill_zero();
  storage_.set(0, cplx{1, 0});
}

template <class S>
void BasicStateVector<S>::init_basis_state(amp_index index) {
  QSV_REQUIRE(index < num_amps(), "basis state out of range");
  storage_.fill_zero();
  storage_.set(index, cplx{1, 0});
}

template <class S>
void BasicStateVector<S>::init_random_state(Rng& rng) {
  const amp_index n = num_amps();
  real_t norm = 0;
  for (amp_index i = 0; i < n; ++i) {
    // Gaussian-ish via sum of uniforms is unnecessary: uniform box sampling
    // followed by normalisation gives a valid random test state.
    const cplx v{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    storage_.set(i, v);
    norm += std::norm(v);
  }
  const real_t scale = 1 / std::sqrt(norm);
  for (amp_index i = 0; i < n; ++i) {
    storage_.set(i, storage_.get(i) * scale);
  }
}

template <class S>
void BasicStateVector<S>::apply(const Gate& g) {
  QSV_REQUIRE(g.max_qubit() < num_qubits_, "gate qubit out of range");
  // Single address space: everything is local (local_qubits = n, rank 0).
  kern::apply_gate_slice(storage_, g, num_qubits_, 0);
}

template <class S>
void BasicStateVector<S>::apply(const Circuit& c) {
  QSV_REQUIRE(c.num_qubits() == num_qubits_, "register size mismatch");
  const std::vector<GateRun> runs =
      plan_sweep_runs(c.gates(), num_qubits_, sweep_opts_);
  const int t = std::min(sweep_opts_.tile_qubits, num_qubits_);
  for (const GateRun& run : runs) {
    if (run.sweep) {
      kern::apply_sweep_run(std::span<S>(&storage_, 1), /*first_rank=*/0,
                            c.gates().data() + run.first, run.count, t,
                            num_qubits_);
      sweep_stats_.add_run(run.count, num_amps() >> t);
    } else {
      for (std::size_t i = 0; i < run.count; ++i) {
        apply(c.gate(run.first + i));
      }
    }
  }
}

template <class S>
real_t BasicStateVector<S>::probability_of_one(qubit_t qubit) const {
  QSV_REQUIRE(qubit >= 0 && qubit < num_qubits_, "qubit out of range");
  return block_sum(num_amps(), [&](amp_index i) {
    return bits::bit(i, qubit) ? std::norm(storage_.get(i)) : real_t{0};
  });
}

template <class S>
real_t BasicStateVector<S>::probability_of_outcome(amp_index index) const {
  QSV_REQUIRE(index < num_amps(), "outcome out of range");
  return std::norm(storage_.get(index));
}

template <class S>
int BasicStateVector<S>::measure(qubit_t qubit, Rng& rng) {
  const real_t p1 = probability_of_one(qubit);
  const int outcome = rng.uniform() < p1 ? 1 : 0;
  const real_t keep_p = outcome ? p1 : 1 - p1;
  QSV_REQUIRE(keep_p > 0, "measured an outcome with zero probability");
  const real_t scale = 1 / std::sqrt(keep_p);
  const amp_index n = num_amps();
  for (amp_index i = 0; i < n; ++i) {
    if (bits::bit(i, qubit) == outcome) {
      storage_.set(i, storage_.get(i) * scale);
    } else {
      storage_.set(i, cplx{0, 0});
    }
  }
  return outcome;
}

template <class S>
amp_index BasicStateVector<S>::sample(Rng& rng) const {
  const real_t r = rng.uniform() * norm_sq();
  real_t acc = 0;
  const amp_index n = num_amps();
  for (amp_index i = 0; i < n; ++i) {
    acc += std::norm(storage_.get(i));
    if (acc >= r) {
      return i;
    }
  }
  return n - 1;  // numerical slack: the tail state
}

template <class S>
std::map<amp_index, int> BasicStateVector<S>::sample_counts(int shots,
                                                            Rng& rng) const {
  QSV_REQUIRE(shots >= 0, "negative shot count");
  std::map<amp_index, int> counts;
  // One norm and one table of running sums, made with the additions
  // sample() makes in the same order, so each shot draws the same r and
  // lands on the same outcome as a sample() call would.
  const real_t norm = norm_sq();
  const amp_index n = num_amps();
  std::vector<real_t> running(static_cast<std::size_t>(n));
  real_t acc = 0;
  for (amp_index i = 0; i < n; ++i) {
    acc += std::norm(storage_.get(i));
    running[static_cast<std::size_t>(i)] = acc;
  }
  for (int s = 0; s < shots; ++s) {
    const real_t r = rng.uniform() * norm;
    const auto hit = std::lower_bound(running.begin(), running.end(), r);
    ++counts[hit == running.end()
                 ? n - 1  // numerical slack: the tail state
                 : static_cast<amp_index>(hit - running.begin())];
  }
  return counts;
}

template <class S>
real_t BasicStateVector<S>::norm_sq() const {
  return block_sum(num_amps(),
                   [&](amp_index i) { return std::norm(storage_.get(i)); });
}

template <class S>
cplx BasicStateVector<S>::inner_product(const BasicStateVector& other) const {
  QSV_REQUIRE(num_qubits_ == other.num_qubits_, "register size mismatch");
  cplx acc = 0;
  const amp_index n = num_amps();
  for (amp_index i = 0; i < n; ++i) {
    acc += std::conj(storage_.get(i)) * other.storage_.get(i);
  }
  return acc;
}

template <class S>
real_t BasicStateVector<S>::fidelity(const BasicStateVector& other) const {
  return std::norm(inner_product(other));
}

template <class S>
real_t BasicStateVector<S>::max_amp_diff(const BasicStateVector& other) const {
  QSV_REQUIRE(num_qubits_ == other.num_qubits_, "register size mismatch");
  real_t m = 0;
  const amp_index n = num_amps();
  for (amp_index i = 0; i < n; ++i) {
    m = std::max(m, std::abs(storage_.get(i) - other.storage_.get(i)));
  }
  return m;
}

template <class S>
std::vector<cplx> BasicStateVector<S>::to_vector() const {
  std::vector<cplx> v(num_amps());
  for (amp_index i = 0; i < num_amps(); ++i) {
    v[i] = storage_.get(i);
  }
  return v;
}

template class BasicStateVector<SoaStorage>;

}  // namespace qsv
