// Google-benchmark micros for the local gate kernels (host-machine
// throughput; the ARCHER2 numbers come from the calibrated model, not from
// these).
//
// The *PerBackend benchmarks pin the SIMD kernel backend (sv/simd/) per
// run: the backend index is the last benchmark argument and the run's label
// names it. Unsupported backends are skipped on this host, not failed.
// The *BySize benchmarks sweep the register from 2^10 to 2^20 amplitudes
// around parallel_for's cutoff (kParallelMinAmps): run them at the default
// loop width and again under OMP_NUM_THREADS=1 to see where a team starts
// to pay (docs/KERNELS.md §2):
//   micro_kernels --benchmark_filter=BySize
// BM_Crc32, BM_PairExchange, BM_CombineMatrix1, BM_GatherHalf and
// BM_CombineSwapOneHigh take the loop width as their second argument, 1
// (the serial path) and 0 (the host default), so the team's share of the
// transport and the combine shows on its own:
//   micro_kernels --benchmark_filter='Crc32|PairExchange|Combine|Gather'
// BM_DiagSums times the <Z_q> readout per backend:
//   micro_kernels --benchmark_filter=DiagSums
// JSON output comes from google-benchmark itself:
//   micro_kernels --benchmark_out=kernels.json --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "circuit/gate.hpp"
#include "circuit/matrix.hpp"
#include "cluster/cluster.hpp"
#include "common/bits.hpp"
#include "common/crc32.hpp"
#include "common/parallel.hpp"
#include "sv/kernels.hpp"
#include "sv/simd/simd.hpp"
#include "sv/statevector.hpp"

namespace qsv {
namespace {

constexpr int kQubits = 18;  // 256k amplitudes: fits comfortably in RAM

template <class S>
BasicStateVector<S> prepared() {
  BasicStateVector<S> sv(kQubits);
  Rng rng(1);
  sv.init_random_state(rng);
  return sv;
}

template <class S>
void BM_Hadamard(benchmark::State& state) {
  auto sv = prepared<S>();
  const Gate g = make_h(static_cast<qubit_t>(state.range(0)));
  for (auto _ : state) {
    sv.apply(g);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sv.num_amps()) *
                          static_cast<std::int64_t>(2 * kBytesPerAmp));
}
BENCHMARK(BM_Hadamard<SoaStorage>)->Arg(0)->Arg(8)->Arg(17);

template <class S>
void BM_ControlledPhase(benchmark::State& state) {
  auto sv = prepared<S>();
  const Gate g = make_cphase(3, 11, 0.37);
  for (auto _ : state) {
    sv.apply(g);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ControlledPhase<SoaStorage>);

template <class S>
void BM_FusedPhaseLayer(benchmark::State& state) {
  auto sv = prepared<S>();
  std::vector<qubit_t> controls;
  std::vector<real_t> angles;
  for (qubit_t c = 1; c < kQubits; ++c) {
    controls.push_back(c);
    angles.push_back(0.01 * c);
  }
  const Gate g = make_fused_phase(0, controls, angles);
  for (auto _ : state) {
    sv.apply(g);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FusedPhaseLayer<SoaStorage>);

template <class S>
void BM_LocalSwap(benchmark::State& state) {
  auto sv = prepared<S>();
  const Gate g = make_swap(2, static_cast<qubit_t>(state.range(0)));
  for (auto _ : state) {
    sv.apply(g);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_LocalSwap<SoaStorage>)->Arg(9)->Arg(17);

/// Pins the backend named by `arg`; returns false (after marking the run
/// skipped) when this host cannot execute it.
bool pin_backend(benchmark::State& state, std::int64_t arg) {
  const auto b = static_cast<simd::Backend>(arg);
  if (!simd::backend_supported(b)) {
    state.SkipWithError("backend not supported on this host");
    return false;
  }
  simd::set_active_backend(b);
  state.SetLabel(simd::backend_name(b));
  return true;
}

void register_backend_args(benchmark::internal::Benchmark* bench) {
  for (int b = 0; b < simd::kBackendCount; ++b) {
    bench->Args({8, b});  // mid target; shuffle paths are covered at 0/1
    bench->Args({0, b});
  }
}

template <class S>
void BM_Matrix1PerBackend(benchmark::State& state) {
  auto sv = prepared<S>();
  if (!pin_backend(state, state.range(1))) {
    return;
  }
  const Gate g = make_h(static_cast<qubit_t>(state.range(0)));
  for (auto _ : state) {
    sv.apply(g);
    benchmark::ClobberMemory();
  }
  simd::set_active_backend(simd::best_backend());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sv.num_amps()) *
                          static_cast<std::int64_t>(2 * kBytesPerAmp));
}
BENCHMARK(BM_Matrix1PerBackend<SoaStorage>)->Apply(register_backend_args);

/// matrix2 target pairs (a, b): the neighbour bonds RCS applies at the
/// bottom of the register, where one or both targets are lane bits of a
/// vector, next to pairs three bits apart.
void register_pair_backend_args(benchmark::internal::Benchmark* bench) {
  for (int b = 0; b < simd::kBackendCount; ++b) {
    for (const auto& [lo, hi] : {std::pair{0, 1}, std::pair{1, 2},
                                 std::pair{2, 3}, std::pair{0, 3},
                                 std::pair{8, 11}}) {
      bench->Args({lo, hi, b});
    }
  }
}

template <class S>
void BM_Matrix2PerBackend(benchmark::State& state) {
  auto sv = prepared<S>();
  if (!pin_backend(state, state.range(2))) {
    return;
  }
  Rng rng(9);
  const Gate g = make_unitary2(static_cast<qubit_t>(state.range(0)),
                               static_cast<qubit_t>(state.range(1)),
                               random_unitary2_params(rng));
  for (auto _ : state) {
    sv.apply(g);
    benchmark::ClobberMemory();
  }
  simd::set_active_backend(simd::best_backend());
}
BENCHMARK(BM_Matrix2PerBackend<SoaStorage>)
    ->Apply(register_pair_backend_args);

template <class S>
void BM_RzPerBackend(benchmark::State& state) {
  auto sv = prepared<S>();
  if (!pin_backend(state, state.range(1))) {
    return;
  }
  const Gate g = make_rz(static_cast<qubit_t>(state.range(0)), 0.41);
  for (auto _ : state) {
    sv.apply(g);
    benchmark::ClobberMemory();
  }
  simd::set_active_backend(simd::best_backend());
}
BENCHMARK(BM_RzPerBackend<SoaStorage>)->Apply(register_backend_args);

/// A register of 2^range(0) amplitudes in a random state.
StateVector prepared_at(const benchmark::State& state) {
  StateVector sv(static_cast<int>(state.range(0)));
  Rng rng(1);
  sv.init_random_state(rng);
  return sv;
}

/// Amplitudes per second: the unit the cutoff is stated in.
void count_amps(benchmark::State& state, const StateVector& sv) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sv.num_amps()));
}

// The <Z_q> readout of qsv run: one diag_sums pass for every qubit's mask
// over a register of 2^range(0) amplitudes (19 masks over 2^19 is the
// exchange workload's readout, 21 over 2^21 the one-rank workload's),
// through the backend range(1) names.
void BM_DiagSums(benchmark::State& state) {
  const auto b = static_cast<simd::Backend>(state.range(1));
  if (!simd::backend_supported(b)) {
    state.SkipWithError("backend not supported on this host");
    return;
  }
  state.SetLabel(simd::backend_name(b));
  const StateVector sv = prepared_at(state);
  const int n = sv.num_qubits();
  std::vector<amp_index> masks(static_cast<std::size_t>(n));
  for (int q = 0; q < n; ++q) {
    masks[static_cast<std::size_t>(q)] = amp_index{1} << q;
  }
  std::vector<real_t> sums(masks.size());
  for (auto _ : state) {
    std::fill(sums.begin(), sums.end(), 0.0);
    simd::ops_for(b).diag_sums(sv.storage().re(), sv.storage().im(),
                               sv.num_amps(), 0, masks.data(), masks.size(),
                               sums.data());
    benchmark::DoNotOptimize(sums.data());
    benchmark::ClobberMemory();
  }
  count_amps(state, sv);
}
BENCHMARK(BM_DiagSums)->ArgsProduct({{19, 21}, {0, 1, 2}});

// One SoA matrix1 gate: the (block, offset) pair loop at target 8 and the
// shuffle loop over 4/8/16-amplitude groups at target 0.
void BM_Matrix1BySize(benchmark::State& state) {
  StateVector sv = prepared_at(state);
  const Gate g = make_h(static_cast<qubit_t>(state.range(1)));
  for (auto _ : state) {
    sv.apply(g);
    benchmark::ClobberMemory();
  }
  count_amps(state, sv);
}
BENCHMARK(BM_Matrix1BySize)
    ->ArgsProduct({benchmark::CreateDenseRange(10, 20, 1), {0, 8}});

// One reduction: 4096-amplitude blocks summed in parallel, then in order.
void BM_NormSqBySize(benchmark::State& state) {
  const StateVector sv = prepared_at(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sv.norm_sq());
  }
  count_amps(state, sv);
}
BENCHMARK(BM_NormSqBySize)->DenseRange(10, 20, 1);

// The checksum every exchange message pays twice (send and receive) and
// the state digest and snapshots pay once per byte: a short message, one
// 64 KiB digest block, and a 2 MiB exchange chunk.
/// Runs a benchmark at the loop width its second argument names: 0 keeps
/// the host default, n >= 1 sets n for the run. The run's label names the
/// width, so a 1 row and a default row show what the team adds.
class LoopWidthArg {
 public:
  explicit LoopWidthArg(benchmark::State& state) : saved_(loop_width()) {
    const auto width = static_cast<int>(state.range(1));
    if (width > 0) {
      set_loop_width(width);
    }
    state.SetLabel("width " + std::to_string(loop_width()));
  }
  ~LoopWidthArg() { set_loop_width(saved_); }
  LoopWidthArg(const LoopWidthArg&) = delete;
  LoopWidthArg& operator=(const LoopWidthArg&) = delete;

 private:
  int saved_;
};

/// The CRC-32 fold this CPU runs on long inputs, as common/crc32.cpp picks
/// it by CPUID (a build whose compiler lacks a fold's ISA flags takes the
/// next narrower one).
std::string crc32_fold_name() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("vpclmulqdq") &&
      __builtin_cpu_supports("avx512f")) {
    return "512-bit fold";
  }
  if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")) {
    return "128-bit fold";
  }
#endif
  return "table loop";
}

void BM_Crc32(benchmark::State& state) {
  const LoopWidthArg width(state);
  state.SetLabel("width " + std::to_string(loop_width()) + ", " +
                 crc32_fold_name());
  std::vector<unsigned char> buf(static_cast<std::size_t>(state.range(0)));
  Rng rng(3);
  for (unsigned char& b : buf) {
    b = static_cast<unsigned char>(rng.uniform() * 256);
  }
  for (auto _ : state) {
    std::uint32_t crc = crc32(buf.data(), buf.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->ArgsProduct({{64, 64 << 10, 2 << 20}, {1, 0}});

// One pairwise exchange of SoA slices through the virtual cluster, as a
// full exchange runs it: each side packs straight into a message (CRC at
// send), then each receive verifies the CRC and the side combines a
// distributed H straight out of the held message, which goes back to the
// cluster when the view is destroyed. Bytes are both directions: 64 KiB is
// a small-register slice, 2 MiB one exchange chunk of the benchmark's
// exchange workload. The second argument is the loop width, as for
// BM_Crc32.
void BM_PairExchange(benchmark::State& state) {
  const LoopWidthArg width(state);
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const amp_index amps = bytes / kBytesPerAmp;
  BasicStateVector<SoaStorage> a(bits::log2_exact(amps));
  BasicStateVector<SoaStorage> b(bits::log2_exact(amps));
  Rng rng(4);
  a.init_random_state(rng);
  b.init_random_state(rng);
  const Mat2 h = gate_matrix2(make_h(0));
  VirtualCluster cluster(2, bytes);
  for (auto _ : state) {
    cluster.send(0, 1, bytes, 0, [&](std::span<std::byte> m) {
      a.storage().pack(0, amps, m.data());
    });
    cluster.send(1, 0, bytes, 0, [&](std::span<std::byte> m) {
      b.storage().pack(0, amps, m.data());
    });
    const VirtualCluster::MessageView from_a =
        cluster.recv_view(0, 1, bytes, 0);
    const VirtualCluster::MessageView from_b =
        cluster.recv_view(1, 0, bytes, 0);
    kern::combine_matrix1_range(b.storage(),
                                kern::peer_span(from_a.bytes(), 0), 1, h, 0,
                                0, amps);
    kern::combine_matrix1_range(a.storage(),
                                kern::peer_span(from_b.bytes(), 0), 0, h, 0,
                                0, amps);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * bytes));
}
BENCHMARK(BM_PairExchange)->ArgsProduct({{64 << 10, 2 << 20}, {1, 0}});

// One rank's side of a distributed one-qubit gate over 2^range(0)
// amplitudes (2^17 is a rank's slice in the benchmark's exchange
// workload): the matrix1 combine reading the peer's amplitudes in place
// from one message, with a complex unitary. The second argument is the
// loop width, as for BM_Crc32.
void BM_CombineMatrix1(benchmark::State& state) {
  const LoopWidthArg width(state);
  const int qubits = static_cast<int>(state.range(0));
  const amp_index amps = amp_index{1} << qubits;
  BasicStateVector<SoaStorage> mine(qubits);
  BasicStateVector<SoaStorage> theirs(qubits);
  Rng rng(5);
  mine.init_random_state(rng);
  theirs.init_random_state(rng);
  std::vector<std::byte> message(amps * kBytesPerAmp);
  theirs.storage().pack(0, amps, message.data());
  const kern::PeerSpan peer = kern::peer_span(message, 0);
  const Mat2 u = gate_matrix2(make_unitary1(0, random_unitary1_params(rng)));
  for (auto _ : state) {
    kern::combine_matrix1_range(mine.storage(), peer, 0, u, 0, 0, amps);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(amps));
}
BENCHMARK(BM_CombineMatrix1)->ArgsProduct({{17}, {1, 0}});

// One rank's side of a distributed SWAP whose local target is the victim
// bit range(0), over a 2^17-amplitude slice (a rank of the benchmark's
// exchange workload) at the loop width range(1), as for BM_Crc32. Bits 0
// and 1 are the victims QuEST picks for a two-qubit gate's distributed
// target; 16 leaves one 2^17-amplitude block. BM_GatherHalf packs the half that
// the half exchange sends; BM_CombineSwapOneHigh copies the peer's half in
// place out of one message of the full exchange.
constexpr int kSwapSliceQubits = 17;

void swap_victim_args(benchmark::internal::Benchmark* bench) {
  bench->ArgsProduct({{0, 1, 5, 16}, {1, 0}});
}

void BM_GatherHalf(benchmark::State& state) {
  const LoopWidthArg width(state);
  const int a = static_cast<int>(state.range(0));
  BasicStateVector<SoaStorage> sv(kSwapSliceQubits);
  Rng rng(6);
  sv.init_random_state(rng);
  const amp_index half = sv.num_amps() / 2;
  std::vector<std::byte> message(half * kBytesPerAmp);
  for (auto _ : state) {
    kern::gather_half(sv.storage(), a, 1, 0, half, message.data());
    benchmark::DoNotOptimize(message.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(half));
}
BENCHMARK(BM_GatherHalf)->Apply(swap_victim_args);

void BM_CombineSwapOneHigh(benchmark::State& state) {
  const LoopWidthArg width(state);
  const int a = static_cast<int>(state.range(0));
  BasicStateVector<SoaStorage> mine(kSwapSliceQubits);
  BasicStateVector<SoaStorage> theirs(kSwapSliceQubits);
  Rng rng(7);
  mine.init_random_state(rng);
  theirs.init_random_state(rng);
  const amp_index amps = mine.num_amps();
  std::vector<std::byte> message(amps * kBytesPerAmp);
  theirs.storage().pack(0, amps, message.data());
  const kern::PeerSpan peer = kern::peer_span(message, 0);
  for (auto _ : state) {
    kern::combine_swap_one_high_range(mine.storage(), peer, a, 0, 0, amps);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(amps / 2));
}
BENCHMARK(BM_CombineSwapOneHigh)->Apply(swap_victim_args);

}  // namespace
}  // namespace qsv
