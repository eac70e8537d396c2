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
// JSON output comes from google-benchmark itself:
//   micro_kernels --benchmark_out=kernels.json --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include <span>

#include "circuit/gate.hpp"
#include "circuit/matrix.hpp"
#include "cluster/cluster.hpp"
#include "common/bits.hpp"
#include "common/crc32.hpp"
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

template <class S>
void BM_GatherHalf(benchmark::State& state) {
  auto sv = prepared<S>();
  S buf(sv.num_amps() / 2);
  for (auto _ : state) {
    kern::gather_half(sv.storage(), 5, 1, buf, 0);
    benchmark::DoNotOptimize(&buf);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_GatherHalf<SoaStorage>);

// The checksum every exchange message pays twice (send and receive) and
// the state digest and snapshots pay once per byte: a short message, one
// 64 KiB digest block, and a 2 MiB exchange chunk.
void BM_Crc32(benchmark::State& state) {
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
BENCHMARK(BM_Crc32)->Arg(64)->Arg(64 << 10)->Arg(2 << 20);

// One pairwise exchange of SoA slices through the virtual cluster, as a
// full exchange runs it: each side packs straight into a message (CRC at
// send), then each receive verifies the CRC and unpacks straight out of it.
// Bytes are both directions: 64 KiB is a small-register slice, 2 MiB one
// exchange chunk of the benchmark's exchange workload.
void BM_PairExchange(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const amp_index amps = bytes / kBytesPerAmp;
  BasicStateVector<SoaStorage> a(bits::log2_exact(amps));
  BasicStateVector<SoaStorage> b(bits::log2_exact(amps));
  Rng rng(4);
  a.init_random_state(rng);
  b.init_random_state(rng);
  SoaStorage recv_a(amps);
  SoaStorage recv_b(amps);
  VirtualCluster cluster(2, bytes);
  for (auto _ : state) {
    cluster.send(0, 1, bytes, 0, [&](std::span<std::byte> m) {
      a.storage().pack(0, amps, m.data());
    });
    cluster.send(1, 0, bytes, 0, [&](std::span<std::byte> m) {
      b.storage().pack(0, amps, m.data());
    });
    cluster.recv(0, 1, bytes, 0, [&](std::span<const std::byte> m) {
      recv_b.unpack(0, amps, m.data());
    });
    cluster.recv(1, 0, bytes, 0, [&](std::span<const std::byte> m) {
      recv_a.unpack(0, amps, m.data());
    });
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * bytes));
}
BENCHMARK(BM_PairExchange)->Arg(64 << 10)->Arg(2 << 20);

}  // namespace
}  // namespace qsv
