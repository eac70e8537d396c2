// Google-benchmark micros for the local gate kernels (host-machine
// throughput; the ARCHER2 numbers come from the calibrated model, not from
// these).
//
// The *PerBackend benchmarks pin the SIMD kernel backend (sv/simd/) per
// run: the backend index is the last benchmark argument and the run's label
// names it. Unsupported backends are skipped on this host, not failed.
// JSON output comes from google-benchmark itself:
//   micro_kernels --benchmark_out=kernels.json --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include "circuit/gate.hpp"
#include "circuit/matrix.hpp"
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
BENCHMARK(BM_Hadamard<AosStorage>)->Arg(0)->Arg(8)->Arg(17);

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
BENCHMARK(BM_ControlledPhase<AosStorage>);

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
BENCHMARK(BM_FusedPhaseLayer<AosStorage>);

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
BENCHMARK(BM_LocalSwap<AosStorage>)->Arg(9)->Arg(17);

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
BENCHMARK(BM_Matrix1PerBackend<AosStorage>)->Apply(register_backend_args);

template <class S>
void BM_Matrix2PerBackend(benchmark::State& state) {
  auto sv = prepared<S>();
  if (!pin_backend(state, state.range(1))) {
    return;
  }
  Rng rng(9);
  const Gate g = make_unitary2(static_cast<qubit_t>(state.range(0)),
                               static_cast<qubit_t>(state.range(0)) + 3,
                               random_unitary2_params(rng));
  for (auto _ : state) {
    sv.apply(g);
    benchmark::ClobberMemory();
  }
  simd::set_active_backend(simd::best_backend());
}
BENCHMARK(BM_Matrix2PerBackend<SoaStorage>)->Apply(register_backend_args);
BENCHMARK(BM_Matrix2PerBackend<AosStorage>)->Apply(register_backend_args);

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
BENCHMARK(BM_RzPerBackend<AosStorage>)->Apply(register_backend_args);

template <class S>
void BM_GatherHalf(benchmark::State& state) {
  auto sv = prepared<S>();
  std::vector<std::byte> buf(kern::half_payload_bytes(sv.num_amps()));
  for (auto _ : state) {
    kern::gather_half(sv.storage(), 5, 1, buf.data());
    benchmark::DoNotOptimize(buf.data());
  }
}
BENCHMARK(BM_GatherHalf<SoaStorage>);
BENCHMARK(BM_GatherHalf<AosStorage>);

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

}  // namespace
}  // namespace qsv
