// Overlapped exchange pipeline (CommPolicy::kOverlapped): bit-identity with
// the serial paths across chunk counts, chunk-granular retry, and zero-delta
// accounting when overlap is off.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "circuit/builders.hpp"
#include "cluster/faults.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "dist/dist_statevector.hpp"
#include "dist/events.hpp"
#include "dist/trace.hpp"
#include "machine/archer2.hpp"
#include "perf/cost_model.hpp"
#include "test_util.hpp"

namespace qsv {
namespace {

DistOptions overlap_opts(std::size_t cap = 2 * units::GiB, bool half = false,
                         int threads = 0) {
  DistOptions o;
  o.policy = CommPolicy::kOverlapped;
  o.half_exchange_swaps = half;
  o.max_message_bytes = cap;
  o.threading.threads = threads;
  return o;
}

/// Every distributed combine kind on a 6-qubit register over 4 ranks
/// (local qubits 0..3, rank qubits 4..5), seasoned with local gates so the
/// state is dense and phase-rich before each exchange.
Circuit mixed_bench(bool with_two_high = true) {
  Circuit c(6, "overlap_mix");
  for (int q = 0; q < 6; ++q) {
    c.add(make_h(q));
  }
  c.add(make_cphase(0, 3, 0.37));
  c.add(make_h(5));        // kMatrix1 on the top rank bit
  c.add(make_swap(1, 5));  // kSwapOneHigh, align 2^2 = one 4-amp chunk
  c.add(make_rz(2, 0.81));
  c.add(make_swap(3, 5));  // kSwapOneHigh, align 2^4 = the whole slice
  c.add(make_h(4));        // kMatrix1 on the other rank bit
  if (with_two_high) {
    c.add(make_swap(4, 5));  // kSwapTwoHigh
  }
  return c;
}

/// Runs `c` under both options from the same random state and expects the
/// final amplitudes to be *bitwise* equal (EXPECT_EQ, not a tolerance):
/// the overlapped pipeline must replay the serial arithmetic exactly.
void expect_bit_identical(const Circuit& c, const DistOptions& a,
                          const DistOptions& b, std::uint64_t seed = 7) {
  StateVector ref(c.num_qubits());
  Rng rng(seed);
  ref.init_random_state(rng);

  DistStateVectorSoa sva(c.num_qubits(), 4, a);
  DistStateVectorSoa svb(c.num_qubits(), 4, b);
  sva.init_from(ref);
  svb.init_from(ref);
  sva.apply(c);
  svb.apply(c);
  for (amp_index i = 0; i < (amp_index{1} << c.num_qubits()); ++i) {
    ASSERT_EQ(sva.amplitude(i), svb.amplitude(i)) << "amplitude " << i;
  }
}

TEST(Overlap, BitIdenticalToBlockingSingleChunk) {
  // Default 2 GiB cap: the whole 16-amp slice travels as one chunk, so the
  // pipeline degenerates to post-then-drain.
  DistOptions blocking;
  expect_bit_identical(mixed_bench(), overlap_opts(), blocking);
}

TEST(Overlap, BitIdenticalToBlockingOddChunkCount) {
  // 96 B cap = 6 amps: the 16-amp slice streams as 3 chunks (6, 6, 4).
  DistOptions blocking;
  blocking.max_message_bytes = 96;
  expect_bit_identical(mixed_bench(), overlap_opts(96), blocking);
}

TEST(Overlap, BitIdenticalToBlockingMaxChunkCount) {
  // 16 B cap = 1 amplitude per message: 16 chunks, the deepest pipeline
  // this slice admits.
  DistOptions blocking;
  blocking.max_message_bytes = 16;
  expect_bit_identical(mixed_bench(), overlap_opts(16), blocking);
}

TEST(Overlap, BitIdenticalToNonBlockingOnRandomCircuit) {
  Rng rng(23);
  const Circuit c = build_random(6, 80, rng);
  DistOptions nonblocking;
  nonblocking.policy = CommPolicy::kNonBlocking;
  nonblocking.max_message_bytes = 64;
  expect_bit_identical(c, overlap_opts(64), nonblocking, /*seed=*/29);
}

TEST(Overlap, AlignmentHoldsBackSwapAcrossChunkBoundary) {
  // swap(3, 5): the combine reads partner amplitude flip_bit(i, 3), so with
  // 4-amp chunks the frontier must hold application back to 16-amp (whole
  // slice) alignment — a chunk-by-chunk application would read partner
  // amplitudes that have not arrived.
  Circuit c(6, "swap_align");
  for (int q = 0; q < 6; ++q) {
    c.add(make_h(q));
  }
  c.add(make_cphase(1, 4, 0.53));
  c.add(make_swap(3, 5));
  DistOptions blocking;
  blocking.max_message_bytes = 64;
  expect_bit_identical(c, overlap_opts(64), blocking);
}

TEST(Overlap, HalfExchangeBitIdenticalAcrossChunkShapes) {
  // Half exchanges stream whole amplitudes like full ones: a 24 B cap (1.5
  // amplitudes) sends one amplitude per message, so every cap, ragged or
  // not, must land the same bits.
  for (std::size_t cap :
       {std::size_t{2} * units::GiB, std::size_t{48}, std::size_t{24}}) {
    DistOptions serial_half;
    serial_half.half_exchange_swaps = true;
    serial_half.max_message_bytes = cap;
    expect_bit_identical(mixed_bench(), overlap_opts(cap, /*half=*/true),
                         serial_half);
  }
}

TEST(Overlap, ThreadedBitIdenticalToSerial) {
  // Ranks-as-threads overlapped pipeline against the serial blocking path.
  DistOptions blocking;
  expect_bit_identical(mixed_bench(),
                       overlap_opts(64, /*half=*/false, /*threads=*/4),
                       blocking);
}

TEST(Overlap, ThreadedHalfExchangeBitIdenticalToSerial) {
  DistOptions serial_half;
  serial_half.half_exchange_swaps = true;
  expect_bit_identical(mixed_bench(),
                       overlap_opts(48, /*half=*/true, /*threads=*/4),
                       serial_half);
}

TEST(Overlap, CorruptRetriesOnlyTheFailedChunk) {
  // 64 B cap = 4-amp chunks: one H(5) exchange is 4 chunks per direction.
  // A CRC failure on one chunk must re-request that chunk alone (2 messages,
  // 2 x 64 B: both directions replay, matching the blocking path's per-chunk
  // retry charges) — not the non-blocking WaitAll's full re-post.
  Circuit c(6, "one_exchange");
  for (int q = 0; q < 6; ++q) {
    c.add(make_h(q));
  }
  c.add(make_h(5));

  DistStateVectorSoa clean(6, 4, overlap_opts(64));
  StateVector ref(6);
  Rng rng(31);
  ref.init_random_state(rng);
  clean.init_from(ref);
  clean.apply(c);

  FaultInjector inj(parse_fault_plan("corrupt@9"));
  DistStateVectorSoa faulty(6, 4, overlap_opts(64));
  faulty.init_from(ref);
  faulty.set_fault_injector(&inj);
  faulty.apply(c);

  EXPECT_EQ(inj.totals().corrupted, 1u);
  EXPECT_EQ(inj.totals().retries, 1u);
  EXPECT_EQ(inj.totals().retry_bytes, 2u * 64u);

  // The whole-exchange re-post of the non-blocking path charges the full
  // 2 x 256 B slice pair; the chunk-granular retry is strictly cheaper.
  FaultInjector inj_nb(parse_fault_plan("corrupt@9"));
  DistOptions nb;
  nb.policy = CommPolicy::kNonBlocking;
  nb.max_message_bytes = 64;
  DistStateVectorSoa faulty_nb(6, 4, nb);
  faulty_nb.init_from(ref);
  faulty_nb.set_fault_injector(&inj_nb);
  faulty_nb.apply(c);
  EXPECT_EQ(inj_nb.totals().corrupted, 1u);
  EXPECT_GT(inj_nb.totals().retry_bytes, inj.totals().retry_bytes);

  for (amp_index i = 0; i < (amp_index{1} << 6); ++i) {
    ASSERT_EQ(clean.amplitude(i), faulty.amplitude(i)) << "amplitude " << i;
    ASSERT_EQ(clean.amplitude(i), faulty_nb.amplitude(i)) << "amplitude "
                                                          << i;
  }
}

TEST(Overlap, RetryChargesPerPolicy) {
  // One corrupted message on a single distributed gate, under every policy,
  // engine and exchange shape, with a 64 B cap so every exchange is
  // multi-chunk: H(5) ships 4 chunks of 64 B per direction, the half SWAP
  // 2 chunks of 64 B. One retry is charged per the docs/COMMS.md table:
  // 2 msgs / 2·chunk for blocking and overlapped (one chunk round or tag),
  // 2·chunks / 2·slice for non-blocking (the whole exchange). The same spec
  // corrupts the same message on both engines, and the threaded engine
  // must charge exactly what the serial engine charges.
  struct Row {
    CommPolicy policy;
    bool half;
    int retry_messages;
    std::uint64_t retry_bytes;
  };
  const Row rows[] = {
      {CommPolicy::kBlocking, false, 2, 2 * 64},
      {CommPolicy::kNonBlocking, false, 2 * 4, 2 * 256},
      {CommPolicy::kOverlapped, false, 2, 2 * 64},
      {CommPolicy::kBlocking, true, 2, 2 * 64},
      {CommPolicy::kNonBlocking, true, 2 * 2, 2 * 128},
      {CommPolicy::kOverlapped, true, 2, 2 * 64},
  };
  StateVector ref(6);
  Rng rng(43);
  ref.init_random_state(rng);

  for (const Row& row : rows) {
    Circuit c(6, "one_exchange");
    c.add(row.half ? make_swap(1, 5) : make_h(5));
    FaultInjector::Totals serial_totals;
    for (int threads : {0, 4}) {
      SCOPED_TRACE(std::string(comm_policy_name(row.policy)) +
                   (row.half ? " half" : " full") +
                   (threads != 0 ? " threaded" : " serial"));
      DistOptions o;
      o.policy = row.policy;
      o.half_exchange_swaps = row.half;
      o.max_message_bytes = 64;
      o.threading.threads = threads;

      DistStateVectorSoa clean(6, 4, o);
      clean.init_from(ref);
      clean.apply(c);

      FaultInjector inj(parse_fault_plan("corrupt@2:1"));
      DistStateVectorSoa faulty(6, 4, o);
      faulty.init_from(ref);
      faulty.set_fault_injector(&inj);
      RecordingListener rec;
      faulty.set_listener(&rec);
      faulty.apply(c);

      int retry_messages = 0;
      std::uint64_t event_retry_bytes = 0;
      for (const ExecEvent& e : rec.events()) {
        retry_messages += e.retry_messages;
        event_retry_bytes += e.retry_bytes;
      }
      EXPECT_EQ(inj.totals().corrupted, 1u);
      EXPECT_EQ(inj.totals().retries, 1u);
      EXPECT_EQ(inj.totals().retry_bytes, row.retry_bytes);
      EXPECT_EQ(event_retry_bytes, row.retry_bytes);
      EXPECT_EQ(retry_messages, row.retry_messages);
      if (threads == 0) {
        serial_totals = inj.totals();
      } else {
        EXPECT_EQ(inj.totals().retries, serial_totals.retries);
        EXPECT_EQ(inj.totals().retry_bytes, serial_totals.retry_bytes);
        EXPECT_DOUBLE_EQ(inj.totals().delay_s, serial_totals.delay_s);
      }
      for (amp_index i = 0; i < (amp_index{1} << 6); ++i) {
        ASSERT_EQ(clean.amplitude(i), faulty.amplitude(i)) << "amplitude "
                                                           << i;
      }
    }
  }
}

TEST(Overlap, NonBlockingDropBeforeShortLastChunkRetries) {
  // A 48 B cap streams the 16-amp slice as chunks of 3, 3, 3, 3, 3, 1 amps.
  // Every chunk is tagged, so after a drop the next receive waits for the
  // missing chunk instead of consuming a later, differently sized one; the
  // whole-exchange retry then lands on the clean state on both engines.
  Circuit c(6, "one_exchange");
  c.add(make_h(5));
  StateVector ref(6);
  Rng rng(47);
  ref.init_random_state(rng);
  for (int threads : {0, 4}) {
    DistOptions o;
    o.policy = CommPolicy::kNonBlocking;
    o.max_message_bytes = 48;
    o.threading.threads = threads;
    DistStateVectorSoa clean(6, 4, o);
    clean.init_from(ref);
    clean.apply(c);

    FaultInjector inj(parse_fault_plan("drop@2"));
    DistStateVectorSoa faulty(6, 4, o);
    faulty.init_from(ref);
    faulty.set_fault_injector(&inj);
    faulty.apply(c);
    EXPECT_EQ(inj.totals().dropped, 1u);
    EXPECT_EQ(inj.totals().retries, 1u);
    EXPECT_EQ(inj.totals().retry_bytes, 2u * 256u);
    for (amp_index i = 0; i < (amp_index{1} << 6); ++i) {
      ASSERT_EQ(clean.amplitude(i), faulty.amplitude(i)) << "amplitude " << i;
    }
  }
}

TEST(Overlap, DroppedChunkReplaysToIdenticalState) {
  DistStateVectorSoa clean(6, 4, overlap_opts(64));
  StateVector ref(6);
  Rng rng(37);
  ref.init_random_state(rng);
  clean.init_from(ref);
  const Circuit c = mixed_bench();
  clean.apply(c);

  FaultInjector inj(parse_fault_plan("drop@3, drop@11"));
  DistStateVectorSoa faulty(6, 4, overlap_opts(64));
  faulty.init_from(ref);
  faulty.set_fault_injector(&inj);
  faulty.apply(c);

  EXPECT_EQ(inj.totals().dropped, 2u);
  EXPECT_GE(inj.totals().retries, 2u);
  for (amp_index i = 0; i < (amp_index{1} << 6); ++i) {
    ASSERT_EQ(clean.amplitude(i), faulty.amplitude(i)) << "amplitude " << i;
  }
}

TEST(Overlap, StragglerOnOneChunkOnlyDelaysThatChunk) {
  // A straggler inside the watchdog deadline delays its chunk but the
  // pipeline consumes chunks in order and the digest is unchanged; the
  // injected delay is charged to the gate event, nothing is re-sent.
  DistStateVectorSoa clean(6, 4, overlap_opts(64));
  StateVector ref(6);
  Rng rng(41);
  ref.init_random_state(rng);
  clean.init_from(ref);
  const Circuit c = mixed_bench();
  clean.apply(c);

  FaultInjector inj(parse_fault_plan("delay@5:0.2"));
  DistStateVectorSoa faulty(6, 4, overlap_opts(64));
  faulty.init_from(ref);
  faulty.set_fault_injector(&inj);
  RecordingListener rec;
  faulty.set_listener(&rec);
  faulty.apply(c);

  EXPECT_EQ(inj.totals().straggled, 1u);
  EXPECT_EQ(inj.totals().retries, 0u);
  double charged = 0;
  for (const ExecEvent& e : rec.events()) {
    charged += e.fault_delay_s;
  }
  EXPECT_DOUBLE_EQ(charged, 0.2);
  for (amp_index i = 0; i < (amp_index{1} << 6); ++i) {
    ASSERT_EQ(clean.amplitude(i), faulty.amplitude(i)) << "amplitude " << i;
  }
}

TEST(Overlap, EventStreamMatchesTraceEngine) {
  // The trace engine must mirror the overlapped event stream exactly,
  // including the overlap_chunks pipeline depth, so cost-model pricing of a
  // trace equals pricing of a real run.
  const Circuit c = mixed_bench();
  DistOptions o = overlap_opts(64);

  DistStateVectorSoa sv(6, 4, o);
  RecordingListener real;
  sv.set_listener(&real);
  sv.apply(c);

  TraceSim sim(6, 4, o);
  RecordingListener traced;
  sim.set_listener(&traced);
  sim.apply(c);

  ASSERT_EQ(real.events().size(), traced.events().size());
  for (std::size_t i = 0; i < real.events().size(); ++i) {
    EXPECT_EQ(real.events()[i], traced.events()[i]) << "event " << i;
  }
  // The multi-chunk exchanges really carry a pipeline depth.
  bool saw_pipeline = false;
  for (const ExecEvent& e : real.events()) {
    if (e.kind == ExecEvent::Kind::kExchange) {
      EXPECT_EQ(e.overlap_chunks, e.messages_per_rank);
      saw_pipeline |= e.overlap_chunks > 1;
    }
  }
  EXPECT_TRUE(saw_pipeline);
}

TEST(Overlap, OverlapOffIsZeroDelta) {
  // Non-overlapped policies must emit overlap_chunks == 0 and report zero
  // overlap accounting: turning the feature off is bitwise and cost-wise
  // invisible.
  const Circuit c = mixed_bench();
  for (CommPolicy policy :
       {CommPolicy::kBlocking, CommPolicy::kNonBlocking}) {
    DistOptions o;
    o.policy = policy;
    o.max_message_bytes = 64;
    DistStateVectorSoa sv(6, 4, o);
    RecordingListener rec;
    sv.set_listener(&rec);
    sv.apply(c);
    for (const ExecEvent& e : rec.events()) {
      EXPECT_EQ(e.overlap_chunks, 0);
    }
  }

  JobConfig job;
  job.num_qubits = 38;
  job.node_kind = NodeKind::kStandard;
  job.freq = CpuFreq::kMedium2000;
  job.nodes = 64;
  DistOptions nb;
  nb.policy = CommPolicy::kNonBlocking;
  TraceSim sim(38, 64, nb);
  const MachineModel machine = archer2();  // CostModel keeps a reference
  CostModel cost(machine, job);
  sim.set_listener(&cost);
  sim.apply(build_hadamard_bench(38, 37, 4));
  const RunReport r = cost.report();
  EXPECT_EQ(r.overlapped_exchanges, 0u);
  EXPECT_DOUBLE_EQ(r.overlap_saved_s, 0.0);
}

TEST(Overlap, CostModelHidesWireTimeBehindCombine) {
  // 38 qubits on 64 nodes: each 64 GiB slice streams as 32 chunks under the
  // 2 GiB cap, so (C-1)/C = 31/32 of the shorter leg hides behind the
  // combine. The overlapped run must be exactly the non-blocking run minus
  // the reported saving — same wire rate, same combine charges.
  JobConfig job;
  job.num_qubits = 38;
  job.node_kind = NodeKind::kStandard;
  job.freq = CpuFreq::kMedium2000;
  job.nodes = 64;
  const Circuit c = build_hadamard_bench(38, 34, 1);
  const MachineModel machine = archer2();  // CostModel keeps a reference

  auto price = [&](CommPolicy policy) {
    DistOptions o;
    o.policy = policy;
    TraceSim sim(38, 64, o);
    CostModel cost(machine, job);
    sim.set_listener(&cost);
    sim.apply(c);
    return cost.report();
  };

  const RunReport nb = price(CommPolicy::kNonBlocking);
  const RunReport ov = price(CommPolicy::kOverlapped);

  EXPECT_EQ(ov.overlapped_exchanges, 1u);
  EXPECT_GT(ov.overlap_saved_s, 0.0);
  EXPECT_LT(ov.runtime_s, nb.runtime_s);
  EXPECT_NEAR(nb.runtime_s - ov.runtime_s, ov.overlap_saved_s, 1e-9);
  EXPECT_NEAR(nb.phases.mpi_s - ov.phases.mpi_s, ov.overlap_saved_s, 1e-9);
  EXPECT_LT(ov.total_energy_j(), nb.total_energy_j());
}

}  // namespace
}  // namespace qsv
