// Distributed engine: targeted behaviour tests (property sweeps live in
// test_dist_property.cpp).
#include "dist/dist_statevector.hpp"

#include <gtest/gtest.h>

#include <cstring>

#if defined(__linux__)
#include <sys/resource.h>
#endif

#include "circuit/builders.hpp"
#include "circuit/locality.hpp"
#include "circuit/matrix.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "test_util.hpp"

namespace qsv {
namespace {

#if defined(__linux__)
/// Minor page faults of this process so far, over all its threads.
long minor_faults() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u.ru_minflt;
}
#endif

DistOptions small_msgs(CommPolicy policy = CommPolicy::kBlocking,
                       bool half = false) {
  DistOptions o;
  o.policy = policy;
  o.half_exchange_swaps = half;
  o.max_message_bytes = 64;  // 4 amplitudes: forces chunking at toy sizes
  return o;
}

TEST(Dist, ConstructorValidation) {
  EXPECT_THROW(DistStateVectorSoa(4, 3), Error);     // non-pow2 ranks
  EXPECT_THROW(DistStateVectorSoa(4, 16), Error);    // 1 amp per rank
  EXPECT_NO_THROW(DistStateVectorSoa(4, 8));         // 2 amps per rank
}

TEST(Dist, InitAndAmplitudeAddressing) {
  DistStateVectorSoa d(4, 4);
  EXPECT_EQ(d.local_qubits(), 2);
  EXPECT_EQ(d.amplitude(0), (cplx{1, 0}));
  d.init_basis_state(13);  // rank 3, local 1
  EXPECT_EQ(d.amplitude(13), (cplx{1, 0}));
  EXPECT_EQ(d.amplitude(0), (cplx{0, 0}));
  EXPECT_NEAR(d.norm_sq(), 1.0, 1e-15);
}

TEST(Dist, DistributedHadamardMatchesSingle) {
  StateVector ref(5);
  DistStateVectorSoa d(5, 4, small_msgs());
  Rng rng(5);
  ref.init_random_state(rng);
  d.init_from(ref);

  const Gate h = make_h(4);  // top qubit: distributed over 4 ranks
  ref.apply(h);
  d.apply(h);
  EXPECT_LT(ref.max_amp_diff(d.gather()), 1e-12);
  EXPECT_GT(d.comm_stats().messages, 0u);
}

TEST(Dist, DistributedGateExchangesWholeSlices) {
  DistStateVectorSoa d(6, 4, small_msgs());
  d.apply(make_h(5));
  const CommStats& s = d.comm_stats();
  // 4 ranks each ship their 16-amp slice (256 B) in 64 B messages.
  EXPECT_EQ(s.bytes, 4u * 16u * kBytesPerAmp);
  EXPECT_EQ(s.messages, 4u * 4u);
  EXPECT_EQ(s.max_message_bytes, 64u);
}

TEST(Dist, BlockingAndNonBlockingAgreeNumerically) {
  Rng rng(11);
  const Circuit c = build_random(6, 60, rng);
  DistStateVectorSoa blk(6, 8, small_msgs(CommPolicy::kBlocking));
  DistStateVectorSoa nbl(6, 8, small_msgs(CommPolicy::kNonBlocking));
  StateVector ref(6);
  Rng init(12);
  ref.init_random_state(init);
  blk.init_from(ref);
  nbl.init_from(ref);
  blk.apply(c);
  nbl.apply(c);
  EXPECT_LT(blk.gather().max_amp_diff(nbl.gather()), 1e-12);
}

TEST(Dist, NonBlockingKeepsMoreMessagesInFlight) {
  DistStateVectorSoa blk(8, 2, small_msgs(CommPolicy::kBlocking));
  DistStateVectorSoa nbl(8, 2, small_msgs(CommPolicy::kNonBlocking));
  blk.apply(make_h(7));
  nbl.apply(make_h(7));
  // Blocking Sendrecv: at most one chunk per direction queued; the
  // non-blocking rewrite posts all 32 chunks per direction first.
  EXPECT_LE(blk.comm_stats().max_in_flight, 2u);
  EXPECT_GT(nbl.comm_stats().max_in_flight, 2u);
  EXPECT_EQ(blk.comm_stats().bytes, nbl.comm_stats().bytes);
}

TEST(Dist, HalfExchangeSwapMovesHalfTheBytes) {
  DistStateVectorSoa full(6, 4, small_msgs(CommPolicy::kBlocking, false));
  DistStateVectorSoa half(6, 4, small_msgs(CommPolicy::kBlocking, true));
  const Gate swap = make_swap(1, 5);
  full.apply(swap);
  half.apply(swap);
  EXPECT_EQ(half.comm_stats().bytes * 2, full.comm_stats().bytes);
  EXPECT_LT(full.gather().max_amp_diff(half.gather()), 1e-15);
}

TEST(Dist, HalfExchangeSwapCorrectOnRandomState) {
  StateVector ref(6);
  Rng rng(21);
  ref.init_random_state(rng);
  DistStateVectorSoa d(6, 4, small_msgs(CommPolicy::kNonBlocking, true));
  d.init_from(ref);
  const Gate swap = make_swap(0, 4);
  ref.apply(swap);
  d.apply(swap);
  EXPECT_LT(ref.max_amp_diff(d.gather()), 1e-15);
}

TEST(Dist, TwoHighSwapOnlyHalfTheRanksCommunicate) {
  DistStateVectorSoa d(6, 8, small_msgs());
  StateVector ref(6);
  Rng rng(31);
  ref.init_random_state(rng);
  d.init_from(ref);
  const Gate swap = make_swap(3, 5);  // both in rank bits (L = 3)
  ref.apply(swap);
  d.apply(swap);
  EXPECT_LT(ref.max_amp_diff(d.gather()), 1e-15);
  // 4 of 8 ranks exchange their 8-amp slice.
  EXPECT_EQ(d.comm_stats().bytes, 4u * 8u * kBytesPerAmp);
}

TEST(Dist, HighControlledDistributedGate) {
  // CX: control on one rank bit, target on another. Only pairs whose
  // control bit is set exchange.
  StateVector ref(6);
  Rng rng(41);
  ref.init_random_state(rng);
  DistStateVectorSoa d(6, 8, small_msgs());
  d.init_from(ref);
  const Gate cx = make_cx(4, 5);
  ref.apply(cx);
  d.apply(cx);
  EXPECT_LT(ref.max_amp_diff(d.gather()), 1e-12);
  EXPECT_EQ(d.comm_stats().bytes, 4u * 8u * kBytesPerAmp);
}

TEST(Dist, LocalControlledDistributedGate) {
  StateVector ref(6);
  Rng rng(43);
  ref.init_random_state(rng);
  DistStateVectorSoa d(6, 4, small_msgs());
  d.init_from(ref);
  const Gate cx = make_cx(1, 5);  // local control, distributed target
  ref.apply(cx);
  d.apply(cx);
  EXPECT_LT(ref.max_amp_diff(d.gather()), 1e-12);
}

TEST(Dist, ProbabilityAndMeasureAgreeWithSingle) {
  Rng rng(51);
  const Circuit c = build_random(6, 40, rng);
  StateVector ref(6);
  DistStateVectorSoa d(6, 4, small_msgs());
  ref.apply(c);
  d.apply(c);
  for (int q = 0; q < 6; ++q) {
    EXPECT_NEAR(d.probability_of_one(q), ref.probability_of_one(q), 1e-12);
  }
  // Measurement with identical RNG streams takes the same branch.
  Rng mr1(7);
  Rng mr2(7);
  const int o_ref = ref.measure(3, mr1);
  const int o_dist = d.measure(3, mr2);
  EXPECT_EQ(o_ref, o_dist);
  EXPECT_LT(ref.max_amp_diff(d.gather()), 1e-12);
}

TEST(Dist, MeasureHighQubit) {
  DistStateVectorSoa d(5, 8, small_msgs());
  d.apply(build_ghz(5));
  Rng mr(3);
  const int outcome = d.measure(4, mr);  // rank-bit qubit
  // GHZ collapse: every qubit now matches the outcome.
  for (int q = 0; q < 5; ++q) {
    EXPECT_NEAR(d.probability_of_one(q), outcome, 1e-12);
  }
}

TEST(Dist, EventListenerSeesEveryGate) {
  RecordingListener rec;
  DistStateVectorSoa d(6, 4, small_msgs());
  d.set_listener(&rec);
  const Circuit qft = build_qft(6);
  d.apply(qft);
  // Every gate still produces its own event; cache-tiled sweep runs add one
  // kSweep announcement each on top.
  std::size_t exchanges = 0;
  std::size_t per_gate = 0;
  std::size_t announced = 0;
  for (const ExecEvent& e : rec.events()) {
    switch (e.kind) {
      case ExecEvent::Kind::kExchange:
        ++exchanges;
        ++per_gate;
        break;
      case ExecEvent::Kind::kLocalGate:
        ++per_gate;
        break;
      case ExecEvent::Kind::kSweep:
        announced += static_cast<std::size_t>(e.sweep_gates);
        break;
      case ExecEvent::Kind::kGuard:
      case ExecEvent::Kind::kRecovery:
      case ExecEvent::Kind::kWarning:
        break;
    }
  }
  EXPECT_EQ(per_gate, qft.size());
  EXPECT_EQ(exchanges, analyze_locality(qft, 4).distributed);
  EXPECT_EQ(announced, d.sweep_stats().swept_gates);
  EXPECT_EQ(rec.events().size(), qft.size() + d.sweep_stats().runs);
}

TEST(Dist, DistributedUnitary2NeedsTwoLocalQubits) {
  // A 2-qubit dense gate cannot be staged when ranks hold < 4 amplitudes;
  // the engine reports it instead of silently corrupting state.
  DistStateVectorSoa d(6, 32, small_msgs());  // L = 1
  Rng rng(1);
  EXPECT_THROW(d.apply(make_unitary2(4, 5, random_unitary2_params(rng))),
               Error);
}

TEST(Dist, DistributedUnitary2MatchesSingle) {
  Rng rng(71);
  StateVector ref(6);
  ref.init_random_state(rng);
  DistStateVectorSoa d(6, 8, small_msgs());
  d.init_from(ref);
  // One high target, then both targets high.
  Rng mat_rng(5);
  const Gate one_high = make_unitary2(1, 5, random_unitary2_params(mat_rng));
  const Gate two_high = make_unitary2(4, 5, random_unitary2_params(mat_rng));
  ref.apply(one_high);
  ref.apply(two_high);
  d.apply(one_high);
  d.apply(two_high);
  EXPECT_LT(ref.max_amp_diff(d.gather()), 1e-12);
}

TEST(Dist, ExchangeIsBitIdenticalAtEveryLoopWidth) {
  // RCS 19x2 on 4 serial ranks: 2 MiB slices, so the orchestrator's team
  // packs, checksums and unpacks every whole-slice message, and a
  // 1,048,592 B cap cuts each slice into chunks of 65,537 and 65,535
  // amplitudes, one on each side of the team cutoff. Amplitudes and
  // traffic must be the same bits at widths 1 and 3 as at 4, and the
  // amplitudes those of the one-rank run.
  const test::LoopWidthGuard restore;
  Rng rng(19);
  const Circuit c = build_rcs(19, 2, rng);
  DistStateVectorSoa one(19, 1);
  one.apply(c);
  const SoaStorage& all = one.slice(0);
  for (const CommPolicy policy : {CommPolicy::kBlocking,
                                  CommPolicy::kNonBlocking,
                                  CommPolicy::kOverlapped}) {
    for (const std::size_t cap :
         {DistOptions{}.max_message_bytes, std::size_t{1048592}}) {
      DistOptions o;
      o.policy = policy;
      o.max_message_bytes = cap;
      CommStats at_four;
      for (const int width : {4, 1, 3}) {
        SCOPED_TRACE(testing::Message()
                     << comm_policy_name(policy) << ", cap " << cap
                     << " B, width " << width);
        set_loop_width(width);
        DistStateVectorSoa d(19, 4, o);
        d.apply(c);
        const amp_index n = d.local_amps();
        for (rank_t r = 0; r < 4; ++r) {
          const std::size_t bytes = n * sizeof(real_t);
          EXPECT_EQ(std::memcmp(d.slice(r).re(), all.re() + r * n, bytes), 0)
              << "rank " << r;
          EXPECT_EQ(std::memcmp(d.slice(r).im(), all.im() + r * n, bytes), 0)
              << "rank " << r;
        }
        EXPECT_GT(d.comm_stats().messages, 0u);
        if (width == 4) {
          at_four = d.comm_stats();
        } else {
          EXPECT_EQ(d.comm_stats(), at_four);
        }
      }
    }
  }
}

TEST(Dist, SteadyStateExchangesFaultInNoPages) {
#if !defined(__linux__)
  GTEST_SKIP() << "counts minor page faults with Linux getrusage";
#else
  for (const CommPolicy policy : {CommPolicy::kBlocking,
                                  CommPolicy::kNonBlocking,
                                  CommPolicy::kOverlapped}) {
    SCOPED_TRACE(comm_policy_name(policy));
    DistOptions o;
    o.policy = policy;
    // 2 MiB slices: each distributed H moves 8 MiB, 2,048 pages' worth.
    DistStateVectorSoa d(19, 4, o);
    d.apply(make_h(18));  // warm-up: sizes the message storage
    const long before = minor_faults();
    for (int i = 0; i < 14; ++i) {
      d.apply(make_h(i % 2 == 0 ? 17 : 18));
    }
    EXPECT_LT(minor_faults() - before, 512);
  }
#endif
}

TEST(Dist, HalfExchangeFaultsInNoPagesAfterWarmUp) {
#if !defined(__linux__)
  GTEST_SKIP() << "counts minor page faults with Linux getrusage";
#else
  // A half exchange stages its outgoing half in the recv buffer every rank
  // already owns, so once a full exchange has sized the message storage it
  // allocates nothing: each side's 1 MiB half would be 256 fresh pages.
  for (const int threads : {0, 4}) {
    SCOPED_TRACE(threads == 0 ? "serial" : "4 rank threads");
    DistOptions o;
    o.half_exchange_swaps = true;
    o.threading.threads = threads;
    DistStateVectorSoa d(19, 4, o);  // 2 MiB slices
    // Warm-up: distributed Hs size the message storage. Rank threads repeat
    // them until all four ranks' messages were in flight at once, so the
    // storage holds as many buffers as the SWAP can use, whatever the
    // thread timing.
    d.apply(make_h(18));
    for (int i = 0; threads > 0 && d.comm_stats().max_in_flight < 4 && i < 100;
         ++i) {
      d.apply(make_h(18));
    }
    const long before = minor_faults();
    d.apply(make_swap(3, 17));
    EXPECT_LT(minor_faults() - before, 512);
  }
#endif
}

}  // namespace
}  // namespace qsv
