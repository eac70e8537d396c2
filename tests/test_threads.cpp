// Ranks-as-threads engine: topology planning, the rank runtime, the
// concurrent mailboxes, and — the standing contract — bitwise identity
// between the serial and threaded engines over QFT, faults and recovery.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "circuit/builders.hpp"
#include "cluster/cluster.hpp"
#include "cluster/faults.hpp"
#include "cluster/rank_team.hpp"
#include "cluster/topology.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "dist/dist_statevector.hpp"
#include "machine/archer2.hpp"
#include "perf/cost_model.hpp"

namespace qsv {
namespace {

// --- topology & placement ---

HostTopology synthetic_topology(int domains, int cpus_per_domain) {
  HostTopology t;
  int cpu = 0;
  for (int d = 0; d < domains; ++d) {
    NumaDomain dom;
    dom.id = d;
    for (int c = 0; c < cpus_per_domain; ++c) {
      dom.cpus.push_back(cpu++);
    }
    t.domains.push_back(dom);
  }
  t.total_cpus = cpu;
  return t;
}

TEST(Topology, ParseCpulist) {
  EXPECT_EQ(parse_cpulist("0-3,8,10-11"),
            (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
  EXPECT_EQ(parse_cpulist("5"), (std::vector<int>{5}));
  EXPECT_EQ(parse_cpulist(""), (std::vector<int>{}));
}

TEST(Topology, DiscoverNeverReturnsEmpty) {
  const HostTopology t = discover_host_topology();
  ASSERT_GE(t.domains.size(), 1u);
  EXPECT_GE(t.total_cpus, 1);
}

TEST(Topology, CompactFillsDomainsInOrder) {
  const HostTopology t = synthetic_topology(2, 4);
  // Domain 0 has room for all four ranks, so nobody spills to domain 1:
  // exchange pairs stay on one LLC, which is the point of compact.
  const PlacementPlan p = plan_placement(t, 4, PlacementPolicy::kCompact);
  EXPECT_EQ(p.domain_of_rank, (std::vector<int>{0, 0, 0, 0}));
  EXPECT_EQ(p.cpu_of_rank, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Topology, CompactKeepsExchangePairsLocalWhenRoomAllows) {
  // The regression: equal-block splitting used to put 2 ranks on a
  // 2-domain host in *different* domains, making every exchange remote.
  const HostTopology t = synthetic_topology(2, 4);
  const PlacementPlan p = plan_placement(t, 2, PlacementPolicy::kCompact);
  EXPECT_EQ(p.domain_of_rank, (std::vector<int>{0, 0}));
}

TEST(Topology, CompactSpillsOnlyWhenADomainIsFull) {
  const HostTopology t = synthetic_topology(2, 4);
  const PlacementPlan p = plan_placement(t, 6, PlacementPolicy::kCompact);
  EXPECT_EQ(p.domain_of_rank, (std::vector<int>{0, 0, 0, 0, 1, 1}));
  EXPECT_EQ(p.cpu_of_rank, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(Topology, CompactWrapsWhenRanksOutnumberCpus) {
  const HostTopology t = synthetic_topology(2, 1);
  const PlacementPlan p = plan_placement(t, 4, PlacementPolicy::kCompact);
  // Oversubscription wraps back to domain 0 for a stable assignment.
  EXPECT_EQ(p.domain_of_rank, (std::vector<int>{0, 1, 0, 1}));
  EXPECT_EQ(p.cpu_of_rank, (std::vector<int>{0, 1, 0, 1}));
}

TEST(Topology, ScatterRoundRobinsDomains) {
  const HostTopology t = synthetic_topology(2, 4);
  const PlacementPlan p = plan_placement(t, 4, PlacementPolicy::kScatter);
  EXPECT_EQ(p.domain_of_rank, (std::vector<int>{0, 1, 0, 1}));
}

TEST(Topology, NonePlansDomainsButNoPinning) {
  const HostTopology t = synthetic_topology(2, 4);
  const PlacementPlan p = plan_placement(t, 4, PlacementPolicy::kNone);
  // Domains are still assigned (exchange pricing needs them), but no rank
  // is pinned to a CPU.
  EXPECT_TRUE(p.cpu_of_rank.empty());
  EXPECT_EQ(p.domain_of_rank.size(), 4u);
}

TEST(Topology, PolicyNamesRoundTrip) {
  for (PlacementPolicy p : {PlacementPolicy::kCompact,
                            PlacementPolicy::kScatter,
                            PlacementPolicy::kNone}) {
    EXPECT_EQ(parse_placement_policy(placement_policy_name(p)), p);
  }
  EXPECT_FALSE(parse_placement_policy("bogus").has_value());
}

TEST(Topology, BandwidthRatioAtLeastOne) {
  EXPECT_GE(measure_numa_bandwidth_ratio(discover_host_topology(),
                                         /*probe_bytes=*/1 << 16),
            1.0);
}

// --- the rank runtime ---

PlacementPlan unpinned_plan(int ranks) {
  return plan_placement(synthetic_topology(1, ranks), ranks,
                        PlacementPolicy::kNone);
}

TEST(RankTeam, RunsEveryRankConcurrently) {
  RankTeam team(4, unpinned_plan(4));
  std::vector<int> hits(4, 0);
  team.run(4, [&](int r) { hits[static_cast<std::size_t>(r)] = r + 1; });
  EXPECT_EQ(hits, (std::vector<int>{1, 2, 3, 4}));
  // A narrower run (post-shrink): extra workers idle.
  std::atomic<int> count{0};
  team.run(2, [&](int) { ++count; });
  EXPECT_EQ(count.load(), 2);
}

TEST(RankTeam, RethrowsLowestRankException) {
  RankTeam team(4, unpinned_plan(4));
  try {
    team.run(4, [&](int r) {
      if (r == 1 || r == 3) {
        throw Error("rank " + std::to_string(r));
      }
    });
    FAIL() << "expected a rethrow";
  } catch (const Error& e) {
    // The serial engine iterates ranks in ascending order, so the threaded
    // engine surfaces the lowest-rank failure.
    EXPECT_STREQ(e.what(), "rank 1");
  }
}

TEST(RankTeam, WorkersShareTheCallersLoopWidth) {
  const int saved = loop_width();
  const auto worker_widths = [](int caller_width) {
    set_loop_width(caller_width);
    std::vector<int> widths(2, 0);
    RankTeam team(2, unpinned_plan(2));
    team.run(2, [&](int r) {
      widths[static_cast<std::size_t>(r)] = loop_width();
    });
    return widths;
  };
  // A worker thread starts at the process default; the team hands it the
  // caller's width (OMP_NUM_THREADS, taskset) split across the workers.
  const std::vector<int> one = worker_widths(1);
  const std::vector<int> four = worker_widths(4);
  const bool settable = loop_width() == 4;  // false without OpenMP
  set_loop_width(saved);

  EXPECT_EQ(one, (std::vector<int>{1, 1}));
  EXPECT_EQ(four, settable ? (std::vector<int>{2, 2})
                           : (std::vector<int>{1, 1}));
}

TEST(RankTeam, PairArriveCombinesOutcomes) {
  RankTeam team(2, unpinned_plan(2));
  RankTeam::PairOutcome seen[2];
  team.run(2, [&](int r) {
    seen[r] = team.pair_arrive(0, /*fail=*/r == 0, /*timed=*/false,
                               /*fatal=*/r == 1, /*timeout_s=*/5.0);
  });
  // Both sides observe the OR of the two deposits.
  for (const RankTeam::PairOutcome& o : seen) {
    EXPECT_TRUE(o.any_fail);
    EXPECT_FALSE(o.any_timed);
    EXPECT_TRUE(o.any_fatal);
  }
}

TEST(RankTeam, PairArriveTimesOutWithoutPeer) {
  RankTeam team(2, unpinned_plan(2));
  EXPECT_THROW(team.run(1,
                        [&](int) {
                          team.pair_arrive(0, false, false, false,
                                           /*timeout_s=*/0.05);
                        }),
               Error);
}

// --- concurrent mailboxes ---

TEST(Cluster, ConcurrentRecvBlocksUntilSend) {
  VirtualCluster c(2, 1024, /*recv_deadline_s=*/5.0);
  c.enable_concurrent(/*capacity_messages=*/4);
  std::vector<std::byte> got(3);
  std::thread receiver([&] { c.recv(0, 1, got); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::vector<std::byte> sent{std::byte{7}, std::byte{8}, std::byte{9}};
  c.send(0, 1, sent);
  receiver.join();
  EXPECT_EQ(got, sent);
  EXPECT_TRUE(c.quiescent());
}

TEST(Cluster, ConcurrentSendBackpressureTimesOut) {
  VirtualCluster c(2, 1024, /*recv_deadline_s=*/0.05);
  c.enable_concurrent(/*capacity_messages=*/1);
  const std::vector<std::byte> m{std::byte{1}};
  c.send(0, 1, m);
  // Mailbox full and nobody receiving: the watchdog bounds the wait.
  EXPECT_THROW(c.send(0, 1, m), CommTimeout);
}

TEST(Cluster, ConcurrentSendBackpressureSurvivesQueueErase) {
  // The regression: a blocked sender used to hold a reference into the
  // queue map across its wait; the receiver draining the mailbox to empty
  // erases that map node, and the woken sender then pushed into a
  // destroyed deque. Capacity 1 makes the erase-while-waiting interleaving
  // deterministic.
  VirtualCluster c(2, 1024, /*recv_deadline_s=*/5.0);
  c.enable_concurrent(/*capacity_messages=*/1);
  const std::vector<std::byte> first{std::byte{1}};
  const std::vector<std::byte> second{std::byte{2}};
  c.send(0, 1, first);  // fills the mailbox
  std::thread sender([&] { c.send(0, 1, second); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::vector<std::byte> got(1);
  c.recv(0, 1, got);  // drains to empty: the queue node is erased
  EXPECT_EQ(got, first);
  sender.join();
  c.recv(0, 1, got);
  EXPECT_EQ(got, second);
  EXPECT_TRUE(c.quiescent());
}

// --- serial vs threaded bit identity ---

DistOptions threaded_opts(int ranks, DistOptions base = {}) {
  base.threading.threads = ranks;
  base.threading.placement = PlacementPolicy::kCompact;
  return base;
}

void expect_states_identical(const DistStateVectorSoa& a,
                             const DistStateVectorSoa& b) {
  ASSERT_EQ(a.num_qubits(), b.num_qubits());
  for (amp_index g = 0; g < (amp_index{1} << a.num_qubits()); ++g) {
    const cplx va = a.amplitude(g);
    const cplx vb = b.amplitude(g);
    // Exact equality: the contract is bitwise identity, not closeness.
    ASSERT_EQ(va.real(), vb.real()) << "amp " << g;
    ASSERT_EQ(va.imag(), vb.imag()) << "amp " << g;
  }
}

TEST(ThreadedEngine, RequiresOneThreadPerRank) {
  DistOptions opts;
  opts.threading.threads = 2;
  EXPECT_THROW(DistStateVectorSoa(8, 4, opts), Error);
}

TEST(ThreadedEngine, SummaryReportsRuntime) {
  DistStateVectorSoa sv(8, 4, threaded_opts(4));
  const auto ts = sv.thread_summary();
  EXPECT_TRUE(ts.enabled);
  EXPECT_EQ(ts.threads, 4);
  EXPECT_EQ(ts.placement, PlacementPolicy::kCompact);
  EXPECT_GE(ts.domains, 1);
  EXPECT_GE(ts.numa_ratio, 1.0);
  EXPECT_FALSE(DistStateVectorSoa(8, 4).thread_summary().enabled);
}

TEST(ThreadedEngine, QftMatchesSerialBitwise) {
  const Circuit c = build_qft(8);
  for (const int ranks : {2, 4}) {
    for (const CommPolicy policy :
         {CommPolicy::kBlocking, CommPolicy::kNonBlocking}) {
      DistOptions base;
      base.policy = policy;
      base.max_message_bytes = 256;  // force chunked exchanges
      DistStateVectorSoa serial(c.num_qubits(), ranks, base);
      DistStateVectorSoa threaded(c.num_qubits(), ranks,
                                  threaded_opts(ranks, base));
      serial.apply(c);
      threaded.apply(c);
      expect_states_identical(serial, threaded);
      // Same protocol, same traffic: the ground-truth counters agree.
      EXPECT_EQ(serial.comm_stats().messages, threaded.comm_stats().messages);
      EXPECT_EQ(serial.comm_stats().bytes, threaded.comm_stats().bytes);
    }
  }
}

TEST(ThreadedEngine, CapOffAmplitudeBoundaryDoesNotStallNonBlocking) {
  // A 24-byte cap sends one 16-byte amplitude per full-exchange message:
  // 128 messages per direction for a 2048-byte slice at 2 ranks, not the
  // 2048 / 24 = 86 a byte count suggests. The mailboxes must hold them all,
  // or the non-blocking policy's posted sends hit backpressure before any
  // recv.
  const Circuit c = build_qft(8);
  DistOptions base;
  base.policy = CommPolicy::kNonBlocking;
  base.max_message_bytes = 24;
  DistStateVectorSoa serial(c.num_qubits(), 2, base);
  DistStateVectorSoa threaded(c.num_qubits(), 2, threaded_opts(2, base));
  serial.apply(c);
  ASSERT_NO_THROW(threaded.apply(c));
  expect_states_identical(serial, threaded);
  EXPECT_EQ(serial.comm_stats().messages, threaded.comm_stats().messages);
}

TEST(ThreadedEngine, HalfExchangeSwapMatchesSerial) {
  const Circuit c = build_qft(8);
  DistOptions base;
  base.half_exchange_swaps = true;
  base.max_message_bytes = 128;
  DistStateVectorSoa serial(c.num_qubits(), 4, base);
  DistStateVectorSoa threaded(c.num_qubits(), 4, threaded_opts(4, base));
  serial.apply(c);
  threaded.apply(c);
  expect_states_identical(serial, threaded);
  EXPECT_EQ(serial.comm_stats().bytes, threaded.comm_stats().bytes);
}

TEST(ThreadedEngine, RetriedFaultsAreTransparentAndDeterministic) {
  // Per-sender ordinals deliberately re-index messages (`drop@5:1` means
  // rank 1's 5th send, not the 5th global message), so fired-fault *counts*
  // are not comparable across scopes. What is contractual: the final state
  // matches the serial engine bitwise (retries are value-transparent), and
  // repeated threaded runs fire identical faults and charges.
  const Circuit c = build_qft(8);
  DistOptions base;
  base.max_message_bytes = 256;
  DistStateVectorSoa serial(c.num_qubits(), 4, base);
  FaultInjector fi_serial(parse_fault_plan("drop@5:1,corrupt@9:2"));
  serial.set_fault_injector(&fi_serial);
  serial.apply(c);
  EXPECT_GE(fi_serial.totals().retries, 1u);

  FaultInjector::Totals first{};
  for (int run = 0; run < 2; ++run) {
    DistStateVectorSoa threaded(c.num_qubits(), 4, threaded_opts(4, base));
    FaultInjector fi(parse_fault_plan("drop@5:1,corrupt@9:2"));
    threaded.set_fault_injector(&fi);
    EXPECT_EQ(fi.scope(), FaultInjector::OrdinalScope::kPerSender);
    threaded.apply(c);
    expect_states_identical(serial, threaded);
    EXPECT_EQ(fi.totals().dropped, 1u);
    EXPECT_EQ(fi.totals().corrupted, 1u);
    EXPECT_EQ(fi.totals().retries, 2u);
    if (run == 0) {
      first = fi.totals();
    } else {
      EXPECT_EQ(first.retry_bytes, fi.totals().retry_bytes);
      EXPECT_EQ(first.delay_s, fi.totals().delay_s);
    }
  }
}

TEST(ThreadedEngine, ExhaustedRetriesEscalateSymmetrically) {
  DistStateVectorSoa sv(6, 4, threaded_opts(4));
  // Drop every message: no pair can ever complete an exchange.
  FaultPlan always_drop;
  always_drop.drop_prob = 1.0;
  FaultInjector fi(std::move(always_drop));
  sv.set_fault_injector(&fi);
  const Circuit c = build_qft(6);
  EXPECT_THROW(sv.apply(c), NodeFailure);
}

TEST(ThreadedEngine, ShrinkUnderLiveThreadsMatchesSerial) {
  const Circuit c = build_qft(8);
  DistOptions base;
  base.max_message_bytes = 512;
  DistStateVectorSoa serial(c.num_qubits(), 4, base);
  DistStateVectorSoa threaded(c.num_qubits(), 4, threaded_opts(4, base));
  const std::size_t half = c.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    serial.apply(c.gate(i));
    threaded.apply(c.gate(i));
  }
  // Re-shard 4 -> 2 mid-circuit; the extra workers idle from here on.
  serial.shrink_to_half(3);
  threaded.shrink_to_half(3);
  EXPECT_EQ(threaded.num_ranks(), 2);
  for (std::size_t i = half; i < c.size(); ++i) {
    serial.apply(c.gate(i));
    threaded.apply(c.gate(i));
  }
  expect_states_identical(serial, threaded);
  for (rank_t r = 0; r < 2; ++r) {
    EXPECT_EQ(serial.slice_crc(r), threaded.slice_crc(r));
  }
}

TEST(ThreadedEngine, MeasurementStaysOnOrchestratorAndMatches) {
  const Circuit c = build_qft(8);
  DistStateVectorSoa serial(c.num_qubits(), 4);
  DistStateVectorSoa threaded(c.num_qubits(), 4, threaded_opts(4));
  serial.apply(c);
  threaded.apply(c);
  Rng rng_a(42);
  Rng rng_b(42);
  EXPECT_EQ(serial.measure(3, rng_a), threaded.measure(3, rng_b));
  expect_states_identical(serial, threaded);
  EXPECT_EQ(serial.norm_sq(), threaded.norm_sq());
}

// --- NUMA ratio pricing ---

TEST(CostModel, NumaRatioScalesExchangeTime) {
  const MachineModel m = archer2();
  JobConfig job;
  job.num_qubits = 24;
  job.nodes = 4;
  ExecEvent e;
  e.kind = ExecEvent::Kind::kExchange;
  e.gate = GateKind::kX;
  e.local_amps = amp_index{1} << 22;
  e.bytes_per_rank = std::uint64_t{1} << 26;
  e.messages_per_rank = 1;

  CostModel base(m, job);
  base.on_event(e);
  CostModel remote(m, job);
  e.numa_ratio = 2.0;
  remote.on_event(e);
  // Only the exchange term scales, so the delta equals one extra t_comm.
  EXPECT_GT(remote.report().phases.mpi_s, base.report().phases.mpi_s);
  EXPECT_DOUBLE_EQ(remote.report().phases.mpi_s,
                   2.0 * base.report().phases.mpi_s);
}

}  // namespace
}  // namespace qsv
