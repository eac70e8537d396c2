// Ranks-as-threads engine: topology planning, the rank runtime, the
// concurrent mailboxes, and — the standing contract — one engine model:
// the serial and threaded engines reach bitwise-identical states and record
// the same events, faults and recoveries over QFT, faults and every tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "circuit/builders.hpp"
#include "circuit/gate.hpp"
#include "cluster/cluster.hpp"
#include "cluster/faults.hpp"
#include "cluster/rank_team.hpp"
#include "cluster/topology.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "dist/dist_statevector.hpp"
#include "dist/recovery_policy.hpp"
#include "dist/trace.hpp"
#include "perf/runner.hpp"
#include "test_util.hpp"

namespace qsv {
namespace {

// --- topology & placement ---

using CpuSets = std::vector<std::vector<int>>;

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

/// The domain (index into topo.domains) of each rank's first CPU: where a
/// pinned rank first-touches its slice.
std::vector<int> domains_of(const PlacementPlan& p, const HostTopology& t) {
  std::vector<int> out;
  for (const std::vector<int>& set : p.cpus_of_rank) {
    for (std::size_t d = 0; d < t.domains.size(); ++d) {
      const std::vector<int>& cpus = t.domains[d].cpus;
      if (std::find(cpus.begin(), cpus.end(), set.front()) != cpus.end()) {
        out.push_back(static_cast<int>(d));
      }
    }
  }
  return out;
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
  const PlacementPlan p = plan_placement(t, 4, PlacementPolicy::kCompact, 1);
  EXPECT_EQ(domains_of(p, t), (std::vector<int>{0, 0, 0, 0}));
  EXPECT_EQ(p.cpus_of_rank, (CpuSets{{0}, {1}, {2}, {3}}));
}

TEST(Topology, CompactKeepsExchangePairsLocalWhenRoomAllows) {
  // The regression: equal-block splitting used to put 2 ranks on a
  // 2-domain host in *different* domains, making every exchange remote.
  const HostTopology t = synthetic_topology(2, 4);
  const PlacementPlan p = plan_placement(t, 2, PlacementPolicy::kCompact, 1);
  EXPECT_EQ(domains_of(p, t), (std::vector<int>{0, 0}));
}

TEST(Topology, CompactSpillsOnlyWhenADomainIsFull) {
  const HostTopology t = synthetic_topology(2, 4);
  const PlacementPlan p = plan_placement(t, 6, PlacementPolicy::kCompact, 1);
  EXPECT_EQ(domains_of(p, t), (std::vector<int>{0, 0, 0, 0, 1, 1}));
  EXPECT_EQ(p.cpus_of_rank, (CpuSets{{0}, {1}, {2}, {3}, {4}, {5}}));
}

TEST(Topology, CompactWrapsWhenRanksOutnumberCpus) {
  const HostTopology t = synthetic_topology(2, 1);
  const PlacementPlan p = plan_placement(t, 4, PlacementPolicy::kCompact, 1);
  // Oversubscription wraps back to domain 0 for a stable assignment.
  EXPECT_EQ(domains_of(p, t), (std::vector<int>{0, 1, 0, 1}));
  EXPECT_EQ(p.cpus_of_rank, (CpuSets{{0}, {1}, {0}, {1}}));
}

TEST(Topology, ScatterRoundRobinsDomains) {
  const HostTopology t = synthetic_topology(2, 4);
  const PlacementPlan p = plan_placement(t, 4, PlacementPolicy::kScatter, 1);
  EXPECT_EQ(domains_of(p, t), (std::vector<int>{0, 1, 0, 1}));
}

TEST(Topology, NonePinsNoRank) {
  const HostTopology t = synthetic_topology(2, 4);
  const PlacementPlan p = plan_placement(t, 4, PlacementPolicy::kNone, 1);
  EXPECT_EQ(p.policy, PlacementPolicy::kNone);
  EXPECT_TRUE(p.cpus_of_rank.empty());
}

TEST(Topology, PolicyNamesRoundTrip) {
  for (PlacementPolicy p : {PlacementPolicy::kCompact,
                            PlacementPolicy::kScatter,
                            PlacementPolicy::kNone}) {
    EXPECT_EQ(parse_placement_policy(placement_policy_name(p)), p);
  }
  EXPECT_FALSE(parse_placement_policy("bogus").has_value());
}

TEST(Topology, RanksOwnDisjointCpuSetsAndKeepTheirDomains) {
  struct Case {
    int domains;
    int ranks;
    PlacementPolicy policy;
    std::vector<int> rank_domains;  // the one-CPU-per-rank map
  };
  const std::vector<Case> cases = {
      {1, 1, PlacementPolicy::kCompact, {0}},
      {1, 2, PlacementPolicy::kCompact, {0, 0}},
      {1, 4, PlacementPolicy::kCompact, {0, 0, 0, 0}},
      {1, 6, PlacementPolicy::kCompact, {0, 0, 0, 0, 0, 0}},
      {1, 1, PlacementPolicy::kScatter, {0}},
      {1, 2, PlacementPolicy::kScatter, {0, 0}},
      {1, 4, PlacementPolicy::kScatter, {0, 0, 0, 0}},
      {1, 6, PlacementPolicy::kScatter, {0, 0, 0, 0, 0, 0}},
      {2, 1, PlacementPolicy::kCompact, {0}},
      {2, 2, PlacementPolicy::kCompact, {0, 0}},
      {2, 4, PlacementPolicy::kCompact, {0, 0, 0, 0}},
      {2, 6, PlacementPolicy::kCompact, {0, 0, 0, 0, 1, 1}},
      {2, 1, PlacementPolicy::kScatter, {0}},
      {2, 2, PlacementPolicy::kScatter, {0, 1}},
      {2, 4, PlacementPolicy::kScatter, {0, 1, 0, 1}},
      {2, 6, PlacementPolicy::kScatter, {0, 1, 0, 1, 0, 1}},
  };
  for (const Case& c : cases) {
    const HostTopology t = synthetic_topology(c.domains, 4);
    // The width a rank team hands each rank when the caller's width is
    // the host's CPU count.
    const int width = std::max(1, t.total_cpus / c.ranks);
    const PlacementPlan one = plan_placement(t, c.ranks, c.policy, 1);
    const PlacementPlan p = plan_placement(t, c.ranks, c.policy, width);
    SCOPED_TRACE(std::to_string(c.domains) + "x4, " +
                 std::to_string(c.ranks) + " ranks, " +
                 placement_policy_name(c.policy));
    EXPECT_EQ(domains_of(p, t), c.rank_domains);
    EXPECT_EQ(domains_of(one, t), c.rank_domains);
    ASSERT_EQ(p.cpus_of_rank.size(), static_cast<std::size_t>(c.ranks));
    std::vector<int> owner(static_cast<std::size_t>(t.total_cpus), -1);
    for (int r = 0; r < c.ranks; ++r) {
      const std::vector<int>& set = p.cpus_of_rank[static_cast<std::size_t>(r)];
      ASSERT_EQ(set.size(), static_cast<std::size_t>(width));
      // A rank's first CPU is the one it had alone.
      EXPECT_EQ(set.front(), one.cpus_of_rank[static_cast<std::size_t>(r)]
                                 .front());
      for (const int cpu : set) {
        ASSERT_GE(cpu, 0);
        ASSERT_LT(cpu, t.total_cpus);
        if (c.ranks <= t.total_cpus) {
          EXPECT_EQ(owner[static_cast<std::size_t>(cpu)], -1)
              << "CPU " << cpu << " is in two ranks' sets";
        }
        owner[static_cast<std::size_t>(cpu)] = r;
      }
    }
  }
  // The order's positions r, r + ranks, ...: compact interleaves ranks
  // over the domains in order; scatter keeps each rank in its domain.
  EXPECT_EQ(plan_placement(synthetic_topology(2, 4), 2,
                           PlacementPolicy::kCompact, 4)
                .cpus_of_rank,
            (CpuSets{{0, 2, 4, 6}, {1, 3, 5, 7}}));
  EXPECT_EQ(plan_placement(synthetic_topology(2, 4), 4,
                           PlacementPolicy::kScatter, 2)
                .cpus_of_rank,
            (CpuSets{{0, 2}, {4, 6}, {1, 3}, {5, 7}}));
  // A set never repeats a CPU, however wide the rank.
  EXPECT_EQ(plan_placement(synthetic_topology(1, 4), 4,
                           PlacementPolicy::kCompact, 2)
                .cpus_of_rank,
            (CpuSets{{0}, {1}, {2}, {3}}));
}

// --- the rank runtime ---

TEST(RankTeam, RunsEveryRankConcurrently) {
  RankTeam team(4, synthetic_topology(1, 4), PlacementPolicy::kNone);
  std::vector<int> hits(4, 0);
  team.run(4, [&](int r) { hits[static_cast<std::size_t>(r)] = r + 1; });
  EXPECT_EQ(hits, (std::vector<int>{1, 2, 3, 4}));
  // A narrower run (post-shrink): extra workers idle.
  std::atomic<int> count{0};
  team.run(2, [&](int) { ++count; });
  EXPECT_EQ(count.load(), 2);
}

TEST(RankTeam, RethrowsLowestRankException) {
  RankTeam team(4, synthetic_topology(1, 4), PlacementPolicy::kNone);
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
    RankTeam team(2, synthetic_topology(1, 2), PlacementPolicy::kNone);
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

TEST(RankTeam, PinnedWorkersOwnAsManyCpusAsTheirLoopWidth) {
  // The CPUs this process may use, as the host's one domain, so every
  // planned CPU can really be pinned to.
  HostTopology host;
  host.domains.push_back(NumaDomain{0, allowed_cpus()});
  host.total_cpus = static_cast<int>(host.domains[0].cpus.size());
  if (host.total_cpus < 2) {
    GTEST_SKIP() << "needs at least 2 CPUs in the affinity mask";
  }
  const test::LoopWidthGuard restore;
  set_loop_width(host.total_cpus);
  for (const int workers : {1, 2}) {
    for (const PlacementPolicy policy :
         {PlacementPolicy::kCompact, PlacementPolicy::kScatter}) {
      std::vector<int> widths(static_cast<std::size_t>(workers), 0);
      std::vector<int> owned(static_cast<std::size_t>(workers), 0);
      RankTeam team(workers, host, policy);
      EXPECT_EQ(team.pinned(), workers);
      EXPECT_FALSE(team.polls());
      team.run(workers, [&](int r) {
        widths[static_cast<std::size_t>(r)] = loop_width();
        owned[static_cast<std::size_t>(r)] =
            static_cast<int>(allowed_cpus().size());
      });
      EXPECT_EQ(widths, owned);
      // Without OpenMP every width is 1, and so is every set.
      EXPECT_EQ(widths[0], std::max(1, loop_width() / workers));
    }
  }
}

/// Runs `regions` back-to-back regions on `team`, every seventh of them on
/// half the workers (a shrunk cluster), and checks that every region ran
/// each of its ranks exactly once and no other.
void expect_every_rank_once_per_region(RankTeam& team, int regions) {
  const int workers = team.workers();
  std::vector<int> runs(static_cast<std::size_t>(workers), 0);
  std::vector<int> last(static_cast<std::size_t>(workers), -1);
  std::vector<int> expected(static_cast<std::size_t>(workers), 0);
  for (int i = 0; i < regions; ++i) {
    const int count = i % 7 == 6 ? std::max(1, workers / 2) : workers;
    team.run(count, [&runs, &last, i](int r) {
      ++runs[static_cast<std::size_t>(r)];
      last[static_cast<std::size_t>(r)] = i;
    });
    for (int r = 0; r < count; ++r) {
      ++expected[static_cast<std::size_t>(r)];
      ASSERT_EQ(last[static_cast<std::size_t>(r)], i)
          << "rank " << r << " missed region " << i;
    }
    ASSERT_EQ(runs, expected) << "after region " << i;
  }
}

TEST(RankTeam, BackToBackRegionsRunEveryRankOnceWhetherWorkersPollOrBlock) {
  const test::LoopWidthGuard restore;
  set_loop_width(1);
  const int cpus = static_cast<int>(allowed_cpus().size());
  {
    // Two workers, or one on one CPU: the team fits, so workers poll.
    const int fit = std::min(2, cpus);
    RankTeam team(fit, synthetic_topology(1, fit), PlacementPolicy::kNone);
    ASSERT_TRUE(team.polls());
    expect_every_rank_once_per_region(team, 10000);
  }
  {
    // A team wider than the CPUs: two workers as wide as all of them
    // (the caller's width is twice the CPUs), or, where loops have no
    // width to give (no OpenMP), one worker more than the CPUs. Workers
    // block at once.
    set_loop_width(2 * cpus);
    const int workers = loop_width() == 2 * cpus ? 2 : cpus + 1;
    RankTeam team(workers, synthetic_topology(1, workers),
                  PlacementPolicy::kNone);
    ASSERT_FALSE(team.polls());
    expect_every_rank_once_per_region(team, 10000);
  }
  // Destroyed while its workers poll for a next region that never comes:
  // the destructor must wake and join them.
  for (int i = 0; i < 100; ++i) {
    RankTeam team(2, synthetic_topology(1, 2), PlacementPolicy::kNone);
    std::atomic<int> ran{0};
    team.run(i % 2 + 1, [&](int) { ++ran; });
    EXPECT_EQ(ran.load(), i % 2 + 1);
  }
}

TEST(RankTeam, PairArriveCombinesOutcomes) {
  RankTeam team(2, synthetic_topology(1, 2), PlacementPolicy::kNone);
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
  RankTeam team(2, synthetic_topology(1, 2), PlacementPolicy::kNone);
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
  c.enable_concurrent();
  std::vector<std::byte> got(3);
  std::thread receiver([&] { c.recv(0, 1, got); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::vector<std::byte> sent{std::byte{7}, std::byte{8}, std::byte{9}};
  c.send(0, 1, sent);
  receiver.join();
  EXPECT_EQ(got, sent);
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
  // Retries are value-transparent: the final state matches the serial
  // engine bitwise. A spec names a sender's own message, so every run of
  // either engine fires the same faults and charges the same retries.
  const Circuit c = build_qft(8);
  DistOptions base;
  base.max_message_bytes = 256;
  DistStateVectorSoa serial(c.num_qubits(), 4, base);
  FaultInjector fi_serial(parse_fault_plan("drop@5:1,corrupt@9:2"));
  serial.set_fault_injector(&fi_serial);
  serial.apply(c);
  EXPECT_EQ(fi_serial.totals().dropped, 1u);
  EXPECT_EQ(fi_serial.totals().corrupted, 1u);
  EXPECT_EQ(fi_serial.totals().retries, 2u);

  for (int run = 0; run < 2; ++run) {
    DistStateVectorSoa threaded(c.num_qubits(), 4, threaded_opts(4, base));
    FaultInjector fi(parse_fault_plan("drop@5:1,corrupt@9:2"));
    threaded.set_fault_injector(&fi);
    threaded.apply(c);
    expect_states_identical(serial, threaded);
    EXPECT_EQ(fi.totals(), fi_serial.totals());
  }
}

TEST(ThreadedEngine, ExhaustedRetriesEscalateSymmetrically) {
  DistStateVectorSoa sv(6, 4, threaded_opts(4));
  // Rank 0's first send and all three re-sends are lost: its pair can
  // never complete the exchange, and both of its ranks give up together.
  FaultInjector fi(parse_fault_plan("drop@1, drop@2, drop@3, drop@4"));
  sv.set_fault_injector(&fi);
  const Circuit c = build_qft(6);
  EXPECT_THROW(sv.apply(c), NodeFailure);
  EXPECT_EQ(fi.totals().retries, static_cast<std::uint64_t>(kMaxRetries));
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
  serial.reshard(2, 3);
  threaded.reshard(2, 3);
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

// --- one engine model: rank threads change the clock, nothing else ---

/// The 6-qubit probe of tools/check_determinism.sh. At 4 ranks gates 0 and
/// 6 exchange and gates 10-19 are rank-local, so a failure at gate 12 is
/// recoverable by every tier from the gate-10 checkpoint.
Circuit determinism_probe() {
  Circuit c(6, "determinism_probe");
  c.add(make_h(4));
  c.add(make_h(0));
  c.add(make_cx(0, 1));
  c.add(make_rz(1, 0.37));
  c.add(make_h(2));
  c.add(make_cx(2, 3));
  c.add(make_h(5));
  c.add(make_rx(3, 0.81));
  c.add(make_cz(0, 2));
  c.add(make_ry(1, 1.13));
  c.add(make_rz(0, 0.29));
  c.add(make_cx(1, 2));
  c.add(make_rz(1, 0.4));
  c.add(make_cx(2, 3));
  c.add(make_rz(2, 0.51));
  c.add(make_cx(3, 0));
  c.add(make_rz(3, 0.62));
  c.add(make_cx(0, 1));
  c.add(make_rz(0, 0.73));
  c.add(make_cx(1, 2));
  return c;
}

struct EngineCase {
  int ranks;
  CommPolicy policy;
  std::size_t cap;
  std::string faults;
  ElasticOptions elastic;
  /// Message faults (drops, corruptions, delays) the spec fires.
  std::uint64_t message_faults;
};

/// What one run records, apart from its wall time.
struct EngineRecord {
  std::vector<ExecEvent> events;
  FaultInjector::Totals totals;
  /// Sorted: rank threads log their faults in the scheduler's order.
  std::vector<FaultEvent> faults;
  CommStats comm;
  IntegrityStats integrity;
  std::string digest;
};

/// Runs `c` as qsv run does: on the verified path with checkpoints, the
/// health monitor and the case's tiers when faults are planned, on the
/// plain path otherwise.
EngineRecord run_on_engine(const Circuit& c, const EngineCase& k,
                           bool threaded) {
  DistOptions opts;
  opts.policy = k.policy;
  opts.max_message_bytes = k.cap;
  opts.threading.threads = threaded ? k.ranks : 0;
  DistStateVectorSoa sv(c.num_qubits(), k.ranks, opts);
  RecordingListener rec;
  sv.set_listener(&rec);
  const test::ScratchDir scratch("engine_model");
  std::optional<FaultInjector> inj;
  RunSpec spec;
  if (!k.faults.empty()) {
    inj.emplace(parse_fault_plan(k.faults));
    sv.set_fault_injector(&*inj);
    spec.checkpoint.interval_gates = 5;
    spec.checkpoint.dir = scratch.path();
    spec.recovery.health.enabled = true;
    spec.elastic = k.elastic;
  }
  const RunOutcome out = run_circuit(sv, c, spec);

  EngineRecord r;
  r.events = rec.events();
  r.comm = sv.comm_stats();
  r.integrity = out.integrity;
  r.digest = out.digest;
  if (inj) {
    r.totals = inj->totals();
    r.faults = inj->log();
    std::sort(r.faults.begin(), r.faults.end(),
              [](const FaultEvent& a, const FaultEvent& b) {
                return std::tie(a.gate, a.kind, a.rank, a.peer, a.message) <
                       std::tie(b.gate, b.kind, b.rank, b.peer, b.message);
              });
  }
  return r;
}

void expect_one_record(const EngineRecord& serial,
                       const EngineRecord& threaded) {
  ASSERT_EQ(serial.events.size(), threaded.events.size());
  for (std::size_t i = 0; i < serial.events.size(); ++i) {
    EXPECT_TRUE(serial.events[i] == threaded.events[i]) << "event " << i;
  }
  EXPECT_TRUE(serial.totals == threaded.totals);
  EXPECT_TRUE(serial.faults == threaded.faults);
  // What the senders put on the wire. Receive-side counters differ by how
  // far each side of a failed round got before the round was retried.
  EXPECT_EQ(serial.comm.messages, threaded.comm.messages);
  EXPECT_EQ(serial.comm.bytes, threaded.comm.bytes);
  const IntegrityStats& a = serial.integrity;
  const IntegrityStats& b = threaded.integrity;
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.substitutions, b.substitutions);
  EXPECT_EQ(a.shrinks, b.shrinks);
  EXPECT_EQ(a.grow_backs, b.grow_backs);
  EXPECT_EQ(a.final_ranks, b.final_ranks);
  EXPECT_EQ(a.tiers_used, b.tiers_used);
  EXPECT_EQ(a.checkpoints_written, b.checkpoints_written);
  EXPECT_EQ(a.gates_replayed, b.gates_replayed);
  EXPECT_TRUE(a.health == b.health);
  EXPECT_EQ(serial.digest, threaded.digest);
}

TEST(EngineModel, RankThreadsChangeTheClockAndNothingElse) {
  const Circuit c = determinism_probe();
  const std::size_t kDefaultCap = DistOptions{}.max_message_bytes;
  ElasticOptions spare;
  spare.spares = 1;
  ElasticOptions shrink;
  shrink.allow_shrink = true;
  ElasticOptions grow = shrink;
  grow.allow_grow_back = true;

  std::vector<EngineCase> cases;
  for (const int ranks : {2, 4, 8}) {
    for (const CommPolicy policy :
         {CommPolicy::kBlocking, CommPolicy::kNonBlocking,
          CommPolicy::kOverlapped}) {
      for (const std::size_t cap : {kDefaultCap, std::size_t{64}}) {
        // Ranks 0 and 1 take part in the first exchange at every width.
        cases.push_back({ranks, policy, cap, "", {}, 0});
        cases.push_back({ranks, policy, cap, "corrupt@1:1", {}, 1});
        cases.push_back({ranks, policy, cap, "delay@1:0.05", {}, 1});
      }
    }
  }
  // A threaded receiver waits out the watchdog on each drop, so few drops.
  // Every rank sends two messages at 4 ranks and the default cap, so no
  // engine drops a third.
  cases.push_back({4, CommPolicy::kBlocking, kDefaultCap, "drop@3", {}, 0});
  cases.push_back({4, CommPolicy::kBlocking, kDefaultCap, "drop@2:1", {}, 1});
  cases.push_back({2, CommPolicy::kNonBlocking, 64, "drop@5", {}, 1});
  cases.push_back({8, CommPolicy::kOverlapped, 64, "drop@1:1", {}, 1});
  cases.push_back({4, CommPolicy::kOverlapped, 64,
                   "corrupt@3:2, delay@5:0.2, corrupt@6", {}, 3});
  // Every recovery tier. Each rank sends one message in each of gates 0 and
  // 6, so rank 3's third send is the shrink's move, rank 0's third the
  // grow-back's first.
  cases.push_back({4, CommPolicy::kBlocking, kDefaultCap, "fail@12:1", {}, 0});
  cases.push_back(
      {4, CommPolicy::kNonBlocking, kDefaultCap, "fail@12:1", spare, 0});
  cases.push_back({4, CommPolicy::kOverlapped, kDefaultCap,
                   "fail@12:1, corrupt@3:3", shrink, 1});
  cases.push_back(
      {4, CommPolicy::kBlocking, kDefaultCap, "fail@12:1, drop@3:3", shrink,
       1});
  cases.push_back({4, CommPolicy::kBlocking, kDefaultCap,
                   "fail@12:1, revive@16, corrupt@3", grow, 1});
  // Exhausted retries restart: on the first exchange, while the other pair
  // completes its own, and on the shrink's move.
  cases.push_back({4, CommPolicy::kNonBlocking, kDefaultCap,
                   "corrupt@1:1, corrupt@2:1, corrupt@3:1, corrupt@4:1", {},
                   4});
  cases.push_back(
      {4, CommPolicy::kBlocking, kDefaultCap,
       "fail@12:1, corrupt@3:3, corrupt@4:3, corrupt@5:3, corrupt@6:3",
       shrink, 4});
  cases.push_back(
      {2, CommPolicy::kOverlapped, 64, "fail@12:1, revive@16", grow, 0});
  cases.push_back({8, CommPolicy::kNonBlocking, 64, "fail@12:1", spare, 0});

  std::string clean_digest;
  for (const EngineCase& k : cases) {
    SCOPED_TRACE(std::to_string(k.ranks) + " ranks, " +
                 comm_policy_name(k.policy) + ", cap " +
                 std::to_string(k.cap) + ", faults '" + k.faults + "'");
    const EngineRecord serial = run_on_engine(c, k, false);
    const EngineRecord threaded = run_on_engine(c, k, true);
    expect_one_record(serial, threaded);
    EXPECT_EQ(serial.totals.dropped + serial.totals.corrupted +
                  serial.totals.straggled,
              k.message_faults);
    if (clean_digest.empty()) {
      clean_digest = serial.digest;
    }
    EXPECT_EQ(serial.digest, clean_digest);
    if (k.faults.empty()) {
      DistOptions opts;
      opts.policy = k.policy;
      opts.max_message_bytes = k.cap;
      TraceSim sim(c.num_qubits(), k.ranks, opts);
      RecordingListener traced;
      sim.set_listener(&traced);
      sim.apply(c);
      EXPECT_TRUE(traced.events() == threaded.events);
    }
  }
}

}  // namespace
}  // namespace qsv
