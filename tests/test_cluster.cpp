#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "cluster/faults.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "test_util.hpp"

namespace qsv {
namespace {

std::vector<std::byte> payload(std::initializer_list<int> vals) {
  std::vector<std::byte> p;
  for (int v : vals) {
    p.push_back(static_cast<std::byte>(v));
  }
  return p;
}

/// A plan that corrupts rank 0's first `n` sends.
FaultPlan corrupt_first_sends(int n) {
  std::string text;
  for (int m = 1; m <= n; ++m) {
    text += "corrupt@";
    text += std::to_string(m);
    text += ',';
  }
  return parse_fault_plan(text);
}

TEST(Cluster, RequiresPowerOfTwoRanks) {
  EXPECT_NO_THROW(VirtualCluster(1, 1024));
  EXPECT_NO_THROW(VirtualCluster(64, 1024));
  EXPECT_THROW(VirtualCluster(3, 1024), Error);
  EXPECT_THROW(VirtualCluster(0, 1024), Error);
}

TEST(Cluster, SendRecvDeliversInOrder) {
  VirtualCluster c(4, 1024);
  c.send(0, 1, payload({1, 2, 3}));
  c.send(0, 1, payload({9}));
  std::vector<std::byte> a(3);
  std::vector<std::byte> b(1);
  c.recv(0, 1, a);
  c.recv(0, 1, b);
  EXPECT_EQ(a, payload({1, 2, 3}));
  EXPECT_EQ(b, payload({9}));
  EXPECT_TRUE(c.quiescent());
}

TEST(Cluster, QueuesArePerDirectedPair) {
  VirtualCluster c(4, 1024);
  c.send(0, 1, payload({1}));
  c.send(1, 0, payload({2}));
  EXPECT_EQ(c.pending(0, 1), 1u);
  EXPECT_EQ(c.pending(1, 0), 1u);
  EXPECT_EQ(c.pending(2, 3), 0u);
  std::vector<std::byte> buf(1);
  c.recv(1, 0, buf);
  EXPECT_EQ(buf, payload({2}));
  c.recv(0, 1, buf);
  EXPECT_EQ(buf, payload({1}));
}

TEST(Cluster, EnforcesMessageCap) {
  VirtualCluster c(2, 16);
  std::vector<std::byte> big(17);
  EXPECT_THROW(c.send(0, 1, big), Error);
  std::vector<std::byte> ok(16);
  EXPECT_NO_THROW(c.send(0, 1, ok));
}

TEST(Cluster, RejectsBadRanksAndSelfSend) {
  VirtualCluster c(2, 1024);
  std::vector<std::byte> p(1);
  EXPECT_THROW(c.send(0, 2, p), Error);
  EXPECT_THROW(c.send(-1, 0, p), Error);
  EXPECT_THROW(c.send(0, 0, p), Error);
}

TEST(Cluster, RecvWithoutMessageThrows) {
  VirtualCluster c(2, 1024);
  std::vector<std::byte> buf(1);
  EXPECT_THROW(c.recv(0, 1, buf), Error);
}

TEST(Cluster, RecvSizeMustMatch) {
  VirtualCluster c(2, 1024);
  c.send(0, 1, payload({1, 2}));
  std::vector<std::byte> small(1);
  EXPECT_THROW(c.recv(0, 1, small), Error);
}

TEST(Cluster, StatsTrackTraffic) {
  VirtualCluster c(4, 1024);
  c.send(0, 1, payload({1, 2, 3}));
  c.send(1, 0, payload({4, 5}));
  std::vector<std::byte> b3(3);
  std::vector<std::byte> b2(2);
  c.recv(0, 1, b3);
  c.recv(1, 0, b2);

  const CommStats& s = c.stats();
  EXPECT_EQ(s.messages, 2u);
  EXPECT_EQ(s.bytes, 5u);
  EXPECT_EQ(s.max_message_bytes, 3u);
  EXPECT_EQ(s.max_in_flight, 2u);

  c.reset_stats();
  EXPECT_EQ(c.stats().messages, 0u);
}

TEST(Cluster, MaxInFlightSeesQueueDepth) {
  VirtualCluster c(2, 1024);
  for (int i = 0; i < 5; ++i) {
    c.send(0, 1, payload({i}));
  }
  std::vector<std::byte> b(1);
  for (int i = 0; i < 5; ++i) {
    c.recv(0, 1, b);
  }
  EXPECT_EQ(c.stats().max_in_flight, 5u);
  EXPECT_TRUE(c.quiescent());
}

TEST(Cluster, ErrorMessagesCarryBothRanksDepthAndCap) {
  VirtualCluster c(4, 16);

  // Oversized send: names both ranks, the payload size and the cap.
  try {
    c.send(0, 1, std::vector<std::byte>(17));
    FAIL() << "expected cap error";
  } catch (const Error& e) {
    const std::string w = e.what();
    EXPECT_NE(w.find("0 -> 1"), std::string::npos);
    EXPECT_NE(w.find("17"), std::string::npos);
    EXPECT_NE(w.find("16"), std::string::npos);
  }

  // Empty-queue recv: names the pair, the (zero) queue depth and the cap.
  try {
    std::vector<std::byte> buf(1);
    c.recv(2, 3, buf);
    FAIL() << "expected timeout error";
  } catch (const Error& e) {
    const std::string w = e.what();
    EXPECT_NE(w.find("2 -> 3"), std::string::npos);
    EXPECT_NE(w.find("queue depth 0"), std::string::npos);
    EXPECT_NE(w.find("16"), std::string::npos);
  }

  // Size-mismatch recv: names both sizes and the live queue depth.
  c.send(0, 1, payload({1, 2}));
  c.send(0, 1, payload({3}));
  try {
    std::vector<std::byte> small(1);
    c.recv(0, 1, small);
    FAIL() << "expected size mismatch";
  } catch (const Error& e) {
    const std::string w = e.what();
    EXPECT_NE(w.find("0 -> 1"), std::string::npos);
    EXPECT_NE(w.find("queue depth 2"), std::string::npos);
    EXPECT_NE(w.find("1 bytes"), std::string::npos);
    EXPECT_NE(w.find("2 bytes"), std::string::npos);
  }
}

TEST(Cluster, PurgePairClearsBothDirections) {
  VirtualCluster c(4, 1024);
  c.send(0, 1, payload({1}));
  c.send(1, 0, payload({2}));
  c.send(2, 3, payload({3}));
  c.purge_pair(0, 1);
  EXPECT_EQ(c.pending(0, 1), 0u);
  EXPECT_EQ(c.pending(1, 0), 0u);
  EXPECT_EQ(c.pending(2, 3), 1u);  // unrelated pairs untouched
  std::vector<std::byte> buf(1);
  c.recv(2, 3, buf);
  EXPECT_TRUE(c.quiescent());
}

TEST(Cluster, ResetQueuesRestoresQuiescence) {
  VirtualCluster c(4, 1024);
  c.send(0, 1, payload({1}));
  c.send(2, 3, payload({2}));
  EXPECT_FALSE(c.quiescent());
  c.reset_queues();
  EXPECT_TRUE(c.quiescent());
  EXPECT_EQ(c.pending(0, 1), 0u);
  std::vector<std::byte> buf(1);
  EXPECT_THROW(c.recv(0, 1, buf), Error);
}

TEST(Cluster, CleanDeliveriesAreCountedAsVerified) {
  VirtualCluster c(2, 1024);
  c.send(0, 1, payload({1, 2, 3}));
  std::vector<std::byte> b(3);
  c.recv(0, 1, b);
  EXPECT_EQ(c.stats().delivered, 1u);
  EXPECT_EQ(c.stats().checksum_failures, 0u);
}

TEST(Cluster, CorruptedPayloadFailsItsChecksumAtTheReceiver) {
  FaultInjector inj(parse_fault_plan("corrupt@1"));
  VirtualCluster c(2, 1024);
  c.set_fault_injector(&inj);
  c.send(0, 1, payload({1, 2, 3, 4}));
  std::vector<std::byte> b(4);
  try {
    c.recv(0, 1, b);
    FAIL() << "expected CommCorrupt";
  } catch (const CommCorrupt& e) {
    const std::string w = e.what();
    EXPECT_NE(w.find("0 -> 1"), std::string::npos);
    EXPECT_NE(w.find("CRC-32 mismatch"), std::string::npos);
  }
  EXPECT_EQ(c.stats().checksum_failures, 1u);
  EXPECT_EQ(c.stats().delivered, 0u);
  EXPECT_EQ(inj.totals().corrupted, 1u);
}

TEST(Cluster, InjectedCorruptionCanNeverPassTheChecksum) {
  // Regression for the oracle removal: the receiver consults no injector
  // state, so the only way a corrupted payload could be delivered is a
  // CRC-32 collision — impossible for the injector's single-bit flips.
  // A corrupted-but-checksum-clean delivery cannot be constructed through
  // the public API.
  FaultInjector inj(corrupt_first_sends(32));  // every message below
  VirtualCluster c(2, 1024);
  c.set_fault_injector(&inj);
  for (int i = 0; i < 32; ++i) {
    c.send(0, 1, payload({i, i + 1, 7 * i}));
    std::vector<std::byte> b(3);
    EXPECT_THROW(c.recv(0, 1, b), CommCorrupt);
  }
  EXPECT_EQ(c.stats().checksum_failures, 32u);
  EXPECT_EQ(c.stats().delivered, 0u);
  EXPECT_EQ(inj.totals().corrupted, 32u);
}

TEST(Cluster, WatchdogDeadlineIsConfigurableAndNamedInTheTimeout) {
  EXPECT_THROW(VirtualCluster(2, 1024, 0.0), Error);
  EXPECT_THROW(VirtualCluster(2, 1024, -1.0), Error);

  VirtualCluster c(2, 1024, 0.25);
  EXPECT_DOUBLE_EQ(c.recv_deadline_s(), 0.25);
  try {
    std::vector<std::byte> b(1);
    c.recv(0, 1, b);
    FAIL() << "expected CommTimeout";
  } catch (const CommTimeout& e) {
    const std::string w = e.what();
    EXPECT_NE(w.find("watchdog deadline"), std::string::npos);
    EXPECT_NE(w.find("0.25"), std::string::npos);
  }
}

TEST(Cluster, PurgePairDropsInFlightMessagesInBothDirections) {
  // Regression: a failed rank can leave an unconsumed message it *sent*
  // (the reverse direction of the pair) queued, not just messages sent to
  // it. purge_pair must clear both directions or the substituted rank's
  // next exchange receives a stale slice.
  VirtualCluster c(2, 1024);
  c.send(0, 1, payload({1, 2, 3}));
  c.send(1, 0, payload({4, 5, 6}));
  ASSERT_EQ(c.pending(0, 1), 1u);
  ASSERT_EQ(c.pending(1, 0), 1u);
  EXPECT_FALSE(c.quiescent());

  c.purge_pair(0, 1);
  EXPECT_EQ(c.pending(0, 1), 0u);
  EXPECT_EQ(c.pending(1, 0), 0u);
  EXPECT_TRUE(c.quiescent());
}

TEST(Cluster, PurgeRankClearsEveryQueueTouchingTheRankAndNoOthers) {
  VirtualCluster c(4, 1024);
  c.send(0, 1, payload({1}));
  c.send(1, 2, payload({2}));
  c.send(2, 3, payload({3}));

  c.purge_rank(1);
  EXPECT_EQ(c.pending(0, 1), 0u);
  EXPECT_EQ(c.pending(1, 2), 0u);
  EXPECT_EQ(c.pending(2, 3), 1u);

  std::vector<std::byte> b(1);
  c.recv(2, 3, b);  // the unrelated queue still delivers
  EXPECT_TRUE(c.quiescent());
}

TEST(Cluster, ResizeToHalvesAndRestoresTheWidthAndPreservesStats) {
  VirtualCluster c(4, 1024);
  c.send(0, 1, payload({1, 2}));
  std::vector<std::byte> b(2);
  c.recv(0, 1, b);
  const CommStats before = c.stats();
  ASSERT_GT(before.messages, 0u);

  c.resize_to(2);
  EXPECT_EQ(c.num_ranks(), 2);
  // The lifetime traffic record survives the re-shard.
  EXPECT_EQ(c.stats(), before);
  c.resize_to(4);
  EXPECT_EQ(c.num_ranks(), 4);
  EXPECT_EQ(c.stats(), before);
}

TEST(Cluster, ResizeToRejectsBadWidthsAndBusyClusters) {
  VirtualCluster c(4, 1024);
  EXPECT_THROW(c.resize_to(0), Error);
  EXPECT_THROW(c.resize_to(3), Error);   // not a power of two
  EXPECT_THROW(c.resize_to(6), Error);
  EXPECT_THROW(c.resize_to(4), Error);   // not a change
  EXPECT_THROW(c.resize_to(-4), Error);

  c.send(0, 1, payload({9}));
  EXPECT_THROW(c.resize_to(2), Error);   // in-flight message: not quiescent
  EXPECT_THROW(c.resize_to(8), Error);
  std::vector<std::byte> b(1);
  c.recv(0, 1, b);
  c.resize_to(2);                        // quiescent again: allowed
  EXPECT_EQ(c.num_ranks(), 2);
}

/// `n` bytes of a pattern that differs between seeds.
std::vector<std::byte> pattern(std::size_t n, int seed) {
  std::vector<std::byte> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::byte>(i * 131u + static_cast<unsigned>(seed) * 29u);
  }
  return p;
}

TEST(Cluster, RecycledStorageIsInvisibleToDelivery) {
  // One pair, one message at a time, so every send after the first reuses
  // the storage of a corrupted, smaller, dropped-around or purged message.
  FaultInjector inj(parse_fault_plan("corrupt@1,drop@4"));
  VirtualCluster c(2, 1024);
  c.set_fault_injector(&inj);
  std::vector<std::byte> got;

  // 1: corrupted in flight.
  c.send(0, 1, pattern(512, 1));
  got.assign(512, std::byte{0});
  EXPECT_THROW(c.recv(0, 1, got), CommCorrupt);

  // 2, 3: a smaller message in the larger message's storage, then a larger
  // one. The size checks see the payload, not the storage behind it.
  const std::vector<std::byte> small = pattern(3, 2);
  c.send(0, 1, small);
  got.assign(4, std::byte{0});
  EXPECT_THROW(c.recv(0, 1, got), Error);
  got.assign(512, std::byte{0});
  EXPECT_THROW(c.recv(0, 1, got), Error);
  got.assign(3, std::byte{0});
  c.recv(0, 1, got);
  EXPECT_EQ(got, small);
  const std::vector<std::byte> large = pattern(1024, 3);
  c.send(0, 1, large);
  got.assign(1024, std::byte{0});
  c.recv(0, 1, got);
  EXPECT_EQ(got, large);

  // 4: dropped, so never filled, and its receive times out.
  bool filled = false;
  c.send(0, 1, 100, VirtualCluster::kAnyTag,
         [&](std::span<std::byte>) { filled = true; });
  EXPECT_FALSE(filled);
  got.assign(100, std::byte{0});
  EXPECT_THROW(c.recv(0, 1, got), CommTimeout);

  // 5: purged by tag before anyone received it.
  c.send(0, 1, pattern(200, 5), 7);
  c.purge_tag(0, 1, 7);
  EXPECT_TRUE(c.quiescent());

  // 6: the re-send, through the fill and drain forms.
  const std::vector<std::byte> resent = pattern(200, 6);
  c.send(0, 1, resent.size(), 7, [&](std::span<std::byte> b) {
    ASSERT_EQ(b.size(), resent.size());
    std::copy(resent.begin(), resent.end(), b.begin());
  });
  got.clear();
  c.recv(0, 1, resent.size(), 7, [&](std::span<const std::byte> b) {
    got.assign(b.begin(), b.end());
  });
  EXPECT_EQ(got, resent);
  got.assign(200, std::byte{0});
  EXPECT_THROW(c.recv(0, 1, got, 7), CommTimeout);

  EXPECT_EQ(c.stats().messages, 6u);
  EXPECT_EQ(c.stats().delivered, 3u);
  EXPECT_EQ(c.stats().checksum_failures, 1u);
  EXPECT_EQ(inj.totals().corrupted, 1u);
  EXPECT_EQ(inj.totals().dropped, 1u);
}

TEST(Cluster, RegrownStorageRoundTripsCleanAndCorrupted) {
  // Each send reuses the storage the previous message left, and a larger
  // one regrows it unwritten: the fill is the first write of every byte,
  // and the checksum must cover exactly what it wrote.
  FaultInjector inj(parse_fault_plan("corrupt@3"));
  VirtualCluster c(2, 8192);
  c.set_fault_injector(&inj);
  std::vector<std::byte> got(16);
  c.send(0, 1, pattern(16, 1));
  c.recv(0, 1, got);
  EXPECT_EQ(got, pattern(16, 1));

  // Regrown from 16 to 4096 bytes, clean.
  c.send(0, 1, pattern(4096, 2));
  got.assign(4096, std::byte{0});
  c.recv(0, 1, got);
  EXPECT_EQ(got, pattern(4096, 2));

  // Regrown from 4096 to 8192 bytes, corrupted in flight: caught, and the
  // receiver's memory is untouched.
  c.send(0, 1, pattern(8192, 3));
  const std::vector<std::byte> sentinel(8192, std::byte{0xA5});
  got = sentinel;
  EXPECT_THROW(c.recv(0, 1, got), CommCorrupt);
  EXPECT_EQ(got, sentinel);

  // The re-send lands in the same storage and arrives intact.
  c.send(0, 1, pattern(8192, 3));
  c.recv(0, 1, got);
  EXPECT_EQ(got, pattern(8192, 3));

  EXPECT_EQ(c.stats().messages, 4u);
  EXPECT_EQ(c.stats().bytes, 16u + 4096u + 8192u + 8192u);
  EXPECT_EQ(c.stats().delivered, 3u);
  EXPECT_EQ(c.stats().checksum_failures, 1u);
  EXPECT_EQ(inj.totals().corrupted, 1u);
  EXPECT_TRUE(c.quiescent());
}

TEST(Cluster, CorruptPayloadNeverReachesTheReceiversMemory) {
  FaultInjector inj(corrupt_first_sends(3));  // every faulted send below
  VirtualCluster c(2, 1024);
  c.set_fault_injector(&inj);
  const std::vector<std::byte> sentinel(64, std::byte{0xA5});

  c.send(0, 1, pattern(64, 1));
  std::vector<std::byte> out = sentinel;
  EXPECT_THROW(c.recv(0, 1, out), CommCorrupt);
  EXPECT_EQ(out, sentinel);

  c.send(0, 1, pattern(64, 2));
  bool drained = false;
  EXPECT_THROW(c.recv(0, 1, 64, VirtualCluster::kAnyTag,
                      [&](std::span<const std::byte>) { drained = true; }),
               CommCorrupt);
  EXPECT_FALSE(drained);
  EXPECT_EQ(c.stats().checksum_failures, 2u);
  EXPECT_TRUE(c.quiescent());

  // A 2 MiB payload at loop width 4: the fill, both checksums and the
  // drain are split across a team, and the verdict still comes before any
  // byte reaches the receiver.
  const test::LoopWidthGuard restore;
  set_loop_width(4);
  const std::size_t big = std::size_t{2} << 20;
  VirtualCluster wide(2, big);
  wide.set_fault_injector(&inj);
  const std::vector<std::byte> big_sentinel(big, std::byte{0xA5});
  wide.send(0, 1, pattern(big, 3));
  std::vector<std::byte> big_out = big_sentinel;
  EXPECT_THROW(wide.recv(0, 1, big_out), CommCorrupt);
  EXPECT_TRUE(big_out == big_sentinel);
  EXPECT_EQ(wide.stats().checksum_failures, 1u);

  // The same payload delivered clean arrives intact.
  wide.set_fault_injector(nullptr);
  wide.send(0, 1, pattern(big, 4));
  wide.recv(0, 1, big_out);
  EXPECT_TRUE(big_out == pattern(big, 4));
  EXPECT_EQ(wide.stats().delivered, 1u);
  EXPECT_TRUE(wide.quiescent());
}

TEST(Cluster, PolicyNames) {
  EXPECT_STREQ(comm_policy_name(CommPolicy::kBlocking), "blocking");
  EXPECT_STREQ(comm_policy_name(CommPolicy::kNonBlocking), "non-blocking");
}

}  // namespace
}  // namespace qsv
