// The serve subsystem under friendly and hostile load: the JSON layer, the
// wire protocol, the plan cache, the bounded queue, admission control, and
// an end-to-end in-process server over a real Unix socket — including the
// acceptance contract that an accepted job's digest is identical to what
// `qsv run` computes for the same circuit.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "circuit/serialize.hpp"
#include "common/crc32.hpp"
#include "common/parallel.hpp"
#include "common/stop.hpp"
#include "dist/dist_statevector.hpp"
#include "machine/archer2.hpp"
#include "perf/fleet.hpp"
#include "perf/runner.hpp"
#include "serve/admission.hpp"
#include "serve/json.hpp"
#include "serve/plan_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/queue.hpp"
#include "serve/server.hpp"
#include "sv/storage.hpp"
#include "test_util.hpp"

namespace qsv::serve {
namespace {

// ---------------------------------------------------------------- JSON --

TEST(ServeJson, RoundTripsFlatObject) {
  const Json j = parse_json(
      R"({"op":"run","ranks":4,"sheddable":true,"deadline_s":1.5,"id":"x"})");
  ASSERT_TRUE(j.is_object());
  EXPECT_EQ(j.find("op")->as_string(), "run");
  EXPECT_EQ(j.find("ranks")->as_number(), 4);
  EXPECT_TRUE(j.find("sheddable")->as_bool());
  EXPECT_DOUBLE_EQ(j.find("deadline_s")->as_number(), 1.5);
  EXPECT_EQ(j.find("nope"), nullptr);
  // dump() → parse() is the identity on the protocol's value space.
  const Json again = parse_json(j.dump());
  EXPECT_EQ(again.find("id")->as_string(), "x");
}

TEST(ServeJson, EscapesAndUnicode) {
  const Json j = parse_json(R"({"s":"a\"b\\c\nAé"})");
  EXPECT_EQ(j.find("s")->as_string(), "a\"b\\c\nA\xc3\xa9");
  // Control characters must be escaped on the way out (one line per
  // response is the framing, so a raw newline would split a reply).
  const std::string dumped = Json(JsonObject{{"k", "a\nb"}}).dump();
  EXPECT_EQ(dumped.find('\n'), std::string::npos);
  EXPECT_NE(dumped.find("\\n"), std::string::npos);
}

TEST(ServeJson, RejectsHostileInput) {
  EXPECT_THROW(parse_json("{not json"), ProtocolError);
  EXPECT_THROW(parse_json(""), ProtocolError);
  EXPECT_THROW(parse_json("{} trailing"), ProtocolError);
  EXPECT_THROW(parse_json(R"({"a":1e999})"), ProtocolError);  // non-finite
  EXPECT_THROW(parse_json(R"({"a":"\q"})"), ProtocolError);   // bad escape
  // Nesting bomb: depth cap, not stack overflow.
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  EXPECT_THROW(parse_json(deep), ProtocolError);
  // Size cap.
  EXPECT_THROW(parse_json(std::string(64, ' ') + "{}", 8), ProtocolError);
}

TEST(ServeJson, TypedAccessorsThrowOnMismatch) {
  const Json j = parse_json(R"({"circuit":42})");
  EXPECT_THROW((void)j.find("circuit")->as_string(), ProtocolError);
  EXPECT_THROW((void)j.find("circuit")->as_object(), ProtocolError);
  EXPECT_EQ(j.find("circuit")->as_number(), 42);
}

// ------------------------------------------------------------ protocol --

TEST(ServeProtocol, DefaultsAndValidation) {
  const JobRequest r =
      parse_request(R"({"op":"run","circuit":"qubits 1\nh 0\n"})", 0);
  EXPECT_EQ(r.op, Op::kRun);
  EXPECT_EQ(r.ranks, 4);
  EXPECT_TRUE(r.sheddable);
  EXPECT_TRUE(r.transpile);
  EXPECT_FALSE(r.crc32.has_value());

  EXPECT_THROW(parse_request(R"({"op":"fly"})", 0), ProtocolError);
  EXPECT_THROW(parse_request(R"({"op":"run"})", 0), ProtocolError);  // no circuit
  EXPECT_THROW(
      parse_request(R"({"op":"run","circuit":"x","ranks":0})", 0),
      ProtocolError);
  EXPECT_THROW(
      parse_request(R"({"op":"run","circuit":"x","deadline_s":-1})", 0),
      ProtocolError);
  const std::string long_id(65, 'a');
  EXPECT_THROW(
      parse_request(R"({"op":"ping","id":")" + long_id + R"("})", 0),
      ProtocolError);
  EXPECT_THROW(
      parse_request(R"({"op":"run","circuit":"x","crc32":-1})", 0),
      ProtocolError);
}

// ---------------------------------------------------------- plan cache --

std::shared_ptr<const CachedPlan> tiny_plan() {
  Circuit c(1, "t");
  c.add(make_h(0));
  auto p = std::make_shared<CachedPlan>(c);
  return p;
}

TEST(PlanCache, HitMissAndLruEviction) {
  PlanCache cache(2);
  const PlanKey a{"a", 1, true}, b{"b", 1, true}, c{"c", 1, true};
  (void)cache.get_or_build(a, tiny_plan);
  (void)cache.get_or_build(b, tiny_plan);
  (void)cache.get_or_build(a, tiny_plan);  // hit; a becomes most recent
  (void)cache.get_or_build(c, tiny_plan);  // evicts b (least recent)
  (void)cache.get_or_build(b, tiny_plan);  // miss again
  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(PlanCache, CapacityZeroDisablesCaching) {
  PlanCache cache(0);
  const PlanKey k{"k", 1, true};
  (void)cache.get_or_build(k, tiny_plan);
  (void)cache.get_or_build(k, tiny_plan);
  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.entries, 0u);
}

TEST(PlanCache, KeyDistinguishesDecomposition) {
  // The same circuit at a different rank count is a different plan (the
  // sweep runs depend on the local-qubit split).
  PlanCache cache(8);
  (void)cache.get_or_build({"c", 1, true}, tiny_plan);
  (void)cache.get_or_build({"c", 2, true}, tiny_plan);
  (void)cache.get_or_build({"c", 1, false}, tiny_plan);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().entries, 3u);
}

// --------------------------------------------------------------- queue --

std::unique_ptr<QueuedJob> make_job(const std::string& id, int ranks,
                                    bool sheddable) {
  auto j = std::make_unique<QueuedJob>();
  j->id = id;
  j->ranks = ranks;
  j->sheddable = sheddable;
  return j;
}

TEST(JobQueue, ShedsOldestSheddableWhenFull) {
  JobQueue q(2, 8);
  auto a = make_job("a", 1, true);
  auto fa = a->response.get_future();
  auto b = make_job("b", 1, false);
  EXPECT_EQ(q.push(std::move(a)), PushResult::kQueued);
  EXPECT_EQ(q.push(std::move(b)), PushResult::kQueued);
  EXPECT_EQ(q.push(make_job("c", 1, true)), PushResult::kQueuedAfterShed);
  const JobSettlement sa = fa.get();  // the oldest sheddable job bounced
  EXPECT_EQ(sa.kind, JobSettlement::Kind::kShed);
  EXPECT_NE(sa.line.find("\"status\":\"shed\""), std::string::npos);
  EXPECT_EQ(q.depth(), 2u);
}

TEST(JobQueue, RejectsNewcomerWhenFullOfUnsheddableWork) {
  JobQueue q(1, 8);
  EXPECT_EQ(q.push(make_job("a", 1, false)), PushResult::kQueued);
  auto b = make_job("b", 1, true);
  auto fb = b->response.get_future();
  EXPECT_EQ(q.push(std::move(b)), PushResult::kRejectedFull);
  const JobSettlement sb = fb.get();
  EXPECT_EQ(sb.kind, JobSettlement::Kind::kRejected);
  EXPECT_NE(sb.line.find("queue full"), std::string::npos);
}

TEST(JobQueue, BinPacksAgainstTheNodePool) {
  JobQueue q(8, 4);
  (void)q.push(make_job("wide", 4, true));
  (void)q.push(make_job("narrow", 1, true));
  auto wide = q.pop_ready();
  ASSERT_NE(wide, nullptr);
  EXPECT_EQ(wide->id, "wide");
  EXPECT_EQ(q.nodes_busy(), 4);
  // The narrow job must wait: the pool is exhausted. Run the blocking pop
  // on another thread and release the wide job's nodes.
  std::atomic<bool> got{false};
  std::thread t([&] {
    auto narrow = q.pop_ready();
    ASSERT_NE(narrow, nullptr);
    EXPECT_EQ(narrow->id, "narrow");
    got.store(true);
    q.release(narrow->ranks);
  });
  EXPECT_FALSE(got.load());
  q.release(wide->ranks);
  t.join();
  EXPECT_TRUE(got.load());
  EXPECT_EQ(q.nodes_busy(), 0);
}

TEST(JobQueue, DrainFlushesEverythingTyped) {
  JobQueue q(8, 4);
  auto a = make_job("a", 1, true);
  auto fa = a->response.get_future();
  auto b = make_job("b", 1, false);  // even unsheddable work is flushed
  auto fb = b->response.get_future();
  (void)q.push(std::move(a));
  (void)q.push(std::move(b));
  q.drain();
  EXPECT_EQ(fa.get().kind, JobSettlement::Kind::kShed);
  EXPECT_EQ(fb.get().kind, JobSettlement::Kind::kShed);
  EXPECT_EQ(q.pop_ready(), nullptr);  // workers wake and exit
  // Pushing after drain settles immediately.
  auto c = make_job("c", 1, true);
  auto fc = c->response.get_future();
  EXPECT_EQ(q.push(std::move(c)), PushResult::kRejectedDraining);
  EXPECT_EQ(fc.get().kind, JobSettlement::Kind::kShed);
}

// ----------------------------------------------------------- admission --

const std::string kGhz = "qubits 3\nh 0\ncx 0 1\ncx 1 2\n";

JobRequest run_request(const std::string& circuit, int ranks = 2) {
  JobRequest r;
  r.op = Op::kRun;
  r.circuit_text = circuit;
  r.ranks = ranks;
  return r;
}

TEST(Admission, AcceptsFeasibleAndCachesThePlan) {
  const MachineModel m = archer2();
  PlanCache cache(8);
  AdmissionController ctl(m, AdmissionLimits{}, cache);
  const AdmissionDecision d1 = ctl.decide(run_request(kGhz));
  ASSERT_TRUE(d1.admit) << d1.reason;
  EXPECT_FALSE(d1.cache_hit);
  ASSERT_NE(d1.plan, nullptr);
  EXPECT_GT(d1.plan->estimate.total_energy_j(), 0);
  const AdmissionDecision d2 = ctl.decide(run_request(kGhz));
  ASSERT_TRUE(d2.admit);
  EXPECT_TRUE(d2.cache_hit);
  EXPECT_EQ(d1.plan.get(), d2.plan.get());  // shared immutable plan
}

/// Appends "# salt XXXX" to `body` with the four bytes XXXX forged so the
/// whole text has CRC-32 `target` (CRC-32 is linear: four free bytes reach
/// any value). Salts are tried until the forged bytes hold no newline, which
/// would end the comment.
std::string forge_crc32(const std::string& body, std::uint32_t target) {
  std::uint32_t table[256];
  std::uint8_t by_top_byte[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t r = i;
    for (int k = 0; k < 8; ++k) {
      r = (r & 1) != 0 ? (r >> 1) ^ 0xEDB88320u : r >> 1;
    }
    table[i] = r;
    by_top_byte[r >> 24] = static_cast<std::uint8_t>(i);
  }
  for (int salt = 0;; ++salt) {
    const std::string prefix = body + "# " + std::to_string(salt) + " ";
    // Walk back from the wanted register to the four table indices, then
    // forward from the prefix's register to the bytes that select them.
    std::uint8_t idx[4];
    std::uint32_t x = ~target;
    for (int j = 3; j >= 0; --j) {
      idx[j] = by_top_byte[x >> 24];
      x = (x ^ table[idx[j]]) << 8;
    }
    std::uint32_t reg = ~crc32(prefix.data(), prefix.size());
    std::string text = prefix;
    for (std::uint8_t i : idx) {
      text += static_cast<char>((reg ^ i) & 0xFF);
      reg = (reg >> 8) ^ table[i];
    }
    if (text.find('\n', prefix.size()) == std::string::npos) {
      return text;
    }
  }
}

TEST(Admission, CrcCollidingCircuitsGetTheirOwnPlans) {
  // Two different circuits with one CRC-32: the cache must tell them apart,
  // or the second runs the first one's plan and reports a wrong digest.
  const std::string other_body = "qubits 3\nh 0\ncx 0 1\nx 2\n";
  const std::string forged =
      forge_crc32(other_body, crc32(kGhz.data(), kGhz.size()));
  ASSERT_EQ(crc32(forged.data(), forged.size()),
            crc32(kGhz.data(), kGhz.size()));

  const MachineModel m = archer2();
  PlanCache cache(8);
  AdmissionController ctl(m, AdmissionLimits{}, cache);
  JobRequest ghz = run_request(kGhz);
  JobRequest other = run_request(forged);
  ghz.transpile = other.transpile = false;
  const AdmissionDecision d1 = ctl.decide(ghz);
  const AdmissionDecision d2 = ctl.decide(other);
  ASSERT_TRUE(d1.admit && d2.admit);
  EXPECT_FALSE(d2.cache_hit);
  EXPECT_NE(d1.plan.get(), d2.plan.get());
  EXPECT_EQ(circuit_to_text(d1.plan->circuit),
            circuit_to_text(parse_circuit(kGhz)));
  EXPECT_EQ(circuit_to_text(d2.plan->circuit),
            circuit_to_text(parse_circuit(other_body)));

  // The key is the canonical circuit, not the raw text: the same circuit
  // without the comment shares the plan, which does not depend on which
  // client's spelling built it.
  JobRequest plain = run_request(other_body);
  plain.transpile = false;
  const AdmissionDecision d3 = ctl.decide(plain);
  EXPECT_TRUE(d3.cache_hit);
  EXPECT_EQ(d2.plan.get(), d3.plan.get());
  const AdmissionDecision commented = ctl.decide(run_request(kGhz + "# c\n"));
  ASSERT_TRUE(commented.admit);
  EXPECT_FALSE(commented.plan->transpiled);
}

TEST(Admission, RejectsWithTypedReasons) {
  const MachineModel m = archer2();
  PlanCache cache(8);
  AdmissionLimits lim;
  lim.nodes = 4;
  lim.max_qubits = 10;
  AdmissionController ctl(m, lim, cache);

  JobRequest bad_crc = run_request(kGhz);
  bad_crc.crc32 = 0xdeadbeef;  // not the CRC of kGhz
  EXPECT_NE(ctl.decide(bad_crc).reason.find("crc32 mismatch"),
            std::string::npos);

  EXPECT_NE(ctl.decide(run_request(kGhz, 3)).reason.find("power of two"),
            std::string::npos);
  EXPECT_NE(ctl.decide(run_request(kGhz, 8)).reason.find("capacity"),
            std::string::npos);
  EXPECT_NE(ctl.decide(run_request("qubits 2\nh 0\ncx 0 1\n", 4))
                .reason.find("cannot split"),
            std::string::npos);
  EXPECT_NE(
      ctl.decide(run_request("qubits 12\nh 0\n")).reason.find("service cap"),
      std::string::npos);

  // Malformed circuits throw (typed) rather than return a rejection.
  EXPECT_THROW((void)ctl.decide(run_request("qubits 0\n")), Error);
}

TEST(Admission, EnergyBudgetRejectsExpensiveJobs) {
  const MachineModel m = archer2();
  PlanCache cache(8);
  AdmissionLimits lim;
  lim.energy_budget_j = 1e-9;  // everything is over budget
  AdmissionController ctl(m, lim, cache);
  const AdmissionDecision d = ctl.decide(run_request(kGhz));
  EXPECT_FALSE(d.admit);
  EXPECT_NE(d.reason.find("energy"), std::string::npos);
  EXPECT_EQ(d.plan, nullptr);
}

// ------------------------------------------------------------- metrics --

TEST(FleetMetrics, PercentilesAndAttribution) {
  FleetMetrics fm;
  for (int i = 1; i <= 100; ++i) {
    fm.on_received();
    fm.on_completed(i / 1000.0, 2.0);
  }
  fm.on_rejected();
  fm.on_shed();
  const FleetSnapshot s = fm.snapshot();
  EXPECT_EQ(s.completed, 100u);
  EXPECT_NEAR(s.p50_latency_s, 0.0505, 1e-3);
  EXPECT_NEAR(s.p99_latency_s, 0.100, 1e-3);
  EXPECT_DOUBLE_EQ(s.joules_per_request, 2.0);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.shed, 1u);
  const std::string table = FleetMetrics::render(s);
  EXPECT_NE(table.find("fleet:"), std::string::npos);
  EXPECT_NE(table.find("J/request"), std::string::npos);
}

// ----------------------------------------------------------- deadlines --

TEST(StopToken, DeadlinesPastTheClockRangeNeverFire) {
  // 1e10 s is past the 2^63 ns a steady_clock time point can hold.
  for (double s : {1e10, 1e300, std::numeric_limits<double>::infinity()}) {
    const StopToken t = StopToken::after_seconds(s);
    EXPECT_TRUE(t.possible()) << s;
    EXPECT_FALSE(t.expired()) << s;
  }
  EXPECT_TRUE(StopToken::after_seconds(0).expired());
}

// ---------------------------------------------------------- end-to-end --

/// Minimal blocking line client for the tests.
class Client {
 public:
  explicit Client(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << std::strerror(errno);
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  Json rpc(const std::string& line) {
    const std::string framed = line + "\n";
    EXPECT_EQ(::send(fd_, framed.data(), framed.size(), 0),
              static_cast<ssize_t>(framed.size()));
    std::string buf;
    char c = 0;
    while (::recv(fd_, &c, 1, 0) == 1 && c != '\n') {
      buf.push_back(c);
    }
    return parse_json(buf);
  }

 private:
  int fd_ = -1;
};

std::string test_socket_path(const char* tag) {
  return "serve_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

ServerOptions small_server(const std::string& path) {
  ServerOptions so;
  so.socket_path = path;
  so.workers = 2;
  so.queue_capacity = 4;
  return so;
}

/// Field `key` of a server response. A response without it fails the
/// current test by name (gtest reports the exception) instead of
/// dereferencing a null pointer and taking every later test down with it.
const Json& field(const Json& response, const std::string& key) {
  const Json* const f = response.find(key);
  if (f == nullptr) {
    throw std::runtime_error("response has no \"" + key +
                             "\" field: " + response.dump());
  }
  return *f;
}

/// The digest `qsv run` would print for this circuit — computed directly.
std::string direct_digest(const std::string& circuit_text, int ranks) {
  const Circuit c = parse_circuit(circuit_text);
  DistStateVector<SoaStorage> sv(c.num_qubits(), ranks, DistOptions{});
  sv.apply(c);
  return state_digest(sv);
}

TEST(ServerEndToEnd, RunDigestMatchesDirectRunAndCacheHits) {
  const MachineModel m = archer2();
  const std::string path = test_socket_path("digest");
  Server server(m, small_server(path));
  server.start();
  {
    Client client(path);
    const Json r1 = client.rpc(
        R"({"op":"run","id":"a","circuit":"qubits 3\nh 0\ncx 0 1\ncx 1 2\n","ranks":2})");
    EXPECT_EQ(field(r1, "status").as_string(), "ok");
    EXPECT_EQ(field(r1, "digest").as_string(), direct_digest(kGhz, 2));
    EXPECT_EQ(field(r1, "cache").as_string(), "miss");
    const Json r2 = client.rpc(
        R"({"op":"run","id":"b","circuit":"qubits 3\nh 0\ncx 0 1\ncx 1 2\n","ranks":2})");
    EXPECT_EQ(field(r2, "status").as_string(), "ok");
    EXPECT_EQ(field(r2, "digest").as_string(), direct_digest(kGhz, 2));
    EXPECT_EQ(field(r2, "cache").as_string(), "hit");
  }
  server.request_drain();
  server.wait_until_drained();
  EXPECT_EQ(server.cache_stats().hits, 1u);
  EXPECT_EQ(server.fleet().completed, 2u);
}

TEST(ServerEndToEnd, WorkersTakeTheirShareOfTheCallersLoopWidth) {
  const test::LoopWidthGuard restore;
  const MachineModel m = archer2();
  // A worker thread starts at the process default width; the server hands
  // each the constructing thread's width split across the workers.
  set_loop_width(1);
  const Server narrow(m, small_server(test_socket_path("width1")));
  EXPECT_EQ(narrow.worker_width(), 1);
  set_loop_width(4);
  const bool settable = loop_width() == 4;  // false without OpenMP
  const std::string path = test_socket_path("width4");
  Server server(m, small_server(path));
  EXPECT_EQ(server.worker_width(), settable ? 2 : 1);

  // A one-rank job of 2^16 amplitudes opens teams at the worker's width
  // and lands on the digest of a run at the caller's.
  std::string circuit = "qubits 16\n";
  for (int q = 0; q < 16; ++q) {
    circuit += "h " + std::to_string(q) + "\n";
  }
  for (int q = 0; q + 1 < 16; ++q) {
    circuit += "cx " + std::to_string(q) + " " + std::to_string(q + 1) +
               "\n";
  }
  server.start();
  {
    Client client(path);
    const Json r = client.rpc(Json(JsonObject{{"op", "run"},
                                              {"id", "w"},
                                              {"circuit", circuit},
                                              {"ranks", 1}})
                                  .dump());
    ASSERT_EQ(field(r, "status").as_string(), "ok");
    EXPECT_EQ(field(r, "digest").as_string(), direct_digest(circuit, 1));
  }
  server.request_drain();
  server.wait_until_drained();
}

TEST(ServerEndToEnd, HostileRequestsGetTypedResponsesAndServerSurvives) {
  const MachineModel m = archer2();
  const std::string path = test_socket_path("hostile");
  Server server(m, small_server(path));
  server.start();
  {
    Client client(path);
    // Malformed JSON.
    Json r = client.rpc("{broken");
    EXPECT_EQ(field(r, "status").as_string(), "error");
    EXPECT_EQ(field(r, "error_kind").as_string(), "protocol");
    // A parse error names the input line, not a source file of the server.
    const auto expect_names_line = [](const Json& resp, int line) {
      const std::string error = field(resp, "error").as_string();
      EXPECT_NE(error.find("circuit parse error at line " +
                           std::to_string(line) + ":"),
                std::string::npos)
          << error;
      EXPECT_EQ(error.find("precondition"), std::string::npos) << error;
      EXPECT_EQ(error.find(".cpp"), std::string::npos) << error;
    };
    // Well-formed JSON, hostile circuit (absurd width).
    r = client.rpc(R"({"op":"run","id":"w","circuit":"qubits 99\nh 0\n"})");
    EXPECT_EQ(field(r, "status").as_string(), "error");
    EXPECT_EQ(field(r, "error_kind").as_string(), "parse");
    expect_names_line(r, 1);
    // Truncated circuit stream (gate references a missing qubit).
    r = client.rpc(R"({"op":"run","id":"t","circuit":"qubits 2\ncx 0 5\n"})");
    EXPECT_EQ(field(r, "status").as_string(), "error");
    EXPECT_EQ(field(r, "error_kind").as_string(), "parse");
    expect_names_line(r, 2);
    // CRC-mismatch payload is rejected before parsing effort.
    r = client.rpc(
        R"({"op":"run","id":"c","circuit":"qubits 3\nh 0\ncx 0 1\ncx 1 2\n","crc32":1})");
    EXPECT_EQ(field(r, "status").as_string(), "rejected");
    // The server is still fine: a good job right after completes.
    r = client.rpc(
        R"({"op":"run","id":"g","circuit":"qubits 3\nh 0\ncx 0 1\ncx 1 2\n","ranks":2})");
    EXPECT_EQ(field(r, "status").as_string(), "ok");
  }
  server.request_drain();
  server.wait_until_drained();
  const FleetSnapshot s = server.fleet();
  EXPECT_EQ(s.received, 5u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.protocol_errors, 1u);
  EXPECT_EQ(s.parse_errors, 2u);
  EXPECT_EQ(s.rejected, 1u);
}

TEST(ServerEndToEnd, DeadlineCancelsAtSafePointWithPartialCost) {
  const MachineModel m = archer2();
  const std::string path = test_socket_path("deadline");
  Server server(m, small_server(path));
  server.start();
  {
    Client client(path);
    // A deadline that has effectively already passed at admission: the
    // worker cancels before the first gate run — still a typed response
    // with the priced (empty) prefix.
    const Json r = client.rpc(
        R"({"op":"run","id":"d","circuit":"qubits 3\nh 0\ncx 0 1\ncx 1 2\n","ranks":2,"deadline_s":1e-9})");
    EXPECT_EQ(field(r, "status").as_string(), "deadline");
    EXPECT_EQ(field(r, "gates").as_number(), 3);
    EXPECT_LE(field(r, "gates_done").as_number(), 3);
    EXPECT_GE(field(r, "queue_s").as_number(), 0);
  }
  server.request_drain();
  server.wait_until_drained();
  EXPECT_EQ(server.fleet().deadline_expired, 1u);
}

TEST(ServerEndToEnd, DeadlinePastTheClockRangeNeverFires) {
  const MachineModel m = archer2();
  const std::string path = test_socket_path("far_deadline");
  Server server(m, small_server(path));
  server.start();
  {
    Client client(path);
    for (const std::string deadline : {"1e10", "1e300"}) {
      const Json r = client.rpc(
          R"({"op":"run","id":"far","circuit":"qubits 3\nh 0\ncx 0 1\ncx 1 2\n","ranks":2,"deadline_s":)" +
          deadline + "}");
      ASSERT_EQ(field(r, "status").as_string(), "ok") << deadline;
      EXPECT_EQ(field(r, "digest").as_string(), direct_digest(kGhz, 2))
          << deadline;
    }
  }
  server.request_drain();
  server.wait_until_drained();
  EXPECT_EQ(server.fleet().completed, 2u);
  EXPECT_EQ(server.fleet().deadline_expired, 0u);
}

TEST(ServerEndToEnd, PriceAnswersFromThePlanWithoutRunningAJob) {
  const MachineModel m = archer2();
  const std::string path = test_socket_path("price");
  Server server(m, small_server(path));
  server.start();
  {
    Client client(path);
    const std::string price =
        R"({"op":"price","id":"p","circuit":"qubits 3\nh 0\ncx 0 1\ncx 1 2\n","ranks":2})";
    const Json miss = client.rpc(price);
    ASSERT_EQ(field(miss, "status").as_string(), "ok");
    EXPECT_TRUE(field(miss, "priced").as_bool());
    EXPECT_EQ(field(miss, "gates").as_number(), 3);
    EXPECT_EQ(field(miss, "ranks").as_number(), 2);
    EXPECT_GT(field(miss, "runtime_s").as_number(), 0);
    EXPECT_GT(field(miss, "energy_j").as_number(), 0);
    EXPECT_EQ(field(miss, "cache").as_string(), "miss");
    EXPECT_EQ(miss.find("digest"), nullptr);  // nothing ran
    const Json hit = client.rpc(price);
    ASSERT_EQ(field(hit, "status").as_string(), "ok");
    EXPECT_EQ(field(hit, "cache").as_string(), "hit");
    EXPECT_EQ(field(hit, "runtime_s").as_number(),
              field(miss, "runtime_s").as_number());
    EXPECT_EQ(field(hit, "energy_j").as_number(),
              field(miss, "energy_j").as_number());
  }
  server.request_drain();
  server.wait_until_drained();
  EXPECT_EQ(server.fleet().priced, 2u);
  EXPECT_EQ(server.fleet().accepted, 0u);
  EXPECT_EQ(server.fleet().completed, 0u);
}

TEST(ServerEndToEnd, StatsCountTheRequestsSent) {
  const MachineModel m = archer2();
  const std::string path = test_socket_path("stats");
  Server server(m, small_server(path));
  server.start();
  {
    Client client(path);
    const std::string job =
        R"("circuit":"qubits 3\nh 0\ncx 0 1\ncx 1 2\n","ranks":2})";
    EXPECT_EQ(
        field(client.rpc(R"({"op":"price","id":"p",)" + job), "cache")
            .as_string(),
        "miss");
    EXPECT_EQ(
        field(client.rpc(R"({"op":"run","id":"r",)" + job), "cache")
            .as_string(),
        "hit");
    EXPECT_EQ(
        field(client.rpc(R"({"op":"ping","id":"g"})"), "status").as_string(),
        "pong");
    const Json s = client.rpc(R"({"op":"stats","id":"s"})");
    ASSERT_EQ(field(s, "status").as_string(), "stats");
    EXPECT_EQ(field(s, "id").as_string(), "s");
    // The stats request is counted as received before it is answered.
    EXPECT_EQ(field(s, "received").as_number(), 4);
    EXPECT_EQ(field(s, "completed").as_number(), 1);
    EXPECT_EQ(field(s, "priced").as_number(), 1);
    EXPECT_EQ(field(s, "rejected").as_number(), 0);
    EXPECT_EQ(field(s, "cache_misses").as_number(), 1);
    EXPECT_EQ(field(s, "cache_hits").as_number(), 1);
    EXPECT_EQ(field(s, "cache_entries").as_number(), 1);
  }
  server.request_drain();
  server.wait_until_drained();
  EXPECT_EQ(server.fleet().stats_requests, 1u);
}

TEST(ServerEndToEnd, OverloadBurstEveryRequestSettledTyped) {
  const MachineModel m = archer2();
  const std::string path = test_socket_path("overload");
  ServerOptions so = small_server(path);
  so.workers = 1;
  so.queue_capacity = 2;  // tiny: the burst must shed
  Server server(m, so);
  server.start();
  constexpr int kClients = 12;
  std::vector<std::thread> threads;
  // Replies are read on this thread: a missing field throws, which on a
  // client thread would terminate the binary.
  std::vector<Json> replies(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client(path);
      replies[i] = client.rpc(
          R"({"op":"run","id":"burst)" + std::to_string(i) +
          R"(","circuit":"qubits 6\nh 0\nh 1\nh 2\nh 3\nh 4\nh 5\ncx 0 5\n","ranks":2})");
    });
  }
  for (std::thread& t : threads) t.join();
  server.request_drain();
  server.wait_until_drained();
  std::uint64_t ok = 0, shed = 0, rejected = 0;
  for (const Json& reply : replies) {
    const std::string& s = field(reply, "status").as_string();
    // Every burst request got exactly one typed settlement.
    ASSERT_TRUE(s == "ok" || s == "shed" || s == "rejected") << s;
    ok += s == "ok";
    shed += s == "shed";
    rejected += s == "rejected";
  }
  const FleetSnapshot fs = server.fleet();
  EXPECT_EQ(ok, fs.completed);
  EXPECT_EQ(shed, fs.shed);
  EXPECT_EQ(rejected, fs.rejected);
  EXPECT_EQ(ok + shed + rejected, static_cast<std::uint64_t>(kClients));
  EXPECT_GE(ok, 1u);  // at least some work got through
}

TEST(ServerEndToEnd, DrainShedsQueuedWorkAndRefusesNewJobs) {
  const MachineModel m = archer2();
  const std::string path = test_socket_path("drain");
  Server server(m, small_server(path));
  server.start();
  {
    Client client(path);
    EXPECT_EQ(
        field(client.rpc(R"({"op":"ping","id":"p"})"), "status").as_string(),
        "pong");
  }
  server.request_drain();
  server.wait_until_drained();
  // The socket is gone: a fresh connect must fail.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_NE(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ::close(fd);
}

}  // namespace
}  // namespace qsv::serve
