// The untraced pass: builds each workload's inputs from the seed, checks
// them with the oracle, and times the real `qsv run` and `qsv serve`
// binaries as child processes. README.md gives the reason for each
// workload and each size.
#include <filesystem>
#include <limits>
#include <thread>

#include "circuit/builders.hpp"
#include "circuit/serialize.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "e2e.hpp"

namespace qsv::e2e {
namespace {

// One rep takes 0.35-1.1 s on the reference host, so a 15 s run holds
// more than ten and reports their median: single reps on a shared host
// vary by up to 20%.
constexpr RunWorkload kRunWorkloads[] = {
    {"run_local", 21, 16, 1, false, CommPolicy::kBlocking, false},
    {"run_exchange", 19, 3, 4, false, CommPolicy::kBlocking, false},
    {"run_threaded", 19, 3, 4, true, CommPolicy::kOverlapped, false},
    {"run_faulted", 18, 6, 4, false, CommPolicy::kBlocking, true},
};

/// Server spawns timed for setup_s before each serve burst; a run_* rep
/// has one engine construction before each child.
constexpr int kServeSetupsPerBurst = 2;

/// One serve_small burst: 78% pool, 20% unique RCS, 2% malformed.
constexpr int kBurstRequests = 100;
constexpr int kBurstUnique = 20;
constexpr int kBurstMalformed = 2;
constexpr int kServeRcsDepth = 8;

/// Requests the server must answer with a typed error: broken JSON, a
/// field of the wrong type, and circuit text that does not parse.
const char* const kMalformed[] = {
    R"({"op":"run","id":"bad","circuit":)",
    R"({"op":"run","id":"bad","circuit":42})",
    R"({"op":"run","id":"bad","ranks":1,"circuit":"qubits 4\nfrobnicate 0\n"})",
};

struct PoolEntry {
  std::string text;
  int ranks = 1;
};

/// The eight circuits most serve requests repeat. The QFTs run at one rank,
/// where the cache-blocking transpile leaves them unchanged, so the
/// oracle's digest of the untranspiled circuit is the one served.
std::vector<PoolEntry> pool_entries(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<Circuit, int>> pool;
  for (const int n : {12, 14, 16}) {
    pool.emplace_back(build_qft(n), 1);
  }
  pool.emplace_back(build_ghz(16), 4);
  pool.emplace_back(build_rcs(12, kServeRcsDepth, rng), 2);
  pool.emplace_back(build_rcs(14, kServeRcsDepth, rng), 4);
  pool.emplace_back(build_rcs(16, kServeRcsDepth, rng), 2);
  pool.emplace_back(build_grover(10, rng.below(amp_index{1} << 10)), 2);
  std::vector<PoolEntry> out;
  for (const auto& [c, ranks] : pool) {
    out.push_back({circuit_to_text(c), ranks});
  }
  return out;
}

ServeRequest make_run(const std::string& id, const PoolEntry& e,
                      Oracle& oracle, Result& r) {
  return {id, run_request(id, e.text, e.ranks), oracle.digest(e.text, r)};
}

Result run_pass(const RunWorkload& w, const RunOptions& o) {
  Result r;
  const std::string circuit = o.work_dir + "/circuit.qc";
  save_circuit(circuit, run_circuit(w, o.seed));
  const Reference ref = reference(load_circuit(circuit));
  r.check(ref.max_amp_diff <= kMaxAmpDiff,
          "reference engines disagree by " + std::to_string(ref.max_amp_diff));

  // Set-up samples are taken between the children, so that they span the
  // run as the timed reps do.
  std::vector<double> setup;
  auto set_up = [&] {
    const auto t0 = Clock::now();
    const auto sv = std::make_unique<DistStateVector<SoaStorage>>(
        w.qubits, w.ranks, dist_options(w));
    setup.push_back(seconds_since(t0));
  };
  int runs = 0;
  auto run_once = [&]() {
    set_up();
    const std::string ck = o.work_dir + "/ck" + std::to_string(runs++);
    std::filesystem::create_directory(ck);
    ChildRun c = run_child(run_argv(w, circuit, ck));
    std::filesystem::remove_all(ck);
    const bool ok = c.exit.code == 0 && digest_line(c.out) == ref.digest;
    r.check(ok, std::string(w.name) + ": qsv run exited " +
                    std::to_string(c.exit.code) + " with digest '" +
                    digest_line(c.out) + "', expected " + ref.digest);
    return std::make_pair(std::move(c), ok);
  };

  // The first child pays for cold pages and caches; every later one finds
  // them warm, as repeated jobs on one host do.
  (void)run_once();

  std::vector<double> wall;
  std::vector<double> rss;
  std::vector<double> latency_ms;
  std::uint64_t ok = 0;
  const auto t0 = Clock::now();
  while (wall.empty() || seconds_since(t0) < o.seconds) {
    const auto [c, good] = run_once();
    wall.push_back(c.wall_s);
    rss.push_back(c.exit.maxrss_mib);
    latency_ms.push_back(good ? c.wall_s * 1e3
                              : std::numeric_limits<double>::infinity());
    ok += good ? 1 : 0;
  }

  const std::size_t n = wall.size();
  r.add("run_s", median(wall), "s", n);
  r.add("setup_s", median(setup), "s", setup.size());
  r.add("peak_rss_mib", median(rss), "MiB", n);
  r.add("jobs_per_s", static_cast<double>(ok) / sum(wall), "1/s", n);
  r.add("latency_p50_ms", median(latency_ms), "ms", n);
  r.add("latency_p99_ms", tail(latency_ms), "ms", n);
  return r;
}

Result serve_pass(const RunOptions& o) {
  Result r;
  Oracle oracle;
  const std::vector<ServeRequest> pool = serve_pool(o.seed, oracle, r);
  const std::string socket = o.work_dir + "/serve.sock";

  // Set-up samples: a second server spawned to its first pong and drained
  // between bursts, so that they span the run as the bursts do.
  std::vector<double> setup;
  auto set_up = [&] {
    const auto t0 = Clock::now();
    const std::unique_ptr<Child> s = start_server(o.work_dir + "/setup.sock");
    setup.push_back(seconds_since(t0));
    s->terminate();
    r.check(s->wait().code == 0, "qsv serve did not drain cleanly");
  };

  const std::unique_ptr<Child> server = start_server(socket);
  std::vector<std::unique_ptr<LineClient>> clients = connect_clients(socket);
  // Warm-up: one request per pool circuit fills the plan cache, as a
  // long-running server's cache is full.
  for (const ServeRequest& q : pool) {
    check_response(q, clients[0]->rpc(q.line), r);
  }

  std::vector<double> burst_wall;
  std::vector<double> latency_ms;
  std::uint64_t ok = 0;
  const auto t0 = Clock::now();
  for (int b = 0; burst_wall.empty() || seconds_since(t0) < o.seconds; ++b) {
    for (int i = 0; i < kServeSetupsPerBurst; ++i) {
      set_up();
    }
    const std::vector<ServeRequest> reqs = serve_burst(o.seed, b, oracle, r);
    const Burst burst = run_burst(clients, reqs, r);
    burst_wall.push_back(burst.wall_s);
    latency_ms.insert(latency_ms.end(), burst.latency_ms.begin(),
                      burst.latency_ms.end());
    ok += burst.ok;
  }
  clients.clear();
  server->terminate();
  const Child::Exit exit = server->wait();
  r.check(exit.code == 0, "qsv serve exited " + std::to_string(exit.code));

  const std::size_t bursts = burst_wall.size();
  r.add("run_s", median(burst_wall), "s", bursts);
  r.add("setup_s", median(setup), "s", setup.size());
  r.add("peak_rss_mib", exit.maxrss_mib, "MiB", 1);
  r.add("jobs_per_s", static_cast<double>(ok) / sum(burst_wall), "1/s",
        bursts);
  r.add("latency_p50_ms", median(latency_ms), "ms", latency_ms.size());
  r.add("latency_p99_ms", tail(latency_ms), "ms", latency_ms.size());
  return r;
}

}  // namespace

const RunWorkload* find_run_workload(const std::string& name) {
  for (const RunWorkload& w : kRunWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

DistOptions dist_options(const RunWorkload& w) {
  DistOptions opts;
  opts.policy = w.policy;
  opts.threading.threads = w.threaded ? w.ranks : 0;
  opts.threading.placement = PlacementPolicy::kNone;
  return opts;
}

std::vector<std::string> run_argv(const RunWorkload& w,
                                  const std::string& circuit,
                                  const std::string& ck_dir) {
  // Every engine choice is an explicit flag, so QSV_* variables in the
  // environment cannot change a workload.
  std::vector<std::string> argv = {QSV_E2E_QSV_BINARY,
                                   "run",
                                   circuit,
                                   "--ranks",
                                   std::to_string(w.ranks),
                                   "--threads",
                                   w.threaded ? "auto" : "0",
                                   "--policy",
                                   comm_policy_name(w.policy),
                                   "--placement",
                                   "none"};
  if (w.faulted) {
    for (const std::string& a :
         {std::string("--faults"), std::string(kFaultPlan),
          std::string("--spares"), std::to_string(kFaultSpares),
          std::string("--guards"), std::to_string(kFaultGuards),
          std::string("--checkpoint-interval"),
          std::to_string(kFaultCheckpointInterval),
          std::string("--checkpoint-dir"), ck_dir}) {
      argv.push_back(a);
    }
  }
  return argv;
}

std::string digest_line(const std::string& out) {
  const std::string key = "state crc32: ";
  const std::size_t at = out.find(key);
  return at == std::string::npos ? std::string{}
                                 : out.substr(at + key.size(), 8);
}

Circuit run_circuit(const RunWorkload& w, std::uint64_t seed) {
  Rng rng(seed);
  return build_rcs(w.qubits, w.depth, rng);
}

const std::string& Oracle::digest(const std::string& text, Result& r) {
  auto it = digests_.find(text);
  if (it == digests_.end()) {
    const Reference ref = reference(parse_circuit(text));
    r.check(ref.max_amp_diff <= kMaxAmpDiff,
            "reference engines disagree by " +
                std::to_string(ref.max_amp_diff) + " on a serve circuit");
    it = digests_.emplace(text, ref.digest).first;
  }
  return it->second;
}

std::vector<ServeRequest> serve_pool(std::uint64_t seed, Oracle& oracle,
                                     Result& r) {
  std::vector<ServeRequest> out;
  const std::vector<PoolEntry> pool = pool_entries(seed);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    out.push_back(make_run("pool" + std::to_string(i), pool[i], oracle, r));
  }
  return out;
}

std::vector<ServeRequest> serve_burst(std::uint64_t seed, int burst,
                                      Oracle& oracle, Result& r) {
  const std::vector<PoolEntry> pool = pool_entries(seed);
  // The seed picks the unique circuits' gates. Sizes, ranks and the order
  // of the burst depend on the burst index alone, so every seed asks for
  // the same work in the same order.
  Rng gates(seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(burst) +
            1);
  Rng order(static_cast<std::uint64_t>(burst) + 1);
  // Appended piecewise: GCC 12 misreports "b" + std::to_string(...) under
  // -Wrestrict (GCC bug 105329).
  std::string prefix = "b";
  prefix += std::to_string(burst);
  prefix += '-';
  std::vector<ServeRequest> reqs;
  const int from_pool = kBurstRequests - kBurstUnique - kBurstMalformed;
  for (int i = 0; i < from_pool; ++i) {
    reqs.push_back(make_run(prefix + "p" + std::to_string(i),
                            pool[static_cast<std::size_t>(i) % pool.size()],
                            oracle, r));
  }
  for (int i = 0; i < kBurstUnique; ++i) {
    const int n = 12 + i % 5;
    const int ranks = 1 << (i % 3);
    const PoolEntry e{circuit_to_text(build_rcs(n, kServeRcsDepth, gates)),
                      ranks};
    reqs.push_back(make_run(prefix + "u" + std::to_string(i), e, oracle, r));
  }
  for (int i = 0; i < kBurstMalformed; ++i) {
    reqs.push_back({prefix + "m" + std::to_string(i),
                    kMalformed[static_cast<std::size_t>(
                                   burst * kBurstMalformed + i) %
                               std::size(kMalformed)],
                    ""});
  }
  for (std::size_t i = reqs.size() - 1; i > 0; --i) {
    std::swap(reqs[i], reqs[order.below(i + 1)]);
  }
  return reqs;
}

std::string run_request(const std::string& id, const std::string& circuit_text,
                        int ranks) {
  serve::JsonObject o;
  o["op"] = "run";
  o["id"] = id;
  o["circuit"] = circuit_text;
  o["ranks"] = ranks;
  return serve::Json(std::move(o)).dump();
}

bool check_response(const ServeRequest& req, const std::string& line,
                    Result& r) {
  bool ok = false;
  try {
    const serve::Json j = serve::parse_json(line);
    const serve::Json* status = j.find("status");
    const serve::Json* digest = j.find("digest");
    if (req.digest.empty()) {
      ok = status != nullptr && status->as_string() == "error";
    } else {
      ok = status != nullptr && status->as_string() == "ok" &&
           digest != nullptr && digest->as_string() == req.digest;
    }
  } catch (const serve::ProtocolError&) {
    ok = false;  // no answer, or not JSON
  }
  r.check(ok, "request " + req.id +
                  (req.digest.empty() ? " (malformed, wants a typed error)"
                                      : " (wants digest " + req.digest + ")") +
                  " got: " + line.substr(0, 300));
  return ok;
}

Burst run_burst(const std::vector<std::unique_ptr<LineClient>>& clients,
                const std::vector<ServeRequest>& reqs, Result& r) {
  const std::size_t n = reqs.size();
  const std::size_t k = clients.size();
  std::vector<std::string> answers(n);
  std::vector<double> seconds(n);
  Burst b;
  const auto t0 = Clock::now();
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < k; ++c) {
      threads.emplace_back([&, c] {
        for (std::size_t i = c; i < n; i += k) {
          const auto s0 = Clock::now();
          answers[i] = clients[c]->rpc(reqs[i].line);
          seconds[i] = seconds_since(s0);
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }
  b.wall_s = seconds_since(t0);
  for (std::size_t i = 0; i < n; ++i) {
    const bool ok = check_response(reqs[i], answers[i], r);
    if (reqs[i].digest.empty()) {
      continue;  // malformed: checked, but not a job
    }
    b.latency_ms.push_back(ok ? seconds[i] * 1e3
                              : std::numeric_limits<double>::infinity());
    if (ok) {
      ++b.ok;
      const serve::Json j = serve::parse_json(answers[i]);
      if (const serve::Json* q = j.find("queue_s")) {
        b.queue_s.push_back(q->as_number());
      }
    }
  }
  return b;
}

Result run_workload(const RunOptions& o) {
  if (const RunWorkload* w = find_run_workload(o.workload)) {
    return run_pass(*w, o);
  }
  return serve_pass(o);
}

}  // namespace qsv::e2e
