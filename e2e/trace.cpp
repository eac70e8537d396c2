// The traced pass: calls each layer's public functions in-process on the
// workload's own jobs, with a span around every call, and derives the
// per-layer metrics from the spans and the layers' own counters. A run_*
// workload profiles its one circuit; serve_small profiles its pool of
// eight circuits and one burst of its request mix. README.md says which
// end-to-end metric each per-layer metric should move.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <optional>
#include <set>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "circuit/serialize.hpp"
#include "circuit/transpile/cache_blocking.hpp"
#include "cluster/cluster.hpp"
#include "cluster/faults.hpp"
#include "common/bits.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "dist/observables.hpp"
#include "dist/recovery_policy.hpp"
#include "dist/snapshot.hpp"
#include "dist/trace.hpp"
#include "e2e.hpp"
#include "machine/archer2.hpp"
#include "perf/cost_model.hpp"
#include "serve/admission.hpp"
#include "serve/executor.hpp"
#include "serve/plan_cache.hpp"
#include "serve/protocol.hpp"

namespace qsv::e2e {
namespace {

/// Standalone transport probes send and checksum this many messages.
constexpr int kProbeReps = 16;
/// Probe message size for a workload that sends no message at all.
constexpr std::uint64_t kProbeFallbackBytes = 4u << 20;

void set_omp_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

int omp_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// One circuit the engine layers are profiled on.
struct Job {
  std::string id;
  std::string file;
  int ranks = 1;
  DistOptions opts;
  bool faulted = false;
  std::string digest;  // the oracle's
};

/// Counters the layers report for the profiled jobs (times are in spans).
struct Counts {
  std::uint64_t sweep_runs = 0;
  std::uint64_t passes_saved = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t max_message_bytes = 0;
  std::uint64_t retries = 0;
  std::uint64_t retry_bytes = 0;
  std::uint64_t guard_checks = 0;
  std::uint64_t checkpoints_written = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t gates_replayed = 0;
};

using Engine = DistStateVector<SoaStorage>;

/// Engine layers of one job: parse, plan, construct, a spanned apply (one
/// span per sweep run and per gate, named by what the gate did), digest,
/// observables and checkpoint I/O; then a plain apply (the trace-overhead
/// baseline), a one-thread apply and the verified path.
void profile_job(Tracer& t, Counts& k, const Job& job, const std::string& dir,
                 Result& r) {
  const int job_span = t.open("job", job.id);
  Circuit c(1);
  t.time("circuit.parse", job.id, [&] { c = load_circuit(job.file); });
  const int local =
      c.num_qubits() -
      bits::log2_exact(static_cast<std::uint64_t>(job.ranks));
  std::vector<GateRun> runs;
  t.time("circuit.plan", job.id, [&] {
    runs = plan_sweep_runs(c.gates(), local, job.opts.sweep);
  });
  std::unique_ptr<Engine> sv;
  t.time("dist.construct", job.id, [&] {
    sv = std::make_unique<Engine>(c.num_qubits(), job.ranks, job.opts);
  });

  const int apply = t.open("dist.apply", job.id);
  for (const GateRun& run : runs) {
    if (run.sweep) {
      t.time("sv.sweep", job.id, [&] { sv->apply_run(c, run); });
      continue;
    }
    for (std::size_t i = run.first; i < run.first + run.count; ++i) {
      const std::uint64_t before = sv->comm_stats().messages;
      const int g = t.open("gate", job.id);
      sv->apply(c.gate(i));
      t.close(g, sv->comm_stats().messages > before ? "dist.exchange"
                                                      : "sv.local_gate");
    }
  }
  t.close(apply);
  k.sweep_runs += sv->sweep_stats().runs;
  k.passes_saved += sv->sweep_stats().passes_saved;
  k.messages += sv->comm_stats().messages;
  k.bytes += sv->comm_stats().bytes;
  k.max_message_bytes =
      std::max(k.max_message_bytes, sv->comm_stats().max_message_bytes);

  std::string digest;
  t.time("dist.digest", job.id, [&] { digest = state_digest(*sv); });
  r.check(digest == job.digest, job.id + ": traced apply digest " + digest +
                                    ", expected " + job.digest);
  double z_sum = 0;
  t.time("dist.observables", job.id, [&] {
    for (qubit_t q = 0; q < c.num_qubits(); ++q) {
      PauliTerm z;
      z.factors = {{q, Pauli::kZ}};
      z_sum += expectation(*sv, z);
    }
  });
  r.check(std::isfinite(z_sum), job.id + ": <Z> is not finite");
  const std::string state = dir + "/" + job.id + ".state";
  t.time("dist.checkpoint_write", job.id, [&] { save_state(state, *sv); });
  t.time("dist.checkpoint_read", job.id, [&] { load_state(state, *sv); });
  std::filesystem::remove(state);
  sv.reset();

  {
    Engine plain(c.num_qubits(), job.ranks, job.opts);
    t.time("dist.apply_plain", job.id, [&] { plain.apply(c); });
  }
  {
    Engine one(c.num_qubits(), job.ranks, job.opts);
    const int threads = omp_threads();
    set_omp_threads(1);
    t.time("sv.apply_one_thread", job.id, [&] { one.apply(c); });
    set_omp_threads(threads);
  }

  // The verified path as `qsv run` takes it: with the fault schedule,
  // spares, guards and checkpoints for the faulted workload, bare for the
  // others (gate by gate, no sweep).
  Engine v(c.num_qubits(), job.ranks, job.opts);
  std::optional<FaultInjector> injector;
  CheckpointOptions ck;
  ck.dir = dir + "/ck-" + job.id;
  GuardOptions guards;
  RecoveryPolicy policy;
  ElasticOptions elastic;
  elastic.allow_shrink = true;
  elastic.allow_grow_back = true;
  if (job.faulted) {
    injector.emplace(parse_fault_plan(kFaultPlan));
    v.set_fault_injector(&*injector);
    ck.interval_gates = kFaultCheckpointInterval;
    guards.cadence_gates = kFaultGuards;
    elastic.spares = kFaultSpares;
    policy.health.enabled = true;
  }
  IntegrityStats st;
  t.time("dist.verified", job.id, [&] {
    st = run_verified(v, c, ck, guards, policy, elastic);
  });
  std::filesystem::remove_all(ck.dir);
  r.check(st.completed && state_digest(v) == job.digest,
          job.id + ": verified path digest differs from the oracle");
  if (injector) {
    k.retries += injector->totals().retries;
    k.retry_bytes += injector->totals().retry_bytes;
  }
  k.guard_checks += st.guard_checks;
  k.checkpoints_written += static_cast<std::uint64_t>(st.checkpoints_written);
  k.recoveries += static_cast<std::uint64_t>(
      st.restarts + st.rollbacks + st.substitutions + st.shrinks +
      st.grow_backs);
  k.gates_replayed += st.gates_replayed;
  t.close(job_span);
}

/// Standalone transport: `kProbeReps` messages of `bytes` through a
/// two-rank VirtualCluster (copy + CRC at both ends), and crc32 alone.
void probe_transport(Tracer& t, std::uint64_t bytes, Result& r) {
  VirtualCluster cluster(2, bytes);
  std::vector<std::byte> payload(bytes);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i * 131u);
  }
  std::vector<std::byte> out(bytes);
  t.time("cluster.sendrecv", "probe", [&] {
    for (int i = 0; i < kProbeReps; ++i) {
      cluster.send(0, 1, payload);
      cluster.recv(0, 1, out);
    }
  });
  r.check(out == payload, "probe message arrived changed");
  std::uint32_t crc = 0;
  t.time("common.crc32", "probe", [&] {
    for (int i = 0; i < kProbeReps; ++i) {
      crc ^= crc32(payload.data(), payload.size());
    }
  });
  r.check(crc == 0, "crc32 of one buffer differs between calls");
}

/// What the serve layers did with the profiled requests.
struct ServeCounts {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t well_formed = 0;
  double first_execute_s = 0;  // the first execution of each distinct plan
};

/// The serve layers in sequence, in-process, as one server connection
/// would call them: parse_request, AdmissionController::decide (a plan-cache
/// hit or miss; a miss's transpile and pricing are also timed apart), and
/// execute_job. Each distinct plan is executed once more on one thread.
ServeCounts profile_serve(Tracer& t, const std::vector<ServeRequest>& reqs,
                          Result& r) {
  const MachineModel machine = archer2();
  const serve::AdmissionLimits limits;  // what `qsv serve` runs with
  serve::PlanCache cache(64);
  const serve::AdmissionController admission(machine, limits, cache);
  std::set<const serve::CachedPlan*> executed;
  ServeCounts n;
  for (const ServeRequest& q : reqs) {
    const int request = t.open("serve.request", q.id);
    serve::JobRequest jr;
    const int parse = t.open("serve.parse", q.id);
    try {
      jr = serve::parse_request(q.line, std::size_t{1} << 20);
    } catch (const serve::ProtocolError&) {
      t.close(parse);
      t.close(request);
      r.check(q.digest.empty(), q.id + ": in-process parse refused it");
      continue;
    }
    t.close(parse);
    serve::AdmissionDecision d;
    const int admit = t.open("serve.admit", q.id);
    try {
      d = admission.decide(jr);
    } catch (const Error&) {
      t.close(admit, "serve.admit_error");
      t.close(request);
      r.check(q.digest.empty(), q.id + ": in-process admission refused it");
      continue;
    }
    t.close(admit, d.cache_hit ? "serve.admit_hit" : "serve.admit_miss");
    ++n.well_formed;
    r.check(d.admit && !q.digest.empty(),
            q.id + ": admission answered " + (d.admit ? "admit" : d.reason));
    if (!d.admit) {
      t.close(request);
      continue;
    }
    (d.cache_hit ? n.hits : n.misses) += 1;
    if (!d.cache_hit) {
      const Circuit parsed = parse_circuit(jr.circuit_text);
      CacheBlockingOptions o;
      o.local_qubits = d.num_qubits - bits::log2_exact(
                                          static_cast<std::uint64_t>(d.ranks));
      t.time("circuit.transpile", q.id,
             [&] { (void)CacheBlockingPass(o).run(parsed); });
      t.time("perf.price", q.id, [&] {
        DistOptions opts;
        opts.policy = limits.policy;
        TraceSim sim(d.num_qubits, d.ranks, opts);
        JobConfig job;
        job.num_qubits = d.num_qubits;
        job.node_kind = limits.node_kind;
        job.freq = limits.freq;
        job.nodes = d.ranks;
        CostModel cost(machine, job);
        sim.set_listener(&cost);
        sim.apply(d.plan->circuit);
        (void)cost.report();
      });
    }
    auto execute = [&](const char* span) {
      serve::QueuedJob job;
      job.id = q.id;
      job.num_qubits = d.num_qubits;
      job.ranks = d.ranks;
      job.cache_hit = d.cache_hit;
      job.plan = d.plan;
      serve::ExecResult er;
      const double s = t.time(span, q.id, [&] {
        er = serve::execute_job(job, machine, limits, 0.0);
      });
      check_response(q, er.response_line, r);
      return s;
    };
    const double s = execute("serve.execute");
    if (executed.insert(d.plan.get()).second) {
      n.first_execute_s += s;
      const int threads = omp_threads();
      set_omp_threads(1);
      execute("serve.execute_one_thread");
      set_omp_threads(threads);
    }
    t.close(request);
  }
  return n;
}

/// The same requests over a socket to a real `qsv serve`, for the queue
/// waits the server itself reports.
Burst socket_burst(const std::vector<ServeRequest>& reqs,
                   const std::string& dir, Result& r) {
  const std::string socket = dir + "/trace.sock";
  const std::unique_ptr<Child> server = start_server(socket);
  std::vector<std::unique_ptr<LineClient>> clients = connect_clients(socket);
  Burst b = run_burst(clients, reqs, r);
  clients.clear();
  server->terminate();
  r.check(server->wait().code == 0, "qsv serve did not drain cleanly");
  return b;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

Result trace_workload(const RunOptions& o) {
  Result r;
  Tracer t;
  Counts k;
  std::vector<ServeRequest> serve_reqs;
  std::vector<ServeRequest> burst_reqs;
  const RunWorkload* w = find_run_workload(o.workload);
  double child_s = 0;  // one untraced `qsv run` of the same circuit

  if (w != nullptr) {
    Job job;
    job.id = w->name;
    job.file = o.work_dir + "/circuit.qc";
    job.ranks = w->ranks;
    job.opts = dist_options(*w);
    job.faulted = w->faulted;
    const Circuit c = run_circuit(*w, o.seed);
    save_circuit(job.file, c);
    const Reference ref = reference(load_circuit(job.file));
    r.check(ref.max_amp_diff <= kMaxAmpDiff, "reference engines disagree");
    job.digest = ref.digest;
    profile_job(t, k, job, o.work_dir, r);

    const ChildRun child = run_child(run_argv(*w, job.file, o.work_dir));
    r.check(child.exit.code == 0 && digest_line(child.out) == job.digest,
            "qsv run digest differs from the oracle");
    child_s = child.wall_s;

    // The serve path for the same circuit and ranks: a miss, then a hit;
    // over the socket, one request per client.
    const std::string text = circuit_to_text(c);
    for (int i = 0; i < 2; ++i) {
      const std::string id = "serve" + std::to_string(i);
      serve_reqs.push_back({id, run_request(id, text, w->ranks), job.digest});
    }
    for (int i = 0; i < kServeClients; ++i) {
      const std::string id = "socket" + std::to_string(i);
      burst_reqs.push_back({id, run_request(id, text, w->ranks), job.digest});
    }
  } else {
    Oracle oracle;
    const std::vector<ServeRequest> pool = serve_pool(o.seed, oracle, r);
    for (const ServeRequest& q : pool) {
      const serve::JobRequest jr = serve::parse_request(q.line, 0);
      Job job;
      job.id = q.id;
      job.file = o.work_dir + "/" + q.id + ".qc";
      job.ranks = jr.ranks;
      job.digest = q.digest;
      save_circuit(job.file, parse_circuit(jr.circuit_text));
      profile_job(t, k, job, o.work_dir, r);
    }
    serve_reqs = serve_burst(o.seed, 0, oracle, r);
    burst_reqs = serve_reqs;
  }

  const std::uint64_t message_bytes =
      k.max_message_bytes > 0 ? k.max_message_bytes : kProbeFallbackBytes;
  probe_transport(t, message_bytes, r);
  const ServeCounts sc = profile_serve(t, serve_reqs, r);
  const Burst burst = socket_burst(burst_reqs, o.work_dir, r);

  const double apply_s = t.total("dist.apply");
  const double plain_s = t.total("dist.apply_plain");
  const double exchange_s = t.total("dist.exchange");
  const double probe_bytes =
      static_cast<double>(kProbeReps) * static_cast<double>(message_bytes);
  // The part of one unit of work no layer span covers. run_*: a `qsv run`
  // child less the layers it passes through (process start, output).
  // serve_small: the mean request latency over the socket less the mean
  // queue wait and the mean in-process parse + admit + execute (socket
  // I/O, thread hand-offs, contention between the two workers).
  double unattributed_s = 0;
  if (w != nullptr) {
    unattributed_s = child_s - (t.total("circuit.parse") +
                                t.total("circuit.plan") +
                                t.total("dist.construct") + apply_s +
                                t.total("dist.digest") +
                                t.total("dist.observables"));
  } else {
    std::vector<double> ok_latency_s;
    for (const double ms : burst.latency_ms) {
      if (std::isfinite(ms)) {
        ok_latency_s.push_back(ms / 1e3);
      }
    }
    const double in_process_s =
        t.total("serve.parse") + t.total("serve.admit_hit") +
        t.total("serve.admit_miss") + t.total("serve.admit_error") +
        t.total("serve.execute");
    unattributed_s =
        ratio(sum(ok_latency_s), static_cast<double>(ok_latency_s.size())) -
        ratio(sum(burst.queue_s), static_cast<double>(burst.queue_s.size())) -
        ratio(in_process_s, static_cast<double>(sc.well_formed));
  }

  auto spans = [&](const char* name) { return t.durations(name).size(); };
  auto med = [&](const char* name, double scale) {
    const std::vector<double> d = t.durations(name);
    return d.empty() ? 0.0 : median(d) * scale;
  };
  auto count = [&](const char* name, std::uint64_t v) {
    r.add(name, static_cast<double>(v), "count");
  };
  std::vector<double> queue_ms;
  for (const double s : burst.queue_s) {
    queue_ms.push_back(s * 1e3);
  }

  r.add("circuit.parse_s", t.total("circuit.parse"), "s",
        spans("circuit.parse"));
  r.add("circuit.plan_s", t.total("circuit.plan"), "s", spans("circuit.plan"));
  r.add("circuit.transpile_ms", med("circuit.transpile", 1e3), "ms",
        spans("circuit.transpile"));
  r.add("dist.construct_s", t.total("dist.construct"), "s",
        spans("dist.construct"));
  r.add("dist.exchange_share", ratio(exchange_s, apply_s), "ratio",
        spans("dist.exchange"));
  r.add("dist.exchange_gbps",
        ratio(static_cast<double>(k.bytes), exchange_s) / 1e9, "GB/s",
        spans("dist.exchange"));
  count("dist.exchange_gates", spans("dist.exchange"));
  count("dist.messages", k.messages);
  r.add("dist.bytes", static_cast<double>(k.bytes), "bytes");
  r.add("cluster.sendrecv_gbps",
        probe_bytes / t.total("cluster.sendrecv") / 1e9, "GB/s", kProbeReps);
  r.add("common.crc32_gbps", probe_bytes / t.total("common.crc32") / 1e9,
        "GB/s", kProbeReps);
  r.add("sv.sweep_s", t.total("sv.sweep"), "s", spans("sv.sweep"));
  count("sv.sweep_runs", k.sweep_runs);
  count("sv.passes_saved", k.passes_saved);
  r.add("sv.local_gate_s", t.total("sv.local_gate"), "s",
        spans("sv.local_gate"));
  count("sv.local_gates", spans("sv.local_gate"));
  r.add("sv.omp_speedup", ratio(t.total("sv.apply_one_thread"), plain_s),
        "x", spans("sv.apply_one_thread"));
  r.add("dist.digest_s", t.total("dist.digest"), "s", spans("dist.digest"));
  r.add("dist.observables_s", t.total("dist.observables"), "s",
        spans("dist.observables"));
  r.add("dist.verified_s", t.total("dist.verified"), "s",
        spans("dist.verified"));
  r.add("dist.resilience_overhead_s", t.total("dist.verified") - plain_s,
        "s", spans("dist.verified"));
  count("dist.retries", k.retries);
  r.add("dist.retry_bytes", static_cast<double>(k.retry_bytes), "bytes");
  count("dist.guard_checks", k.guard_checks);
  count("dist.checkpoints_written", k.checkpoints_written);
  count("dist.recoveries", k.recoveries);
  count("dist.gates_replayed", k.gates_replayed);
  r.add("dist.checkpoint_write_s", t.total("dist.checkpoint_write"), "s",
        spans("dist.checkpoint_write"));
  r.add("dist.checkpoint_read_s", t.total("dist.checkpoint_read"), "s",
        spans("dist.checkpoint_read"));
  r.add("serve.parse_us", med("serve.parse", 1e6), "us", spans("serve.parse"));
  r.add("serve.admit_hit_us", med("serve.admit_hit", 1e6), "us",
        spans("serve.admit_hit"));
  r.add("serve.admit_miss_ms", med("serve.admit_miss", 1e3), "ms",
        spans("serve.admit_miss"));
  r.add("perf.price_ms", med("perf.price", 1e3), "ms", spans("perf.price"));
  r.add("serve.cache_hit_ratio",
        ratio(static_cast<double>(sc.hits),
              static_cast<double>(sc.hits + sc.misses)),
        "ratio", sc.hits + sc.misses);
  r.add("serve.execute_ms", med("serve.execute", 1e3), "ms",
        spans("serve.execute"));
  r.add("serve.omp_speedup",
        ratio(t.total("serve.execute_one_thread"), sc.first_execute_s), "x",
        spans("serve.execute_one_thread"));
  r.add("serve.queue_wait_p50_ms", queue_ms.empty() ? 0 : median(queue_ms),
        "ms", queue_ms.size());
  r.add("serve.queue_wait_p99_ms", queue_ms.empty() ? 0 : tail(queue_ms),
        "ms", queue_ms.size());
  r.add("trace.unattributed_s", unattributed_s, "s");
  r.add("trace.overhead_frac", ratio(apply_s - plain_s, plain_s), "ratio");

  const std::string path = ".bench_build/e2e-spans/" + o.workload + "-seed" +
                           std::to_string(o.seed) + ".json";
  std::filesystem::create_directories(".bench_build/e2e-spans");
  t.write(path);
  std::cerr << "e2e: spans written to " << path << "\n";
  return r;
}

}  // namespace qsv::e2e
