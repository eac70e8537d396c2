// Shared pieces of the end-to-end benchmark: the result record,
// sample statistics, the span recorder used by the traced pass, child
// processes, the serve line client, the workload table and the oracle.
#pragma once

#include <sys/types.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "dist/dist_statevector.hpp"
#include "dist/options.hpp"
#include "serve/json.hpp"

namespace qsv::e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Settings of one benchmark run (`--workload --seed --seconds --trace`).
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory of this run: inputs, sockets, checkpoints.
  std::string work_dir;
};

/// One reported metric with the number of samples behind it.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 1;
};

/// What one run reports: every checked operation and the metrics.
class Result {
 public:
  /// Counts one checked operation; a false `ok` is a failure and `what` is
  /// printed to stderr.
  void check(bool ok, const std::string& what);
  void add(std::string name, double value, std::string unit,
           std::size_t samples = 1);

  [[nodiscard]] bool correct() const { return failed_ == 0; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<Metric>& metrics() const {
    return metrics_;
  }

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] serve::Json line() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

// --- statistics -----------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
/// The highest percentile with at least ten samples beyond it (p99 at 1000
/// samples); the median when fewer than 21 samples support a higher one.
[[nodiscard]] double tail(std::vector<double> v);
/// Quartiles as Python's statistics.quantiles(v, n=4) gives them.
[[nodiscard]] std::array<double, 3> quartiles(std::vector<double> v);
[[nodiscard]] double sum(const std::vector<double>& v);

// --- spans ----------------------------------------------------------------

/// In-memory span recorder of the traced pass. A span has a name, a start
/// and end (seconds since the recorder was made), the span that was open
/// when it started, and the id of the job or request it belongs to.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string id;
    int parent = -1;
    double start_s = 0;
    double end_s = 0;
    [[nodiscard]] double seconds() const { return end_s - start_s; }
  };

  /// Opens a span under the innermost open one; returns its index.
  int open(std::string name, std::string id);
  /// Closes span `index` (the innermost open one), optionally renaming it
  /// once its outcome is known; returns its duration.
  double close(int index, std::string rename = {});

  /// Runs `fn` inside a span and returns the span's duration.
  template <class Fn>
  double time(std::string name, std::string id, Fn&& fn) {
    const int s = open(std::move(name), std::move(id));
    fn();
    return close(s);
  }

  /// Durations of every span called `name`, in recording order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  [[nodiscard]] double total(const std::string& name) const {
    return sum(durations(name));
  }

  /// Writes the spans as Chrome trace-event JSON (any trace viewer opens
  /// it); the parent index and id ride in each event's args.
  void write(const std::string& path) const;

 private:
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// --- processes ------------------------------------------------------------

/// A child process. Standard output is captured through a pipe or sent to
/// /dev/null; standard error is inherited. A child still running when the
/// object dies is stopped (SIGTERM, then SIGKILL) and reaped.
class Child {
 public:
  Child(const std::vector<std::string>& argv, bool capture_stdout);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  Child(Child&&) = delete;
  Child& operator=(Child&&) = delete;

  /// Reads standard output to end of file (capturing children only).
  [[nodiscard]] std::string read_all();
  [[nodiscard]] bool running();
  void terminate();

  struct Exit {
    int code = -1;  // exit status, or 128 + signal
    double maxrss_mib = 0;  // ru_maxrss from wait4
  };
  /// Waits for the child to end.
  Exit wait();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

/// A child run to completion: wall time from spawn to exit, exit status,
/// peak RSS and standard output.
struct ChildRun {
  double wall_s = 0;
  Child::Exit exit;
  std::string out;
};
[[nodiscard]] ChildRun run_child(const std::vector<std::string>& argv);

/// Blocking newline-framed client of `qsv serve` over a Unix socket.
class LineClient {
 public:
  explicit LineClient(const std::string& socket_path);
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;
  LineClient(LineClient&&) = delete;
  LineClient& operator=(LineClient&&) = delete;

  [[nodiscard]] bool ok() const { return fd_ >= 0; }
  /// Sends one request line and reads one response line; empty when the
  /// connection failed.
  [[nodiscard]] std::string rpc(const std::string& line);

 private:
  int fd_ = -1;
  std::string pending_;
};

/// Spawns `qsv serve` as every serve workload runs it (two workers, a
/// queue of 16, a 64-plan cache) on the Unix socket `socket`, and returns
/// once a ping gets its pong. Throws when the server exits or does not
/// answer within 30 s.
[[nodiscard]] std::unique_ptr<Child> start_server(const std::string& socket);

/// One connection per closed-loop client.
[[nodiscard]] std::vector<std::unique_ptr<LineClient>> connect_clients(
    const std::string& socket);

// --- workloads ------------------------------------------------------------

/// A `qsv run` workload: an RCS circuit of `qubits` x `depth` cycles run at
/// fixed ranks, threads and policy, optionally with the fault schedule.
struct RunWorkload {
  const char* name;
  int qubits;
  int depth;
  int ranks;
  bool threaded;  // --threads auto (one OS thread per rank), else 0
  CommPolicy policy;  // blocking or overlapped
  bool faulted;
};

/// The run_* workload called `name`, or null.
[[nodiscard]] const RunWorkload* find_run_workload(const std::string& name);

inline constexpr char kServeWorkload[] = "serve_small";
inline constexpr char kFaultPlan[] =
    "fail@60:1,drop@2:1,corrupt@5:2,delay@8:0.05";
inline constexpr int kFaultSpares = 1;
inline constexpr int kFaultGuards = 20;
inline constexpr int kFaultCheckpointInterval = 40;

/// The engine options `qsv run` builds from the workload's flags.
[[nodiscard]] DistOptions dist_options(const RunWorkload& w);

/// Arguments of one `qsv run` child of workload `w`.
[[nodiscard]] std::vector<std::string> run_argv(const RunWorkload& w,
                                                const std::string& circuit,
                                                const std::string& ck_dir);

/// The digest `qsv run` prints as `state crc32:`, from its output; empty
/// when the line is missing.
[[nodiscard]] std::string digest_line(const std::string& out);

/// The workload's generated circuit for `seed`.
[[nodiscard]] Circuit run_circuit(const RunWorkload& w, std::uint64_t seed);

/// One request of a serve burst and what a correct answer to it is.
struct ServeRequest {
  std::string id;
  std::string line;
  /// Digest an `ok` answer must carry; empty for a malformed request,
  /// which must get a typed `error`.
  std::string digest;
};

/// Reference digests by circuit text, so each distinct circuit is
/// simulated by the oracle once per run.
class Oracle {
 public:
  /// The digest of `text`, computing and checking it on first use (a
  /// failed check is counted in `r`).
  const std::string& digest(const std::string& text, Result& r);

 private:
  std::map<std::string, std::string> digests_;
};

/// Burst `burst` of the serve_small mix for `seed`: 78% from the pool of
/// eight circuits, 20% unique RCS, 2% malformed, in shuffled order.
[[nodiscard]] std::vector<ServeRequest> serve_burst(std::uint64_t seed,
                                                    int burst, Oracle& oracle,
                                                    Result& r);

/// The pool of eight serve circuits for `seed` as run requests (ids
/// "pool<i>"), with the ranks each runs at.
[[nodiscard]] std::vector<ServeRequest> serve_pool(std::uint64_t seed,
                                                   Oracle& oracle, Result& r);

/// A run request line for `circuit_text` at `ranks`.
[[nodiscard]] std::string run_request(const std::string& id,
                                      const std::string& circuit_text,
                                      int ranks);

/// Checks one serve response against `req` and counts it in `r`; returns
/// whether it was correct.
bool check_response(const ServeRequest& req, const std::string& line,
                    Result& r);

/// One closed-loop burst: each client sends its next request when the
/// previous answer arrived; client k sends requests k, k + clients, ...
struct Burst {
  double wall_s = 0;
  std::uint64_t ok = 0;
  /// Per well-formed request, send to answer; infinite when it failed.
  std::vector<double> latency_ms;
  /// The server's own queue_s of each ok answer.
  std::vector<double> queue_s;
};
[[nodiscard]] Burst run_burst(
    const std::vector<std::unique_ptr<LineClient>>& clients,
    const std::vector<ServeRequest>& reqs, Result& r);

/// Closed-loop clients of every serve burst: one process, no more
/// connections than this host's four CPUs.
inline constexpr int kServeClients = 4;

// --- oracle ---------------------------------------------------------------

/// Layout-independent CRC-32 of the state in global amplitude order — the
/// digest `qsv run` prints and the serve executor returns.
[[nodiscard]] std::string state_digest(const DistStateVector<SoaStorage>& sv);

/// Reference result of `c`: the digest after the 1-rank serial engine, and
/// the largest amplitude difference from the BasicStateVector engine.
struct Reference {
  std::string digest;
  double max_amp_diff = 0;
};
[[nodiscard]] Reference reference(const Circuit& c);
inline constexpr double kMaxAmpDiff = 1e-10;

// --- passes ---------------------------------------------------------------

/// Untraced pass: the end-to-end metrics of one workload.
[[nodiscard]] Result run_workload(const RunOptions& o);
/// Traced pass: the per-layer metrics of one workload.
[[nodiscard]] Result trace_workload(const RunOptions& o);
/// `e2e compare A B`: exit status 1 when a metric regressed.
int compare(int argc, char** argv);

/// Host facts recorded with every output; disagreements between the CPU
/// counts land in "warnings".
[[nodiscard]] serve::JsonObject host_facts();

}  // namespace qsv::e2e
