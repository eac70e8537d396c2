// The end-to-end benchmark program. One run measures one workload:
//
//   e2e --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]
//   e2e compare A.jsonl B.jsonl
//
// The untraced pass (--trace 0) times the real `qsv run` and `qsv serve`
// binaries and reports the end-to-end metrics; the traced pass (--trace 1)
// reports the per-layer metrics. Standard output carries the host facts,
// every metric with its unit and sample count, and, as its last line, the
// result {"correct", "attempted", "failed", "metrics"}. --record appends
// the run with its host facts to a JSON-lines file that `compare` reads.
// Exit status: 0 when every output was correct, 1 when one was not or the
// run could not finish, 2 on bad arguments.
#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "common/args.hpp"
#include "e2e.hpp"

namespace qsv::e2e {
namespace {

/// This run's scratch directory, removed when the run ends.
class WorkDir {
 public:
  explicit WorkDir(const std::string& workload)
      : path_(".bench_build/e2e-tmp/" + workload + "-" +
              std::to_string(::getpid())) {
    std::filesystem::create_directories(path_);
  }
  ~WorkDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::uint64_t parse_seed(const std::string& s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || s[0] == '-' || end == nullptr || *end != '\0') {
    throw ArgError("--seed needs a non-negative integer, got '" + s + "'");
  }
  return v;
}

int run(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "compare") {
    return compare(argc - 1, argv + 1);
  }
  ArgParser args;
  args.option("workload").option("seed").option("seconds").option("trace");
  args.option("record");
  args.parse(argc, argv);

  RunOptions o;
  o.workload = args.value_or("workload", "");
  if (find_run_workload(o.workload) == nullptr &&
      o.workload != kServeWorkload) {
    throw ArgError("--workload must be run_local, run_exchange, "
                   "run_threaded, run_faulted or serve_small, got '" +
                   o.workload + "'");
  }
  o.seed = parse_seed(args.value_or("seed", "1"));
  o.seconds = args.double_or("seconds", 10);
  if (!(o.seconds > 0)) {
    throw ArgError("--seconds must be positive");
  }
  const std::string trace = args.value_or("trace", "0");
  if (trace != "0" && trace != "1") {
    throw ArgError("--trace must be 0 or 1, got '" + trace + "'");
  }
  o.trace = trace == "1";

  const WorkDir dir(o.workload);
  o.work_dir = dir.path();
  const serve::JsonObject host = host_facts();
  for (const serve::Json& w : host.at("warnings").as_array()) {
    std::cerr << "e2e: host warning: " << w.as_string() << "\n";
  }
  std::cout << "# host " << serve::Json(host).dump() << "\n";

  const Result r = o.trace ? trace_workload(o) : run_workload(o);

  std::cout << "# " << o.workload << " seed " << o.seed
            << (o.trace ? " (traced)" : "") << ": " << r.attempted()
            << " checked operations, " << r.failed() << " failed\n";
  serve::JsonObject metrics;
  for (const Metric& m : r.metrics()) {
    std::printf("#   %-28s %16.6g %-6s %6zu samples\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.samples);
    serve::JsonObject v;
    v["value"] = m.value;
    v["unit"] = m.unit;
    v["samples"] = static_cast<std::uint64_t>(m.samples);
    metrics[m.name] = serve::Json(std::move(v));
  }
  if (const auto path = args.value("record")) {
    serve::JsonObject rec;
    rec["workload"] = o.workload;
    rec["seed"] = static_cast<std::uint64_t>(o.seed);
    rec["seconds"] = o.seconds;
    rec["trace"] = o.trace;
    rec["correct"] = r.correct();
    rec["attempted"] = r.attempted();
    rec["failed"] = r.failed();
    rec["metrics"] = serve::Json(std::move(metrics));
    rec["host"] = serve::Json(host);
    std::ofstream out(*path, std::ios::app);
    out << serve::Json(std::move(rec)).dump() << "\n";
    QSV_REQUIRE(out.good(), "cannot append to " + *path);
  }
  std::cout << r.line().dump() << std::endl;
  return r.correct() ? 0 : 1;
}

}  // namespace
}  // namespace qsv::e2e

int main(int argc, char** argv) {
  // A fixed mmap threshold maps every allocation of 128 KiB or more afresh
  // and unmaps it on free, as in a new process, so each in-process engine
  // construction pays its first touch whatever ran before it.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  try {
    return qsv::e2e::run(argc, argv);
  } catch (const qsv::ArgError& e) {
    std::cerr << "e2e: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "e2e: " << e.what() << "\n";
    return 1;
  }
}
