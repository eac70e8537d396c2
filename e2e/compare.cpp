// `e2e compare A.jsonl B.jsonl`: compares two sets of untraced runs (files
// written with --record), one row per workload and end-to-end metric of
// BENCHMARK.json in the working directory, by the rule README.md states:
//   better      over at least ten pairs (run i of A against run i of B,
//               ties counting for neither) B wins at least 9 of every 10,
//               and the medians differ by more than A's quartile distance;
//   unresolved  A's own spread is wider than the metric's bound, and not
//               every run of B reads better than every run of A;
//   worse       B's median is worse than A's by more than the bound;
//   within      otherwise.
// Exits 1 when any row is worse.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/args.hpp"
#include "e2e.hpp"

namespace qsv::e2e {
namespace {

struct MetricSpec {
  std::string name;
  bool lower_is_better = true;
  double bound = 0;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  QSV_REQUIRE(in.good(), "cannot read " + path);
  std::stringstream s;
  s << in.rdbuf();
  return s.str();
}

std::vector<MetricSpec> load_spec(const std::string& path) {
  const serve::Json doc = serve::parse_json(read_file(path));
  std::vector<MetricSpec> out;
  const serve::Json* list = doc.find("end_to_end");
  QSV_REQUIRE(list != nullptr, path + " has no end_to_end list");
  for (const serve::Json& m : list->as_array()) {
    out.push_back({m.find("name")->as_string(),
                   m.find("better")->as_string() == "lower",
                   m.find("bound")->as_number()});
  }
  return out;
}

/// Untraced records of one file, grouped by workload in first-seen order.
using RunSet = std::vector<std::pair<std::string, std::vector<serve::Json>>>;

RunSet load_runs(const std::string& path) {
  RunSet set;
  std::istringstream lines(read_file(path));
  for (std::string line; std::getline(lines, line);) {
    if (line.empty()) {
      continue;
    }
    serve::Json rec = serve::parse_json(line);
    if (rec.find("trace")->as_bool()) {
      continue;
    }
    const std::string w = rec.find("workload")->as_string();
    auto it = std::find_if(set.begin(), set.end(),
                           [&](const auto& g) { return g.first == w; });
    if (it == set.end()) {
      set.emplace_back(w, std::vector<serve::Json>{});
      it = set.end() - 1;
    }
    it->second.push_back(std::move(rec));
  }
  return set;
}

std::vector<double> values(const std::vector<serve::Json>& runs,
                           const std::string& metric) {
  std::vector<double> out;
  for (const serve::Json& rec : runs) {
    const serve::Json* m = rec.find("metrics")->find(metric);
    if (m != nullptr && m->find("value")->type() == serve::Json::Type::kNumber) {
      out.push_back(m->find("value")->as_number());
    }
  }
  return out;
}

std::string cell(const std::vector<double>& v) {
  const std::array<double, 3> q = quartiles(v);
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.4g [%.4g, %.4g]", median(v), q[0], q[2]);
  return buf;
}

}  // namespace

int compare(int argc, char** argv) {
  ArgParser args;
  args.parse(argc, argv);
  if (args.positionals().size() != 2) {
    throw ArgError("usage: e2e compare A.jsonl B.jsonl");
  }
  const std::vector<MetricSpec> spec = load_spec("BENCHMARK.json");
  const RunSet a_set = load_runs(args.positionals()[0]);
  const RunSet b_set = load_runs(args.positionals()[1]);

  std::printf("%-13s %-15s %-30s %-30s %8s %6s  %s\n", "workload", "metric",
              "A median [q1, q3]", "B median [q1, q3]", "change", "wins",
              "verdict");
  int worse_rows = 0;
  for (const auto& [workload, a_runs] : a_set) {
    const auto b_it =
        std::find_if(b_set.begin(), b_set.end(),
                     [&](const auto& g) { return g.first == workload; });
    for (const MetricSpec& m : spec) {
      const std::vector<double> a = values(a_runs, m.name);
      const std::vector<double> b =
          b_it == b_set.end() ? std::vector<double>{}
                              : values(b_it->second, m.name);
      if (a.empty() || b.empty()) {
        std::printf("%-13s %-15s missing in %s\n", workload.c_str(),
                    m.name.c_str(), a.empty() ? "A" : "B");
        continue;
      }
      // Positive `gain` is an improvement in the metric's own direction.
      const double sign = m.lower_is_better ? -1.0 : 1.0;
      const double ma = median(a);
      const double mb = median(b);
      const std::array<double, 3> qa = quartiles(a);
      const double spread = (qa[2] - qa[0]) / ma;
      const double gain = sign * (mb - ma) / ma;
      const std::size_t pairs = std::min(a.size(), b.size());
      std::size_t wins = 0;
      for (std::size_t i = 0; i < pairs; ++i) {
        wins += sign * (b[i] - a[i]) > 0 ? 1 : 0;
      }
      const double a_best = sign > 0 ? *std::max_element(a.begin(), a.end())
                                     : *std::min_element(a.begin(), a.end());
      const double b_worst = sign > 0 ? *std::min_element(b.begin(), b.end())
                                      : *std::max_element(b.begin(), b.end());
      const bool every_run_better = sign * (b_worst - a_best) > 0;

      const char* verdict = "within";
      if (pairs >= 10 && 10 * wins >= 9 * pairs && gain > 0 &&
          std::abs(mb - ma) > qa[2] - qa[0]) {
        verdict = "better";
      } else if (spread > m.bound && !every_run_better) {
        verdict = "unresolved";
      } else if (-gain > m.bound) {
        verdict = "WORSE";
        ++worse_rows;
      }
      char change[32];
      std::snprintf(change, sizeof change, "%+.1f%%", 100 * (mb - ma) / ma);
      char win[32];
      std::snprintf(win, sizeof win, "%zu/%zu", wins, pairs);
      std::printf("%-13s %-15s %-30s %-30s %8s %6s  %s (bound %.0f%%, A "
                  "spread %.1f%%)\n",
                  workload.c_str(), m.name.c_str(), cell(a).c_str(),
                  cell(b).c_str(), change, win, verdict, 100 * m.bound,
                  100 * spread);
    }
  }
  return worse_rows > 0 ? 1 : 0;
}

}  // namespace qsv::e2e
