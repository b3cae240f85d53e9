// Shared helpers for the experiment benchmarks (DESIGN.md §3).
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>
#include <string>

#include "api/kernel.h"
#include "api/user_env.h"

namespace sg {

// Runs `body` as a simulated process and blocks until the whole process
// tree has exited and been reaped.
inline void RunSim(Kernel& k, std::function<void(Env&)> body) {
  auto pid = k.Launch([body = std::move(body)](Env& env, long) { body(env); });
  if (!pid.ok()) {
    std::abort();
  }
  k.WaitAll();
}

// Console reporter that additionally prints one machine-readable JSON line
// per benchmark run to stdout, so sweep scripts can scrape results without
// parsing the human table:
//   {"bench":"BM_SyscallPlain/manual_time","ns_per_op":198412.050,
//    "ns_per_item":48.440,"iterations":3909,"params":"manual_time",
//    "counters":{"items_per_second":20643907.449650}}
// `ns_per_op` is time per benchmark iteration, which is a whole batch for
// every bench that reports items (4096 calls here); `ns_per_item`
// (1e9 / items_per_second) is then the per-call figure, and is present
// only when a run sets items.
// Every bench binary uses it through bench_main.cc.
class JsonLineReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) {
        continue;
      }
      const std::string name = run.benchmark_name();
      const double ns_per_op =
          run.iterations == 0 ? 0.0
                              : run.real_accumulated_time / static_cast<double>(run.iterations) * 1e9;
      // Everything after the first '/' is the arg tuple (e.g. "4/1024").
      const auto slash = name.find('/');
      const std::string params = slash == std::string::npos ? "" : name.substr(slash + 1);
      std::string counters;
      std::string per_item;
      for (const auto& [cname, cvalue] : run.counters) {
        if (!counters.empty()) {
          counters += ',';
        }
        const double v = static_cast<double>(cvalue);
        counters += '"' + cname + "\":" + std::to_string(v);
        if (cname == "items_per_second" && v > 0) {
          char buf[64];
          std::snprintf(buf, sizeof(buf), "\"ns_per_item\":%.3f,", 1e9 / v);
          per_item = buf;
        }
      }
      std::printf("{\"bench\":\"%s\",\"ns_per_op\":%.3f,%s\"iterations\":%lld,"
                  "\"params\":\"%s\",\"counters\":{%s}}\n",
                  name.c_str(), ns_per_op, per_item.c_str(),
                  static_cast<long long>(run.iterations), params.c_str(), counters.c_str());
      std::fflush(stdout);
    }
  }
};

}  // namespace sg

#endif  // BENCH_BENCH_UTIL_H_
