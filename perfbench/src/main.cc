// The repository benchmark's command line:
//
//   perfbench --workload <relax_session|cold_scratch|daemon_mix>
//             [--seed N] [--seconds S] [--trace 0|1]
//   perfbench --list-metrics
//
// Run from the directory that should hold the daemon socket and the span
// file. Prints human-readable lines, then one JSON result line (the last line of
// standard output): {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer table of the traced run.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "workloads.h"

namespace {

int Usage(const char* error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1]\n"
            << "       perfbench --list-metrics\n";
  return 2;
}

bool ParseUint(const std::string& text, uint64_t* value) {
  if (text.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (*end != '\0') return false;
  *value = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      for (const perfbench::MetricSpec& spec :
           perfbench::MetricCatalogue()) {
        std::cout << spec.name << "\t" << spec.unit << "\t"
                  << (spec.end_to_end ? "end_to_end" : "per_layer") << "\t"
                  << spec.moves << "\t" << spec.meaning << "\n";
      }
      return 0;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &options.seed)) return Usage("bad --seed");
    } else if (flag == "--seconds") {
      char* end = nullptr;
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || options.seconds <= 0) return Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (!ParseUint(value, &number) || number > 1) {
        return Usage("bad --trace");
      }
      options.trace = number == 1;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!known) return Usage("--workload must name a workload");

  const perfbench::RunOutcome out = perfbench::RunWorkload(options);
  for (const std::string& line : out.report) std::cout << line << "\n";
  for (const std::string& error : out.errors) {
    std::cerr << "perfbench: FAIL " << error << "\n";
  }
  std::cout << perfbench::ResultJson(out.correct, out.attempted, out.failed,
                                     out.metrics)
            << std::endl;
  return 0;
}
