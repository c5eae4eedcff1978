// The benchmark's three workloads and the records they share with the
// traced run's layer replay (layers.h).
//
//   relax_session — the paper's loop, in process: one fresh MiningService
//                   per (dataset x family) answers ξ_old, then its ξ_new
//                   sweep; routes `none` then `recycle`, no evictions.
//   cold_scratch  — the same 78 queries through services whose store holds
//                   nothing, so every request mines from scratch.
//   daemon_mix    — a net::Server over one weather-sub service, four
//                   closed-loop clients on a seeded schedule of cached,
//                   in-between and fresh supports; the store budget is
//                   below the working set and admission has two slots.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/compressed_miner.h"
#include "datasets.h"
#include "fpm/miner.h"

namespace perfbench {

/// A (scratch miner, recycling miner) pair, as in the paper's figures.
struct Family {
  const char* tag;
  gogreen::fpm::MinerKind base;
  gogreen::core::RecycleAlgo algo;
};
inline constexpr Family kFamilies[] = {
    {"hm", gogreen::fpm::MinerKind::kHMine, gogreen::core::RecycleAlgo::kHMine},
    {"fp", gogreen::fpm::MinerKind::kFpGrowth,
     gogreen::core::RecycleAlgo::kFpGrowth},
    {"tp", gogreen::fpm::MinerKind::kTreeProjection,
     gogreen::core::RecycleAlgo::kTreeProjection},
};
inline constexpr size_t kNumFamilies = 3;

/// Store budgets, set explicitly on every service.
inline constexpr size_t kRelaxStoreBytes = size_t{2} << 30;  // holds all
inline constexpr size_t kColdStoreBytes = 1024;  // holds no answer

/// One request as the client saw it.
struct RequestRecord {
  uint64_t id = 0;  ///< Benchmark-side sequence number.
  size_t dataset = 0;
  size_t family = 0;
  int client = 0;
  int request_class = 0;  ///< daemon_mix schedule class.
  uint64_t support = 0;
  std::string route;
  uint64_t seed_support = 0;
  bool coalesced = false;
  std::string outcome;
  double latency_s = 0.0;  ///< Client-observed.
  double server_s = 0.0;   ///< ServeStats::seconds (wire: `seconds`).
  std::chrono::steady_clock::time_point start;
  std::chrono::steady_clock::time_point end;
  uint64_t patterns = 0;
  uint64_t evictions = 0;  ///< Entries and images this request evicted.
  Digest digest;  ///< Of the returned set (in-process workloads).
  std::string request_json;   ///< daemon_mix: the request as sent.
  std::string response_json;  ///< daemon_mix: the response as received.
};

struct RunOptions {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kSmoke;
};

struct RunOutcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricValues metrics;
  std::vector<std::string> errors;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> report;

  void Fail(const std::string& error) {
    correct = false;
    if (errors.size() < 50) errors.push_back(error);
  }
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload for about `options.seconds`; see the file comment.
/// With `options.trace` the run also records spans and reports the
/// per-layer metrics instead of the end-to-end ones.
RunOutcome RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
