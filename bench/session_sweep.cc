// Serving-layer benchmark (not a paper figure): drives a MiningService
// through each dataset's relax-support sweep the way a session would —
// mine at xi_old, relax through the xi_new sweep (recycle chain), re-query
// xi_old (exact hit), then query between two cached thresholds
// (filter-down) — and reports the per-route timings. This is the service
// shape of the paper's Figures 9-20 sweeps: the same thresholds, but every
// answer after the first is served from the pattern store.
//
// Each step asserts the route it claims to measure: xi_old is `none`, every
// relaxation `recycle`, the re-query `exact` and the in-between support
// `filter-down`. The store gets an explicit budget that holds a whole
// sweep, so no answer is evicted before it is re-queried, and the binary
// exits non-zero when any step is served by another route.
//
// `--json [path]` additionally writes BENCH_session_sweep.json with one row
// per request: dataset, support, route, wall seconds, compression seconds,
// compression ratio, and the pattern count.
//
// `--via-socket` runs the identical sweep through the wire: an in-process
// daemon (net::Server) on a unix socket, every request a framed
// net::WireRequest from a net::Client. The route/pattern columns must
// match the direct mode exactly; the timing delta IS the protocol
// overhead, so committing both modes' JSON makes the wire tax visible in
// the perf trajectory.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/seed_selection.h"
#include "data/datasets.h"
#include "fpm/miner.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "serve/mining_service.h"
#include "util/env.h"
#include "util/status.h"

namespace gogreen::bench {
namespace {

/// Store budget per dataset's service: holds every answer of one sweep
/// (the largest, weather-sub at xi=1%, is ~0.8M patterns at smoke scale).
constexpr size_t kSweepStoreBudget = size_t{2} << 30;

struct SweepRow {
  std::string dataset;
  double xi = 0.0;
  uint64_t min_support = 0;
  std::string route;
  std::string expected_route;  ///< The route the step claims to measure.
  double seconds = 0.0;
  double compress_seconds = 0.0;
  double ratio = 1.0;
  uint64_t patterns = 0;
};

/// One sweep target: either the service directly (in-process) or the same
/// service behind a daemon socket (`--via-socket`).
struct SweepTarget {
  serve::MiningService* service = nullptr;
  net::Client* client = nullptr;  ///< Non-null in socket mode.
};

Status ServeOne(const SweepTarget& target, double xi, uint64_t min_support,
                core::SeedRoute expected, std::vector<SweepRow>* rows) {
  SweepRow row;
  row.dataset = target.service->dataset_id();
  row.xi = xi;
  row.min_support = min_support;
  row.expected_route = core::SeedRouteName(expected);
  if (target.client != nullptr) {
    net::WireRequest request;
    request.verb = net::Verb::kMine;
    request.support = static_cast<double>(min_support);
    GOGREEN_ASSIGN_OR_RETURN(const net::WireResponse resp,
                             target.client->Call(request));
    GOGREEN_RETURN_NOT_OK(resp.ToStatus());
    row.route = resp.route;
    row.seconds = resp.seconds;
    row.compress_seconds = resp.compress_seconds;
    row.ratio = resp.compression_ratio;
    row.patterns = resp.patterns;
  } else {
    serve::ServeStats stats;
    GOGREEN_RETURN_NOT_OK(
        target.service->Mine(fpm::MineRequest::At(min_support), &stats)
            .status());
    row.route = core::SeedRouteName(stats.route);
    row.seconds = stats.seconds;
    row.compress_seconds = stats.compress_seconds;
    row.ratio = stats.compression_ratio;
    row.patterns = stats.patterns_returned;
  }
  rows->push_back(row);
  std::printf("  %-14s xi=%-7.4g support=%-8" PRIu64
              " route=%-11s patterns=%-8" PRIu64 " %s%s\n",
              row.dataset.c_str(), xi, min_support, row.route.c_str(),
              row.patterns, FormatSeconds(row.seconds).c_str(),
              row.route == row.expected_route
                  ? ""
                  : ("  (expected " + row.expected_route + ")").c_str());
  return Status::OK();
}

Status SweepDataset(data::DatasetId id, bool via_socket,
                    std::vector<SweepRow>* rows) {
  const data::DatasetSpec& spec = data::GetDatasetSpec(id);
  GOGREEN_ASSIGN_OR_RETURN(fpm::TransactionDb db,
                           data::MakeDataset(id, GetBenchScale()));
  const size_t n = db.NumTransactions();
  serve::ServiceOptions service_options;
  service_options.store.byte_budget = kSweepStoreBudget;
  serve::MiningService service(std::move(db), spec.name, service_options);

  // Socket mode: stand up a daemon over this service and route every
  // request through a real framed connection. The temp dir holding the
  // socket is declared first so it outlives the server's shutdown.
  std::optional<ScopedTempDir> dir;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<net::Client> client;
  if (via_socket) {
    auto dir_or = ScopedTempDir::Create(TempDir(), "gg_sweep_");
    GOGREEN_RETURN_NOT_OK(dir_or.status());
    dir.emplace(std::move(dir_or.value()));
    net::ServerOptions options;
    options.unix_path = dir->path() + "/gg.sock";
    server = std::make_unique<net::Server>(service, nullptr, options);
    GOGREEN_RETURN_NOT_OK(server->Start());
    GOGREEN_ASSIGN_OR_RETURN(net::Client connected,
                             net::Client::ConnectUnix(options.unix_path));
    client = std::make_unique<net::Client>(std::move(connected));
  }
  const SweepTarget target{&service, client.get()};

  // The paper's sweep as a session: tight first, then relax step by step.
  GOGREEN_RETURN_NOT_OK(ServeOne(target, spec.xi_old,
                                 fpm::AbsoluteSupport(spec.xi_old, n),
                                 core::SeedRoute::kNone, rows));
  for (const double xi : spec.xi_new_sweep) {
    GOGREEN_RETURN_NOT_OK(ServeOne(target, xi, fpm::AbsoluteSupport(xi, n),
                                   core::SeedRoute::kRecycle, rows));
  }
  // Re-query the first threshold: an exact hit off the store.
  GOGREEN_RETURN_NOT_OK(ServeOne(target, spec.xi_old,
                                 fpm::AbsoluteSupport(spec.xi_old, n),
                                 core::SeedRoute::kExact, rows));
  // A support between the two tightest cached thresholds: filter-down.
  const uint64_t hi = fpm::AbsoluteSupport(spec.xi_old, n);
  const uint64_t lo = fpm::AbsoluteSupport(spec.xi_new_sweep.front(), n);
  const uint64_t mid = (hi + lo) / 2;
  if (mid > lo && mid < hi) {
    GOGREEN_RETURN_NOT_OK(
        ServeOne(target, static_cast<double>(mid) / static_cast<double>(n),
                 mid, core::SeedRoute::kFilterDown, rows));
  }
  if (server != nullptr) server->Stop();
  return Status::OK();
}

std::string RowJson(const SweepRow& row) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"dataset\":\"%s\",\"xi\":%.9g,\"min_support\":%" PRIu64
                ",\"route\":\"%s\",\"seconds\":%.9g,"
                "\"compress_seconds\":%.9g,\"compression_ratio\":%.6g,"
                "\"patterns\":%" PRIu64 "}",
                row.dataset.c_str(), row.xi, row.min_support,
                row.route.c_str(), row.seconds, row.compress_seconds,
                row.ratio, row.patterns);
  return buf;
}

int RunSessionSweep(const BenchOptions& options, bool via_socket) {
  PrintHeader("session sweep",
              via_socket
                  ? "Per-route service timings over the paper's "
                    "relax-support sweeps (framed requests over a unix "
                    "socket daemon)"
                  : "Per-route service timings over the paper's "
                    "relax-support sweeps");
  std::vector<SweepRow> rows;
  for (const data::DatasetId id : data::kAllDatasets) {
    const Status status = SweepDataset(id, via_socket, &rows);
    if (!status.ok()) {
      std::fprintf(stderr, "session sweep failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }

  // Per-route aggregate: the serving story in four numbers.
  struct RouteAgg {
    const char* route;
    uint64_t requests = 0;
    double seconds = 0.0;
  };
  RouteAgg aggs[] = {{"none"}, {"recycle"}, {"filter-down"}, {"exact"}};
  for (const SweepRow& row : rows) {
    for (RouteAgg& agg : aggs) {
      if (row.route == std::string(agg.route)) {
        ++agg.requests;
        agg.seconds += row.seconds;
      }
    }
  }
  std::printf("\nper-route totals:\n");
  for (const RouteAgg& agg : aggs) {
    std::printf("  %-11s %3" PRIu64 " requests  %s\n", agg.route,
                agg.requests, FormatSeconds(agg.seconds).c_str());
  }

  if (options.json) {
    const std::string path = options.json_path.empty()
                                 ? "BENCH_session_sweep.json"
                                 : options.json_path;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::string doc = "{\"figure\":\"session sweep\",\"scale\":\"";
    doc += BenchScaleName(GetBenchScale());
    doc += "\",\"rows\":[";
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) doc += ',';
      doc += RowJson(rows[i]);
    }
    doc += "]}";
    const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    std::fclose(f);
    if (!ok) return 1;
    std::printf("wrote %s\n", path.c_str());
  }

  // A row measures the route it claims, or the sweep fails.
  int mislabelled = 0;
  for (const SweepRow& row : rows) {
    if (row.route == row.expected_route) continue;
    std::fprintf(stderr,
                 "session sweep: %s support=%" PRIu64
                 " was served by route %s, expected %s\n",
                 row.dataset.c_str(), row.min_support, row.route.c_str(),
                 row.expected_route.c_str());
    ++mislabelled;
  }
  return mislabelled == 0 ? 0 : 1;
}

}  // namespace
}  // namespace gogreen::bench

int main(int argc, char** argv) {
  bool via_socket = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--via-socket") == 0) via_socket = true;
  }
  return gogreen::bench::RunSessionSweep(
      gogreen::bench::ParseBenchOptions(argc, argv), via_socket);
}
