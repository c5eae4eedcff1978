// Tests for request-scoped observability: the wide-event schema (golden
// key set — every route emits the same keys; request ids unique and
// monotonic), the bounded ring + file sink, the reconciliation between
// request-log routes and the serve.* counters, per-request phase-timing
// attribution (span deltas, not cumulative aggregates), and trace/metric
// attribution equivalence at 1 vs 4 threads.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "data/datasets.h"
#include "fpm/miner.h"
#include "obs/metrics.h"
#include "obs/request_log.h"
#include "obs/trace.h"
#include "serve/mining_service.h"
#include "util/env.h"

namespace gogreen {
namespace {

using obs::MetricsSnapshot;
using obs::RequestEvent;
using obs::RequestLog;
using serve::MiningService;

/// A line is schema-conformant when every golden key appears as a JSON
/// key, in SchemaKeys() order (the emitter writes a fixed sequence).
void ExpectSchemaLine(const std::string& line) {
  size_t last_pos = 0;
  for (const std::string& key : RequestEvent::SchemaKeys()) {
    const std::string needle = "\"" + key + "\":";
    const size_t pos = line.find(needle);
    ASSERT_NE(pos, std::string::npos) << "missing key '" << key << "' in "
                                      << line;
    EXPECT_GT(pos, last_pos) << "key '" << key << "' out of order in "
                             << line;
    last_pos = pos;
  }
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
}

TEST(RequestEventTest, JsonLineContainsEverySchemaKeyInOrder) {
  RequestEvent event;
  event.request_id = 7;
  event.dataset = "weather";
  event.min_support = 42;
  event.route = "recycle";
  event.seed_support = 60;
  event.outcome = "ok";
  event.seconds = 0.25;
  event.phases = {{"serve.compress", 0.1}, {"serve.recycle_mine", 0.15}};
  const std::string line = event.ToJsonLine();
  ExpectSchemaLine(line);
  EXPECT_NE(line.find("\"request_id\":7"), std::string::npos);
  EXPECT_NE(line.find("\"route\":\"recycle\""), std::string::npos);
  EXPECT_NE(line.find("\"serve.compress\":0.1"), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos) << "must be single-line";
}

TEST(RequestLogTest, RingIsBoundedAndCountsDrops) {
  RequestLog log;
  log.SetCapacity(3);
  for (uint64_t i = 1; i <= 5; ++i) {
    RequestEvent event;
    event.request_id = i;
    log.Record(event);
  }
  const auto events = log.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events.front().request_id, 3u);  // Oldest two rotated out.
  EXPECT_EQ(events.back().request_id, 5u);
  EXPECT_EQ(log.dropped(), 2u);
  log.Clear();
  EXPECT_TRUE(log.Events().empty());
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(RequestLogTest, NextRequestIdIsMonotonic) {
  RequestLog log;
  const uint64_t first = log.NextRequestId();
  EXPECT_GE(first, 1u);
  EXPECT_EQ(log.NextRequestId(), first + 1);
  EXPECT_EQ(log.NextRequestId(), first + 2);
}

TEST(RequestLogTest, FileSinkAppendsOneValidLinePerEvent) {
  const std::string path =
      ::testing::TempDir() + "/request_log_sink_test.jsonl";
  std::remove(path.c_str());
  RequestLog log;
  ASSERT_TRUE(log.AttachSink(path).ok());
  for (uint64_t i = 1; i <= 3; ++i) {
    RequestEvent event;
    event.request_id = i;
    event.route = "none";
    event.outcome = "ok";
    log.Record(event);
  }
  log.DetachSink();
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    ExpectSchemaLine(line);
  }
  EXPECT_EQ(lines, 3u);
  std::remove(path.c_str());
}

/// Drives a MiningService through all four routes (scratch, recycle,
/// filter-down, exact) the way the session REPL sweep does, collecting
/// the emitted wide events and the serve.* counter deltas.
struct SweepOutcome {
  std::vector<RequestEvent> events;
  std::map<std::string, uint64_t> counter_deltas;  // serve.* and mine.*.
  std::vector<uint64_t> patterns;  // Per request, in order.
};

SweepOutcome RunFourRouteSweep(const fpm::TransactionDb& db,
                               const std::string& dataset_id,
                               size_t threads) {
  const size_t events_before = RequestLog::Global().Events().size();
  const MetricsSnapshot before = obs::MetricRegistry::Global().Snapshot();

  MiningService service(db, dataset_id);
  const uint64_t xi_hi = db.NumTransactions() / 4;
  const uint64_t xi_lo = db.NumTransactions() / 10;
  const uint64_t xi_mid = (xi_hi + xi_lo) / 2;
  SweepOutcome outcome;
  for (const uint64_t minsup : {xi_hi, xi_lo, xi_mid, xi_hi}) {
    fpm::MineRequest request = fpm::MineRequest::At(minsup);
    request.threads = threads;
    auto result = service.Mine(request);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    outcome.patterns.push_back(result.ok() ? result->patterns.size() : 0);
  }

  const MetricsSnapshot after = obs::MetricRegistry::Global().Snapshot();
  for (const auto& [name, value] : after.counters) {
    const uint64_t delta = value - before.CounterValue(name);
    if (delta > 0) outcome.counter_deltas[name] = delta;
  }
  auto events = RequestLog::Global().Events();
  outcome.events.assign(events.begin() + events_before, events.end());
  return outcome;
}

class ServiceWideEventTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Aggregate-only tracing: what `--request-log` turns on in the CLI.
    obs::Tracer::Global().Enable(/*record_events=*/false);
    RequestLog::Global().Clear();
    auto made = data::MakeDataset(data::DatasetId::kWeatherSub,
                                  BenchScale::kSmoke);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    db_ = std::move(made).value();
  }
  void TearDown() override { obs::Tracer::Global().Disable(); }

  fpm::TransactionDb db_;
};

TEST_F(ServiceWideEventTest, EveryRouteEmitsTheGoldenKeySet) {
  const SweepOutcome sweep = RunFourRouteSweep(db_, "wide-event", 1);
  ASSERT_EQ(sweep.events.size(), 4u);

  const std::vector<std::string> want_routes = {"none", "recycle",
                                                "filter-down", "exact"};
  for (size_t i = 0; i < sweep.events.size(); ++i) {
    const RequestEvent& event = sweep.events[i];
    ExpectSchemaLine(event.ToJsonLine());
    EXPECT_EQ(event.route, want_routes[i]) << "request " << i;
    EXPECT_EQ(event.outcome, "ok");
    EXPECT_EQ(event.dataset, "wide-event");
    EXPECT_FALSE(event.partial);
    EXPECT_EQ(event.patterns, sweep.patterns[i]);
    EXPECT_GT(event.threads, 0u);
  }
  // Seed provenance: recycle reuses the scratch round's support; the exact
  // hit is flagged as a cache hit at its own support.
  EXPECT_EQ(sweep.events[0].seed_support, 0u);
  EXPECT_EQ(sweep.events[1].seed_support, sweep.events[0].min_support);
  EXPECT_TRUE(sweep.events[3].cache_hit);
  EXPECT_EQ(sweep.events[3].seed_support, sweep.events[3].min_support);
  // Scratch mining under the request-scoped governor reports real byte
  // accounting even though no budget was armed.
  EXPECT_GT(sweep.events[0].bytes_peak, 0u);
}

TEST_F(ServiceWideEventTest, RequestIdsAreUniqueAndMonotonic) {
  const SweepOutcome first = RunFourRouteSweep(db_, "ids-a", 1);
  const SweepOutcome second = RunFourRouteSweep(db_, "ids-b", 1);
  std::vector<uint64_t> ids;
  for (const auto& e : first.events) ids.push_back(e.request_id);
  for (const auto& e : second.events) ids.push_back(e.request_id);
  ASSERT_EQ(ids.size(), 8u);
  for (size_t i = 1; i < ids.size(); ++i) {
    EXPECT_LT(ids[i - 1], ids[i]) << "ids must be strictly increasing";
  }
}

TEST_F(ServiceWideEventTest, RouteCountsReconcileWithServeCounters) {
  const SweepOutcome sweep = RunFourRouteSweep(db_, "reconcile", 1);
  ASSERT_EQ(sweep.events.size(), 4u);
  std::map<std::string, uint64_t> route_counts;
  for (const auto& event : sweep.events) ++route_counts[event.route];

  const auto delta = [&](const char* name) {
    const auto it = sweep.counter_deltas.find(name);
    return it == sweep.counter_deltas.end() ? uint64_t{0} : it->second;
  };
  EXPECT_EQ(delta("serve.requests"), sweep.events.size());
  EXPECT_EQ(delta("serve.scratch"), route_counts["none"]);
  EXPECT_EQ(delta("serve.recycled"), route_counts["recycle"]);
  EXPECT_EQ(delta("serve.filter_down"), route_counts["filter-down"]);
  EXPECT_EQ(delta("serve.cache_hits"), route_counts["exact"]);
  EXPECT_EQ(delta("serve.errors"), 0u);
}

TEST_F(ServiceWideEventTest, PhaseSecondsSumCloseToWallTime) {
  const SweepOutcome sweep = RunFourRouteSweep(db_, "phases", 1);
  ASSERT_EQ(sweep.events.size(), 4u);
  for (const RequestEvent& event : sweep.events) {
    double phase_sum = 0.0;
    bool has_store_put = false;
    for (const auto& [name, seconds] : event.phases) {
      EXPECT_EQ(name.rfind("serve.", 0), 0u) << name;
      EXPECT_NE(name, "serve.request") << "envelope span is not a phase";
      has_store_put |= name == "serve.store_put";
      phase_sum += seconds;
    }
    // Every mined answer (scratch, recycle, filter-down) is written back
    // under its own phase, outside the route span; an exact hit writes
    // nothing.
    EXPECT_EQ(has_store_put, event.route != "exact") << event.ToJsonLine();
    // The phase spans are disjoint and nested inside the request, so the
    // sum cannot exceed the wall time and must account for nearly all of
    // it. The absolute floor keeps microsecond-scale exact hits (where
    // fixed envelope overhead dominates) from flaking the relative band.
    EXPECT_LE(phase_sum, event.seconds + 1e-6) << event.ToJsonLine();
    const double slack =
        (event.seconds * 0.05) > 0.002 ? event.seconds * 0.05 : 0.002;
    EXPECT_GE(phase_sum, event.seconds - slack) << event.ToJsonLine();
  }
}

TEST_F(ServiceWideEventTest, PartialGovernedRequestReportsOutcome) {
  MiningService service(db_, "governed");
  RunContext ctx;
  ctx.SetDeadlineAfterMillis(0);  // Already due: deterministic early stop.
  fpm::MineRequest request =
      fpm::MineRequest::At(db_.NumTransactions() / 10);
  request.run_context = &ctx;
  auto result = service.Mine(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->partial);
  const auto events = RequestLog::Global().Events();
  ASSERT_FALSE(events.empty());
  const RequestEvent& event = events.back();
  ExpectSchemaLine(event.ToJsonLine());
  EXPECT_TRUE(event.partial);
  EXPECT_EQ(event.outcome, "partial");
  EXPECT_EQ(event.frontier_support, result->frontier_support);
  EXPECT_EQ(ctx.request_id(), event.request_id);
}

// The attribution must be thread-count independent: the deterministic work
// counters (items scanned, projections built) and the answers themselves
// are identical at 1 and 4 threads, so a 4-thread request log reads the
// same as a 1-thread one apart from wall times.
TEST_F(ServiceWideEventTest, AttributionEquivalentAtOneAndFourThreads) {
  const SweepOutcome t1 = RunFourRouteSweep(db_, "threads-1", 1);
  const SweepOutcome t4 = RunFourRouteSweep(db_, "threads-4", 4);
  ASSERT_EQ(t1.events.size(), 4u);
  ASSERT_EQ(t4.events.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(t1.events[i].route, t4.events[i].route) << "request " << i;
    EXPECT_EQ(t1.events[i].patterns, t4.events[i].patterns)
        << "request " << i;
    EXPECT_EQ(t4.events[i].threads, 4u);
  }
  const auto work = [](const SweepOutcome& sweep, const char* name) {
    const auto it = sweep.counter_deltas.find(name);
    return it == sweep.counter_deltas.end() ? uint64_t{0} : it->second;
  };
  EXPECT_EQ(work(t1, "mine.items_scanned"), work(t4, "mine.items_scanned"));
  EXPECT_EQ(work(t1, "mine.projections_built"),
            work(t4, "mine.projections_built"));
  EXPECT_EQ(work(t1, "serve.requests"), work(t4, "serve.requests"));
}

}  // namespace
}  // namespace gogreen
