// Differential test for the serving layer: every route the MiningService
// can take — scratch, recycle-seeded, filter-down, exact cache hit — must
// return a pattern set canonically identical to a direct (storeless) mine of
// the same database at the same support, on all four example datasets, at 1
// and 4 threads. Plus: partial governed results are cached at their frontier
// (the paper's relax-recycle loop), constrained requests share support-
// complete seeds, and the store budget holds under service load. The
// RecyclerTest cases follow one analyst (or several sharing a service)
// through the interactive loop: tighten, relax, drill down, every recycling
// algorithm and compression strategy.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/compressed_db.h"
#include "core/compressor.h"
#include "core/seed_selection.h"
#include "data/datasets.h"
#include "fpm/constraints.h"
#include "fpm/miner.h"
#include "fpm/pattern_set.h"
#include "serve/mining_service.h"
#include "serve/pattern_store.h"
#include "tests/test_util.h"
#include "util/run_context.h"

namespace gogreen {
namespace {

using core::SeedRoute;
using fpm::MineRequest;
using fpm::MineResult;
using fpm::PatternSet;
using fpm::TransactionDb;
using serve::MiningService;
using serve::ServeStats;
using serve::ServiceOptions;
using serve::StoreKey;
using testutil::PaperExampleDb;
using testutil::RandomDb;

/// Direct mine with no store involved: the correctness oracle for every
/// service route.
PatternSet DirectMine(const TransactionDb& db, uint64_t minsup) {
  auto miner = fpm::CreateMiner(fpm::MinerKind::kHMine);
  auto result = miner->Mine(db, minsup);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

void ExpectCanonicallyEqual(PatternSet expected, PatternSet got,
                            const char* what) {
  EXPECT_TRUE(PatternSet::Equal(&expected, &got))
      << what << ": " << expected.size() << " vs " << got.size()
      << " patterns";
}

MineResult ServeAt(MiningService& service, uint64_t minsup, size_t threads,
                   ServeStats* stats = nullptr) {
  MineRequest request = MineRequest::At(minsup);
  request.threads = threads;
  auto result = service.Mine(request, stats);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

struct ServeParam {
  data::DatasetId id;
  size_t threads;
};

std::string ServeParamName(
    const ::testing::TestParamInfo<ServeParam>& tpi) {
  std::string name = data::GetDatasetSpec(tpi.param.id).name;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_t" + std::to_string(tpi.param.threads);
}

class ServeDifferentialTest : public ::testing::TestWithParam<ServeParam> {};

TEST_P(ServeDifferentialTest, AllRoutesMatchDirectMining) {
  const ServeParam& p = GetParam();
  const data::DatasetSpec& spec = data::GetDatasetSpec(p.id);
  auto made = data::MakeDataset(p.id, BenchScale::kSmoke);
  ASSERT_TRUE(made.ok());
  const TransactionDb db = std::move(made).value();

  // Supports from the paper's own sweep for this dataset: mine tight
  // (xi_old), relax below it (recycle), then query in between (filter-down
  // from the relaxed set) and repeat (exact hit).
  const uint64_t xi_hi =
      fpm::AbsoluteSupport(spec.xi_old, db.NumTransactions());
  const uint64_t xi_lo =
      fpm::AbsoluteSupport(spec.xi_new_sweep.front(), db.NumTransactions());
  ASSERT_LT(xi_lo, xi_hi) << spec.name;
  const uint64_t xi_mid = (xi_lo + xi_hi) / 2;
  ASSERT_GT(xi_mid, xi_lo);

  MiningService service(db, spec.name);

  // Route 1: cold store -> scratch.
  ServeStats stats;
  MineResult scratch = ServeAt(service, xi_hi, p.threads, &stats);
  EXPECT_EQ(stats.route, SeedRoute::kNone);
  EXPECT_FALSE(scratch.partial);
  ExpectCanonicallyEqual(DirectMine(db, xi_hi), std::move(scratch.patterns),
                         "scratch route");

  // Route 2: relaxed support -> recycle from the xi_hi set.
  MineResult recycled = ServeAt(service, xi_lo, p.threads, &stats);
  EXPECT_EQ(stats.route, SeedRoute::kRecycle);
  EXPECT_EQ(stats.seed_support, xi_hi);
  ExpectCanonicallyEqual(DirectMine(db, xi_lo), std::move(recycled.patterns),
                         "recycle route");

  // Route 3: between the two cached sets -> filter-down from xi_lo.
  MineResult filtered = ServeAt(service, xi_mid, p.threads, &stats);
  EXPECT_EQ(stats.route, SeedRoute::kFilterDown);
  EXPECT_EQ(stats.seed_support, xi_lo);
  ExpectCanonicallyEqual(DirectMine(db, xi_mid), std::move(filtered.patterns),
                         "filter-down route");

  // Route 4: repeat queries -> exact cache hits, still the same answers.
  for (uint64_t minsup : {xi_hi, xi_lo, xi_mid}) {
    MineResult hit = ServeAt(service, minsup, p.threads, &stats);
    EXPECT_EQ(stats.route, SeedRoute::kExact);
    EXPECT_EQ(stats.seed_support, minsup);
    ExpectCanonicallyEqual(DirectMine(db, minsup), std::move(hit.patterns),
                           "exact-hit route");
  }

  // The store held its budget through all of it.
  EXPECT_LE(service.store().bytes_in_use(), service.store().byte_budget());
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasets, ServeDifferentialTest,
    ::testing::Values(
        ServeParam{data::DatasetId::kWeatherSub, 1},
        ServeParam{data::DatasetId::kWeatherSub, 4},
        ServeParam{data::DatasetId::kForestSub, 1},
        ServeParam{data::DatasetId::kForestSub, 4},
        ServeParam{data::DatasetId::kConnect4Sub, 1},
        ServeParam{data::DatasetId::kConnect4Sub, 4},
        ServeParam{data::DatasetId::kPumsbSub, 1},
        ServeParam{data::DatasetId::kPumsbSub, 4}),
    ServeParamName);

// --- Non-parameterized service behaviors (paper example database). ---

class ServeBehaviorTest : public ::testing::Test {
 protected:
  ServeBehaviorTest() : db_(testutil::PaperExampleDb()) {}
  TransactionDb db_;
};

TEST_F(ServeBehaviorTest, ConstrainedRequestsShareSupportCompleteSeeds) {
  MiningService service(db_, "paper");
  // Warm the support-complete cache.
  (void)ServeAt(service, 2, /*threads=*/0);

  fpm::ConstraintSet constraints(/*min_support=*/2);
  constraints.Add(fpm::MakeMinLength(2));
  MineRequest request = MineRequest::At(2);
  request.constraints = &constraints;
  ServeStats stats;
  auto result = service.Mine(request, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Served from the cached support-complete set, then filtered.
  EXPECT_EQ(stats.route, SeedRoute::kExact);
  PatternSet expected = DirectMine(db_, 2).FilterByMinLength(2);
  ExpectCanonicallyEqual(std::move(expected), std::move(result->patterns),
                         "constrained request");

  // The filtered set was cached under its fingerprint: an exact repeat hits.
  auto repeat = service.Mine(request, &stats);
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(stats.route, SeedRoute::kExact);
}

TEST_F(ServeBehaviorTest, SupportOnlyAndConstrainedEntriesDoNotCollide) {
  MiningService service(db_, "paper");
  fpm::ConstraintSet constraints(/*min_support=*/2);
  constraints.Add(fpm::MakeMinLength(3));
  MineRequest request = MineRequest::At(2);
  request.constraints = &constraints;
  auto constrained = service.Mine(request);
  ASSERT_TRUE(constrained.ok());

  // A later unconstrained query at the same support must not be answered
  // from the (smaller) filtered set.
  MineResult plain = ServeAt(service, 2, /*threads=*/0);
  ExpectCanonicallyEqual(DirectMine(db_, 2), std::move(plain.patterns),
                         "unconstrained after constrained");
}

TEST_F(ServeBehaviorTest, PartialGovernedResultIsCachedAtFrontier) {
  MiningService service(db_, "paper");
  RunContext ctx;
  ctx.RequestCancel();  // Deterministic immediate stop.
  MineRequest request = MineRequest::At(2);
  request.run_context = &ctx;
  ServeStats stats;
  auto result = service.Mine(request, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->partial);
  EXPECT_GT(result->frontier_support, 2u);
  EXPECT_TRUE(stats.partial);

  // The partial set is exact at its frontier, so the store keeps it there —
  // and a later query at the frontier support is an exact hit.
  StoreKey key;
  key.dataset_id = "paper";
  key.min_support = result->frontier_support;
  EXPECT_NE(service.store().Get(key), nullptr);
  MineResult later = ServeAt(service, result->frontier_support, 0, &stats);
  EXPECT_EQ(stats.route, SeedRoute::kExact);
  ExpectCanonicallyEqual(DirectMine(db_, result->frontier_support),
                         std::move(later.patterns),
                         "query at cached frontier");
}

TEST_F(ServeBehaviorTest, RecycleMemoizesTheCompressedImage) {
  MiningService service(db_, "paper");
  (void)ServeAt(service, 4, /*threads=*/0);  // Scratch at xi_old = 4.
  ServeStats stats;
  // Recycle: builds + memoizes the image.
  (void)ServeAt(service, 3, /*threads=*/0, &stats);
  EXPECT_EQ(stats.route, SeedRoute::kRecycle);
  EXPECT_EQ(stats.seed_support, 4u);
  EXPECT_EQ(service.store().stats().compressed_images, 1u);
}

TEST_F(ServeBehaviorTest, RecycleReusesAMemoizedImageWithoutRecompressing) {
  // Seed the store by hand with a pattern set *and* its compressed image so
  // the recycle route's image lookup deterministically hits.
  MiningService service(db_, "paper");
  PatternSet fp_old = DirectMine(db_, 4);
  auto compressed = core::CompressDatabase(
      db_, fp_old,
      {core::CompressionStrategy::kMcp, core::MatcherKind::kAuto});
  ASSERT_TRUE(compressed.ok());
  StoreKey key;
  key.dataset_id = "paper";
  key.min_support = 4;
  ASSERT_TRUE(service.store().Put(key, fp_old, db_.NumTransactions()));
  service.store().PutCompressed(
      key, std::make_shared<const core::CompressedDb>(
               std::move(compressed).value()));

  ServeStats stats;
  MineResult result = ServeAt(service, 2, /*threads=*/0, &stats);
  EXPECT_EQ(stats.route, SeedRoute::kRecycle);
  EXPECT_EQ(stats.seed_support, 4u);
  // The memoized image skipped the compression pass entirely.
  EXPECT_EQ(stats.compress_seconds, 0.0);
  ExpectCanonicallyEqual(DirectMine(db_, 2), std::move(result.patterns),
                         "recycle from memoized image");
}

TEST_F(ServeBehaviorTest, TinyBudgetServiceStaysCorrectUnderEviction) {
  serve::ServiceOptions options;
  options.store.byte_budget = 1;  // Nothing fits: every Put is rejected.
  MiningService service(db_, "paper", options);
  for (uint64_t minsup : {4u, 2u, 3u, 2u}) {
    ServeStats stats;
    MineResult result = ServeAt(service, minsup, 0, &stats);
    // With no cache every query falls back to scratch — and stays right.
    EXPECT_EQ(stats.route, SeedRoute::kNone);
    ExpectCanonicallyEqual(DirectMine(db_, minsup),
                           std::move(result.patterns),
                           "mining with a zero-capacity store");
    EXPECT_EQ(service.store().bytes_in_use(), 0u);
  }
}

// --- The interactive loop, one request at a time. ---

TEST(RecyclerTest, FirstMineIsInitialPath) {
  MiningService service(PaperExampleDb(), "paper");
  ServeStats stats;
  MineResult result = ServeAt(service, 3, /*threads=*/0, &stats);
  EXPECT_EQ(stats.route, SeedRoute::kNone);
  EXPECT_EQ(stats.seed_support, 0u);
  EXPECT_EQ(result.patterns.size(), 11u);
  // The answer is stored for later rounds to reuse.
  EXPECT_NE(service.store().Get({"paper", "", 3}), nullptr);
}

TEST(RecyclerTest, TightenedUsesFilterPath) {
  const TransactionDb db = RandomDb(31, 500, 50, 7.0);
  MiningService service(db, "tighten");
  (void)ServeAt(service, 10, /*threads=*/0);

  ServeStats stats;
  MineResult result = ServeAt(service, 25, /*threads=*/0, &stats);
  EXPECT_EQ(stats.route, SeedRoute::kFilterDown);
  EXPECT_EQ(stats.seed_support, 10u);
  ExpectCanonicallyEqual(DirectMine(db, 25), std::move(result.patterns),
                         "tightened support");
  // The richer set stays stored for future relaxations.
  EXPECT_NE(service.store().Get({"tighten", "", 10}), nullptr);
}

TEST(RecyclerTest, RelaxedUsesRecycledPathAndIsExact) {
  const TransactionDb db = RandomDb(32, 500, 50, 7.0);
  MiningService service(db, "relax");
  (void)ServeAt(service, 40, /*threads=*/0);

  ServeStats stats;
  MineResult result = ServeAt(service, 12, /*threads=*/0, &stats);
  EXPECT_EQ(stats.route, SeedRoute::kRecycle);
  EXPECT_EQ(stats.seed_support, 40u);
  EXPECT_LE(stats.compression_ratio, 1.0);
  ExpectCanonicallyEqual(DirectMine(db, 12), std::move(result.patterns),
                         "relaxed support");
  EXPECT_NE(service.store().Get({"relax", "", 12}), nullptr);
}

TEST(RecyclerTest, IterativeDrillDownStaysCorrect) {
  // The canonical workflow from the introduction: relax step by step, with
  // a tightening thrown in. Each round seeds from the nearest stored set.
  const TransactionDb db = RandomDb(33, 800, 60, 8.0);
  MiningService service(db, "drill");
  struct Round {
    uint64_t minsup;
    SeedRoute route;
    uint64_t seed;
  };
  for (const Round& round : {Round{60, SeedRoute::kNone, 0},
                             Round{35, SeedRoute::kRecycle, 60},
                             Round{50, SeedRoute::kFilterDown, 35},
                             Round{20, SeedRoute::kRecycle, 35},
                             Round{10, SeedRoute::kRecycle, 20}}) {
    SCOPED_TRACE(round.minsup);
    ServeStats stats;
    MineResult result = ServeAt(service, round.minsup, /*threads=*/0, &stats);
    EXPECT_EQ(stats.route, round.route);
    EXPECT_EQ(stats.seed_support, round.seed);
    ExpectCanonicallyEqual(DirectMine(db, round.minsup),
                           std::move(result.patterns), "drill-down round");
  }
}

TEST(RecyclerTest, AllAlgoStrategyCombinationsAgree) {
  const TransactionDb db = RandomDb(34, 300, 40, 6.0);
  const PatternSet expected = DirectMine(db, 8);
  for (size_t threads : {1u, 4u}) {
    for (core::RecycleAlgo algo :
         {core::RecycleAlgo::kNaive, core::RecycleAlgo::kHMine,
          core::RecycleAlgo::kFpGrowth, core::RecycleAlgo::kTreeProjection}) {
      for (core::CompressionStrategy strategy :
           {core::CompressionStrategy::kMcp,
            core::CompressionStrategy::kMlp}) {
        SCOPED_TRACE(testing::Message()
                     << core::RecycleAlgoName(algo) << "/"
                     << core::CompressionStrategyName(strategy) << " t"
                     << threads);
        ServiceOptions options;
        options.algo = algo;
        options.strategy = strategy;
        MiningService service(db, "grid", options);
        (void)ServeAt(service, 30, threads);
        ServeStats stats;
        MineResult result = ServeAt(service, 8, threads, &stats);
        EXPECT_EQ(stats.route, SeedRoute::kRecycle);
        EXPECT_EQ(stats.seed_support, 30u);
        ExpectCanonicallyEqual(expected, std::move(result.patterns),
                               "algo x strategy grid");
      }
    }
  }
}

TEST(RecyclerTest, DisabledRecyclingAlwaysScratch) {
  // The no-recycling control the examples use: a store too small to keep
  // any answer leaves every round to mine from scratch, with the same
  // answers a recycling service gives.
  const TransactionDb db = RandomDb(37, 400, 40, 6.0);
  ServiceOptions tiny;
  tiny.store.byte_budget = 1;
  MiningService control(db, "control", tiny);
  MiningService recycling(db, "recycling");
  for (uint64_t minsup : {30u, 10u, 20u}) {
    SCOPED_TRACE(minsup);
    ServeStats control_stats;
    MineResult scratch = ServeAt(control, minsup, 0, &control_stats);
    EXPECT_EQ(control_stats.route, SeedRoute::kNone);
    MineResult reused = ServeAt(recycling, minsup, 0);
    ExpectCanonicallyEqual(std::move(reused.patterns),
                           std::move(scratch.patterns),
                           "control vs recycling service");
  }
  EXPECT_EQ(control.store().bytes_in_use(), 0u);
}

TEST(RecyclerTest, SeedCacheEnablesMultiUserRecycling) {
  // Section 2's multi-user motivation: user A's answer, stored by the
  // shared service, is what user B's deeper query recycles.
  const TransactionDb db = RandomDb(35, 400, 40, 6.0);
  MiningService service(db, "shared");
  MineRequest alice = MineRequest::At(30);
  alice.tenant = "alice";
  ServeStats stats;
  ASSERT_TRUE(service.Mine(alice, &stats).ok());
  EXPECT_EQ(stats.route, SeedRoute::kNone);

  MineRequest bob = MineRequest::At(10);
  bob.tenant = "bob";
  auto result = service.Mine(bob, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(stats.route, SeedRoute::kRecycle);
  EXPECT_EQ(stats.seed_support, 30u);
  EXPECT_EQ(stats.tenant, "bob");
  ExpectCanonicallyEqual(DirectMine(db, 10), std::move(result->patterns),
                         "user B recycling user A's answer");
}

TEST(RecyclerTest, InvalidateCacheForcesInitialMine) {
  MiningService service(PaperExampleDb(), "paper");
  (void)ServeAt(service, 3, /*threads=*/0);
  service.store().Clear();
  ServeStats stats;
  MineResult result = ServeAt(service, 2, /*threads=*/0, &stats);
  EXPECT_EQ(stats.route, SeedRoute::kNone);
  ExpectCanonicallyEqual(DirectMine(PaperExampleDb(), 2),
                         std::move(result.patterns), "after clearing");
}

TEST(RecyclerTest, MineFractionConvertsThreshold) {
  MiningService service(PaperExampleDb(), "paper");
  const auto support =
      fpm::ResolveSupport(0.6, service.db().NumTransactions());
  ASSERT_TRUE(support.ok());
  EXPECT_EQ(*support, 3u);  // ceil(0.6 * 5).
  MineResult result = ServeAt(service, *support, /*threads=*/0);
  EXPECT_EQ(result.patterns.size(), 11u);
  EXPECT_FALSE(fpm::ResolveSupport(0.0, 5).ok());
}

TEST(RecyclerTest, ZeroSupportRejected) {
  MiningService service(PaperExampleDb(), "paper");
  auto result = service.Mine(MineRequest::At(0));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(RecyclerTest, ConstrainedMiningFiltersAndReportsDelta) {
  // A constrained query relaxed in support recycles the support-complete
  // set of the earlier, tighter query, then filters.
  const TransactionDb db = RandomDb(36, 400, 40, 6.0);
  MiningService service(db, "constrained");

  fpm::ConstraintSet tight(/*min_support=*/20);
  tight.Add(fpm::MakeMinLength(2));
  MineRequest first;
  first.constraints = &tight;
  auto r1 = service.Mine(first);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  for (const auto& p : r1->patterns) EXPECT_GE(p.size(), 2u);

  fpm::ConstraintSet relaxed(/*min_support=*/8);
  relaxed.Add(fpm::MakeMinLength(2));
  MineRequest second;
  second.constraints = &relaxed;
  ServeStats stats;
  auto r2 = service.Mine(second, &stats);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(stats.route, SeedRoute::kRecycle);
  EXPECT_EQ(stats.seed_support, 20u);
  ExpectCanonicallyEqual(relaxed.Filter(DirectMine(db, 8)),
                         std::move(r2->patterns), "constrained relax");
}

TEST(RecyclerTest, StatsReportPatternCounts) {
  MiningService service(PaperExampleDb(), "paper");
  ServeStats stats;
  MineResult result = ServeAt(service, 3, /*threads=*/0, &stats);
  EXPECT_EQ(stats.patterns_returned, 11u);
  EXPECT_EQ(result.patterns.size(), 11u);
  auto stored = service.store().Get({"paper", "", 3});
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->size(), 11u);
}

}  // namespace
}  // namespace gogreen
