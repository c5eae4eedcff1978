// Direct tests for the weighted slice database (row dedup + equal-pattern
// merging) shared by Recycle-FP and Recycle-TP.

#include <gtest/gtest.h>

#include "core/compressor.h"
#include "core/slice_db.h"
#include "fpm/miner.h"
#include "tests/test_util.h"

namespace gogreen::core {
namespace {

using fpm::FList;
using fpm::Rank;
using fpm::TransactionDb;

std::vector<Rank> Items(RankSpan span) { return {span.begin(), span.end()}; }

/// CDB of the paper example compressed at xi_old = 3.
CompressedDb PaperCdb() {
  const TransactionDb db = testutil::PaperExampleDb();
  auto fp = fpm::CreateMiner(fpm::MinerKind::kFpGrowth)->Mine(db, 3);
  EXPECT_TRUE(fp.ok());
  auto cdb = CompressDatabase(db, *fp, {CompressionStrategy::kMcp,
                                        MatcherKind::kLinear});
  EXPECT_TRUE(cdb.ok());
  return std::move(cdb).value();
}

TEST(WeightedSliceTest, BuildPreservesCounts) {
  const CompressedDb cdb = PaperCdb();
  const FList flist = FList::FromCounts(cdb.CountItemSupports(9), 2);
  const SliceDb sdb = SliceDb::Build(cdb, flist);
  const FlatSliceDb ws = FlatSliceDb::Build(sdb);
  ASSERT_EQ(ws.size(), sdb.slices.size());
  for (size_t i = 0; i < ws.size(); ++i) {
    EXPECT_EQ(ws.slices()[i].count, sdb.slices[i].count());
    EXPECT_EQ(Items(ws.slices()[i].pattern), sdb.slices[i].pattern);
  }
}

TEST(WeightedSliceTest, DedupeMergesIdenticalRows) {
  // Rows {1,2} x1, {3} x2, {1,2} x4 (weights as repeated members).
  SliceDb sdb;
  Slice slice;
  slice.outs = {{1, 2}, {3}, {3}, {1, 2}, {1, 2}, {1, 2}, {1, 2}};
  sdb.slices.push_back(slice);
  const FlatSliceDb ws = FlatSliceDb::Build(sdb);
  ASSERT_EQ(ws.size(), 1u);
  const auto outs = ws.rows(ws.slices()[0]);
  ASSERT_EQ(outs.size(), 2u);
  uint64_t w12 = 0;
  uint64_t w3 = 0;
  for (const auto& [row, w] : outs) {
    if (Items(row) == std::vector<Rank>{1, 2}) w12 = w;
    if (Items(row) == std::vector<Rank>{3}) w3 = w;
  }
  EXPECT_EQ(w12, 5u);
  EXPECT_EQ(w3, 2u);
}

TEST(WeightedSliceTest, IdenticalMembersCollapse) {
  // Ten identical tuples in one group: the weighted build keeps one row of
  // weight 10.
  TransactionDb db;
  for (int i = 0; i < 10; ++i) db.AddTransaction({1, 2, 7});
  fpm::PatternSet fp;
  fp.Add({1, 2}, 10);
  auto cdb = CompressDatabase(db, fp, {CompressionStrategy::kMcp,
                                       MatcherKind::kLinear});
  ASSERT_TRUE(cdb.ok());
  const FList flist =
      FList::FromCounts(cdb->CountItemSupports(cdb->ItemUniverseSize()), 2);
  const SliceDb sdb = SliceDb::Build(*cdb, flist);
  const FlatSliceDb ws = FlatSliceDb::Build(sdb);
  ASSERT_EQ(ws.size(), 1u);
  ASSERT_EQ(ws.rows(ws.slices()[0]).size(), 1u);
  EXPECT_EQ(ws.rows(ws.slices()[0])[0].weight, 10u);
  EXPECT_EQ(ws.slices()[0].count, 10u);
}

TEST(WeightedSliceTest, ProjectionMatchesUnweightedProjection) {
  // Counting over a weighted projection must equal counting over
  // ProjectSlices for every item, on randomized compressed databases.
  for (uint64_t seed : {51u, 52u, 53u}) {
    const TransactionDb db = testutil::RandomDb(seed, 250, 30, 5.0);
    auto fp = fpm::CreateMiner(fpm::MinerKind::kEclat)->Mine(db, 25);
    ASSERT_TRUE(fp.ok());
    auto cdb = CompressDatabase(db, *fp, {CompressionStrategy::kMcp,
                                          MatcherKind::kAuto});
    ASSERT_TRUE(cdb.ok());
    const FList flist = FList::FromCounts(
        cdb->CountItemSupports(cdb->ItemUniverseSize()), 10);
    const SliceDb sdb = SliceDb::Build(*cdb, flist);
    const FlatSliceDb ws = FlatSliceDb::Build(sdb);

    SliceProjector projector;
    fpm::PatternSet sink;
    fpm::MiningStats stats;
    SliceMiningContext ctx(flist, 10, &sink, &stats);
    for (Rank f = 0; f < std::min<size_t>(flist.size(), 8); ++f) {
      const auto plain = ProjectSlices(sdb.slices, f);
      const FlatSliceDb weighted = projector.Project(ws, f);
      std::vector<uint64_t> counts_a;
      std::vector<uint64_t> counts_b;
      const auto freq_a = ctx.CountFrequent(plain, &counts_a);
      const auto freq_b = ctx.CountFrequent(weighted, &counts_b);
      EXPECT_EQ(freq_a, freq_b) << "seed " << seed << " f " << f;
      EXPECT_EQ(counts_a, counts_b) << "seed " << seed << " f " << f;
    }
  }
}

TEST(WeightedSliceTest, EqualPatternSlicesMergeOnProjection) {
  // Two groups whose pattern suffixes coincide after projecting away their
  // distinguishing head item must merge into one weighted slice.
  TransactionDb db;
  for (int i = 0; i < 4; ++i) db.AddTransaction({1, 5, 6});
  for (int i = 0; i < 4; ++i) db.AddTransaction({2, 5, 6});
  fpm::PatternSet fp;
  fp.Add({1, 5, 6}, 4);
  fp.Add({2, 5, 6}, 4);
  auto cdb = CompressDatabase(db, fp, {CompressionStrategy::kMcp,
                                       MatcherKind::kLinear});
  ASSERT_TRUE(cdb.ok());
  ASSERT_EQ(cdb->NumGroups(), 2u);
  const FList flist =
      FList::FromCounts(cdb->CountItemSupports(cdb->ItemUniverseSize()), 4);
  const SliceDb sdb = SliceDb::Build(*cdb, flist);
  const FlatSliceDb ws = FlatSliceDb::Build(sdb);
  ASSERT_EQ(ws.size(), 2u);

  // Items 1 and 2 have support 4 (ranks 0/1); 5 and 6 have support 8.
  // Projecting on rank 0 (item 1 or 2) keeps one group; projecting on the
  // rank of item 5 keeps both groups, whose pattern suffix is then just
  // {6} — they must merge.
  const Rank r5 = flist.rank(5);
  ASSERT_NE(r5, fpm::kNoRank);
  SliceProjector projector;
  const FlatSliceDb projected = projector.Project(ws, r5);
  ASSERT_EQ(projected.size(), 1u);
  EXPECT_EQ(projected.slices()[0].count, 8u);
}

TEST(WeightedSliceTest, EmptyInputs) {
  const FlatSliceDb empty = FlatSliceDb::Build(SliceDb{});
  SliceProjector projector;
  EXPECT_TRUE(projector.Project(empty, 0).empty());
  EXPECT_TRUE(projector.ProjectFiltered(empty, 0, {1, 2}).empty());
  // A slice with no rows keeps no rows.
  SliceDb no_rows;
  Slice slice;
  slice.pattern = {0, 1};
  slice.empty_count = 3;
  no_rows.slices.push_back(slice);
  const FlatSliceDb ws = FlatSliceDb::Build(no_rows);
  ASSERT_EQ(ws.size(), 1u);
  EXPECT_TRUE(ws.rows(ws.slices()[0]).empty());
  EXPECT_EQ(ws.slices()[0].count, 3u);
}

}  // namespace
}  // namespace gogreen::core
