// Randomized differential test of the flat weighted-slice kernel that
// Recycle-FP and Recycle-TP mine on. A reference is built here from the
// unweighted slices (ProjectSlices, then an equal-pattern merge and, for the
// Tree Projection side, a keep-filter), and every projection of the flat
// database must match it slice for slice: pattern, merged rows with their
// weights, empty members and count, plus the per-rank supports and the
// Lemma 3.1 decision. Projections are taken two levels deep, so a child's
// views into its ancestors' buffers are exercised (and checked by the
// sanitizer builds) as well.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/compressed_miner.h"
#include "core/compressor.h"
#include "core/slice_db.h"
#include "fpm/miner.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace gogreen::core {
namespace {

using fpm::FList;
using fpm::Rank;
using fpm::TransactionDb;

/// The comparable content of one weighted slice.
struct Canon {
  std::vector<Rank> pattern;
  std::vector<std::pair<std::vector<Rank>, uint64_t>> rows;
  uint64_t empty_count = 0;
  uint64_t count = 0;

  bool operator==(const Canon&) const = default;
};

void PrintTo(const Canon& c, std::ostream* os) {
  *os << "{pattern=" << testing::PrintToString(c.pattern)
      << " rows=" << testing::PrintToString(c.rows)
      << " empty=" << c.empty_count << " count=" << c.count << "}";
}

/// Unweighted slices in weighted form: rows sorted and merged.
std::vector<Canon> Canonical(const std::vector<Slice>& slices) {
  std::vector<Canon> out;
  for (const Slice& s : slices) {
    std::map<std::vector<Rank>, uint64_t> rows;
    for (const auto& row : s.outs) ++rows[row];
    out.push_back({s.pattern, {rows.begin(), rows.end()}, s.empty_count,
                   s.count()});
  }
  return out;
}

std::vector<Canon> Canonical(const FlatSliceDb& db) {
  std::vector<Canon> out;
  for (const SliceView& s : db.slices()) {
    Canon c{{s.pattern.begin(), s.pattern.end()}, {}, s.empty_count, s.count};
    for (const RowView& row : db.rows(s)) {
      c.rows.emplace_back(std::vector<Rank>(row.items.begin(), row.items.end()),
                          row.weight);
    }
    out.push_back(std::move(c));
  }
  return out;
}

/// Merges slices with equal patterns in first-occurrence order: member sets
/// are disjoint, so rows concatenate and empty members add.
std::vector<Slice> MergeByPattern(const std::vector<Slice>& slices) {
  std::vector<Slice> merged;
  std::map<std::vector<Rank>, size_t> index;
  for (const Slice& s : slices) {
    const auto [it, inserted] = index.try_emplace(s.pattern, merged.size());
    if (inserted) {
      merged.push_back(s);
    } else {
      Slice& dst = merged[it->second];
      dst.empty_count += s.empty_count;
      dst.outs.insert(dst.outs.end(), s.outs.begin(), s.outs.end());
    }
  }
  return merged;
}

/// Keeps only the ranks in `keep`. Rows left empty become empty members; a
/// slice whose pattern is left empty loses its empty members and is dropped
/// when no rows remain.
std::vector<Slice> FilterSlices(const std::vector<Slice>& slices,
                                const std::vector<Rank>& keep) {
  const auto kept = [&keep](const std::vector<Rank>& items) {
    std::vector<Rank> out;
    for (Rank r : items) {
      if (std::binary_search(keep.begin(), keep.end(), r)) out.push_back(r);
    }
    return out;
  };
  std::vector<Slice> out;
  for (const Slice& s : slices) {
    Slice next;
    next.pattern = kept(s.pattern);
    next.empty_count = s.empty_count;
    for (const auto& row : s.outs) {
      std::vector<Rank> items = kept(row);
      if (items.empty()) {
        ++next.empty_count;
      } else {
        next.outs.push_back(std::move(items));
      }
    }
    if (next.pattern.empty()) next.empty_count = 0;
    if (next.pattern.empty() && next.outs.empty()) continue;
    out.push_back(std::move(next));
  }
  return out;
}

/// A random ascending subset of the ranks in (f, num_ranks).
std::vector<Rank> RandomKeep(Random* rng, Rank f, size_t num_ranks) {
  std::vector<Rank> keep;
  for (Rank r = f + 1; r < num_ranks; ++r) {
    if (rng->Bernoulli(0.6)) keep.push_back(r);
  }
  return keep;
}

class KernelChecker {
 public:
  KernelChecker(const FList& flist, uint64_t min_support)
      : flist_(flist), min_support_(min_support) {}

  /// Checks `flat` against `ref` (which must already be merged): the slices,
  /// the per-rank supports, and the Lemma 3.1 decision at min_support.
  void Check(const FlatSliceDb& flat, const std::vector<Slice>& ref,
             const std::string& where) {
    SCOPED_TRACE(where);
    ASSERT_EQ(Canonical(flat), Canonical(ref));

    fpm::PatternSet sink;
    fpm::MiningStats stats;
    SliceMiningContext all(flist_, 1, &sink, &stats);
    std::vector<uint64_t> counts_ref;
    std::vector<uint64_t> counts_flat;
    EXPECT_EQ(all.CountFrequent(flat, &counts_flat),
              all.CountFrequent(ref, &counts_ref));
    EXPECT_EQ(counts_flat, counts_ref);

    fpm::PatternSet emitted_ref;
    fpm::PatternSet emitted_flat;
    SliceMiningContext ctx_ref(flist_, min_support_, &emitted_ref, &stats);
    SliceMiningContext ctx_flat(flist_, min_support_, &emitted_flat, &stats);
    std::vector<uint64_t> counts;
    const std::vector<Rank> frequent = ctx_ref.CountFrequent(ref, &counts);
    std::vector<Rank> prefix_ref;
    std::vector<Rank> prefix_flat;
    const bool single_ref =
        ctx_ref.TrySingleGroup(ref, frequent, counts, &prefix_ref);
    const bool single_flat =
        ctx_flat.TrySingleGroup(flat, frequent, counts, &prefix_flat);
    EXPECT_EQ(single_flat, single_ref);
    EXPECT_TRUE(fpm::PatternSet::Equal(&emitted_flat, &emitted_ref));
    if (single_ref) ++single_groups_;
  }

  int single_groups() const { return single_groups_; }

 private:
  const FList& flist_;
  const uint64_t min_support_;
  int single_groups_ = 0;
};

struct Case {
  uint64_t seed;
  CompressionStrategy strategy;
};

class FlatSliceDifferentialTest : public ::testing::TestWithParam<Case> {};

TEST_P(FlatSliceDifferentialTest, ProjectionsMatchUnweightedReference) {
  const Case c = GetParam();
  const TransactionDb db = testutil::RandomDb(c.seed, 300, 30, 6.0);
  auto fp = fpm::CreateMiner(fpm::MinerKind::kEclat)->Mine(db, 30);
  ASSERT_TRUE(fp.ok());
  auto cdb = CompressDatabase(db, *fp, {c.strategy, MatcherKind::kAuto});
  ASSERT_TRUE(cdb.ok());
  const uint64_t min_support = 8;
  const FList flist = FList::FromCounts(
      cdb->CountItemSupports(cdb->ItemUniverseSize()), min_support);
  ASSERT_GT(flist.size(), 4u);
  const SliceDb sdb = SliceDb::Build(*cdb, flist);
  const FlatSliceDb root = FlatSliceDb::Build(sdb);

  KernelChecker checker(flist, min_support);
  checker.Check(root, sdb.slices, "root");

  Random rng(c.seed * 31 + 7);
  SliceProjector projector;
  for (Rank f = 0; f < flist.size(); ++f) {
    const std::string at = "f=" + std::to_string(f);
    // Recycle-FP: views into the root, two levels deep.
    const std::vector<Slice> ref_fp =
        MergeByPattern(ProjectSlices(sdb.slices, f));
    const FlatSliceDb fp_child = projector.Project(root, f);
    checker.Check(fp_child, ref_fp, "fp " + at);
    for (Rank g = f + 1; g < flist.size(); g += 3) {
      checker.Check(projector.Project(fp_child, g),
                    MergeByPattern(ProjectSlices(ref_fp, g)),
                    "fp " + at + " g=" + std::to_string(g));
    }

    // Recycle-TP: merged by the unfiltered suffix, then filtered into the
    // child's own buffer; its child again filters a random subset.
    const std::vector<Rank> keep = RandomKeep(&rng, f, flist.size());
    const std::vector<Slice> ref_tp =
        FilterSlices(MergeByPattern(ProjectSlices(sdb.slices, f)), keep);
    const FlatSliceDb tp_child = projector.ProjectFiltered(root, f, keep);
    checker.Check(tp_child, ref_tp, "tp " + at);
    for (size_t k = 0; k < keep.size(); k += 2) {
      const Rank g = keep[k];
      std::vector<Rank> keep2;
      for (Rank r : keep) {
        if (r > g && rng.Bernoulli(0.7)) keep2.push_back(r);
      }
      checker.Check(
          projector.ProjectFiltered(tp_child, g, keep2),
          FilterSlices(MergeByPattern(ProjectSlices(ref_tp, g)), keep2),
          "tp " + at + " g=" + std::to_string(g));
    }
  }
  // The sweep must reach the Lemma 3.1 shortcut, or its decision went
  // untested.
  EXPECT_GT(checker.single_groups(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    RandomCdbs, FlatSliceDifferentialTest,
    ::testing::Values(Case{61, CompressionStrategy::kMcp},
                      Case{62, CompressionStrategy::kMlp},
                      Case{63, CompressionStrategy::kMcp},
                      Case{64, CompressionStrategy::kMlp},
                      Case{65, CompressionStrategy::kMcp}),
    [](const ::testing::TestParamInfo<Case>& param) {
      return "seed" + std::to_string(param.param.seed) +
             (param.param.strategy == CompressionStrategy::kMcp ? "_mcp"
                                                                : "_mlp");
    });

// Work counters of the two recycling miners on one fixed database, pinned
// to the values the per-row-vector layout produced: the flat layout changes
// how slices are stored, not which slices are scanned or built.
TEST(FlatSliceDifferentialTest, RecyclingWorkCountersArePinned) {
  const TransactionDb db = testutil::RandomDb(2004, 600, 40, 7.0);
  auto fp = fpm::CreateMiner(fpm::MinerKind::kEclat)->Mine(db, 60);
  ASSERT_TRUE(fp.ok());
  auto cdb = CompressDatabase(
      db, *fp, {CompressionStrategy::kMcp, MatcherKind::kAuto});
  ASSERT_TRUE(cdb.ok());
  const auto expected_patterns =
      fpm::CreateMiner(fpm::MinerKind::kEclat)->Mine(db, 15);
  ASSERT_TRUE(expected_patterns.ok());
  ASSERT_EQ(expected_patterns->size(), 323u);

  struct Pin {
    RecycleAlgo algo;
    uint64_t items_scanned;
    uint64_t projections_built;
  };
  for (const Pin& pin : {Pin{RecycleAlgo::kFpGrowth, 11492, 297},
                         Pin{RecycleAlgo::kTreeProjection, 4833, 108}}) {
    auto miner = CreateCompressedMiner(pin.algo);
    SCOPED_TRACE(miner->name());
    auto out = miner->MineCompressed(*cdb, 15);
    ASSERT_TRUE(out.ok());
    fpm::PatternSet expected = *expected_patterns;
    EXPECT_TRUE(fpm::PatternSet::Equal(&*out, &expected));
    EXPECT_EQ(miner->stats().items_scanned, pin.items_scanned);
    EXPECT_EQ(miner->stats().projections_built, pin.projections_built);
  }
}

}  // namespace
}  // namespace gogreen::core
