// Seeded versions of the four Table-3-shaped benchmark datasets, built
// through the public generators (data::GenerateQuest / GenerateDense).
//
// The default seed reproduces data::MakeDataset's sets exactly, so numbers
// line up with EXPERIMENTS.md. Any other seed yields an isomorphic copy:
// the generators run with MakeDataset's configuration, then the seed
// relabels every item id by a random permutation and shuffles the
// transaction order. Pattern counts and supports are therefore the same
// for every seed while the bytes the miners see (item ids, canonical item
// order, tie-breaks, tid order) differ. A redraw of the transactions
// instead would move weather-sub's pattern count at ξ = 1% between 208k
// and 807k across seeds — a workload change, not run-to-run noise.
#ifndef PERFBENCH_DATASETS_H_
#define PERFBENCH_DATASETS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/datasets.h"
#include "fpm/transaction_db.h"
#include "util/status.h"

namespace perfbench {

/// The seed whose datasets equal data::MakeDataset's.
inline constexpr uint64_t kDefaultSeed = 1;

/// Dataset sizes: `smoke` is the repository's smoke scale (the measured
/// benchmark); `tiny` is for the benchmark's own self-test (fewer
/// transactions, and only ξ_old plus two ξ_new steps per dataset).
enum class Size { kSmoke, kTiny };

struct BenchDataset {
  gogreen::data::DatasetId id;
  std::string name;
  gogreen::fpm::TransactionDb db;
  /// Absolute supports in request order: ξ_old, then the ξ_new sweep
  /// (descending), from data::GetDatasetSpec.
  std::vector<uint64_t> supports;
};

size_t TransactionsAt(gogreen::data::DatasetId id, Size size);

/// MakeDataset's database at `num_transactions`.
gogreen::Result<gogreen::fpm::TransactionDb> GenerateDefault(
    gogreen::data::DatasetId id, size_t num_transactions);

/// The seeded input: GenerateDefault, relabeled and shuffled by `seed`
/// unless it is kDefaultSeed.
gogreen::Result<gogreen::fpm::TransactionDb> GenerateSeeded(
    gogreen::data::DatasetId id, size_t num_transactions, uint64_t seed);

/// One dataset with its support schedule.
gogreen::Result<BenchDataset> MakeBenchDataset(gogreen::data::DatasetId id,
                                               Size size, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_DATASETS_H_
