// The traced run's layer split. After a traced pass, each recorded request
// is replayed along its recorded route through the public calls of every
// layer it touched, each call timed on its own:
//
//   store lookup      PatternStore::Get / GetCompressed
//   seed selection    PatternStore::Candidates + core::SelectSeed
//   exact             PatternStore::Get + copy of the cached set
//   filter-down       PatternSet::FilterBySupport
//   compression       core::CompressDatabase
//   recycle mining    core::CompressedMiner::Mine
//   scratch mining    fpm::FrequentPatternMiner::Mine
//   store write       PatternStore::Put / PutCompressed
//
// Work counts are mine.* registry deltas around the mining calls. The
// replayed layer sum is compared with the service's own ServeStats::seconds;
// the difference is `serve.unattributed_s`.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "bench_util.h"
#include "datasets.h"
#include "fpm/pattern_set.h"
#include "serve/pattern_store.h"
#include "workloads.h"

namespace perfbench {

/// Per-layer totals over a traced pass.
struct LayerTotals {
  double mine_s[kNumFamilies] = {};
  uint64_t items_scanned[kNumFamilies] = {};
  uint64_t projections_built[kNumFamilies] = {};
  double compress_s = 0.0;
  uint64_t stored_items = 0;    ///< Sc
  uint64_t original_items = 0;  ///< So
  uint64_t covered_tuples = 0;
  uint64_t uncovered_tuples = 0;
  uint64_t groups = 0;
  double recycle_mine_s[kNumFamilies] = {};
  uint64_t recycle_items_scanned[kNumFamilies] = {};
  uint64_t recycle_projections_built[kNumFamilies] = {};
  double select_seed_s = 0.0;
  double store_put_s = 0.0;
  double store_get_s = 0.0;
  double exact_s = 0.0;
  double filter_down_s = 0.0;
  uint64_t filter_scanned = 0;
  uint64_t filter_returned = 0;
  /// Sum of replayed layer seconds, and of the service's own seconds, over
  /// the requests the comparison covers (coalesced followers excluded:
  /// their service time is a wait on the leader).
  double replayed_s = 0.0;
  double served_s = 0.0;
  /// Requests whose replay had to re-seed the replay store, or whose
  /// seed selection chose another route than the one recorded (daemon_mix
  /// only: concurrent evictions make the live store diverge from a serial
  /// replay).
  uint64_t reseeded = 0;
  uint64_t route_divergences = 0;
};

/// Replays the requests of one service (one dataset, one family) against a
/// private PatternStore with the service's budget.
class LayerReplay {
 public:
  /// `materialize(s)` returns the complete set at support s; it re-seeds
  /// the replay store when a recorded seed is missing from it.
  LayerReplay(const BenchDataset& dataset, size_t family, size_t byte_budget,
              std::function<gogreen::fpm::PatternSet(uint64_t)> materialize,
              SpanRecorder* spans, LayerTotals* totals);

  /// Puts `set` at `support` untimed (daemon_mix pre-warm).
  void Prewarm(uint64_t support, gogreen::fpm::PatternSet set);

  /// Replays one record. `strict` requires the replay's seed selection to
  /// choose the recorded route (serial workloads). Returns an error text,
  /// or "" on success.
  std::string Replay(const RequestRecord& record, uint64_t parent_span,
                     bool strict);

 private:
  gogreen::serve::StoreKey Key(uint64_t support) const;
  /// The seed entry at `support`, re-seeded from `materialize_` when the
  /// replay store lacks it.
  void EnsureEntry(uint64_t support);

  const BenchDataset& dataset_;
  size_t family_;
  std::function<gogreen::fpm::PatternSet(uint64_t)> materialize_;
  SpanRecorder* spans_;
  LayerTotals* totals_;
  gogreen::serve::PatternStore store_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
