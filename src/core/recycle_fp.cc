#include "core/recycle_fp.h"

#include <algorithm>
#include <memory>

#include "check/check_db.h"
#include "core/slice_db.h"
#include "fpm/parallel_mine.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace gogreen::core {

namespace {

using fpm::Rank;

class RecycleFpContext {
 public:
  explicit RecycleFpContext(SliceMiningContext* base) : base_(base) {}

  /// Returns false iff a governed stop abandoned part of the subtree.
  bool Mine(const FlatSliceDb& slices, std::vector<Rank>* prefix) {
    std::vector<uint64_t> freq_counts;
    const std::vector<Rank> frequent =
        base_->CountFrequent(slices, &freq_counts);
    if (frequent.empty()) return true;

    if (base_->TrySingleGroup(slices, frequent, freq_counts, prefix)) {
      return true;
    }

    bool completed = true;
    for (size_t i = 0; i < frequent.size(); ++i) {
      if (base_->ShouldStop()) {
        completed = false;
        break;
      }
      prefix->push_back(frequent[i]);
      base_->EmitPattern(*prefix, freq_counts[i]);
      if (!MineProjection(slices, frequent[i], prefix)) completed = false;
      prefix->pop_back();
    }
    return completed;
  }

  /// Projects `slices` onto `f` and mines the projection under `prefix`
  /// (which already ends in f).
  bool MineProjection(const FlatSliceDb& slices, Rank f,
                      std::vector<Rank>* prefix) {
    const FlatSliceDb projected = projector_.Project(slices, f);
    ++base_->stats()->projections_built;
    if (projected.empty()) return true;
    // The projection's own arrays are this step's dominant scratch (its
    // items are views into the root); charge them while the recursion
    // below keeps them alive.
    const ScopedBytes charge(
        base_->run_context(),
        base_->run_context() != nullptr ? projected.OwnedBytes() : 0);
    return Mine(projected, prefix);
  }

 private:
  SliceMiningContext* base_;
  SliceProjector projector_;
};

}  // namespace

Result<fpm::PatternSet> RecycleFpMiner::MineCompressed(
    const CompressedDb& cdb, uint64_t min_support) {
  GOGREEN_RETURN_NOT_OK(ValidateArgs(min_support));
  stats_.Reset();
  GOGREEN_TRACE_SPAN("mine.recycle-fp");
  Timer timer;
  fpm::PatternSet out;

  const fpm::FList flist = fpm::FList::FromCounts(
      cdb.CountItemSupports(cdb.ItemUniverseSize()), min_support);
  if (check::ValidationEnabled()) {
    GOGREEN_VALIDATE_OR_DIE(check::ValidateCompressedDb(cdb, nullptr));
    GOGREEN_VALIDATE_OR_DIE(check::ValidateFList(flist, min_support));
  }
  if (!flist.empty()) {
    SliceMiningContext base(flist, min_support, &out, &stats_);
    base.BindRunContext(run_ctx_);
    std::vector<Rank> prefix;
    const FlatSliceDb root = FlatSliceDb::Build(SliceDb::Build(cdb, flist));

    if (run_ctx_ == nullptr && !fpm::ParallelMiningEnabled()) {
      RecycleFpContext ctx(&base);
      ctx.Mine(root, &prefix);
    } else {
      // Expand the root level once (count + the Lemma 3.1 shortcut), then
      // fan the first-level projections out to the pool. Every worker
      // projects from the shared read-only root; ascending-rank shard
      // merge reproduces the sequential emission order exactly. A governed
      // run fans descending instead, so an early stop yields a sound
      // frontier.
      std::vector<uint64_t> freq_counts;
      const std::vector<Rank> frequent =
          base.CountFrequent(root, &freq_counts);
      if (!frequent.empty() &&
          !base.TrySingleGroup(root, frequent, freq_counts, &prefix)) {
        // Lane-local contexts reuse the counting and projection scratch
        // across subtrees.
        struct Lane {
          std::unique_ptr<SliceMiningContext> base;
          std::unique_ptr<RecycleFpContext> ctx;
        };
        const std::shared_ptr<ThreadPool> pool = ThreadPool::Global();
        std::vector<Lane> lanes(pool->threads());
        const auto mine_subtree = [&](fpm::MineShard* shard, size_t lane,
                                      size_t i) -> bool {
          Lane& slot = lanes[lane];
          if (!slot.ctx) {
            slot.base = std::make_unique<SliceMiningContext>(
                flist, min_support, nullptr, nullptr);
            slot.base->BindRunContext(run_ctx_);
            slot.ctx = std::make_unique<RecycleFpContext>(slot.base.get());
          }
          slot.base->SetSinks(&shard->patterns, &shard->stats);
          std::vector<Rank> sub_prefix;
          sub_prefix.push_back(frequent[i]);
          slot.base->EmitPattern(sub_prefix, freq_counts[i]);
          return slot.ctx->MineProjection(root, frequent[i], &sub_prefix);
        };

        if (run_ctx_ == nullptr) {
          fpm::MineFirstLevelParallel(
              pool, frequent.size(),
              [&](fpm::MineShard* shard, size_t lane, size_t i) {
                mine_subtree(shard, lane, i);
              },
              &out, &stats_);
        } else {
          // The root stays live for the whole fan-out.
          const ScopedBytes root_charge(run_ctx_, root.OwnedBytes());
          fpm::MineFirstLevelGoverned(pool, frequent.size(), mine_subtree,
                                      &out, &stats_, run_ctx_, freq_counts,
                                      /*mark_frontier=*/true);
        }
      }
    }
  }

  stats_.patterns_emitted = out.size();
  stats_.elapsed_seconds = timer.ElapsedSeconds();
  fpm::RecordMiningStats(stats_);
  return out;
}

}  // namespace gogreen::core
