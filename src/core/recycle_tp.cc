#include "core/recycle_tp.h"

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

/// Upper-triangular weighted pair-count matrix over n local items.
class PairMatrix {
 public:
  explicit PairMatrix(size_t n) : n_(n), counts_(n * (n - 1) / 2, 0) {}

  void Add(size_t i, size_t j, uint64_t w) { counts_[Index(i, j)] += w; }
  uint64_t Get(size_t i, size_t j) const { return counts_[Index(i, j)]; }

 private:
  size_t Index(size_t i, size_t j) const {
    GOGREEN_DCHECK(i < j && j < n_);
    return i * (2 * n_ - i - 1) / 2 + (j - i - 1);
  }

  size_t n_;
  std::vector<uint64_t> counts_;
};

class RecycleTpContext {
 public:
  explicit RecycleTpContext(SliceMiningContext* base)
      : base_(base), local_of_(base->flist().size(), UINT32_MAX) {}

  /// Processes one node: `ext` (ascending ranks) are the known-frequent
  /// extensions with supports `c1`; `slices` contain only ext items. Rows
  /// inside the slices are weighted (the bucketing the Tree Projection
  /// baseline also uses).
  /// Returns false iff a governed stop abandoned part of the subtree.
  bool Process(const FlatSliceDb& slices, const std::vector<Rank>& ext,
               const std::vector<uint64_t>& c1, std::vector<Rank>* prefix) {
    if (base_->TrySingleGroup(slices, ext, c1, prefix)) return true;

    for (size_t i = 0; i < ext.size(); ++i) {
      prefix->push_back(ext[i]);
      base_->EmitPattern(*prefix, c1[i]);
      prefix->pop_back();
    }
    if (ext.size() < 2) return true;

    PairMatrix matrix(ext.size());
    FillMatrix(slices, ext, &matrix);

    bool completed = true;
    for (size_t i = 0; i + 1 < ext.size(); ++i) {
      if (base_->ShouldStop()) {
        completed = false;
        break;
      }
      if (!MineChild(slices, ext, matrix, i, prefix)) completed = false;
    }
    return completed;
  }

  /// One scan fills all pair supports. Pattern-internal pairs are counted
  /// once per slice with the slice weight (the group-counter saving);
  /// pairs touching outlying rows are counted once per distinct row with
  /// the row's multiplicity.
  void FillMatrix(const FlatSliceDb& slices, const std::vector<Rank>& ext,
                  PairMatrix* matrix) {
    // Local index mapping for the matrix.
    for (size_t i = 0; i < ext.size(); ++i) {
      local_of_[ext[i]] = static_cast<uint32_t>(i);
    }

    std::vector<uint32_t> pat_local;
    std::vector<uint32_t> out_local;
    for (const SliceView& s : slices.slices()) {
      pat_local.clear();
      for (Rank r : s.pattern) pat_local.push_back(local_of_[r]);
      base_->stats()->items_scanned += pat_local.size();
      const uint64_t weight = s.count;
      for (size_t a = 0; a < pat_local.size(); ++a) {
        for (size_t b = a + 1; b < pat_local.size(); ++b) {
          matrix->Add(pat_local[a], pat_local[b], weight);
        }
      }
      for (const auto& [row, w] : slices.rows(s)) {
        out_local.clear();
        for (Rank r : row) out_local.push_back(local_of_[r]);
        base_->stats()->items_scanned += out_local.size();
        for (size_t a = 0; a < out_local.size(); ++a) {
          for (size_t b = a + 1; b < out_local.size(); ++b) {
            matrix->Add(out_local[a], out_local[b], w);
          }
        }
        // Pattern and outlying ranks interleave; order each pair's locals.
        for (uint32_t p : pat_local) {
          for (uint32_t o : out_local) {
            matrix->Add(std::min(p, o), std::max(p, o), w);
          }
        }
      }
    }
    for (Rank r : ext) local_of_[r] = UINT32_MAX;
  }

  /// Builds and processes the child node for prefix + ext[i] from the
  /// parent's already-filled pair matrix. Reads `slices` and `matrix`
  /// without mutating them, so distinct children may run concurrently on
  /// distinct contexts.
  bool MineChild(const FlatSliceDb& slices, const std::vector<Rank>& ext,
                 const PairMatrix& matrix, size_t i,
                 std::vector<Rank>* prefix) {
    std::vector<Rank> child_ext;
    std::vector<uint64_t> child_c1;
    for (size_t j = i + 1; j < ext.size(); ++j) {
      if (matrix.Get(i, j) >= base_->min_support()) {
        child_ext.push_back(ext[j]);
        child_c1.push_back(matrix.Get(i, j));
      }
    }
    if (child_ext.empty()) return true;

    // The child keeps only the pruned extension set, in its own buffer.
    const FlatSliceDb child =
        projector_.ProjectFiltered(slices, ext[i], child_ext);
    ++base_->stats()->projections_built;
    // The child is this step's dominant scratch; charge it while the
    // recursion below keeps it alive.
    const ScopedBytes charge(
        base_->run_context(),
        base_->run_context() != nullptr ? child.OwnedBytes() : 0);
    prefix->push_back(ext[i]);
    const bool completed = Process(child, child_ext, child_c1, prefix);
    prefix->pop_back();
    return completed;
  }

 private:
  SliceMiningContext* base_;
  SliceProjector projector_;
  std::vector<uint32_t> local_of_;  // Scratch, UINT32_MAX between calls.
};

}  // namespace

Result<fpm::PatternSet> RecycleTpMiner::MineCompressed(
    const CompressedDb& cdb, uint64_t min_support) {
  GOGREEN_RETURN_NOT_OK(ValidateArgs(min_support));
  stats_.Reset();
  GOGREEN_TRACE_SPAN("mine.recycle-tp");
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
    RecycleTpContext ctx(&base);

    std::vector<Rank> ext(flist.size());
    std::vector<uint64_t> c1(flist.size());
    for (Rank r = 0; r < flist.size(); ++r) {
      ext[r] = r;
      c1[r] = flist.support(r);
    }
    std::vector<Rank> prefix;
    const FlatSliceDb root = FlatSliceDb::Build(SliceDb::Build(cdb, flist));

    if ((run_ctx_ == nullptr && !fpm::ParallelMiningEnabled()) ||
        ext.size() < 2) {
      ctx.Process(root, ext, c1, &prefix);
    } else if (!base.TrySingleGroup(root, ext, c1, &prefix)) {
      // Root expansion mirrors Process(): singletons, one matrix fill, then
      // the first-level children — fanned out to the pool, each only
      // reading the shared matrix and root slices. Ascending-child shard
      // merge reproduces the sequential emission order exactly.
      for (size_t i = 0; i < ext.size(); ++i) {
        prefix.push_back(ext[i]);
        base.EmitPattern(prefix, c1[i]);
        prefix.pop_back();
      }
      PairMatrix matrix(ext.size());
      ctx.FillMatrix(root, ext, &matrix);

      // Lane-local contexts reuse the rank-indexed scratch across subtrees.
      struct Lane {
        std::unique_ptr<SliceMiningContext> base;
        std::unique_ptr<RecycleTpContext> ctx;
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
          slot.ctx = std::make_unique<RecycleTpContext>(slot.base.get());
        }
        slot.base->SetSinks(&shard->patterns, &shard->stats);
        std::vector<Rank> sub_prefix;
        return slot.ctx->MineChild(root, ext, matrix, i, &sub_prefix);
      };

      if (run_ctx_ == nullptr) {
        fpm::MineFirstLevelParallel(
            pool, ext.size() - 1,
            [&](fpm::MineShard* shard, size_t lane, size_t i) {
              mine_subtree(shard, lane, i);
            },
            &out, &stats_);
      } else {
        // Governed: fan children descending. Child i's subtree holds the
        // patterns whose rarest item is ext[i], supported at most c1[i];
        // root slices and matrix stay live for the whole fan-out.
        const std::vector<uint64_t> level_supports(c1.begin(), c1.end() - 1);
        const ScopedBytes root_charge(
            run_ctx_, root.OwnedBytes() + ext.size() * (ext.size() - 1) /
                                              2 * sizeof(uint64_t));
        fpm::MineFirstLevelGoverned(pool, ext.size() - 1, mine_subtree, &out,
                                    &stats_, run_ctx_, level_supports,
                                    /*mark_frontier=*/true);
      }
    }
  }

  stats_.patterns_emitted = out.size();
  stats_.elapsed_seconds = timer.ElapsedSeconds();
  fpm::RecordMiningStats(stats_);
  return out;
}

}  // namespace gogreen::core
