// SliceDb: the compressed database re-encoded onto an F-list for mining.
//
// Key invariant that makes compressed mining simple: once a group's pattern
// and each tuple's outlying items are sorted in F-list rank order, *every*
// projected database keeps only items ranked after the projection item —
// i.e. a suffix. A projected compressed database is therefore a set of
// *slices*: (pattern-suffix, member outlying-suffixes), and the paper's
// savings fall out naturally:
//   - support counting adds a pattern item's contribution once per slice
//     (weighted by the slice's tuple count) instead of once per tuple;
//   - projecting on a pattern item moves a whole slice in O(members) —
//     or O(1) in the pseudo-projection variant — instead of O(items).
//
// Two layouts share the invariant. `SliceDb` holds one vector per slice and
// member and serves RP-Mine, Recycle-HM and the constrained miner.
// `FlatSliceDb`, the weighted database of Recycle-FP and Recycle-TP, is
// flat and view-based: one array of slices and one of distinct weighted
// rows, whose patterns and rows are (pointer, length) views. Only the root
// owns items. Because a projection only ever keeps suffixes, a projected
// pattern or row is a view into the same buffer as its parent's, so an
// FP-style projection copies no item at all: it writes one view per
// surviving row and merges duplicates by sorting those views. A filtering
// projection (Recycle-TP drops pruned extensions) does create new rows and
// writes them into the child's own buffer.

#ifndef GOGREEN_CORE_SLICE_DB_H_
#define GOGREEN_CORE_SLICE_DB_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/compressed_db.h"
#include "fpm/flist.h"
#include "fpm/miner.h"
#include "fpm/pattern_set.h"
#include "util/run_context.h"

namespace gogreen::core {

/// One group of the compressed database under a specific F-list: the group
/// pattern as ascending ranks, plus each member's (non-empty) outlying ranks.
/// Members whose outlying part encodes to nothing are only counted.
struct Slice {
  std::vector<fpm::Rank> pattern;
  std::vector<std::vector<fpm::Rank>> outs;  ///< Non-empty, each ascending.
  uint64_t empty_count = 0;  ///< Members with no frequent outlying items.

  uint64_t count() const { return outs.size() + empty_count; }
};

/// The ranked view of a whole compressed database.
struct SliceDb {
  std::vector<Slice> slices;

  /// Builds the view of `cdb` under `flist` (which is typically
  /// FList::FromCounts(cdb.CountItemSupports(...), xi_new)). Groups whose
  /// pattern and members all encode to nothing are dropped.
  static SliceDb Build(const CompressedDb& cdb, const fpm::FList& flist);

  /// Total encoded items across all slices (pattern stored once per slice).
  uint64_t StoredItems() const;
};

/// A read-only run of ascending ranks inside a buffer owned elsewhere.
using RankSpan = std::span<const fpm::Rank>;

/// One distinct outlying row of a flat slice: `weight` members share it.
struct RowView {
  RankSpan items;  ///< Non-empty, ascending.
  uint64_t weight = 0;
};

/// One slice of a FlatSliceDb: the pattern suffix, the slice's rows as a
/// range of the database's row array, and its tuple count.
struct SliceView {
  RankSpan pattern;
  uint32_t row_begin = 0;
  uint32_t row_end = 0;
  uint64_t empty_count = 0;  ///< Members with no remaining outlying items.
  uint64_t count = 0;        ///< empty_count plus every row's weight.
};

/// The weighted slice database Recycle-FP and Recycle-TP mine: identical
/// outlying rows of a slice are stored once with a multiplicity (the
/// flattened form of the path sharing an FP-tree, or Tree Projection's
/// transaction bucketing, provides), and slices whose pattern suffixes
/// coincide are merged, restoring the cross-group sharing an FP-tree gets
/// from its shared upper branches.
///
/// The layout is flat: one array of slices, one array of rows, and an
/// optional buffer of owned items. Patterns and rows are views. Within a
/// slice, rows are distinct and in lexicographic order; slices keep the
/// order in which their pattern first occurred.
///
/// Views may point into another database's items, so a database must not
/// outlive the one whose items it views (see SliceProjector). Moving keeps
/// the views valid; copying is disabled.
class FlatSliceDb {
 public:
  FlatSliceDb() = default;
  FlatSliceDb(FlatSliceDb&&) = default;
  FlatSliceDb& operator=(FlatSliceDb&&) = default;
  FlatSliceDb(const FlatSliceDb&) = delete;
  FlatSliceDb& operator=(const FlatSliceDb&) = delete;

  /// Copies `sdb` into one owned item buffer, merging identical rows of
  /// each slice. The result keeps `sdb`'s slices one for one.
  static FlatSliceDb Build(const SliceDb& sdb);

  const std::vector<SliceView>& slices() const { return slices_; }
  size_t size() const { return slices_.size(); }
  bool empty() const { return slices_.empty(); }

  /// The rows of `s`, one of this database's slices.
  std::span<const RowView> rows(const SliceView& s) const {
    return {rows_.data() + s.row_begin, rows_.data() + s.row_end};
  }

  /// Items across all pattern views and distinct rows (each counted once,
  /// whatever its weight).
  uint64_t StoredItems() const { return stored_items_; }

  /// Heap bytes of this database's own arrays — not of the items it views
  /// in an ancestor — for budget accounting in governed runs.
  size_t OwnedBytes() const;

 private:
  friend class SliceProjector;

  /// Completes `s`, whose rows are rows_[s->row_begin, end): sorts them,
  /// merges equal rows in place (summing weights), and sets the row range
  /// and count.
  void FinishSlice(SliceView* s);

  std::vector<fpm::Rank> items_;
  std::vector<SliceView> slices_;
  std::vector<RowView> rows_;
  uint64_t stored_items_ = 0;
};

/// Projects flat slice databases (Definition 3.2 lifted to weighted slices).
/// Holds the staging arrays and the equal-pattern table, so one projector
/// per mining thread serves every projection of a recursion without
/// reallocating them.
class SliceProjector {
 public:
  /// Projects `parent` onto rank `f`: keeps the members containing f, with
  /// only the items ranked after f, and merges slices whose pattern suffixes
  /// coincide. Every projection keeps suffixes, so the child's patterns and
  /// rows are views into `parent`'s referents (ultimately the root
  /// database's items): nothing is copied, and the child stays valid for as
  /// long as the database owning those items.
  FlatSliceDb Project(const FlatSliceDb& parent, fpm::Rank f);

  /// Project(), then keeps only the items in `keep` (ascending ranks). The
  /// slices merge by their unfiltered pattern suffix; a slice whose filtered
  /// pattern is empty drops its empty members and is dropped itself when no
  /// rows remain. Filtered items are written to the child's own buffer, so
  /// the child does not depend on `parent` once built.
  FlatSliceDb ProjectFiltered(const FlatSliceDb& parent, fpm::Rank f,
                              const std::vector<fpm::Rank>& keep);

 private:
  /// One projected parent slice that survived the drop rules: its staged
  /// rows and the child slice it merges into.
  struct Piece {
    uint32_t target = 0;
    uint32_t row_begin = 0;
    uint32_t row_end = 0;
  };

  /// Projects every slice of `parent` onto `f`: child->slices_ receives the
  /// merged slices (patterns and empty counts; rows unset), staged_ the
  /// projected rows, and pieces_ their targets, grouped by child slice.
  void Stage(const FlatSliceDb& parent, fpm::Rank f, FlatSliceDb* child);

  /// Returns the child slice with pattern `pattern`, appending one with
  /// `empty_count` if none exists yet (and adding it otherwise).
  uint32_t FindOrAdd(RankSpan pattern, uint64_t empty_count,
                     FlatSliceDb* child);

  std::vector<RowView> staged_;
  std::vector<Piece> pieces_;
  std::vector<uint32_t> table_;  ///< Open addressing: child slice + 1, 0 free.
  std::vector<uint8_t> keep_;    ///< Rank-indexed keep mask, zero between calls.
};

/// Shared machinery for the compressed-database miners: counting, the
/// single-group shortcut of Lemma 3.1, and pattern emission.
class SliceMiningContext {
 public:
  SliceMiningContext(const fpm::FList& flist, uint64_t min_support,
                     fpm::PatternSet* out, fpm::MiningStats* stats)
      : flist_(flist),
        min_support_(min_support),
        out_(out),
        stats_(stats),
        scratch_counts_(flist.size(), 0) {}

  const fpm::FList& flist() const { return flist_; }
  uint64_t min_support() const { return min_support_; }
  fpm::MiningStats* stats() { return stats_; }

  /// Redirects emission and counters, e.g. into a per-worker shard. The
  /// context keeps its scratch buffers, so a lane-local context can serve
  /// successive first-level subtrees by re-pointing the sinks.
  void SetSinks(fpm::PatternSet* out, fpm::MiningStats* stats) {
    out_ = out;
    stats_ = stats;
  }

  /// Attaches the run governor; miners sharing this context poll it between
  /// subtrees and charge their scratch against its budget. Null detaches.
  void BindRunContext(RunContext* ctx) { run_ctx_ = ctx; }
  RunContext* run_context() const { return run_ctx_; }

  /// True when a governed run must stop at the next pattern-set boundary.
  bool ShouldStop() const {
    return run_ctx_ != nullptr && run_ctx_->ShouldStop();
  }

  /// Counts candidate-extension supports across `slices`. Pattern items are
  /// counted once per slice with the slice's tuple count — the group-counter
  /// trick of Section 3.1. Returns locally frequent ranks ascending and
  /// fills `counts_out[i]` with the support of the i-th of them.
  std::vector<fpm::Rank> CountFrequent(const std::vector<Slice>& slices,
                                       std::vector<uint64_t>* counts_out);

  /// The same over a weighted database: each row counts with its weight.
  std::vector<fpm::Rank> CountFrequent(const FlatSliceDb& db,
                                       std::vector<uint64_t>* counts_out);

  /// Lemma 3.1: if every occurrence of every frequent item lies in a single
  /// slice's pattern, the complete extension set is all combinations of the
  /// frequent items, each supported by that slice's tuple count. Returns
  /// true (and emits all combinations under `prefix`) when the shortcut
  /// applies.
  bool TrySingleGroup(const std::vector<Slice>& slices,
                      const std::vector<fpm::Rank>& frequent,
                      const std::vector<uint64_t>& counts,
                      std::vector<fpm::Rank>* prefix);
  bool TrySingleGroup(const FlatSliceDb& db,
                      const std::vector<fpm::Rank>& frequent,
                      const std::vector<uint64_t>& counts,
                      std::vector<fpm::Rank>* prefix);

  /// Emits `prefix` (ranks) as a pattern with the given support.
  void EmitPattern(const std::vector<fpm::Rank>& prefix, uint64_t support);

  /// Emits every non-empty combination of `items` appended to `prefix`,
  /// all with the same support (single-group enumeration).
  void EmitCombinations(const std::vector<fpm::Rank>& items, uint64_t support,
                        std::vector<fpm::Rank>* prefix);

 private:
  /// Adds `weight` to the count of every rank in `items`.
  void Tally(RankSpan items, uint64_t weight);

  /// Collects the frequent tallied ranks (ascending) and their counts, and
  /// zeroes the tallies.
  std::vector<fpm::Rank> TakeFrequent(std::vector<uint64_t>* counts_out);

  /// The Lemma 3.1 test for one slice: emits the combinations and returns
  /// true when `pattern` holds every frequent item and `weight` is every
  /// frequent item's whole support.
  bool EmitIfSingleGroup(RankSpan pattern, uint64_t weight,
                         const std::vector<fpm::Rank>& frequent,
                         const std::vector<uint64_t>& counts,
                         std::vector<fpm::Rank>* prefix);

  const fpm::FList& flist_;
  const uint64_t min_support_;
  fpm::PatternSet* out_;
  fpm::MiningStats* stats_;
  RunContext* run_ctx_ = nullptr;
  std::vector<uint64_t> scratch_counts_;  // Rank-indexed, zeroed after use.
  std::vector<fpm::Rank> touched_;        // Ranks tallied since last take.
};

/// Physically projects `slices` onto rank `f` (Definition 3.2 lifted to
/// slices): keeps tuples containing f, with only items ranked after f.
/// Slices whose projection carries no items are dropped.
std::vector<Slice> ProjectSlices(const std::vector<Slice>& slices,
                                 fpm::Rank f);

}  // namespace gogreen::core

#endif  // GOGREEN_CORE_SLICE_DB_H_
