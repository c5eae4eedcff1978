#include "core/slice_db.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"

namespace gogreen::core {

using fpm::Rank;

namespace {

bool RowLess(const RowView& a, const RowView& b) {
  return std::lexicographical_compare(a.items.begin(), a.items.end(),
                                      b.items.begin(), b.items.end());
}

/// Views of one buffer often coincide exactly; compare contents otherwise.
bool SameItems(RankSpan a, RankSpan b) {
  return a.size() == b.size() &&
         (a.data() == b.data() || std::equal(a.begin(), a.end(), b.begin()));
}

size_t HashItems(RankSpan items) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (Rank x : items) {
    h ^= x;
    h *= 0x100000001b3ULL;
  }
  return static_cast<size_t>(h ^ (h >> 32));
}

}  // namespace

SliceDb SliceDb::Build(const CompressedDb& cdb, const fpm::FList& flist) {
  SliceDb out;
  out.slices.reserve(cdb.NumGroups());
  for (GroupId g = 0; g < cdb.NumGroups(); ++g) {
    Slice slice;
    slice.pattern = flist.EncodeTransaction(cdb.PatternOf(g));
    for (uint64_t m = cdb.MemberBegin(g); m < cdb.MemberEnd(g); ++m) {
      std::vector<Rank> enc = flist.EncodeTransaction(cdb.Outlying(m));
      if (enc.empty()) {
        ++slice.empty_count;
      } else {
        slice.outs.push_back(std::move(enc));
      }
    }
    // A slice with no pattern carries information only through its outs;
    // with a pattern, even all-empty members contribute pattern counts.
    if (!slice.pattern.empty() || !slice.outs.empty()) {
      out.slices.push_back(std::move(slice));
    }
  }
  return out;
}

uint64_t SliceDb::StoredItems() const {
  uint64_t n = 0;
  for (const Slice& s : slices) {
    n += s.pattern.size();
    for (const auto& o : s.outs) n += o.size();
  }
  return n;
}

void SliceMiningContext::Tally(RankSpan items, uint64_t weight) {
  for (Rank r : items) {
    if (scratch_counts_[r] == 0) touched_.push_back(r);
    scratch_counts_[r] += weight;
  }
  stats_->items_scanned += items.size();
}

std::vector<Rank> SliceMiningContext::TakeFrequent(
    std::vector<uint64_t>* counts_out) {
  std::vector<Rank> frequent;
  for (Rank r : touched_) {
    if (scratch_counts_[r] >= min_support_) frequent.push_back(r);
  }
  std::sort(frequent.begin(), frequent.end());

  counts_out->clear();
  counts_out->reserve(frequent.size());
  for (Rank r : frequent) counts_out->push_back(scratch_counts_[r]);
  for (Rank r : touched_) scratch_counts_[r] = 0;
  touched_.clear();
  return frequent;
}

std::vector<Rank> SliceMiningContext::CountFrequent(
    const std::vector<Slice>& slices, std::vector<uint64_t>* counts_out) {
  for (const Slice& s : slices) {
    Tally(s.pattern, s.count());
    for (const auto& out : s.outs) Tally(out, 1);
  }
  return TakeFrequent(counts_out);
}

std::vector<Rank> SliceMiningContext::CountFrequent(
    const FlatSliceDb& db, std::vector<uint64_t>* counts_out) {
  for (const SliceView& s : db.slices()) {
    Tally(s.pattern, s.count);
    for (const RowView& row : db.rows(s)) Tally(row.items, row.weight);
  }
  return TakeFrequent(counts_out);
}

bool SliceMiningContext::EmitIfSingleGroup(
    RankSpan pattern, uint64_t weight, const std::vector<Rank>& frequent,
    const std::vector<uint64_t>& counts, std::vector<Rank>* prefix) {
  // The slice must contain every frequent item in its pattern and account
  // for its entire support. (Within one slice, outs are disjoint from the
  // pattern, so pattern membership already excludes out occurrences in the
  // same slice.)
  if (pattern.size() < frequent.size() ||
      !std::includes(pattern.begin(), pattern.end(), frequent.begin(),
                     frequent.end()) ||
      std::any_of(counts.begin(), counts.end(),
                  [weight](uint64_t c) { return c != weight; })) {
    return false;
  }
  EmitCombinations(frequent, weight, prefix);
  return true;
}

bool SliceMiningContext::TrySingleGroup(const std::vector<Slice>& slices,
                                        const std::vector<Rank>& frequent,
                                        const std::vector<uint64_t>& counts,
                                        std::vector<Rank>* prefix) {
  if (frequent.empty()) return false;
  return std::any_of(slices.begin(), slices.end(), [&](const Slice& s) {
    return EmitIfSingleGroup(s.pattern, s.count(), frequent, counts, prefix);
  });
}

bool SliceMiningContext::TrySingleGroup(const FlatSliceDb& db,
                                        const std::vector<Rank>& frequent,
                                        const std::vector<uint64_t>& counts,
                                        std::vector<Rank>* prefix) {
  if (frequent.empty()) return false;
  return std::any_of(
      db.slices().begin(), db.slices().end(), [&](const SliceView& s) {
        return EmitIfSingleGroup(s.pattern, s.count, frequent, counts, prefix);
      });
}

void SliceMiningContext::EmitPattern(const std::vector<Rank>& prefix,
                                     uint64_t support) {
  std::vector<fpm::ItemId> items = flist_.DecodeRanks(prefix);
  std::sort(items.begin(), items.end());
  out_->Add(std::move(items), support);
}

void SliceMiningContext::EmitCombinations(const std::vector<Rank>& items,
                                          uint64_t support,
                                          std::vector<Rank>* prefix) {
  const size_t k = items.size();
  GOGREEN_CHECK_LT(k, size_t{40});  // Combination explosion guard.
  for (uint64_t mask = 1; mask < (uint64_t{1} << k); ++mask) {
    size_t added = 0;
    for (size_t i = 0; i < k; ++i) {
      if ((mask >> i) & 1) {
        prefix->push_back(items[i]);
        ++added;
      }
    }
    EmitPattern(*prefix, support);
    for (size_t i = 0; i < added; ++i) prefix->pop_back();
  }
}

std::vector<Slice> ProjectSlices(const std::vector<Slice>& slices, Rank f) {
  std::vector<Slice> projected;
  for (const Slice& s : slices) {
    const auto pat_it =
        std::lower_bound(s.pattern.begin(), s.pattern.end(), f);
    const bool f_in_pattern = pat_it != s.pattern.end() && *pat_it == f;

    Slice next;
    if (f_in_pattern) {
      // Every member tuple contains f through the pattern.
      next.pattern.assign(pat_it + 1, s.pattern.end());
      next.empty_count = s.empty_count;
      for (const auto& out : s.outs) {
        const auto out_it = std::lower_bound(out.begin(), out.end(), f);
        if (out_it == out.end()) {
          ++next.empty_count;
        } else {
          next.outs.emplace_back(out_it, out.end());
        }
      }
      if (next.pattern.empty()) {
        // Members without remaining out items carry nothing.
        next.empty_count = 0;
      }
    } else {
      // Only members whose outlying part contains f qualify.
      next.pattern.assign(pat_it, s.pattern.end());
      for (const auto& out : s.outs) {
        const auto out_it = std::lower_bound(out.begin(), out.end(), f);
        if (out_it == out.end() || *out_it != f) continue;
        if (out_it + 1 == out.end()) {
          ++next.empty_count;
        } else {
          next.outs.emplace_back(out_it + 1, out.end());
        }
      }
      if (next.pattern.empty()) next.empty_count = 0;
      if (next.outs.empty() && next.empty_count == 0) continue;
    }
    if (next.pattern.empty() && next.outs.empty()) continue;
    projected.push_back(std::move(next));
  }
  return projected;
}

FlatSliceDb FlatSliceDb::Build(const SliceDb& sdb) {
  FlatSliceDb db;
  size_t num_rows = 0;
  for (const Slice& s : sdb.slices) num_rows += s.outs.size();
  // Reserved once, so the views taken below stay valid.
  db.items_.reserve(sdb.StoredItems());
  db.rows_.reserve(num_rows);
  db.slices_.reserve(sdb.slices.size());
  const auto own = [&db](const std::vector<Rank>& items) {
    const size_t at = db.items_.size();
    db.items_.insert(db.items_.end(), items.begin(), items.end());
    return RankSpan(db.items_.data() + at, items.size());
  };
  for (const Slice& s : sdb.slices) {
    SliceView view;
    view.pattern = own(s.pattern);
    view.empty_count = s.empty_count;
    view.row_begin = static_cast<uint32_t>(db.rows_.size());
    for (const auto& out : s.outs) db.rows_.push_back({own(out), 1});
    db.FinishSlice(&view);
    db.slices_.push_back(view);
  }
  return db;
}

void FlatSliceDb::FinishSlice(SliceView* s) {
  const auto begin = rows_.begin() + s->row_begin;
  std::sort(begin, rows_.end(), RowLess);
  uint64_t weight = 0;
  auto last = begin;  // One past the last distinct row.
  for (auto it = begin; it != rows_.end(); ++it) {
    weight += it->weight;
    if (last != begin && SameItems(std::prev(last)->items, it->items)) {
      std::prev(last)->weight += it->weight;
    } else {
      *last++ = *it;
      stored_items_ += it->items.size();
    }
  }
  rows_.erase(last, rows_.end());
  s->row_end = static_cast<uint32_t>(rows_.size());
  s->count = s->empty_count + weight;
  stored_items_ += s->pattern.size();
}

size_t FlatSliceDb::OwnedBytes() const {
  return items_.capacity() * sizeof(Rank) +
         slices_.capacity() * sizeof(SliceView) +
         rows_.capacity() * sizeof(RowView);
}

uint32_t SliceProjector::FindOrAdd(RankSpan pattern, uint64_t empty_count,
                                   FlatSliceDb* child) {
  const size_t mask = table_.size() - 1;
  for (size_t i = HashItems(pattern) & mask;; i = (i + 1) & mask) {
    uint32_t& slot = table_[i];
    if (slot == 0) {
      SliceView view;
      view.pattern = pattern;
      view.empty_count = empty_count;
      child->slices_.push_back(view);
      slot = static_cast<uint32_t>(child->slices_.size());
      return slot - 1;
    }
    SliceView& existing = child->slices_[slot - 1];
    if (SameItems(existing.pattern, pattern)) {
      // Member sets of distinct slices are disjoint: counts add.
      existing.empty_count += empty_count;
      return slot - 1;
    }
  }
}

void SliceProjector::Stage(const FlatSliceDb& parent, Rank f,
                           FlatSliceDb* child) {
  staged_.clear();
  pieces_.clear();
  // At most half full: every parent slice adds at most one entry.
  table_.assign(std::bit_ceil(std::max<size_t>(2 * parent.size(), 8)), 0);
  for (const SliceView& s : parent.slices()) {
    const auto pat_it =
        std::lower_bound(s.pattern.begin(), s.pattern.end(), f);
    const bool f_in_pattern = pat_it != s.pattern.end() && *pat_it == f;
    // With f in the pattern every member qualifies; otherwise only members
    // whose outlying part contains f do.
    const RankSpan pattern(f_in_pattern ? pat_it + 1 : pat_it,
                           s.pattern.end());
    uint64_t empty_count = f_in_pattern ? s.empty_count : 0;
    const auto row_begin = static_cast<uint32_t>(staged_.size());
    for (const RowView& row : parent.rows(s)) {
      // Rows are in lexicographic order: once one starts after f, so do
      // all the rest, and none of them contains f.
      if (!f_in_pattern && row.items.front() > f) break;
      auto it = std::lower_bound(row.items.begin(), row.items.end(), f);
      if (!f_in_pattern) {
        if (it == row.items.end() || *it != f) continue;
        ++it;
      }
      if (it == row.items.end()) {
        empty_count += row.weight;
      } else {
        staged_.push_back({RankSpan(it, row.items.end()), row.weight});
      }
    }
    const auto row_end = static_cast<uint32_t>(staged_.size());
    // Members without remaining items carry nothing once the pattern is
    // consumed; a slice with neither rows nor counted members is dropped.
    if (pattern.empty()) empty_count = 0;
    if (row_begin == row_end &&
        (pattern.empty() || (!f_in_pattern && empty_count == 0))) {
      continue;
    }
    pieces_.push_back(
        {FindOrAdd(pattern, empty_count, child), row_begin, row_end});
  }
  // Group the pieces by child slice, first occurrence first. Without a
  // merge into an earlier slice they are grouped already.
  const auto by_target = [](const Piece& a, const Piece& b) {
    return a.target < b.target;
  };
  if (!std::is_sorted(pieces_.begin(), pieces_.end(), by_target)) {
    std::stable_sort(pieces_.begin(), pieces_.end(), by_target);
  }
}

FlatSliceDb SliceProjector::Project(const FlatSliceDb& parent, Rank f) {
  FlatSliceDb child;
  Stage(parent, f, &child);
  child.rows_.reserve(staged_.size());
  auto piece = pieces_.begin();
  for (uint32_t t = 0; t < child.slices_.size(); ++t) {
    SliceView& s = child.slices_[t];
    s.row_begin = static_cast<uint32_t>(child.rows_.size());
    for (; piece != pieces_.end() && piece->target == t; ++piece) {
      child.rows_.insert(child.rows_.end(), staged_.begin() + piece->row_begin,
                         staged_.begin() + piece->row_end);
    }
    child.FinishSlice(&s);
  }
  return child;
}

FlatSliceDb SliceProjector::ProjectFiltered(const FlatSliceDb& parent, Rank f,
                                            const std::vector<Rank>& keep) {
  FlatSliceDb child;
  Stage(parent, f, &child);
  if (!keep.empty() && keep_.size() <= keep.back()) {
    keep_.resize(keep.back() + 1, 0);
  }
  for (Rank r : keep) keep_[r] = 1;
  // Every child item copies a distinct parent item, so the parent's total
  // bounds the buffer and the views taken below stay valid.
  child.items_.reserve(parent.StoredItems());
  child.rows_.reserve(staged_.size());
  const auto filter = [&](RankSpan items) {
    const size_t at = child.items_.size();
    for (Rank r : items) {
      if (r < keep_.size() && keep_[r] != 0) child.items_.push_back(r);
    }
    return RankSpan(child.items_.data() + at, child.items_.size() - at);
  };

  auto piece = pieces_.begin();
  size_t kept = 0;
  for (uint32_t t = 0; t < child.slices_.size(); ++t) {
    SliceView s = child.slices_[t];
    s.pattern = filter(s.pattern);
    s.row_begin = static_cast<uint32_t>(child.rows_.size());
    for (; piece != pieces_.end() && piece->target == t; ++piece) {
      for (uint32_t r = piece->row_begin; r < piece->row_end; ++r) {
        const RankSpan items = filter(staged_[r].items);
        if (items.empty()) {
          s.empty_count += staged_[r].weight;
        } else {
          child.rows_.push_back({items, staged_[r].weight});
        }
      }
    }
    if (s.pattern.empty()) {
      s.empty_count = 0;
      if (child.rows_.size() == s.row_begin) continue;
    }
    child.FinishSlice(&s);
    child.slices_[kept++] = s;  // In place: kept <= t.
  }
  child.slices_.resize(kept);
  for (Rank r : keep) keep_[r] = 0;
  GOGREEN_DCHECK_LE(child.items_.size(), parent.StoredItems());
  return child;
}

}  // namespace gogreen::core
