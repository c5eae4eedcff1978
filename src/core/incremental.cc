#include "core/incremental.h"

#include <utility>

namespace gogreen::core {

IncrementalSession::IncrementalSession(fpm::TransactionDb db,
                                       IncrementalOptions options)
    : db_(std::move(db)), options_(options) {}

void IncrementalSession::AddTransaction(std::vector<fpm::ItemId> items) {
  db_.AddTransaction(std::move(items));
}

void IncrementalSession::AddBatch(const fpm::TransactionDb& batch) {
  for (fpm::Tid t = 0; t < batch.NumTransactions(); ++t) {
    db_.AddCanonicalTransaction(batch.Transaction(t));
  }
}

size_t IncrementalSession::RemoveIf(
    const std::function<bool(fpm::Tid, fpm::ItemSpan)>& predicate) {
  fpm::TransactionDb survivor;
  survivor.Reserve(db_.NumTransactions(), db_.TotalItems());
  size_t removed = 0;
  for (fpm::Tid t = 0; t < db_.NumTransactions(); ++t) {
    const fpm::ItemSpan row = db_.Transaction(t);
    if (predicate(t, row)) {
      ++removed;
    } else {
      survivor.AddCanonicalTransaction(row);
    }
  }
  db_ = std::move(survivor);
  return removed;
}

Result<fpm::PatternSet> IncrementalSession::Mine(uint64_t min_support) {
  if (min_support == 0) {
    return Status::InvalidArgument("min_support must be >= 1");
  }

  fpm::PatternSet fp;
  if (!has_cache_ || cached_fp_.empty()) {
    auto miner = fpm::CreateMiner(options_.base_miner);
    GOGREEN_ASSIGN_OR_RETURN(fp, miner->Mine(db_, min_support));
    last_route_ = SeedRoute::kNone;
  } else {
    // Compress the *current* database with the previous round's patterns.
    // Their stale supports only influence the utility ranking; the mined
    // supports come from the actual data.
    GOGREEN_ASSIGN_OR_RETURN(
        const CompressedDb cdb,
        CompressDatabase(db_, cached_fp_,
                         {options_.strategy, options_.matcher}));
    auto miner = CreateCompressedMiner(options_.algo);
    GOGREEN_ASSIGN_OR_RETURN(fp, miner->MineCompressed(cdb, min_support));
    last_route_ = SeedRoute::kRecycle;
  }

  cached_fp_ = fp;
  has_cache_ = true;
  return fp;
}

}  // namespace gogreen::core
