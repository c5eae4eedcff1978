#include "layers.h"

#include <optional>
#include <utility>

#include "core/compressor.h"
#include "core/seed_selection.h"
#include "obs/metrics.h"
#include "util/run_context.h"

namespace perfbench {

namespace gg = gogreen;

namespace {

gg::obs::Counter* ItemsScanned() {
  static gg::obs::Counter* c =
      gg::obs::MetricRegistry::Global().GetCounter("mine.items_scanned");
  return c;
}

gg::obs::Counter* ProjectionsBuilt() {
  static gg::obs::Counter* c =
      gg::obs::MetricRegistry::Global().GetCounter("mine.projections_built");
  return c;
}

gg::serve::PatternStore::Options StoreOptions(size_t byte_budget) {
  gg::serve::PatternStore::Options options;
  options.byte_budget = byte_budget;
  return options;
}

}  // namespace

LayerReplay::LayerReplay(
    const BenchDataset& dataset, size_t family, size_t byte_budget,
    std::function<gg::fpm::PatternSet(uint64_t)> materialize,
    SpanRecorder* spans, LayerTotals* totals)
    : dataset_(dataset),
      family_(family),
      materialize_(std::move(materialize)),
      spans_(spans),
      totals_(totals),
      store_(StoreOptions(byte_budget)) {}

gg::serve::StoreKey LayerReplay::Key(uint64_t support) const {
  return gg::serve::StoreKey{dataset_.name, "", support};
}

void LayerReplay::Prewarm(uint64_t support, gg::fpm::PatternSet set) {
  store_.Put(Key(support), std::move(set), dataset_.db.NumTransactions());
}

void LayerReplay::EnsureEntry(uint64_t support) {
  if (store_.Get(Key(support)) != nullptr) return;
  ++totals_->reseeded;
  store_.Put(Key(support), materialize_(support),
             dataset_.db.NumTransactions());
}

std::string LayerReplay::Replay(const RequestRecord& record,
                                uint64_t parent_span, bool strict) {
  using Clock = SpanRecorder::Clock;
  const uint64_t s = record.support;
  const uint64_t n = dataset_.db.NumTransactions();
  const uint64_t span = spans_->Begin("replay", parent_span, record.id);
  double sum = 0.0;
  // Times one layer call, records it as a child span, adds it to the sum.
  auto timed = [&](const char* name, auto&& call) {
    const Clock::time_point t0 = Clock::now();
    call();
    const Clock::time_point t1 = Clock::now();
    spans_->Add(name, span, record.id, t0, t1);
    const double seconds = std::chrono::duration<double>(t1 - t0).count();
    sum += seconds;
    return seconds;
  };
  std::string error;
  const uint64_t reseeded_before = totals_->reseeded;
  // The service runs every request under an ungoverned RunContext (request
  // id and byte accounting); the replay passes one the same way.
  gg::RunContext ctx;

  if (record.route == "exact") {
    EnsureEntry(s);
    gg::fpm::PatternSet copy;
    totals_->exact_s += timed("serve.exact", [&] {
      if (auto cached = store_.Get(Key(s)); cached != nullptr) copy = *cached;
    });
    if (copy.size() != record.patterns) error = "exact replay size mismatch";
  } else {
    totals_->store_get_s +=
        timed("serve.store_get", [&] { (void)store_.Get(Key(s)); });
    gg::core::SeedChoice choice;
    totals_->select_seed_s += timed("core.select_seed", [&] {
      choice = gg::core::SelectSeed(store_.Candidates(dataset_.name, ""), s);
    });
    const bool same_route =
        record.route == gg::core::SeedRouteName(choice.route) &&
        (choice.route == gg::core::SeedRoute::kNone ||
         choice.min_support == record.seed_support);
    if (!same_route) {
      if (strict) {
        error = std::string("replay selected route ") +
                gg::core::SeedRouteName(choice.route) + " at seed " +
                std::to_string(choice.min_support);
      }
      ++totals_->route_divergences;
    }

    if (record.route == "filter-down") {
      EnsureEntry(record.seed_support);
      std::shared_ptr<const gg::fpm::PatternSet> seed;
      totals_->store_get_s += timed("serve.store_get", [&] {
        seed = store_.Get(Key(record.seed_support));
      });
      gg::fpm::PatternSet answer;
      totals_->filter_down_s += timed(
          "serve.filter_down", [&] { answer = seed->FilterBySupport(s); });
      totals_->filter_scanned += seed->size();
      totals_->filter_returned += answer.size();
      if (answer.size() != record.patterns) {
        error = "filter-down replay size mismatch";
      }
      totals_->store_put_s +=
          timed("serve.store_put", [&] { store_.Put(Key(s), answer, n); });
    } else if (record.route == "recycle") {
      EnsureEntry(record.seed_support);
      const gg::serve::StoreKey seed_key = Key(record.seed_support);
      std::shared_ptr<const gg::core::CompressedDb> cdb;
      totals_->store_get_s += timed(
          "serve.store_get", [&] { cdb = store_.GetCompressed(seed_key); });
      if (cdb == nullptr) {
        std::shared_ptr<const gg::fpm::PatternSet> seed;
        totals_->store_get_s +=
            timed("serve.store_get", [&] { seed = store_.Get(seed_key); });
        gg::core::CompressionStats cstats;
        std::optional<gg::Result<gg::core::CompressedDb>> built;
        totals_->compress_s += timed("core.compress", [&] {
          gg::core::CompressorOptions options;
          options.run_context = &ctx;
          built.emplace(
              gg::core::CompressDatabase(dataset_.db, *seed, options, &cstats));
        });
        if (!built->ok()) {
          spans_->End(span);
          return "compress failed: " + built->status().ToString();
        }
        totals_->stored_items += cstats.stored_items;
        totals_->original_items += cstats.original_items;
        totals_->covered_tuples += cstats.covered_tuples;
        totals_->uncovered_tuples += cstats.uncovered_tuples;
        totals_->groups += cstats.groups;
        cdb = std::make_shared<const gg::core::CompressedDb>(
            std::move(built->value()));
        totals_->store_put_s += timed(
            "serve.store_put", [&] { store_.PutCompressed(seed_key, cdb); });
      }
      auto miner = gg::core::CreateCompressedMiner(kFamilies[family_].algo);
      gg::fpm::MineRequest request = gg::fpm::MineRequest::At(s);
      request.threads = 1;
      request.run_context = &ctx;
      const uint64_t items0 = ItemsScanned()->Value();
      const uint64_t proj0 = ProjectionsBuilt()->Value();
      std::optional<gg::Result<gg::fpm::MineResult>> mined;
      totals_->recycle_mine_s[family_] += timed(
          "core.recycle_mine", [&] { mined.emplace(miner->Mine(*cdb, request)); });
      totals_->recycle_items_scanned[family_] +=
          ItemsScanned()->Value() - items0;
      totals_->recycle_projections_built[family_] +=
          ProjectionsBuilt()->Value() - proj0;
      if (!mined->ok()) {
        spans_->End(span);
        return "recycle mine failed: " + mined->status().ToString();
      }
      if ((*mined)->patterns.size() != record.patterns) {
        error = "recycle replay size mismatch";
      }
      totals_->store_put_s += timed("serve.store_put", [&] {
        store_.Put(Key(s), (*mined)->patterns, n);
      });
    } else if (record.route == "none") {
      auto miner = gg::fpm::CreateMiner(kFamilies[family_].base);
      gg::fpm::MineRequest request = gg::fpm::MineRequest::At(s);
      request.threads = 1;
      request.run_context = &ctx;
      const uint64_t items0 = ItemsScanned()->Value();
      const uint64_t proj0 = ProjectionsBuilt()->Value();
      std::optional<gg::Result<gg::fpm::MineResult>> mined;
      totals_->mine_s[family_] += timed("fpm.mine", [&] {
        mined.emplace(miner->Mine(dataset_.db, request));
      });
      totals_->items_scanned[family_] += ItemsScanned()->Value() - items0;
      totals_->projections_built[family_] +=
          ProjectionsBuilt()->Value() - proj0;
      if (!mined->ok()) {
        spans_->End(span);
        return "scratch mine failed: " + mined->status().ToString();
      }
      if ((*mined)->patterns.size() != record.patterns) {
        error = "scratch replay size mismatch";
      }
      totals_->store_put_s += timed("serve.store_put", [&] {
        store_.Put(Key(s), (*mined)->patterns, n);
      });
    } else {
      error = "unknown route " + record.route;
    }
  }
  spans_->End(span);
  if (strict && totals_->reseeded != reseeded_before) {
    error = "replay store lacked the recorded seed";
  }
  if (!record.coalesced) {
    totals_->replayed_s += sum;
    totals_->served_s += record.server_s;
  }
  return error;
}

}  // namespace perfbench
