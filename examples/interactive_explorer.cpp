// Interactive exploration scenario (the introduction's motivating use
// case): an analyst working over a synthetic market-basket dataset keeps
// refining the mining constraints — lowering the support when results are
// too sparse, raising it or adding constraints when they are too noisy.
// The MiningService transparently picks the cheapest correct route per
// round (scratch / recycle / filter-down / exact) and this example prints
// what it did.
//
// Build & run:  ./build/examples/interactive_explorer

#include <cstdio>

#include "data/quest_gen.h"
#include "fpm/constraints.h"
#include "fpm/miner.h"
#include "serve/mining_service.h"

namespace {

using gogreen::serve::MiningService;
using gogreen::serve::ServeStats;

/// Runs one round on the service and prints the route it took. Returns
/// false on a mining error.
bool Round(MiningService& service, const char* what,
           const gogreen::fpm::MineRequest& request,
           gogreen::fpm::PatternSet* out = nullptr) {
  ServeStats st;
  auto result = service.Mine(request, &st);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return false;
  }
  std::printf("%-44s -> %6zu patterns | route=%-11s %.3fs", what,
              result->patterns.size(), gogreen::core::SeedRouteName(st.route),
              st.seconds);
  if (st.route == gogreen::core::SeedRoute::kRecycle) {
    std::printf(" compress=%.3fs ratio=%.2f", st.compress_seconds,
                st.compression_ratio);
  }
  std::printf("\n");
  if (out != nullptr) *out = std::move(result->patterns);
  return true;
}

}  // namespace

int main() {
  using gogreen::fpm::AbsoluteSupport;
  using gogreen::fpm::ConstraintSet;
  using gogreen::fpm::MineRequest;

  // A synthetic "retail basket" dataset: 100k baskets over 5k products.
  gogreen::data::QuestConfig cfg;
  cfg.num_transactions = 100000;
  cfg.avg_transaction_len = 12.0;
  cfg.num_items = 5000;
  cfg.num_patterns = 200;
  cfg.avg_pattern_len = 5.0;
  cfg.max_pattern_len = 9;
  cfg.weight_skew = 2.0;
  cfg.corruption_mean = 0.2;
  cfg.seed = 7;
  auto db = gogreen::data::GenerateQuest(cfg);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  std::printf("dataset: %zu baskets, avg %.1f items\n\n",
              db->NumTransactions(), db->AvgLength());

  MiningService service(std::move(db).value(), "baskets");
  const size_t n = service.db().NumTransactions();

  // Round 1: a first look at 5% support.
  if (!Round(service, "mine at support 5%",
             MineRequest::At(AbsoluteSupport(0.05, n)))) {
    return 1;
  }

  // Round 2: too few results -> relax to 2%. (Recycled!)
  if (!Round(service, "relax support to 2%",
             MineRequest::At(AbsoluteSupport(0.02, n)))) {
    return 1;
  }

  // Round 3: too many -> tighten back to 3%. (Filtered from the 2% set.)
  if (!Round(service, "tighten support to 3%",
             MineRequest::At(AbsoluteSupport(0.03, n)))) {
    return 1;
  }

  // Round 4: only long associations, at least 3 items. (The 3% set is
  // stored: an exact hit, then a filter.)
  ConstraintSet c4(AbsoluteSupport(0.03, n));
  c4.Add(gogreen::fpm::MakeMinLength(3));
  MineRequest r4;
  r4.constraints = &c4;
  if (!Round(service, "add constraint |X| >= 3", r4)) return 1;

  // Round 5: relax support once more with the constraint kept. (Recycled.)
  ConstraintSet c5(AbsoluteSupport(0.01, n));
  c5.Add(gogreen::fpm::MakeMinLength(3));
  MineRequest r5;
  r5.constraints = &c5;
  gogreen::fpm::PatternSet final_set;
  if (!Round(service, "relax support to 1%, keep |X| >= 3", r5, &final_set)) {
    return 1;
  }

  // Show a few of the final long patterns.
  std::printf("\nsample results:\n");
  size_t shown = 0;
  for (const auto& p : final_set) {
    if (p.size() >= 4 && shown < 5) {
      std::printf("  %s\n", p.ToString().c_str());
      ++shown;
    }
  }
  return 0;
}
