// Multi-user scenario (Section 2: "when there are many users in a data
// mining system, the frequent patterns discovered by one user also provide
// opportunity for the others to recycle"). Three analysts query one
// MiningService; its shared pattern store keeps every answer, so each
// later user starts from the best set an earlier one left behind.
//
// Build & run:  ./build/examples/multiuser_cache

#include <cstdio>
#include <optional>
#include <string>

#include "data/quest_gen.h"
#include "fpm/miner.h"
#include "serve/mining_service.h"
#include "util/timer.h"

namespace {

using gogreen::serve::MiningService;
using gogreen::serve::ServeStats;

/// One user's query: prints the route the service took and returns the
/// number of patterns (nullopt on error) and the time taken.
std::optional<size_t> Query(MiningService& service, const char* user,
                            double fraction, double* seconds) {
  gogreen::fpm::MineRequest request = gogreen::fpm::MineRequest::At(
      gogreen::fpm::AbsoluteSupport(fraction, service.db().NumTransactions()));
  request.tenant = user;
  ServeStats st;
  gogreen::Timer timer;
  auto result = service.Mine(request, &st);
  *seconds = timer.ElapsedSeconds();
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return std::nullopt;
  }
  std::printf("%-7s: support %.1f%% -> %6zu patterns in %.3fs (route=%s, "
              "seed=%llu)\n",
              user, fraction * 100, result->patterns.size(), *seconds,
              gogreen::core::SeedRouteName(st.route),
              static_cast<unsigned long long>(st.seed_support));
  return result->patterns.size();
}

}  // namespace

int main() {
  gogreen::data::QuestConfig cfg;
  cfg.num_transactions = 150000;
  cfg.avg_transaction_len = 12.0;
  cfg.num_items = 4000;
  cfg.num_patterns = 150;
  cfg.avg_pattern_len = 6.0;
  cfg.max_pattern_len = 9;
  cfg.weight_skew = 2.2;
  cfg.corruption_mean = 0.15;
  cfg.seed = 20040405;
  auto db_result = gogreen::data::GenerateQuest(cfg);
  if (!db_result.ok()) return 1;
  const gogreen::fpm::TransactionDb db = std::move(db_result).value();
  const std::string kDatasetKey = "sales-2026-q2";

  MiningService service(db, kDatasetKey);
  double secs = 0;

  // --- User A explores first (pays the full initial cost). ---
  if (!Query(service, "alice", 0.03, &secs)) return 1;

  // --- User B arrives later and wants a deeper cut: recycles A's set. ---
  double bob_secs = 0;
  const std::optional<size_t> bob = Query(service, "bob", 0.01, &bob_secs);
  if (!bob) return 1;

  // --- User C benefits from B's deeper run: a pure filter-down. ---
  if (!Query(service, "carol", 0.02, &secs)) return 1;

  // --- Control: what user B would have paid without sharing. A store too
  // small to keep any answer leaves every query to mine from scratch. ---
  gogreen::serve::ServiceOptions no_sharing;
  no_sharing.store.byte_budget = 1024;
  MiningService lonely(db, kDatasetKey, no_sharing);
  double lonely_secs = 0;
  const std::optional<size_t> control =
      Query(lonely, "control", 0.01, &lonely_secs);
  if (!control) return 1;
  std::printf("bob saved %.1fx over mining without sharing\n",
              bob_secs > 0 ? lonely_secs / bob_secs : 0.0);

  if (*bob != *control) {
    std::fprintf(stderr, "MISMATCH between shared and direct results\n");
    return 2;
  }
  return 0;
}
