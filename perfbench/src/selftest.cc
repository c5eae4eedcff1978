// The benchmark's own tests: the tail percentile rule, digest order
// independence, the metric name and unit rules, the catalogue, and a
// tiny-size end-to-end pass of every workload (timed and traced) that runs
// every route assertion and the answer oracle. Exits non-zero on failure.
//
//   perfbench_selftest    (from the directory that may hold its socket and
//                         span files)
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "datasets.h"
#include "workloads.h"

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++failures;
}

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void TestTailRule() {
  // 19 samples: no rung has ten beyond it; the median is reported.
  perfbench::Tail t = perfbench::TailOf(Range(19));
  Check(!t.qualified && t.percentile == 50.0 && t.value == 10.0,
        "tail: 19 samples fall back to the median");
  // 20 samples: p50 (rank 10) has exactly 10 beyond.
  t = perfbench::TailOf(Range(20));
  Check(t.qualified && t.percentile == 50.0 && t.beyond == 10,
        "tail: 20 samples qualify p50 with 10 beyond");
  // 78 samples (one relax pass): p75 has 19 beyond, p90 only 7.
  t = perfbench::TailOf(Range(78));
  Check(t.percentile == 75.0 && t.value == 59.0 && t.beyond == 19,
        "tail: 78 samples give p75");
  // 100 samples: p90 = 90 with 10 beyond; p95 would leave 5.
  t = perfbench::TailOf(Range(100));
  Check(t.percentile == 90.0 && t.value == 90.0 && t.beyond == 10,
        "tail: 100 samples give p90");
  // 1000 samples: p99 = 990 with 10 beyond.
  t = perfbench::TailOf(Range(1000));
  Check(t.percentile == 99.0 && t.value == 990.0 && t.beyond == 10,
        "tail: 1000 samples give p99");
  // Order of the input does not matter.
  std::vector<double> shuffled = Range(1000);
  std::mt19937 rng(7);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  Check(perfbench::TailOf(shuffled).value == 990.0,
        "tail: input order is irrelevant");
  Check(perfbench::Median({3, 1, 2, 4}) == 2.5, "median of an even sample");
}

void TestDigest() {
  gogreen::fpm::PatternSet a;
  a.Add({1, 2, 3}, 10);
  a.Add({2}, 40);
  a.Add({1, 3}, 12);
  gogreen::fpm::PatternSet b;
  b.Add({1, 3}, 12);
  b.Add({1, 2, 3}, 10);
  b.Add({2}, 40);
  Check(perfbench::DigestOf(a) == perfbench::DigestOf(b),
        "digest: independent of pattern order");
  gogreen::fpm::PatternSet c = b;
  c.mutable_patterns()[0].support = 13;
  Check(!(perfbench::DigestOf(a) == perfbench::DigestOf(c)),
        "digest: sensitive to a support");
  gogreen::fpm::PatternSet d;
  d.Add({1, 2}, 10);
  d.Add({2}, 40);
  d.Add({1, 3}, 12);
  Check(!(perfbench::DigestOf(a) == perfbench::DigestOf(d)),
        "digest: sensitive to an item");
  // Duplicates are not absorbed (xor alone would cancel them).
  gogreen::fpm::PatternSet e = a;
  e.Add({2}, 40);
  e.Add({2}, 40);
  Check(!(perfbench::DigestOf(a) == perfbench::DigestOf(e)),
        "digest: a duplicated pair changes it");
  // A reference restricted by support equals the digest of the restriction.
  const perfbench::ReferenceAnswers ref(a);
  gogreen::fpm::PatternSet high;
  high.Add({2}, 40);
  high.Add({1, 3}, 12);
  Check(ref.DigestAt(11) == perfbench::DigestOf(high) && ref.CountAt(11) == 2,
        "digest: reference restriction by support");
}

void TestMetricRules() {
  Check(perfbench::ValidMetricName("core.recycle_vs_scratch.fp"),
        "name: dotted name accepted");
  Check(perfbench::ValidMetricName("9lives-x_y"), "name: digit first");
  Check(!perfbench::ValidMetricName("_hidden"), "name: underscore first");
  Check(!perfbench::ValidMetricName(".dot"), "name: dot first");
  Check(!perfbench::ValidMetricName("a b"), "name: space rejected");
  Check(!perfbench::ValidMetricName("fpm.mine_s.{hm,fp}"),
        "name: braces rejected");
  Check(!perfbench::ValidMetricName(std::string(65, 'a')),
        "name: 65 characters rejected");
  Check(perfbench::ValidMetricName(std::string(64, 'a')),
        "name: 64 characters accepted");
  Check(perfbench::ValidUnit("req/s") && perfbench::ValidUnit("%") &&
            perfbench::ValidUnit("MiB"),
        "unit: req/s, %, MiB accepted");
  Check(!perfbench::ValidUnit("") && !perfbench::ValidUnit("m s") &&
            !perfbench::ValidUnit(std::string(17, 's')),
        "unit: empty, space, 17 characters rejected");

  std::set<std::string> names;
  bool all_valid = true;
  size_t e2e = 0;
  for (const perfbench::MetricSpec& spec : perfbench::MetricCatalogue()) {
    all_valid = all_valid && perfbench::ValidMetricName(spec.name) &&
                perfbench::ValidUnit(spec.unit);
    all_valid = all_valid && (spec.end_to_end || spec.moves[0] != '\0');
    names.insert(spec.name);
    e2e += spec.end_to_end;
  }
  Check(all_valid, "catalogue: every name and unit valid, every layer "
                   "metric names what it moves");
  Check(names.size() == perfbench::MetricCatalogue().size(),
        "catalogue: names unique");
  Check(e2e == 6 && names.count("setup_s") == 1,
        "catalogue: six end-to-end metrics including setup_s");
}

/// Every catalogue metric of the run's kind is present exactly once.
bool ReportsCatalogue(const perfbench::RunOutcome& out, bool trace) {
  size_t expected = 0;
  for (const perfbench::MetricSpec& spec : perfbench::MetricCatalogue()) {
    if (spec.end_to_end == trace) continue;
    ++expected;
    if (!out.metrics.Has(spec.name)) {
      std::cout << "     missing " << spec.name << "\n";
      return false;
    }
  }
  return out.metrics.values().size() == expected;
}

void TestTinyRuns() {
  for (const std::string& workload : perfbench::WorkloadNames()) {
    for (const bool trace : {false, true}) {
      perfbench::RunOptions options;
      options.workload = workload;
      options.seed = 3;
      options.seconds = 0.01;
      options.trace = trace;
      options.size = perfbench::Size::kTiny;
      const perfbench::RunOutcome out = perfbench::RunWorkload(options);
      for (const std::string& e : out.errors) std::cout << "     " << e << "\n";
      const std::string what =
          workload + (trace ? " traced" : " timed") + " (tiny)";
      Check(out.correct && out.failed == 0 && out.attempted > 0,
            what + ": routes and answers check");
      Check(ReportsCatalogue(out, trace), what + ": reports every metric");
      if (!trace) continue;
      const perfbench::MetricValues& m = out.metrics;
      if (workload == "relax_session") {
        Check(m.Get("serve.route_share.scratch") > 0 &&
                  m.Get("serve.route_share.recycle") > 0 &&
                  m.Get("serve.route_share.scratch") +
                          m.Get("serve.route_share.recycle") ==
                      1.0,
              what + ": routes none then recycle only");
      } else if (workload == "cold_scratch") {
        Check(m.Get("serve.route_share.scratch") == 1.0,
              what + ": every request from scratch");
      } else {
        Check(m.Get("serve.route_share.exact") > 0 &&
                  m.Get("serve.route_share.filter_down") > 0 &&
                  m.Get("serve.route_share.recycle") > 0 &&
                  m.Get("serve.route_share.scratch") == 0,
              what + ": exact, filter-down and recycle, never scratch");
      }
    }
  }
}

void TestSeeds() {
  // The default seed is MakeDataset's set; another seed is isomorphic.
  const auto id = gogreen::data::DatasetId::kForestSub;
  auto made = gogreen::data::MakeDataset(id, gogreen::BenchScale::kSmoke);
  auto base = perfbench::GenerateSeeded(
      id, gogreen::data::DatasetTransactions(id, gogreen::BenchScale::kSmoke),
      perfbench::kDefaultSeed);
  auto other = perfbench::GenerateSeeded(
      id, gogreen::data::DatasetTransactions(id, gogreen::BenchScale::kSmoke),
      7);
  bool same = made.ok() && base.ok() &&
              made->NumTransactions() == base->NumTransactions();
  for (size_t t = 0; same && t < made->NumTransactions(); ++t) {
    const auto x = made->Transaction(t);
    const auto y = base->Transaction(t);
    same = std::equal(x.begin(), x.end(), y.begin(), y.end());
  }
  Check(same, "seeds: the default seed reproduces data::MakeDataset");
  Check(other.ok() && other->NumTransactions() == base->NumTransactions() &&
            other->TotalItems() == base->TotalItems(),
        "seeds: another seed keeps the shape");
  bool differs = false;
  for (size_t t = 0; other.ok() && !differs && t < 50; ++t) {
    const auto x = base->Transaction(t);
    const auto y = other->Transaction(t);
    differs = !std::equal(x.begin(), x.end(), y.begin(), y.end());
  }
  Check(differs, "seeds: another seed changes the input bytes");
}

}  // namespace

int main() {
  TestTailRule();
  TestDigest();
  TestMetricRules();
  TestSeeds();
  TestTinyRuns();
  std::cout << (failures == 0 ? "selftest passed" : "selftest FAILED")
            << " (" << failures << " failures)\n";
  return failures == 0 ? 0 : 1;
}
