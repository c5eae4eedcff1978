#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"

namespace perfbench {

namespace {

uint64_t Mix64(uint64_t x) {
  // splitmix64 finalizer.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t PatternHash(const gogreen::fpm::Pattern& pattern) {
  uint64_t h = Mix64(pattern.items.size());
  for (const gogreen::fpm::ItemId item : pattern.items) {
    h = Mix64(h ^ static_cast<uint64_t>(item));
  }
  return Mix64(h ^ (pattern.support * 0xff51afd7ed558ccdULL));
}

void Digest::Add(uint64_t pattern_hash) {
  ++count;
  sum += pattern_hash;
  mix ^= Mix64(pattern_hash ^ 0xc4ceb9fe1a85ec53ULL);
}

std::string Digest::Hex() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%llu:%016llx%016llx",
                static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(sum),
                static_cast<unsigned long long>(mix));
  return buf;
}

Digest DigestOf(const gogreen::fpm::PatternSet& set) {
  Digest d;
  for (const gogreen::fpm::Pattern& p : set) d.Add(PatternHash(p));
  return d;
}

ReferenceAnswers::ReferenceAnswers(const gogreen::fpm::PatternSet& lowest) {
  entries_.reserve(lowest.size());
  for (const gogreen::fpm::Pattern& p : lowest) {
    entries_.emplace_back(p.support, PatternHash(p));
  }
  std::sort(entries_.begin(), entries_.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
}

Digest ReferenceAnswers::DigestAt(uint64_t min_support) const {
  Digest d;
  for (const auto& [support, hash] : entries_) {
    if (support < min_support) break;
    d.Add(hash);
  }
  return d;
}

uint64_t ReferenceAnswers::CountAt(uint64_t min_support) const {
  // entries_ is sorted by support descending: count the prefix >= support.
  const auto it = std::partition_point(
      entries_.begin(), entries_.end(),
      [min_support](const auto& e) { return e.first >= min_support; });
  return static_cast<uint64_t>(it - entries_.begin());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

size_t NearestRankIndex(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const size_t r = rank < 1.0 ? 1 : static_cast<size_t>(rank);
  return std::min(r, n) - 1;
}

}  // namespace

double TailPercentile(size_t n) {
  static constexpr double kLadder[] = {50.0, 75.0, 90.0, 95.0,
                                       99.0, 99.9, 99.99};
  double chosen = 50.0;
  for (const double p : kLadder) {
    if (n == 0 || n - 1 - NearestRankIndex(n, p) < 10) break;
    chosen = p;
  }
  return chosen;
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  tail.percentile = TailPercentile(n);
  const size_t index = NearestRankIndex(n, tail.percentile);
  tail.beyond = n - 1 - index;
  tail.qualified = tail.beyond >= 10;
  tail.value = tail.qualified ? values[index] : Median(values);
  return tail;
}

const std::vector<MetricSpec>& MetricCatalogue() {
  static const std::vector<MetricSpec> catalogue = {
      // End to end: what an analyst or a daemon client sees.
      {"setup_s", "s", true, "",
       "dataset generation, service/daemon construction, store warm-up "
       "(median of the run's set-ups)"},
      {"wall_s", "s", true, "",
       "wall time of one measured pass (median over passes)"},
      {"req_p50_ms", "ms", true, "", "median client-observed latency"},
      {"req_tail_ms", "ms", true, "",
       "highest percentile with >= 10 samples beyond it"},
      {"throughput_rps", "req/s", true, "", "completed requests / wall_s"},
      {"peak_rss_mb", "MiB", true, "", "peak resident memory of the run"},
      // data
      {"data.generate_s", "s", false, "setup_s on every workload",
       "generating the workload's datasets once"},
      // fpm
      {"fpm.mine_s.hm", "s", false,
       "wall_s on cold_scratch; req_p50_ms on relax_session",
       "FrequentPatternMiner::Mine seconds, H-Mine"},
      {"fpm.mine_s.fp", "s", false,
       "wall_s on cold_scratch; req_p50_ms on relax_session",
       "FrequentPatternMiner::Mine seconds, FP-growth"},
      {"fpm.mine_s.tp", "s", false,
       "wall_s on cold_scratch; req_p50_ms on relax_session",
       "FrequentPatternMiner::Mine seconds, Tree Projection"},
      {"fpm.items_scanned.hm", "count", false, "wall_s on cold_scratch",
       "mine.items_scanned delta over the scratch mines"},
      {"fpm.items_scanned.fp", "count", false, "wall_s on cold_scratch",
       "mine.items_scanned delta over the scratch mines"},
      {"fpm.items_scanned.tp", "count", false, "wall_s on cold_scratch",
       "mine.items_scanned delta over the scratch mines"},
      {"fpm.projections_built.hm", "count", false, "wall_s on cold_scratch",
       "mine.projections_built delta over the scratch mines"},
      {"fpm.projections_built.fp", "count", false, "wall_s on cold_scratch",
       "mine.projections_built delta over the scratch mines"},
      {"fpm.projections_built.tp", "count", false, "wall_s on cold_scratch",
       "mine.projections_built delta over the scratch mines"},
      // core
      {"core.compress_s", "s", false,
       "wall_s on relax_session; req_tail_ms on daemon_mix",
       "CompressDatabase seconds"},
      {"core.compress_ratio", "ratio", false,
       "wall_s on relax_session; req_tail_ms on daemon_mix",
       "Sc/So over every compression"},
      {"core.covered_share", "fraction", false,
       "wall_s on relax_session; req_tail_ms on daemon_mix",
       "tuples covered by a group / all tuples compressed"},
      {"core.groups", "count", false,
       "wall_s on relax_session; req_tail_ms on daemon_mix",
       "groups built over every compression"},
      {"core.recycle_mine_s.hm", "s", false,
       "wall_s and req_tail_ms on relax_session",
       "CompressedMiner::Mine seconds, Recycle-HM"},
      {"core.recycle_mine_s.fp", "s", false,
       "wall_s and req_tail_ms on relax_session",
       "CompressedMiner::Mine seconds, Recycle-FP"},
      {"core.recycle_mine_s.tp", "s", false,
       "wall_s and req_tail_ms on relax_session",
       "CompressedMiner::Mine seconds, Recycle-TP"},
      {"core.recycle_items_scanned.hm", "count", false,
       "wall_s and req_tail_ms on relax_session",
       "mine.items_scanned delta over the recycle mines"},
      {"core.recycle_items_scanned.fp", "count", false,
       "wall_s and req_tail_ms on relax_session",
       "mine.items_scanned delta over the recycle mines"},
      {"core.recycle_items_scanned.tp", "count", false,
       "wall_s and req_tail_ms on relax_session",
       "mine.items_scanned delta over the recycle mines"},
      {"core.recycle_projections_built.hm", "count", false,
       "wall_s and req_tail_ms on relax_session",
       "mine.projections_built delta over the recycle mines"},
      {"core.recycle_projections_built.fp", "count", false,
       "wall_s and req_tail_ms on relax_session",
       "mine.projections_built delta over the recycle mines"},
      {"core.recycle_projections_built.tp", "count", false,
       "wall_s and req_tail_ms on relax_session",
       "mine.projections_built delta over the recycle mines"},
      {"core.recycle_vs_scratch.hm", "ratio", false, "wall_s on relax_session",
       "Phase II: Recycle-HM mine seconds / H-Mine scratch seconds, same "
       "(dataset, support) pairs"},
      {"core.recycle_vs_scratch.fp", "ratio", false, "wall_s on relax_session",
       "Phase II: Recycle-FP mine seconds / FP-growth scratch seconds, same "
       "(dataset, support) pairs"},
      {"core.recycle_vs_scratch.tp", "ratio", false, "wall_s on relax_session",
       "Phase II: Recycle-TP mine seconds / TP scratch seconds, same "
       "(dataset, support) pairs"},
      {"core.select_seed_s", "s", false, "req_p50_ms on daemon_mix",
       "PatternStore::Candidates + core::SelectSeed seconds"},
      // serve
      {"serve.store_put_s", "s", false, "wall_s on relax_session",
       "PatternStore::Put (+ PutCompressed) seconds"},
      {"serve.store_get_s", "s", false, "req_p50_ms on daemon_mix",
       "PatternStore::Get / GetCompressed seconds (hits and misses)"},
      {"serve.exact_s", "s", false, "req_p50_ms on daemon_mix",
       "exact route: lookup plus the copy of the cached set"},
      {"serve.filter_down_s", "s", false, "req_p50_ms on daemon_mix",
       "filter-down route: PatternSet::FilterBySupport seconds"},
      {"serve.filter_scanned_per_returned", "ratio", false,
       "req_p50_ms on daemon_mix",
       "seed patterns scanned / answer patterns returned by filter-down"},
      {"serve.route_share.exact", "fraction", false,
       "throughput_rps and peak_rss_mb on daemon_mix",
       "requests served by route exact"},
      {"serve.route_share.filter_down", "fraction", false,
       "throughput_rps and peak_rss_mb on daemon_mix",
       "requests served by route filter-down"},
      {"serve.route_share.recycle", "fraction", false,
       "throughput_rps and peak_rss_mb on daemon_mix",
       "requests served by route recycle"},
      {"serve.route_share.scratch", "fraction", false,
       "throughput_rps and peak_rss_mb on daemon_mix",
       "requests served by route none (mined from scratch)"},
      {"serve.coalesced_share", "fraction", false,
       "throughput_rps and peak_rss_mb on daemon_mix",
       "requests that adopted a concurrent identical mine"},
      {"serve.evictions", "count", false,
       "throughput_rps and peak_rss_mb on daemon_mix",
       "store entries evicted"},
      {"serve.image_evictions", "count", false,
       "throughput_rps and peak_rss_mb on daemon_mix",
       "memoized compressed images evicted"},
      {"serve.store_mb", "MiB", false,
       "throughput_rps and peak_rss_mb on daemon_mix",
       "largest store bytes_in_use seen at a pass boundary"},
      {"serve.queue_wait_ms.p50", "ms", false, "req_tail_ms on daemon_mix",
       "admission queue wait, median (serve.queue_wait histogram delta)"},
      {"serve.queue_wait_ms.tail", "ms", false, "req_tail_ms on daemon_mix",
       "admission queue wait at the tail percentile rule"},
      {"serve.shed", "count", false, "fail_share on daemon_mix",
       "serve.shed counter delta"},
      {"serve.degraded", "count", false, "fail_share on daemon_mix",
       "serve.degraded counter delta"},
      {"serve.unattributed_s", "s", false, "(replay residual)",
       "sum of ServeStats::seconds minus the replayed layer sum"},
      // net
      {"net.encode_s", "s", false, "req_p50_ms on daemon_mix",
       "client WireRequest::ToJson + EncodeFrame seconds"},
      {"net.decode_s", "s", false, "req_p50_ms on daemon_mix",
       "client TryDecodeFrame + WireResponse::FromJson seconds"},
      {"net.overhead_ms.p50", "ms", false, "req_p50_ms on daemon_mix",
       "client round trip minus server-reported seconds, median"},
      {"net.frame_bytes", "bytes", false, "req_p50_ms on daemon_mix",
       "request + response frame bytes per call, mean"},
      // tracing and failures
      {"trace.overhead_s", "s", false, "(cost of tracing)",
       "traced wall_s minus untraced wall_s"},
      {"fail_share", "fraction", false, "(end to end; may be 0)",
       "requests whose outcome is not ok / requests attempted"},
  };
  return catalogue;
}

const MetricSpec* FindMetric(std::string_view name) {
  for (const MetricSpec& spec : MetricCatalogue()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

namespace {

bool IsAlnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 || !IsAlnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

void MetricValues::Set(const std::string& name, double value) {
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

double MetricValues::Get(const std::string& name) const {
  for (const auto& [n, v] : values_) {
    if (n == name) return v;
  }
  return 0.0;
}

bool MetricValues::Has(const std::string& name) const {
  for (const auto& [n, v] : values_) {
    if (n == name) return true;
  }
  return false;
}

std::string FormatDouble(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricValues& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics.values()) {
    const MetricSpec* spec = FindMetric(name);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << FormatDouble(value) << ", \"unit\": \""
        << (spec != nullptr ? spec->unit : "?") << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

uint64_t SpanRecorder::Begin(std::string name, uint64_t parent,
                             uint64_t request_id) {
  if (!enabled_) return 0;
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request_id = request_id;
  span.name = std::move(name);
  span.start_s = Since(Clock::now());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::End(uint64_t id) {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].end_s = Since(Clock::now());
}

uint64_t SpanRecorder::Add(std::string name, uint64_t parent,
                           uint64_t request_id, Clock::time_point start,
                           Clock::time_point end) {
  if (!enabled_) return 0;
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request_id = request_id;
  span.name = std::move(name);
  span.start_s = Since(start);
  span.end_s = Since(end);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
        << "\"tid\": 1, \"ts\": " << FormatDouble(s.start_s * 1e6)
        << ", \"dur\": " << FormatDouble((s.end_s - s.start_s) * 1e6)
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request_id\": " << s.request_id << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

double PeakRssMb() {
  return static_cast<double>(gogreen::obs::ReadPeakRssBytes()) /
         (1024.0 * 1024.0);
}

}  // namespace perfbench
