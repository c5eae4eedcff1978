// Building blocks of the repository benchmark: answer digests, the tail
// percentile rule, the metric catalogue with its name/unit rules, the result
// line, and the in-memory span recorder of the traced run.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fpm/pattern_set.h"

namespace perfbench {

// --- Answer oracle -------------------------------------------------------

/// 64-bit hash of one pattern (its canonical items and its support).
uint64_t PatternHash(const gogreen::fpm::Pattern& pattern);

/// Order-independent digest of a pattern set: the pattern count plus the
/// wrapping sum and the xor of per-pattern hashes (the xor over a second,
/// independent mix so the two halves cannot cancel together). Two sets with
/// the same (items, support) pairs give the same digest in any order.
struct Digest {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t mix = 0;

  void Add(uint64_t pattern_hash);
  std::string Hex() const;
  friend bool operator==(const Digest&, const Digest&) = default;
};

Digest DigestOf(const gogreen::fpm::PatternSet& set);

/// Digests of one reference set restricted to `support >= t`, for any
/// threshold t: the answer at t of a database whose complete set at a
/// lower support is known. Built once, queried per request.
class ReferenceAnswers {
 public:
  ReferenceAnswers() = default;
  explicit ReferenceAnswers(const gogreen::fpm::PatternSet& lowest);

  /// Digest of the patterns with support >= `min_support`.
  Digest DigestAt(uint64_t min_support) const;
  /// Number of patterns with support >= `min_support`.
  uint64_t CountAt(uint64_t min_support) const;

 private:
  // (support, hash), sorted by support descending.
  std::vector<std::pair<uint64_t, uint64_t>> entries_;
};

// --- Percentiles ---------------------------------------------------------

double Median(std::vector<double> values);

/// The highest percentile of the ladder 50, 75, 90, 95, 99, 99.9, 99.99
/// that has at least ten samples ranked beyond it (nearest-rank). With
/// fewer than 20 samples no rung qualifies; the median is reported and
/// `qualified` is false.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
  bool qualified = false;
};
Tail TailOf(std::vector<double> values);
/// The percentile TailOf picks for a sample of `n` values.
double TailPercentile(size_t n);

// --- Metric catalogue ----------------------------------------------------

/// One metric of the benchmark: its name, unit, and — for per-layer
/// metrics — the end-to-end metric and workload it should move.
struct MetricSpec {
  const char* name;
  const char* unit;
  bool end_to_end;
  const char* moves;     ///< Per-layer: "<e2e metric> on <workload>".
  const char* meaning;
};

/// Every metric the benchmark reports, end-to-end ones first.
const std::vector<MetricSpec>& MetricCatalogue();
const MetricSpec* FindMetric(std::string_view name);

/// [A-Za-z0-9] then [A-Za-z0-9_.-]*, at most 64 characters.
bool ValidMetricName(std::string_view name);
/// [A-Za-z0-9_/%.-]{1,16}.
bool ValidUnit(std::string_view unit);

/// Values of one run, keyed by catalogue name; emitted in insertion order.
class MetricValues {
 public:
  /// Records `value` under `name`; the unit comes from the catalogue.
  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;
  bool Has(const std::string& name) const;
  const std::vector<std::pair<std::string, double>>& values() const {
    return values_;
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
/// with every metric as {"value": v, "unit": u}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricValues& metrics);

/// A double printed with all its significant digits.
std::string FormatDouble(double value);

// --- Spans of the traced run ---------------------------------------------

/// In-memory span recorder. Spans are recorded only while enabled, carry a
/// name, start, end, parent span and request id, and are written out once
/// at the end of the run.
class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0 = root.
    uint64_t request_id = 0;
    std::string name;
    double start_s = 0.0;  ///< Seconds since the recorder was created.
    double end_s = 0.0;
  };

  SpanRecorder() : epoch_(Clock::now()) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span; returns its id (0 when disabled).
  uint64_t Begin(std::string name, uint64_t parent, uint64_t request_id);
  void End(uint64_t id);
  /// Records a finished span directly (times from this recorder's clock).
  uint64_t Add(std::string name, uint64_t parent, uint64_t request_id,
               Clock::time_point start, Clock::time_point end);

  /// Chrome trace-event JSON ("X" events; parent and request id in args).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  double Since(Clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }

  Clock::time_point epoch_;
  bool enabled_ = false;
  std::vector<Span> spans_;
};

/// Peak resident memory of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
