#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <latch>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "core/seed_selection.h"
#include "layers.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/mining_service.h"
#include "serve/pattern_store.h"
#include "util/status_codes.h"

namespace perfbench {

namespace gg = gogreen;

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Set-ups per in-process run, and the fewest daemon rounds (each round
/// sets its daemon up afresh); setup_s is the median of the run's set-ups.
constexpr int kSetups = 7;
constexpr int kMinRounds = 3;

/// Nominal length of one pass (one round for daemon_mix) at smoke size on
/// a 4-core x86 VM. A run makes ceil(--seconds / nominal) passes: a fixed
/// count for a given --seconds, so how fast the machine happens to be
/// does not change how many samples a run takes.
constexpr double kRelaxPassSeconds = 14.0;
constexpr double kColdPassSeconds = 20.0;
constexpr double kDaemonRoundSeconds = 4.5;

int PassesFor(double seconds, double nominal_pass_seconds) {
  return std::max(1, static_cast<int>(std::ceil(seconds /
                                                nominal_pass_seconds)));
}

/// Tolerance of the traced run's layer split on the serial workloads: the
/// replayed layer sum must come within this share of the summed
/// ServeStats::seconds.
constexpr double kSerialReplayTolerance = 0.15;

std::string Fmt(const char* format, double value) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

/// Writes the traced run's spans next to the run (the working directory).
void WriteSpans(const RunOptions& options, const SpanRecorder& spans,
                RunOutcome* out) {
  const std::string path = "perfbench-spans-" + options.workload + "-" +
                           std::to_string(options.seed) + ".json";
  if (spans.WriteChromeTrace(path)) {
    out->report.push_back("spans written to " + path);
  } else {
    out->Fail("cannot write " + path);
  }
}

std::string Samples(std::string label, const std::vector<double>& values) {
  for (const double v : values) label.append(" ").append(Fmt("%.4f", v));
  return label;
}

/// The complete set at `min_support`, from a complete set at a lower
/// support (a plain support filter, independent of the library's own).
gg::fpm::PatternSet Restrict(const gg::fpm::PatternSet& lowest,
                             uint64_t min_support) {
  gg::fpm::PatternSet out;
  for (const gg::fpm::Pattern& p : lowest) {
    if (p.support >= min_support) out.Add(p);
  }
  return out;
}

/// The oracle's source: FP-growth from scratch at `min_support`, outside
/// the service. Every answer at a support >= min_support is a restriction
/// of it, so it stands for the cold_scratch answer of each query.
gg::Result<gg::fpm::PatternSet> ScratchReference(const BenchDataset& ds,
                                                 uint64_t min_support) {
  auto miner = gg::fpm::CreateMiner(gg::fpm::MinerKind::kFpGrowth);
  gg::fpm::MineRequest request = gg::fpm::MineRequest::At(min_support);
  request.threads = 1;
  GOGREEN_ASSIGN_OR_RETURN(gg::fpm::MineResult result,
                           miner->Mine(ds.db, request));
  return std::move(result.patterns);
}

gg::serve::ServiceOptions ServiceOptionsFor(size_t family,
                                            size_t byte_budget) {
  gg::serve::ServiceOptions options;
  options.store.byte_budget = byte_budget;
  options.base_miner = kFamilies[family].base;
  options.algo = kFamilies[family].algo;
  return options;
}

/// Latency statistics taken per pass (or round), so the tail percentile
/// is fixed by the pass size and not by how many passes fit in the run;
/// the run reports the median over passes.
struct LatencySummary {
  std::vector<double> p50_ms;
  std::vector<double> tail_ms;
  Tail rule;

  void AddPass(const std::vector<double>& latencies_ms) {
    rule = TailOf(latencies_ms);
    p50_ms.push_back(Median(latencies_ms));
    tail_ms.push_back(rule.value);
  }
};

void SetLatencyMetrics(RunOutcome* out, const LatencySummary& s) {
  out->metrics.Set("req_p50_ms", Median(s.p50_ms));
  out->metrics.Set("req_tail_ms", Median(s.tail_ms));
  std::ostringstream line;
  line << "req_tail_ms is p" << s.rule.percentile << " of " << s.rule.samples
       << " samples per pass (" << s.rule.beyond << " beyond"
       << (s.rule.qualified ? "" : "; too few samples for the >=10 rule")
       << "), median over " << s.tail_ms.size() << " passes";
  out->report.push_back(line.str());
}

void PrintMetricLines(RunOutcome* out, const MetricValues& values) {
  for (const auto& [name, value] : values.values()) {
    const MetricSpec* spec = FindMetric(name);
    char buf[256];
    std::snprintf(buf, sizeof(buf), "  %-36s %16.6g %-9s %s", name.c_str(),
                  value, spec != nullptr ? spec->unit : "?",
                  spec != nullptr && !spec->end_to_end ? spec->moves : "");
    out->report.push_back(buf);
  }
}

/// Per-layer metrics common to every workload, from a replay's totals.
void SetLayerMetrics(const LayerTotals& t, MetricValues* m) {
  for (size_t f = 0; f < kNumFamilies; ++f) {
    const std::string tag = kFamilies[f].tag;
    m->Set("fpm.mine_s." + tag, t.mine_s[f]);
    m->Set("fpm.items_scanned." + tag,
           static_cast<double>(t.items_scanned[f]));
    m->Set("fpm.projections_built." + tag,
           static_cast<double>(t.projections_built[f]));
  }
  m->Set("core.compress_s", t.compress_s);
  m->Set("core.compress_ratio",
         t.original_items == 0 ? 0.0
                               : static_cast<double>(t.stored_items) /
                                     static_cast<double>(t.original_items));
  const uint64_t tuples = t.covered_tuples + t.uncovered_tuples;
  m->Set("core.covered_share",
         tuples == 0 ? 0.0
                     : static_cast<double>(t.covered_tuples) /
                           static_cast<double>(tuples));
  m->Set("core.groups", static_cast<double>(t.groups));
  for (size_t f = 0; f < kNumFamilies; ++f) {
    const std::string tag = kFamilies[f].tag;
    m->Set("core.recycle_mine_s." + tag, t.recycle_mine_s[f]);
    m->Set("core.recycle_items_scanned." + tag,
           static_cast<double>(t.recycle_items_scanned[f]));
    m->Set("core.recycle_projections_built." + tag,
           static_cast<double>(t.recycle_projections_built[f]));
  }
  m->Set("core.select_seed_s", t.select_seed_s);
  m->Set("serve.store_put_s", t.store_put_s);
  m->Set("serve.store_get_s", t.store_get_s);
  m->Set("serve.exact_s", t.exact_s);
  m->Set("serve.filter_down_s", t.filter_down_s);
  m->Set("serve.filter_scanned_per_returned",
         t.filter_returned == 0 ? 0.0
                                : static_cast<double>(t.filter_scanned) /
                                      static_cast<double>(t.filter_returned));
  m->Set("serve.unattributed_s", t.served_s - t.replayed_s);
}

void SetRouteShares(const std::vector<RequestRecord>& records,
                    MetricValues* m) {
  double exact = 0, filter = 0, recycle = 0, scratch = 0, coalesced = 0,
         failed = 0;
  for (const RequestRecord& r : records) {
    exact += r.route == "exact";
    filter += r.route == "filter-down";
    recycle += r.route == "recycle";
    scratch += r.route == "none";
    coalesced += r.coalesced;
    failed += r.outcome != "ok";
  }
  const double n = records.empty() ? 1.0 : static_cast<double>(records.size());
  m->Set("serve.route_share.exact", exact / n);
  m->Set("serve.route_share.filter_down", filter / n);
  m->Set("serve.route_share.recycle", recycle / n);
  m->Set("serve.route_share.scratch", scratch / n);
  m->Set("serve.coalesced_share", coalesced / n);
  m->Set("fail_share", failed / n);
}

std::string ReplaySumLine(const LayerTotals& t) {
  const double residual = t.served_s - t.replayed_s;
  std::ostringstream line;
  line << "layer split: replayed " << t.replayed_s << " s vs ServeStats "
       << t.served_s << " s; unattributed " << residual << " s ("
       << (t.served_s > 0 ? 100.0 * residual / t.served_s : 0.0) << "%)";
  return line.str();
}

/// Serial workloads: the replayed layer sum must come within
/// kSerialReplayTolerance of the service's own seconds.
void CheckReplaySum(const LayerTotals& t, RunOutcome* out) {
  const std::string line =
      ReplaySumLine(t) + ", tolerance +-" +
      Fmt("%.0f", 100.0 * kSerialReplayTolerance) + "%";
  out->report.push_back(line);
  if (std::abs(t.served_s - t.replayed_s) >
      kSerialReplayTolerance * t.served_s) {
    out->Fail("replayed layer sum outside tolerance: " + line);
  }
}

/// daemon_mix: reported, not asserted. Its live requests contend for four
/// cores and see a store whose contents depend on their interleaving; a
/// serial replay reproduces the routes but neither of those, so the
/// residual measures contention rather than a missing layer.
void ReportReplaySum(const LayerTotals& t, RunOutcome* out) {
  out->report.push_back(ReplaySumLine(t) +
                        " (concurrent workload: not asserted)");
}

// --- relax_session and cold_scratch -----------------------------------------

struct Corpus {
  std::vector<BenchDataset> datasets;
  std::vector<gg::fpm::PatternSet> lowest;  ///< Reference sets.
  std::vector<ReferenceAnswers> reference;
};

struct PassStats {
  double wall_s = 0.0;
  size_t store_bytes_max = 0;
  uint64_t evictions = 0;
  uint64_t image_evictions = 0;
};

/// The traced pass's layer split. Each request is replayed right after it
/// completed, against a replay store that has seen the same puts as the
/// service's: live and replayed seconds then come from the same stretch of
/// machine time, which on a shared host can drift by a third between
/// passes. Recycled requests are also mined from scratch by the family's
/// own miner, the Phase II base of core.recycle_vs_scratch.
class SessionSplit {
 public:
  SessionSplit(const Corpus& corpus, bool cold, SpanRecorder* spans,
               RunOutcome* out)
      : corpus_(corpus), cold_(cold), spans_(spans), out_(out) {}

  void BeginSession(size_t d, size_t f, uint64_t session_span) {
    d_ = d;
    f_ = f;
    session_span_ = session_span;
    recycle_s_ = 0.0;
    scratch_s_ = 0.0;
    replay_.emplace(
        corpus_.datasets[d], f, cold_ ? kColdStoreBytes : kRelaxStoreBytes,
        [this](uint64_t s) { return Restrict(corpus_.lowest[d_], s); },
        spans_, &totals);
  }

  void AfterRequest(const RequestRecord& rec) {
    const BenchDataset& ds = corpus_.datasets[d_];
    const double before = totals.recycle_mine_s[f_];
    const std::string error = replay_->Replay(rec, session_span_, true);
    if (!error.empty()) {
      out_->Fail("replay " + ds.name + "/" + kFamilies[f_].tag + " " +
                 std::to_string(rec.support) + ": " + error);
    }
    if (rec.route != "recycle") return;
    recycle_s_ += totals.recycle_mine_s[f_] - before;
    auto miner = gg::fpm::CreateMiner(kFamilies[f_].base);
    gg::fpm::MineRequest request = gg::fpm::MineRequest::At(rec.support);
    request.threads = 1;
    const Clock::time_point t0 = Clock::now();
    gg::Result<gg::fpm::MineResult> base = miner->Mine(ds.db, request);
    const Clock::time_point t1 = Clock::now();
    spans_->Add("scratch_base", session_span_, rec.id, t0, t1);
    scratch_s_ += Seconds(t0, t1);
    if (!base.ok()) out_->Fail("scratch base: " + base.status().ToString());
  }

  void EndSession() {
    replay_.reset();
    scratch_base_s[f_] += scratch_s_;
    recycle_pairs_s[f_] += recycle_s_;
    if (cold_) return;
    out_->report.push_back(
        "recycle_vs_scratch " + corpus_.datasets[d_].name + "/" +
        kFamilies[f_].tag + " = " +
        Fmt("%.3f", scratch_s_ > 0 ? recycle_s_ / scratch_s_ : 0.0) +
        " (recycle mine " + Fmt("%.4f", recycle_s_) + " s / scratch " +
        Fmt("%.4f", scratch_s_) + " s over the recycled supports)");
  }

  LayerTotals totals;
  double scratch_base_s[kNumFamilies] = {};
  double recycle_pairs_s[kNumFamilies] = {};

 private:
  const Corpus& corpus_;
  const bool cold_;
  SpanRecorder* spans_;
  RunOutcome* out_;
  size_t d_ = 0;
  size_t f_ = 0;
  uint64_t session_span_ = 0;
  double recycle_s_ = 0.0;
  double scratch_s_ = 0.0;
  std::optional<LayerReplay> replay_;
};

/// One pass: 4 datasets x 3 families, one fresh service each, one client
/// in a closed loop. A pass's wall time is the sum of its request
/// latencies; digests, route checks and (traced) the layer split run
/// between requests or after each session, off the clock. `split` is null
/// outside the traced pass.
PassStats RunSessionPass(const Corpus& corpus, bool cold, SpanRecorder* spans,
                         SessionSplit* split, uint64_t* next_id,
                         std::vector<RequestRecord>* records,
                         std::vector<double>* latencies_ms, RunOutcome* out) {
  PassStats pass;
  for (size_t d = 0; d < corpus.datasets.size(); ++d) {
    const BenchDataset& ds = corpus.datasets[d];
    for (size_t f = 0; f < kNumFamilies; ++f) {
      gg::serve::MiningService service(
          ds.db, ds.name,
          ServiceOptionsFor(f, cold ? kColdStoreBytes : kRelaxStoreBytes));
      const uint64_t session_span = spans->Begin(
          "session:" + ds.name + "/" + kFamilies[f].tag, 0, 0);
      if (split != nullptr) split->BeginSession(d, f, session_span);
      std::vector<RequestRecord> session;
      std::vector<gg::fpm::PatternSet> answers;
      for (const uint64_t support : ds.supports) {
        gg::fpm::MineRequest request = gg::fpm::MineRequest::At(support);
        request.threads = 1;
        gg::serve::ServeStats stats;
        const Clock::time_point t0 = Clock::now();
        gg::Result<gg::fpm::MineResult> result = service.Mine(request, &stats);
        const Clock::time_point t1 = Clock::now();
        RequestRecord rec;
        rec.id = ++*next_id;
        rec.dataset = d;
        rec.family = f;
        rec.support = support;
        rec.route = gg::core::SeedRouteName(stats.route);
        rec.seed_support = stats.seed_support;
        rec.coalesced = stats.coalesced;
        rec.outcome = stats.outcome;
        rec.latency_s = Seconds(t0, t1);
        rec.server_s = stats.seconds;
        rec.patterns = stats.patterns_returned;
        rec.evictions = stats.evictions + stats.image_evictions;
        spans->Add("request", session_span, rec.id, t0, t1);
        pass.wall_s += rec.latency_s;
        if (split != nullptr) split->AfterRequest(rec);
        answers.push_back(result.ok() ? std::move(result->patterns)
                                      : gg::fpm::PatternSet());
        session.push_back(std::move(rec));
      }
      if (split != nullptr) split->EndSession();
      spans->End(session_span);

      // Route assertion and answer oracle, off the clock.
      for (size_t i = 0; i < session.size(); ++i) {
        RequestRecord& rec = session[i];
        const char* expected = (cold || i == 0) ? "none" : "recycle";
        rec.digest = DigestOf(answers[i]);
        std::string error;
        if (rec.outcome != "ok") {
          error = "outcome " + rec.outcome;
        } else if (rec.route != expected) {
          error = "route " + rec.route + ", expected " + expected;
        } else if (rec.evictions != 0) {
          error = std::to_string(rec.evictions) + " evictions";
        } else if (!(rec.digest ==
                     corpus.reference[d].DigestAt(rec.support))) {
          error = "digest " + rec.digest.Hex() + " != reference " +
                  corpus.reference[d].DigestAt(rec.support).Hex();
        }
        ++out->attempted;
        if (!error.empty()) {
          ++out->failed;
          out->Fail(ds.name + "/" + kFamilies[f].tag + " support " +
                    std::to_string(rec.support) + ": " + error);
        }
        latencies_ms->push_back(rec.latency_s * 1e3);
      }
      const gg::serve::StoreStats st = service.store().stats();
      pass.store_bytes_max = std::max(pass.store_bytes_max, st.bytes_in_use);
      pass.evictions += st.evictions;
      pass.image_evictions += st.image_evictions;
      if (cold && st.entries != 0) {
        out->Fail(ds.name + ": cold store holds " +
                  std::to_string(st.entries) + " entries");
      }
      if (!cold && (st.evictions != 0 || st.image_evictions != 0)) {
        out->Fail(ds.name + ": relax store evicted");
      }
      for (RequestRecord& rec : session) records->push_back(std::move(rec));
    }
  }
  return pass;
}

/// Generates the datasets and constructs the pass's services kSetups times.
/// Returns the last corpus's datasets; fills the setup/generate samples.
gg::Status SetUpSessions(const RunOptions& options, Corpus* corpus,
                         std::vector<double>* setup_s,
                         std::vector<double>* generate_s) {
  for (int k = 0; k < kSetups; ++k) {
    const Clock::time_point t0 = Clock::now();
    std::vector<BenchDataset> datasets;
    for (const gg::data::DatasetId id : gg::data::kAllDatasets) {
      GOGREEN_ASSIGN_OR_RETURN(BenchDataset ds,
                               MakeBenchDataset(id, options.size,
                                                options.seed));
      datasets.push_back(std::move(ds));
    }
    const Clock::time_point t1 = Clock::now();
    for (const BenchDataset& ds : datasets) {
      for (size_t f = 0; f < kNumFamilies; ++f) {
        gg::serve::MiningService service(
            ds.db, ds.name, ServiceOptionsFor(f, kRelaxStoreBytes));
      }
    }
    setup_s->push_back(Seconds(t0, Clock::now()));
    generate_s->push_back(Seconds(t0, t1));
    corpus->datasets = std::move(datasets);
  }
  return gg::Status::OK();
}

gg::Status BuildReference(Corpus* corpus) {
  for (const BenchDataset& ds : corpus->datasets) {
    const uint64_t lowest =
        *std::min_element(ds.supports.begin(), ds.supports.end());
    GOGREEN_ASSIGN_OR_RETURN(gg::fpm::PatternSet set,
                             ScratchReference(ds, lowest));
    corpus->reference.emplace_back(set);
    corpus->lowest.push_back(std::move(set));
  }
  return gg::Status::OK();
}

/// Combined digest of the answers a pass returned, so relax_session and
/// cold_scratch on one seed can be compared by eye.
std::string AnswersDigest(const std::vector<RequestRecord>& records) {
  Digest all;
  for (const RequestRecord& r : records) {
    all.Add(r.digest.sum ^ (r.digest.mix * 31) ^ r.digest.count);
  }
  return all.Hex();
}

RunOutcome RunSessions(const RunOptions& options, bool cold) {
  RunOutcome out;
  SpanRecorder spans;
  Corpus corpus;
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  if (gg::Status st = SetUpSessions(options, &corpus, &setup_s, &generate_s);
      !st.ok()) {
    out.Fail("setup: " + st.ToString());
    return out;
  }
  if (gg::Status st = BuildReference(&corpus); !st.ok()) {
    out.Fail("reference: " + st.ToString());
    return out;
  }
  size_t queries = 0;
  for (const BenchDataset& ds : corpus.datasets) {
    queries += ds.supports.size() * kNumFamilies;
    out.report.push_back(ds.name + ": " +
                         std::to_string(ds.db.NumTransactions()) +
                         " transactions, " +
                         std::to_string(ds.supports.size()) + " supports");
  }
  uint64_t next_id = 0;
  std::vector<double> latencies_ms;
  std::vector<RequestRecord> records;

  if (!options.trace) {
    std::vector<double> walls;
    LatencySummary latency;
    const int passes = PassesFor(
        options.seconds, cold ? kColdPassSeconds : kRelaxPassSeconds);
    for (int p = 0; p < passes; ++p) {
      records.clear();
      latencies_ms.clear();
      const PassStats pass =
          RunSessionPass(corpus, cold, &spans, nullptr, &next_id, &records,
                         &latencies_ms, &out);
      walls.push_back(pass.wall_s);
      latency.AddPass(latencies_ms);
    }
    const double wall = Median(walls);
    out.report.push_back(Samples("pass wall_s:", walls));
    out.report.push_back(Samples("setup_s samples:", setup_s));
    out.metrics.Set("setup_s", Median(setup_s));
    out.metrics.Set("wall_s", wall);
    SetLatencyMetrics(&out, latency);
    out.metrics.Set("throughput_rps", static_cast<double>(queries) / wall);
    out.metrics.Set("peak_rss_mb", PeakRssMb());
    out.report.push_back(std::to_string(walls.size()) + " passes of " +
                         std::to_string(queries) + " requests");
    out.report.push_back("answers digest " + AnswersDigest(records));
    return out;
  }

  // Traced run: a warm-up pass, the traced pass with its layer split, and
  // an untraced pass (the overhead baseline).
  RunSessionPass(corpus, cold, &spans, nullptr, &next_id, &records,
                 &latencies_ms, &out);
  records.clear();
  spans.set_enabled(true);
  SessionSplit split(corpus, cold, &spans, &out);
  const PassStats traced = RunSessionPass(corpus, cold, &spans, &split,
                                          &next_id, &records, &latencies_ms,
                                          &out);
  spans.set_enabled(false);
  std::vector<RequestRecord> plain_records;
  const PassStats plain =
      RunSessionPass(corpus, cold, &spans, nullptr, &next_id, &plain_records,
                     &latencies_ms, &out);
  const LayerTotals& totals = split.totals;
  CheckReplaySum(totals, &out);

  MetricValues& m = out.metrics;
  m.Set("data.generate_s", Median(generate_s));
  SetLayerMetrics(totals, &m);
  for (size_t f = 0; f < kNumFamilies; ++f) {
    m.Set(std::string("core.recycle_vs_scratch.") + kFamilies[f].tag,
          split.scratch_base_s[f] > 0
              ? split.recycle_pairs_s[f] / split.scratch_base_s[f]
              : 0.0);
  }
  SetRouteShares(records, &m);
  m.Set("serve.evictions", static_cast<double>(traced.evictions));
  m.Set("serve.image_evictions", static_cast<double>(traced.image_evictions));
  m.Set("serve.store_mb",
        static_cast<double>(traced.store_bytes_max) / (1024.0 * 1024.0));
  // In-process workloads have no admission queue and no wire.
  m.Set("serve.queue_wait_ms.p50", 0.0);
  m.Set("serve.queue_wait_ms.tail", 0.0);
  m.Set("serve.shed", 0.0);
  m.Set("serve.degraded", 0.0);
  m.Set("net.encode_s", 0.0);
  m.Set("net.decode_s", 0.0);
  m.Set("net.overhead_ms.p50", 0.0);
  m.Set("net.frame_bytes", 0.0);
  m.Set("trace.overhead_s", traced.wall_s - plain.wall_s);
  out.report.push_back("traced wall_s " + Fmt("%.4f", traced.wall_s) +
                       ", untraced wall_s " + Fmt("%.4f", plain.wall_s));
  out.report.push_back("answers digest " + AnswersDigest(records));
  WriteSpans(options, spans, &out);
  return out;
}

// --- daemon_mix --------------------------------------------------------------

/// Supports the store is pre-warmed with (fractions of |DB|).
constexpr double kDaemonGrid[] = {0.05, 0.045, 0.04, 0.035, 0.03};
constexpr int kClients = 4;
constexpr size_t kMiningSlots = 2;
/// Requests per schedule window that share one fresh mining support.
constexpr int kMineWindow = 8;

enum RequestClass { kRepeat = 0, kBetween = 1, kFresh = 2 };
const char* const kClassNames[] = {"repeat", "between", "fresh"};

struct Scheduled {
  RequestClass cls;
  uint64_t support;
};

struct DaemonPlan {
  std::vector<uint64_t> grid;  ///< Absolute supports, descending.
  std::vector<std::vector<Scheduled>> schedule;  ///< Per client.
  uint64_t lowest = 0;         ///< Lowest support any request asks.
  size_t byte_budget = 0;
};

/// Each client's fixed schedule: half repeats of a cached support, 40% a
/// support between two cached ones, 10% a fresh support below the grid.
/// Fresh supports step down one per window of kMineWindow schedule slots,
/// shared by every client, so concurrent clients ask identical mines.
DaemonPlan MakeDaemonPlan(const BenchDataset& ds, uint64_t seed,
                          int requests_per_client) {
  DaemonPlan plan;
  const size_t n = ds.db.NumTransactions();
  for (const double xi : kDaemonGrid) {
    plan.grid.push_back(gg::fpm::AbsoluteSupport(xi, n));
  }
  const uint64_t top = plan.grid.front();
  const uint64_t bottom = plan.grid.back();
  std::vector<uint64_t> between;
  for (uint64_t s = bottom + 1; s < top; ++s) {
    if (std::find(plan.grid.begin(), plan.grid.end(), s) == plan.grid.end()) {
      between.push_back(s);
    }
  }
  plan.lowest = bottom;
  for (int c = 0; c < kClients; ++c) {
    uint64_t state = seed * 0x9e3779b97f4a7c15ULL + 0x1234567ULL * (c + 1);
    auto next = [&state]() {
      uint64_t x = (state += 0x9e3779b97f4a7c15ULL);
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      return x ^ (x >> 31);
    };
    std::vector<Scheduled> schedule;
    for (int k = 0; k < requests_per_client; ++k) {
      const uint64_t draw = next() % 100;
      Scheduled item{kRepeat, 0};
      if (draw < 50) {
        item = {kRepeat, plan.grid[next() % plan.grid.size()]};
      } else if (draw < 90 && !between.empty()) {
        item = {kBetween, between[next() % between.size()]};
      } else {
        const uint64_t step = 1 + static_cast<uint64_t>(k / kMineWindow);
        item = {kFresh, bottom > step ? bottom - step : 1};
      }
      plan.lowest = std::min(plan.lowest, item.support);
      schedule.push_back(item);
    }
    plan.schedule.push_back(std::move(schedule));
  }
  return plan;
}

struct RoundStats {
  double setup_s = 0.0;
  double wall_s = 0.0;
  uint64_t completed = 0;
  gg::serve::StoreStats store;
};

/// The live round: build the daemon, pre-warm, connect, run the schedule.
/// Returns false (with `out` failed) when the daemon cannot be brought up.
bool RunDaemonRound(const RunOptions& options, const DaemonPlan& plan,
                    const std::vector<gg::fpm::PatternSet>& grid_sets,
                    uint64_t* next_id, RoundStats* round,
                    std::vector<RequestRecord>* records, RunOutcome* out) {
  const Clock::time_point t_setup = Clock::now();
  gg::Result<BenchDataset> ds = MakeBenchDataset(
      gg::data::DatasetId::kWeatherSub, options.size, options.seed);
  if (!ds.ok()) {
    out->Fail("dataset: " + ds.status().ToString());
    return false;
  }
  const uint64_t n = ds->db.NumTransactions();
  const std::string name = ds->name;
  gg::serve::MiningService service(std::move(ds->db), name,
                                   ServiceOptionsFor(0, plan.byte_budget));
  for (size_t g = 0; g < plan.grid.size(); ++g) {
    service.store().Put({name, "", plan.grid[g]}, grid_sets[g], n);
  }
  gg::serve::AdmissionOptions admission_options;
  admission_options.max_concurrent = kMiningSlots;
  admission_options.max_queue = 16;
  gg::serve::AdmissionController admission(service, admission_options);
  gg::net::ServerOptions server_options;
  server_options.unix_path =
      "perfbench-" + std::to_string(::getpid()) + ".sock";
  server_options.max_connections = kClients;
  gg::net::Server server(service, &admission, server_options);
  if (gg::Status st = server.Start(); !st.ok()) {
    out->Fail("server start: " + st.ToString());
    return false;
  }
  std::vector<gg::net::Client> clients;
  for (int c = 0; c < kClients; ++c) {
    gg::Result<gg::net::Client> client =
        gg::net::Client::ConnectUnix(server_options.unix_path);
    if (!client.ok()) {
      out->Fail("connect: " + client.status().ToString());
      return false;
    }
    clients.push_back(std::move(*client));
  }
  round->setup_s = Seconds(t_setup, Clock::now());

  std::vector<std::vector<RequestRecord>> per_client(kClients);
  std::latch go(1);
  std::vector<std::thread> threads;
  const uint64_t first_id = *next_id;
  Clock::time_point start;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      go.wait();
      const std::vector<Scheduled>& schedule = plan.schedule[c];
      std::vector<RequestRecord>& mine = per_client[c];
      mine.reserve(schedule.size());
      for (size_t k = 0; k < schedule.size(); ++k) {
        gg::net::WireRequest request;
        request.verb = gg::net::Verb::kMine;
        request.support = static_cast<double>(schedule[k].support);
        request.threads = 1;
        const Clock::time_point t0 = Clock::now();
        gg::Result<gg::net::WireResponse> response = clients[c].Call(request);
        const Clock::time_point t1 = Clock::now();
        RequestRecord rec;
        rec.id = first_id + static_cast<uint64_t>(c) * schedule.size() + k + 1;
        rec.client = c;
        rec.request_class = schedule[k].cls;
        rec.support = schedule[k].support;
        rec.latency_s = Seconds(t0, t1);
        rec.start = t0;
        rec.end = t1;
        if (!response.ok()) {
          rec.outcome = "error:" + response.status().ToString();
        } else {
          rec.route = response->route;
          rec.seed_support = response->seed_support;
          rec.coalesced = response->coalesced;
          rec.outcome = gg::OutcomeLabel(response->outcome,
                                         response->error_code);
          rec.server_s = response->seconds;
          rec.patterns = response->patterns;
          rec.request_json = request.ToJson();
          rec.response_json = response->ToJson();
        }
        mine.push_back(std::move(rec));
      }
    });
  }
  start = Clock::now();
  go.count_down();
  for (std::thread& t : threads) t.join();
  Clock::time_point end = start;
  for (const auto& client_records : per_client) {
    for (const RequestRecord& r : client_records) end = std::max(end, r.end);
  }
  round->wall_s = Seconds(start, end);
  *next_id = first_id + kClients * plan.schedule[0].size();
  clients.clear();
  server.Stop();
  round->store = service.store().stats();
  for (auto& client_records : per_client) {
    for (RequestRecord& r : client_records) {
      round->completed += r.outcome == "ok";
      records->push_back(std::move(r));
    }
  }
  return true;
}

/// Route assertions and the count oracle for one round's records.
void CheckDaemonRound(const DaemonPlan& plan, const ReferenceAnswers& ref,
                      const RoundStats& round,
                      const std::vector<RequestRecord>& records,
                      RunOutcome* out) {
  size_t cheap = 0;
  size_t recycled = 0;
  for (const RequestRecord& r : records) {
    std::string error;
    // Every route is allowed, each only with its own seed relation: the
    // pre-warmed store always offers a seed, but a concurrent put can evict
    // the chosen seed before it is read, and the service then mines from
    // scratch (`none`, seed support 0).
    if (r.outcome != "ok") {
      error = "outcome " + r.outcome;
    } else if (r.coalesced && r.route != "exact") {
      error = "coalesced request on route " + r.route;
    } else if ((r.route == "exact" && r.seed_support != r.support) ||
               (r.route == "filter-down" && r.seed_support >= r.support) ||
               (r.route == "recycle" && r.seed_support <= r.support) ||
               (r.route == "none" && r.seed_support != 0)) {
      error = "route " + r.route + " with seed support " +
              std::to_string(r.seed_support);
    } else if (r.patterns != ref.CountAt(r.support)) {
      error = std::to_string(r.patterns) + " patterns, reference " +
              std::to_string(ref.CountAt(r.support));
    }
    ++out->attempted;
    if (!error.empty()) {
      ++out->failed;
      out->Fail(std::string("daemon ") + kClassNames[r.request_class] +
                " support " + std::to_string(r.support) + ": " + error);
    }
    cheap += r.route == "exact" || r.route == "filter-down";
    recycled += r.route == "recycle";
  }
  if (2 * cheap < records.size()) {
    out->Fail("daemon_mix: exact + filter-down served " +
              std::to_string(cheap) + " of " +
              std::to_string(records.size()) + " requests (expected most)");
  }
  if (recycled == 0) out->Fail("daemon_mix: no request recycled");
  if (round.store.evictions == 0) {
    out->Fail("daemon_mix: store budget " + std::to_string(plan.byte_budget) +
              " B never evicted (expected below the working set)");
  }
  if (round.store.bytes_in_use > plan.byte_budget) {
    out->Fail("daemon_mix: store above its budget");
  }
}

/// Histogram delta of `serve.queue_wait` between two bucket snapshots.
gg::obs::MetricsSnapshot::HistogramData QueueWaitDelta(
    const gg::obs::MetricsSnapshot& before,
    const gg::obs::MetricsSnapshot& after) {
  gg::obs::MetricsSnapshot::HistogramData delta;
  for (const auto& h : after.histograms) {
    if (h.name != "serve.queue_wait") continue;
    delta = h;
    for (const auto& b : before.histograms) {
      if (b.name != h.name) continue;
      for (size_t i = 0; i < delta.buckets.size(); ++i) {
        delta.buckets[i] -= b.buckets[i];
      }
      delta.count -= b.count;
      delta.sum -= b.sum;
    }
  }
  return delta;
}

RunOutcome RunDaemon(const RunOptions& options) {
  RunOutcome out;
  const int requests_per_client = options.size == Size::kTiny ? 40 : 150;
  const Clock::time_point t_generate = Clock::now();
  gg::Result<BenchDataset> ds = MakeBenchDataset(
      gg::data::DatasetId::kWeatherSub, options.size, options.seed);
  const double generate_s = Seconds(t_generate, Clock::now());
  if (!ds.ok()) {
    out.Fail("dataset: " + ds.status().ToString());
    return out;
  }
  DaemonPlan plan = MakeDaemonPlan(*ds, options.seed, requests_per_client);
  gg::Result<gg::fpm::PatternSet> lowest = ScratchReference(*ds, plan.lowest);
  if (!lowest.ok()) {
    out.Fail("reference: " + lowest.status().ToString());
    return out;
  }
  const ReferenceAnswers ref(*lowest);
  std::vector<gg::fpm::PatternSet> grid_sets;
  size_t grid_bytes = 0;
  size_t largest = 0;
  for (const uint64_t s : plan.grid) {
    grid_sets.push_back(Restrict(*lowest, s));
    const size_t cost = gg::serve::PatternSetCost(grid_sets.back());
    grid_bytes += cost;
    largest = std::max(largest, cost);
  }
  // Below the working set: the grid plus room for one more answer the
  // size of the largest grid entry. Answers from filter-down and fresh
  // mines push older entries out.
  plan.byte_budget = grid_bytes + largest;
  out.report.push_back(
      ds->name + ": " + std::to_string(ds->db.NumTransactions()) +
      " transactions; grid " + std::to_string(plan.grid.size()) +
      " supports; store budget " + std::to_string(plan.byte_budget) +
      " B; " + std::to_string(kClients) + " clients x " +
      std::to_string(requests_per_client) + " requests; " +
      std::to_string(kMiningSlots) + " mining slots");

  uint64_t next_id = 0;
  std::vector<double> setups;
  std::vector<double> walls;
  std::vector<double> throughputs;
  LatencySummary latency;
  auto run_round = [&](std::vector<RequestRecord>* records) {
    RoundStats round;
    if (!RunDaemonRound(options, plan, grid_sets, &next_id, &round, records,
                        &out)) {
      return std::optional<RoundStats>();
    }
    CheckDaemonRound(plan, ref, round, *records, &out);
    setups.push_back(round.setup_s);
    walls.push_back(round.wall_s);
    throughputs.push_back(static_cast<double>(round.completed) /
                          round.wall_s);
    std::vector<double> latencies_ms;
    for (const RequestRecord& r : *records) {
      latencies_ms.push_back(r.latency_s * 1e3);
    }
    latency.AddPass(latencies_ms);
    return std::optional<RoundStats>(round);
  };

  if (!options.trace) {
    const int rounds = std::max(
        kMinRounds, PassesFor(options.seconds, kDaemonRoundSeconds));
    for (int r = 0; r < rounds; ++r) {
      std::vector<RequestRecord> records;
      if (!run_round(&records)) return out;
    }
    out.metrics.Set("setup_s", Median(setups));
    out.metrics.Set("wall_s", Median(walls));
    SetLatencyMetrics(&out, latency);
    out.metrics.Set("throughput_rps", Median(throughputs));
    out.metrics.Set("peak_rss_mb", PeakRssMb());
    out.report.push_back(Samples("round wall_s:", walls));
    out.report.push_back(Samples("setup_s samples:", setups));
    return out;
  }

  // Traced run: a warm-up round, the traced round, an untraced round (the
  // overhead baseline), then the replay. Daemon spans are recorded from
  // the client threads' timestamps once the traced round has ended.
  std::vector<RequestRecord> warmup_records;
  if (!run_round(&warmup_records)) return out;
  const gg::obs::MetricsSnapshot before =
      gg::obs::MetricRegistry::Global().Snapshot();
  std::vector<RequestRecord> records;
  const std::optional<RoundStats> traced = run_round(&records);
  if (!traced) return out;
  const gg::obs::MetricsSnapshot after =
      gg::obs::MetricRegistry::Global().Snapshot();
  std::vector<RequestRecord> plain_records;
  const std::optional<RoundStats> plain = run_round(&plain_records);
  if (!plain) return out;

  SpanRecorder spans;
  spans.set_enabled(true);
  std::vector<uint64_t> client_spans;
  for (int c = 0; c < kClients; ++c) {
    client_spans.push_back(
        spans.Begin("client:" + std::to_string(c), 0, 0));
  }
  for (const RequestRecord& r : records) {
    spans.Add("request", client_spans[r.client], r.id, r.start, r.end);
  }
  for (const uint64_t id : client_spans) spans.End(id);

  std::sort(records.begin(), records.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.end < b.end;
            });
  LayerTotals totals;
  double encode_s = 0.0;
  double decode_s = 0.0;
  double frame_bytes = 0.0;
  std::vector<double> overhead_ms;
  const uint64_t replay_root = spans.Begin("layer_replay", 0, 0);
  LayerReplay replay(
      *ds, 0, plan.byte_budget,
      [&lowest](uint64_t s) { return Restrict(*lowest, s); }, &spans,
      &totals);
  for (size_t g = 0; g < plan.grid.size(); ++g) {
    replay.Prewarm(plan.grid[g], grid_sets[g]);
  }
  for (const RequestRecord& r : records) {
    if (r.outcome != "ok") continue;
    const std::string error = replay.Replay(r, replay_root, false);
    if (!error.empty()) {
      out.Fail("replay support " + std::to_string(r.support) + ": " + error);
    }
    // The client's codec calls on this request and its response.
    gg::Result<gg::net::WireRequest> request =
        gg::net::WireRequest::FromJson(r.request_json);
    gg::Result<std::string> response_frame =
        gg::net::EncodeFrame(r.response_json);
    if (!request.ok() || !response_frame.ok()) {
      out.Fail("codec replay: cannot re-encode a recorded message");
      continue;
    }
    Clock::time_point t0 = Clock::now();
    gg::Result<std::string> request_frame =
        gg::net::EncodeFrame(request->ToJson());
    Clock::time_point t1 = Clock::now();
    encode_s += Seconds(t0, t1);
    spans.Add("net.encode", replay_root, r.id, t0, t1);
    std::string payload;
    size_t consumed = 0;
    t0 = Clock::now();
    gg::Result<bool> framed =
        gg::net::TryDecodeFrame(*response_frame, &payload, &consumed);
    gg::Result<gg::net::WireResponse> decoded =
        gg::net::WireResponse::FromJson(payload);
    t1 = Clock::now();
    decode_s += Seconds(t0, t1);
    spans.Add("net.decode", replay_root, r.id, t0, t1);
    if (!request_frame.ok() || !framed.ok() || !*framed || !decoded.ok()) {
      out.Fail("codec replay failed");
      continue;
    }
    frame_bytes += static_cast<double>(request_frame->size() + consumed);
    overhead_ms.push_back((r.latency_s - r.server_s) * 1e3);
  }
  spans.End(replay_root);
  ReportReplaySum(totals, &out);
  std::ostringstream divergence;
  divergence << "replay: " << totals.route_divergences
             << " requests where a serial replay would pick another seed, "
             << totals.reseeded << " seeds re-materialized";
  out.report.push_back(divergence.str());

  MetricValues& m = out.metrics;
  m.Set("data.generate_s", generate_s);
  SetLayerMetrics(totals, &m);
  for (size_t f = 0; f < kNumFamilies; ++f) {
    m.Set(std::string("core.recycle_vs_scratch.") + kFamilies[f].tag, 0.0);
  }
  SetRouteShares(records, &m);
  m.Set("serve.evictions", static_cast<double>(traced->store.evictions));
  m.Set("serve.image_evictions",
        static_cast<double>(traced->store.image_evictions));
  m.Set("serve.store_mb", static_cast<double>(traced->store.bytes_in_use) /
                              (1024.0 * 1024.0));
  const gg::obs::MetricsSnapshot::HistogramData wait =
      QueueWaitDelta(before, after);
  const double wait_percentile = TailPercentile(wait.count);
  m.Set("serve.queue_wait_ms.p50", wait.Quantile(0.5) * 1e3);
  m.Set("serve.queue_wait_ms.tail",
        wait.Quantile(wait_percentile / 100.0) * 1e3);
  out.report.push_back("queue wait: " + std::to_string(wait.count) +
                       " queued requests; tail is p" +
                       Fmt("%g", wait_percentile));
  m.Set("serve.shed", static_cast<double>(after.CounterValue("serve.shed") -
                                          before.CounterValue("serve.shed")));
  m.Set("serve.degraded",
        static_cast<double>(after.CounterValue("serve.degraded") -
                            before.CounterValue("serve.degraded")));
  const double calls = overhead_ms.empty()
                           ? 1.0
                           : static_cast<double>(overhead_ms.size());
  m.Set("net.encode_s", encode_s);
  m.Set("net.decode_s", decode_s);
  m.Set("net.overhead_ms.p50", Median(overhead_ms));
  m.Set("net.frame_bytes", frame_bytes / calls);
  m.Set("trace.overhead_s", traced->wall_s - plain->wall_s);
  out.report.push_back("traced wall_s " + Fmt("%.4f", traced->wall_s) +
                       ", untraced wall_s " + Fmt("%.4f", plain->wall_s));
  WriteSpans(options, spans, &out);
  return out;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"relax_session",
                                                 "cold_scratch", "daemon_mix"};
  return names;
}

RunOutcome RunWorkload(const RunOptions& options) {
  RunOutcome out;
  if (options.workload == "relax_session") {
    out = RunSessions(options, /*cold=*/false);
  } else if (options.workload == "cold_scratch") {
    out = RunSessions(options, /*cold=*/true);
  } else if (options.workload == "daemon_mix") {
    out = RunDaemon(options);
  } else {
    out.Fail("unknown workload " + options.workload);
    return out;
  }
  if (!options.trace) {
    const double failed = out.attempted == 0
                              ? 0.0
                              : static_cast<double>(out.failed) /
                                    static_cast<double>(out.attempted);
    out.report.push_back("fail_share " + Fmt("%.6f", failed) +
                         " fraction (" + std::to_string(out.failed) + " of " +
                         std::to_string(out.attempted) + ")");
  }
  PrintMetricLines(&out, out.metrics);
  return out;
}

}  // namespace perfbench
