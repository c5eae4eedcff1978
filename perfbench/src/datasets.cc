#include "datasets.h"

#include "data/dense_gen.h"
#include "data/quest_gen.h"
#include "fpm/miner.h"

namespace perfbench {

using gogreen::data::DatasetId;

namespace {

/// The per-dataset seeds data::MakeDataset uses.
uint64_t BaseSeed(DatasetId id) {
  switch (id) {
    case DatasetId::kWeatherSub:
      return 20040301;
    case DatasetId::kForestSub:
      return 20040302;
    case DatasetId::kConnect4Sub:
      return 20040303;
    case DatasetId::kPumsbSub:
      return 20040304;
  }
  return 0;
}

/// splitmix64: a small, fully specified generator, so a seed gives the
/// same permutation on every platform.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t x = (state_ += 0x9e3779b97f4a7c15ULL);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }
  /// Uniform in [0, bound).
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

template <typename T>
void Shuffle(std::vector<T>* v, SplitMix* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
  }
}

/// The isomorphic copy of `db` for `seed`: items relabeled by a seeded
/// permutation, transactions in a seeded order.
gogreen::fpm::TransactionDb Relabel(const gogreen::fpm::TransactionDb& db,
                                    DatasetId id, uint64_t seed) {
  SplitMix rng(BaseSeed(id) * 0x9e3779b97f4a7c15ULL ^ seed);
  std::vector<gogreen::fpm::ItemId> label(db.ItemUniverseSize());
  for (size_t i = 0; i < label.size(); ++i) {
    label[i] = static_cast<gogreen::fpm::ItemId>(i);
  }
  Shuffle(&label, &rng);
  std::vector<size_t> order(db.NumTransactions());
  for (size_t t = 0; t < order.size(); ++t) order[t] = t;
  Shuffle(&order, &rng);
  gogreen::fpm::TransactionDb out;
  out.Reserve(db.NumTransactions(), db.TotalItems());
  std::vector<gogreen::fpm::ItemId> row;
  for (const size_t t : order) {
    row.clear();
    for (const gogreen::fpm::ItemId item : db.Transaction(t)) {
      row.push_back(label[item]);
    }
    out.AddTransaction(row);
  }
  return out;
}

/// Same attribute cardinalities as data::MakeDataset's Pumsb stand-in.
std::vector<uint32_t> PumsbCardinalities() {
  std::vector<uint32_t> card;
  uint32_t total = 0;
  for (size_t a = 0; a < 37; ++a) {
    const uint32_t c = 2 + static_cast<uint32_t>(a % 10);
    card.push_back(c);
    total += c;
  }
  const uint32_t remaining = 7117 - total;
  for (size_t a = 0; a < 37; ++a) {
    uint32_t c = remaining / 37;
    if (a < remaining % 37) ++c;
    card.push_back(c);
  }
  return card;
}

}  // namespace

size_t TransactionsAt(DatasetId id, Size size) {
  if (size == Size::kSmoke) {
    return gogreen::data::DatasetTransactions(id,
                                              gogreen::BenchScale::kSmoke);
  }
  switch (id) {
    case DatasetId::kWeatherSub:
    case DatasetId::kForestSub:
      return 800;
    case DatasetId::kConnect4Sub:
      return 500;
    case DatasetId::kPumsbSub:
      return 400;
  }
  return 0;
}

gogreen::Result<gogreen::fpm::TransactionDb> GenerateSeeded(
    DatasetId id, size_t n, uint64_t seed) {
  GOGREEN_ASSIGN_OR_RETURN(gogreen::fpm::TransactionDb db,
                           GenerateDefault(id, n));
  if (seed == kDefaultSeed) return db;
  return Relabel(db, id, seed);
}

gogreen::Result<gogreen::fpm::TransactionDb> GenerateDefault(DatasetId id,
                                                             size_t n) {
  // Configurations and seeds mirror data::MakeDataset
  // (src/data/datasets.cc).
  switch (id) {
    case DatasetId::kWeatherSub: {
      gogreen::data::QuestConfig cfg;
      cfg.num_transactions = n;
      cfg.avg_transaction_len = 15.0;
      cfg.num_items = 7959;
      cfg.num_patterns = 100;
      cfg.avg_pattern_len = 9.0;
      cfg.max_pattern_len = 10;
      cfg.correlation = 0.5;
      cfg.corruption_mean = 0.10;
      cfg.weight_skew = 2.5;
      cfg.noise_mean = 1.0;
      cfg.seed = BaseSeed(id);
      return gogreen::data::GenerateQuest(cfg);
    }
    case DatasetId::kForestSub: {
      gogreen::data::QuestConfig cfg;
      cfg.num_transactions = n;
      cfg.avg_transaction_len = 13.0;
      cfg.num_items = 15970;
      cfg.num_patterns = 900;
      cfg.avg_pattern_len = 3.5;
      cfg.max_pattern_len = 8;
      cfg.correlation = 0.4;
      cfg.corruption_mean = 0.35;
      cfg.weight_skew = 1.6;
      cfg.noise_mean = 2.0;
      cfg.seed = BaseSeed(id);
      return gogreen::data::GenerateQuest(cfg);
    }
    case DatasetId::kConnect4Sub: {
      gogreen::data::DenseConfig cfg =
          gogreen::data::DenseConfig::Uniform(n, 43, 3, BaseSeed(id));
      cfg.dominant_probs.resize(43);
      for (size_t a = 0; a < 43; ++a) {
        if (a % 4 == 0 || a == 1) {
          cfg.dominant_probs[a] = 0.9965;
        } else if (a % 4 == 1) {
          cfg.dominant_probs[a] = 0.93;
        } else if (a % 4 == 2) {
          cfg.dominant_probs[a] = 0.80;
        } else {
          cfg.dominant_probs[a] = 0.55;
        }
      }
      cfg.run_boost = 0.0;
      return gogreen::data::GenerateDense(cfg);
    }
    case DatasetId::kPumsbSub: {
      gogreen::data::DenseConfig cfg;
      cfg.num_transactions = n;
      cfg.cardinalities = PumsbCardinalities();
      cfg.dominant_probs.resize(cfg.cardinalities.size());
      for (size_t a = 0; a < cfg.dominant_probs.size(); ++a) {
        if (a % 7 == 0) {
          cfg.dominant_probs[a] = 0.9915;
        } else if (a % 7 <= 2) {
          cfg.dominant_probs[a] = 0.915;
        } else {
          cfg.dominant_probs[a] = 0.55;
        }
      }
      cfg.run_boost = 0.0;
      cfg.seed = BaseSeed(id);
      return gogreen::data::GenerateDense(cfg);
    }
  }
  return gogreen::Status::InvalidArgument("unknown dataset id");
}

gogreen::Result<BenchDataset> MakeBenchDataset(DatasetId id, Size size,
                                               uint64_t seed) {
  const gogreen::data::DatasetSpec& spec = gogreen::data::GetDatasetSpec(id);
  BenchDataset ds;
  ds.id = id;
  ds.name = spec.name;
  GOGREEN_ASSIGN_OR_RETURN(ds.db,
                           GenerateSeeded(id, TransactionsAt(id, size), seed));
  const size_t n = ds.db.NumTransactions();
  ds.supports.push_back(gogreen::fpm::AbsoluteSupport(spec.xi_old, n));
  for (const double xi : spec.xi_new_sweep) {
    ds.supports.push_back(gogreen::fpm::AbsoluteSupport(xi, n));
  }
  // The dense sets' pattern counts depend on the support fraction, not on
  // |DB|: the self-test keeps ξ_old and the first two ξ_new steps only.
  if (size == Size::kTiny) ds.supports.resize(3);
  return ds;
}

}  // namespace perfbench
