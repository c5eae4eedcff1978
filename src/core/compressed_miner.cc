#include "core/compressed_miner.h"

#include "core/recycle_fp.h"
#include "core/recycle_hmine.h"
#include "core/recycle_tp.h"
#include "core/rp_mine.h"
#include "util/logging.h"

namespace gogreen::core {

Result<fpm::MineResult> CompressedMiner::Mine(const CompressedDb& cdb,
                                              const fpm::MineRequest& request) {
  return fpm::RunMineRequest(request, &run_ctx_, stats_,
                             [&](uint64_t minsup) {
                               return MineCompressed(cdb, minsup);
                             });
}

std::unique_ptr<CompressedMiner> CreateCompressedMiner(RecycleAlgo algo) {
  switch (algo) {
    case RecycleAlgo::kNaive:
      return std::make_unique<RpMineMiner>();
    case RecycleAlgo::kHMine:
      return std::make_unique<RecycleHMineMiner>();
    case RecycleAlgo::kFpGrowth:
      return std::make_unique<RecycleFpMiner>();
    case RecycleAlgo::kTreeProjection:
      return std::make_unique<RecycleTpMiner>();
  }
  GOGREEN_CHECK(false) << "unknown RecycleAlgo";
  return nullptr;
}

const char* RecycleAlgoName(RecycleAlgo algo) {
  switch (algo) {
    case RecycleAlgo::kNaive:
      return "rp-mine";
    case RecycleAlgo::kHMine:
      return "recycle-hm";
    case RecycleAlgo::kFpGrowth:
      return "recycle-fp";
    case RecycleAlgo::kTreeProjection:
      return "recycle-tp";
  }
  return "?";
}

}  // namespace gogreen::core
