#include "parpp/par/planc_baseline.hpp"

namespace parpp::par {

ParOptions planc_options(const ParOptions& base) {
  ParOptions opt = base;
  opt.base.engine = core::EngineKind::kDt;
  opt.solve = SolveMode::kReplicatedSequential;
  return opt;
}

}  // namespace parpp::par
