// PLANC-style baseline (paper Sec. II-E / Fig. 3 "PLANC" series).
//
// Per the paper, the PLANC implementation of parallel dense CP-ALS differs
// from ours in two ways: it uses the standard dimension tree (never MSDT or
// PP) and solves the normal equations *sequentially* on replicated data
// after gathering the MTTKRP output. planc_options configures Algorithm 3
// accordingly (run it with par_cp_als) so benches can plot the PLANC
// reference series.
#pragma once

#include "parpp/par/par_cp_als.hpp"

namespace parpp::par {

/// Baseline options: DT local engine + replicated sequential solve.
[[nodiscard]] ParOptions planc_options(const ParOptions& base);

}  // namespace parpp::par
