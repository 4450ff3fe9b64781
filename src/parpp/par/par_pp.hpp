// Communication-efficient parallel pairwise perturbation (Algorithm 4).
//
// The PP operators are built from each rank's *local* tensor block with the
// locally replicated slice factors — no communication at all in the
// initialization step beyond what the preceding regular sweep already did.
// In the approximated step the first-order corrections U(n,i) are likewise
// local; the only collectives per factor update are the single
// Reduce-Scatter of ~M(n), the R^2 Gram All-Reduce, the slice All-Gather
// (identical to Algorithm 3) and one small All-Reduce for dS(i).
#pragma once

#include "parpp/core/pp_als.hpp"
#include "parpp/par/par_cp_als.hpp"

namespace parpp::par {

/// Runs PP-CP-ALS (Algorithm 2 with the Algorithm 4 subroutine) on
/// `nprocs` simulated ranks. Storage-agnostic like par_cp_als: sparse
/// problems run the same loop over CSF blocks (sparse PP operators,
/// identical collective pattern). Regular sweeps use
/// core::pp_regular_engine(options.base.engine). With `nn` set the factor
/// update is the row-local HALS rule (parallel PP-NNCP; see
/// core::pp_cp_als for why the composition keeps PP's guarantees), with
/// the same collectives and costs.
[[nodiscard]] ParResult par_pp_cp_als(const dist::DistProblem& problem,
                                      int nprocs, const ParOptions& options,
                                      const core::PpOptions& pp_options = {},
                                      const core::NncpOptions* nn = nullptr,
                                      const core::DriverHooks& hooks = {});

/// Benchmark hook: runs `sweeps` PP-approximated sweeps (after one build)
/// regardless of the tolerance, returning per-sweep profiles and costs —
/// used by the Fig. 3 / Table II per-sweep timing benches.
struct PpKernelTimings {
  double init_seconds = 0.0;          ///< PP initialization wall time
  double approx_sweep_seconds = 0.0;  ///< mean approximated-sweep wall time
  Profile init_profile;
  Profile approx_profile;             ///< summed over the timed sweeps
  mpsim::CostCounter comm_cost;
};
[[nodiscard]] PpKernelTimings time_pp_kernels(
    const tensor::DenseTensor& global_t, int nprocs, const ParOptions& options,
    int sweeps);

}  // namespace parpp::par
