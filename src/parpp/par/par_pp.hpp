// Communication-efficient parallel pairwise perturbation (Algorithm 4).
//
// The PP operators are built from each rank's *local* tensor block with the
// locally replicated slice factors — no communication at all in the
// initialization step beyond what the preceding regular sweep already did.
// In the approximated step the first-order corrections U(n,i) are likewise
// local; the only collectives per factor update are the single
// Reduce-Scatter of ~M(n), the R^2 Gram All-Reduce, the slice All-Gather
// (identical to Algorithm 3) and one small All-Reduce for dS(i), which the
// first-order-only ablation (PpOptions::second_order = false) skips.
#pragma once

#include "parpp/core/driver.hpp"
#include "parpp/par/par_cp_als.hpp"

namespace parpp::par {

/// Runs PP-CP-ALS (Algorithm 2 with the Algorithm 4 subroutine) on
/// `nprocs` simulated ranks: regular sweeps until the factors move slowly,
/// then PP initialization + approximated sweeps, falling back to regular
/// sweeps whenever the perturbation grows past pp_tol. nprocs == 1 is the
/// sequential Algorithm 2. Storage-agnostic like par_cp_als: sparse
/// problems run the same loop over CSF blocks (sparse PP operators,
/// identical collective pattern) and never densify. Regular sweeps use
/// core::pp_regular_engine(options.base.engine). With `nn` set the factor
/// update is the row-local HALS rule (PP-NNCP), with the same collectives
/// and costs: PP only approximates the MTTKRP the update consumes, and the
/// projection max(0, .) keeps the factors feasible whatever the
/// approximation error. Regular sweeps are then labelled "nncp" in the
/// history instead of "als".
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
