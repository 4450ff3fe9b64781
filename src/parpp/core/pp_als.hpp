// Sequential PP-CP-ALS driver (Algorithm 2).
#pragma once

#include "parpp/core/cp_als.hpp"

namespace parpp::core {

struct PpOptions {
  /// PP tolerance epsilon: the approximated step runs while every factor's
  /// relative change since the snapshot stays below it.
  double pp_tol = 0.1;
  /// Record (approximate) fitness after each PP-approximated sweep too.
  bool record_pp_sweeps = true;
  /// Disable the second-order V(n) correction (ablation).
  bool second_order = true;
  /// Cap on consecutive PP-approximated sweeps inside one PP phase,
  /// guarding against a stalled inner loop (generous by default).
  int max_pp_sweeps_per_phase = 500;
};

/// The engine the PP drivers run their regular sweeps on: the PP operator
/// build amortizes against a tree engine's cache (footnote 1), so kNaive is
/// promoted to kMsdt; every other kind is kept. Shared by the sequential
/// and parallel PP drivers so one spec resolves to one engine on both.
[[nodiscard]] EngineKind pp_regular_engine(EngineKind requested);

/// Runs PP-CP-ALS: regular sweeps until the factors move slowly, then PP
/// initialization + approximated sweeps, falling back to regular sweeps
/// whenever the perturbation grows past pp_tol (Algorithm 2). Storage-blind
/// like cp_als: the sparse problem builds its operators with CSF pair walks
/// and never densifies. With `nn` set the factor update is the projected
/// HALS rule (PP-NNCP): PP only approximates the MTTKRP the update
/// consumes, and the projection max(0, .) keeps the factors feasible
/// whatever the approximation error. Regular sweeps are then labelled
/// "nncp" in the history instead of "als".
[[nodiscard]] CpResult pp_cp_als(const TensorProblem& problem,
                                 const CpOptions& options,
                                 const PpOptions& pp_options = {},
                                 const NncpOptions* nn = nullptr,
                                 const DriverHooks& hooks = {});

}  // namespace parpp::core
