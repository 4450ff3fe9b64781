// What the driver cores (par::par_cp_als, par::par_pp_cp_als) share with
// their callers: options, per-sweep records, the health verdict, the hooks
// parpp::solve() threads through, and the factor initialization.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "parpp/core/sparse_engine.hpp"
#include "parpp/la/matrix.hpp"
#include "parpp/util/profile.hpp"

namespace parpp::core {

/// Rank, stopping rule, seed and MTTKRP engine of a driver run.
struct CpOptions {
  index_t rank = 16;
  int max_sweeps = 300;
  /// Stop when |fitness(t) - fitness(t-1)| < tol (paper's stopping
  /// criterion Delta on the relative residual).
  double tol = 1e-5;
  std::uint64_t seed = 42;
  EngineKind engine = EngineKind::kDt;
  EngineOptions engine_options = {};
  /// Record (time, fitness, phase) after every sweep.
  bool record_history = true;
};

/// Pairwise-perturbation knobs (Algorithms 2 / 4).
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

/// The engine the PP driver runs its regular sweeps on: the PP operator
/// build amortizes against a tree engine's cache (footnote 1), so kNaive is
/// promoted to kMsdt; every other kind is kept.
[[nodiscard]] EngineKind pp_regular_engine(EngineKind requested);

/// Nonnegative CP via HALS (hierarchical ALS). Passing these to a driver
/// swaps its normal-equations factor update for projected HALS column
/// passes (see core/nncp.hpp); the sweep, its MTTKRP engine and the
/// residual are unchanged, so both drivers run NNCP with their own loop.
struct NncpOptions {
  /// Floor applied after each HALS column update (keeps Γ nonsingular).
  double epsilon = 1e-12;
  /// Number of HALS inner passes over the columns per mode update.
  int inner_iterations = 1;
};

/// History phase of an exact sweep under update rule `nn`: "nncp" for the
/// HALS update, "als" for the normal-equations solve.
[[nodiscard]] inline const char* regular_phase(const NncpOptions* nn) {
  return nn != nullptr ? "nncp" : "als";
}

struct SweepRecord {
  double seconds;       ///< elapsed wall time since the run started
  double fitness;       ///< 1 - relative residual (approximate in PP sweeps)
  std::string phase;    ///< "als", "pp-init" or "pp-approx"
};

/// Health verdict of a completed solve. Anything but kOk means the
/// recovery_log has at least one event explaining what happened.
enum class SolveStatus {
  kOk,               ///< clean run, no guardrail fired
  kRecovered,        ///< guardrails fired but the run completed
  kRecoveredShrunk,  ///< ranks were lost; the run finished on the survivors
  kNumericalAbort,   ///< non-finite state persisted past the rollback budget
  kCommAbort,        ///< a communicator failure ended the run
};

/// One guardrail / fault event, ordered by sweep. The messages are
/// deterministic (no wall-clock content) so same-seed reruns produce
/// bitwise-identical logs.
struct RecoveryEvent {
  int sweep = 0;        ///< total sweep count when the event fired
  std::string what;
};

/// Cross-cutting extension points the parpp::solve() facade threads through
/// every driver. Default-constructed hooks leave a driver bit-for-bit on its
/// legacy behavior (no extra collectives, no extra callbacks).
struct DriverHooks {
  /// Warm start: used in place of the seeded initialization when non-null
  /// (check_initial_factors validates the shapes). The caller's set is
  /// only read.
  const std::vector<la::Matrix>* initial_factors = nullptr;
  /// Called after every sweep of any kind ("als", "nncp", "pp-init",
  /// "pp-approx") with the record just produced and the current factors.
  /// Runs on rank 0; the verdict is broadcast so all ranks agree. The
  /// factor vector is empty when nprocs > 1 (factors live distributed).
  /// Returning false aborts the run after the current sweep.
  std::function<bool(const SweepRecord&, const std::vector<la::Matrix>&)>
      on_sweep;

  /// Checkpointing: when checkpoint_every > 0 and on_checkpoint is set, the
  /// drivers call it after every checkpoint_every-th sweep with the current
  /// global factors and stopping-rule state. The drivers assemble the
  /// factors collectively and invoke the callback on rank 0 only. The PP
  /// driver checkpoints after regular (exact) sweeps only, so the saved
  /// factors are never mid-approximation.
  int checkpoint_every = 0;
  std::function<void(const std::vector<la::Matrix>& factors, int sweep,
                     double fitness, double prev_fitness)>
      on_checkpoint;

  /// Resume support: when set (alongside initial_factors carrying the
  /// checkpointed factors), the drivers seed their stopping comparison from
  /// the checkpointed (fitness, prev_fitness) pair instead of (0, -1), so a
  /// resumed run takes exactly the sweeps the uninterrupted run would have.
  struct ResumeState {
    double fitness = 0.0;
    double prev_fitness = -1.0;
  };
  const ResumeState* resume = nullptr;
};

/// Uniform-[0,1) factor initialization (Algorithm 1 line 2), deterministic
/// in (seed, mode).
[[nodiscard]] std::vector<la::Matrix> init_factors(
    const std::vector<index_t>& shape, index_t rank, std::uint64_t seed);

/// Throws parpp::error unless `factors` holds one shape[m] x rank matrix
/// per mode — the warm-start contract.
void check_initial_factors(const std::vector<index_t>& shape, index_t rank,
                           const std::vector<la::Matrix>& factors);

}  // namespace parpp::core
