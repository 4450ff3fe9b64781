#include "parpp/solver/solve.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <utility>

#include "parpp/dist/sparse_dist.hpp"
#include "parpp/par/par_pp.hpp"
#include "parpp/solver/registry.hpp"
#include "parpp/util/rng.hpp"
#include "parpp/util/serialize.hpp"
#include "parpp/util/timer.hpp"

namespace parpp {

namespace {

using solver::SolveReport;
using solver::SolverSpec;
using solver::StopReason;

SolveReport from_par_result(par::ParResult&& r) {
  SolveReport report;
  report.factors = std::move(r.factors);
  report.residual = r.residual;
  report.fitness = r.fitness;
  report.sweeps = r.sweeps;
  report.history = std::move(r.history);
  report.num_als_sweeps = r.num_als_sweeps;
  report.num_pp_init = r.num_pp_init;
  report.num_pp_approx = r.num_pp_approx;
  report.status = r.status;
  report.recovery_log = std::move(r.recovery_log);
  report.comm_cost = r.comm_cost;
  report.mean_sweep_seconds = r.mean_sweep_seconds;
  report.sweep_profiles = std::move(r.sweep_profiles);
  report.critical_path_profile = r.critical_path_profile;
  report.nnz_imbalance = r.nnz_imbalance;
  report.final_ranks = r.final_ranks;
  report.post_shrink_nnz_imbalance = r.post_shrink_nnz_imbalance;
  // The cores report per-sweep slices of the slowest rank; their sum is
  // the run's profile.
  for (const Profile& p : report.sweep_profiles) report.profile.accumulate(p);
  return report;
}

/// Builds the storage-blind problem once and runs the one driver core the
/// method selects; a sequential execution is a one-rank run on a 1x...x1
/// grid. The method's update rule travels as the nn pointer (null =
/// normal-equations solve).
SolveReport run_driver(const solver::TensorSource& t, const SolverSpec& spec,
                       const solver::MethodEntry& entry,
                       const core::DriverHooks& hooks) {
  const core::NncpOptions* nn = entry.nonnegative ? &spec.nncp : nullptr;
  const int nprocs = spec.execution.nprocs;
  // On one rank every partition is the same single block. The uniform one
  // reads a CSF input in place; the balanced one would first flatten it to
  // count its slices.
  const dist::PartitionKind partition =
      nprocs == 1 ? dist::PartitionKind::kUniformBlocks
                  : spec.execution.partition;
  const std::unique_ptr<dist::DistProblem> problem =
      t.is_sparse() ? dist::make_sparse_problem(t.sparse(), partition)
                    : std::make_unique<dist::DenseBlockProblem>(t.dense());
  const par::ParOptions options = solver::par_options(
      spec, static_cast<int>(problem->global_shape().size()));
  return from_par_result(
      entry.pairwise_perturbation
          ? par::par_pp_cp_als(*problem, nprocs, options, spec.pp, nn, hooks)
          : par::par_cp_als(*problem, nprocs, options, nn, hooks));
}

/// Rejects the spec errors every rank body would otherwise hit at set-up
/// and report as a comm-abort: each execution throws parpp::error for them
/// before any rank starts.
void check_runnable(const solver::TensorSource& t, const SolverSpec& spec,
                    const solver::MethodEntry& entry) {
  const std::vector<index_t>& shape =
      t.is_sparse() ? t.sparse().shape() : t.dense().shape();
  const std::size_t min_order = entry.pairwise_perturbation ? 3 : 2;
  PARPP_CHECK(shape.size() >= min_order, "solve: method ", entry.name,
              " needs a tensor of order >= ", min_order);
  PARPP_CHECK(!entry.pairwise_perturbation ||
                  (spec.pp.pp_tol > 0.0 && spec.pp.pp_tol < 1.0),
              "solve: pp.pp_tol must be in (0,1)");
  PARPP_CHECK(!entry.nonnegative || spec.nncp.inner_iterations >= 1,
              "solve: nncp.inner_iterations must be >= 1");
  const std::vector<int>& dims = spec.execution.grid_dims;
  if (!dims.empty()) {
    int volume = 1;
    for (int d : dims) volume *= std::max(d, 0);
    PARPP_CHECK(dims.size() == shape.size() &&
                    volume == spec.execution.nprocs,
                "solve: execution.grid_dims needs one positive extent per "
                "tensor mode, multiplying to execution.nprocs");
  }
  if (!spec.initial_factors.empty())
    core::check_initial_factors(shape, spec.rank, spec.initial_factors);
  if (t.is_sparse()) {
    // A one-rank run reads the input's trees in place (see
    // dist::SparseBlockDist), so the PP pair-operator walks need all of
    // them; every execution applies the rule, as the CLI does.
    PARPP_CHECK(!entry.pairwise_perturbation ||
                    t.sparse().layout() == tensor::CsfLayout::kAllModes,
                "solve: the PP pair operators need a CSF tree per mode — "
                "build the CsfTensor with CsfLayout::kAllModes");
  } else {
    PARPP_CHECK(spec.engine != core::EngineKind::kSparse,
                "solve: the sparse engine needs CSF storage — pass a "
                "tensor::CsfTensor");
    PARPP_CHECK(spec.engine_options.scalar == la::Scalar::kF64 ||
                    (spec.engine == core::EngineKind::kNaive &&
                     !entry.pairwise_perturbation),
                "solve: fp32 dense storage runs on the naive (fused) ALS "
                "engine only — the tree engines and the dense PP operator "
                "chains are fp64-only");
  }
}

[[nodiscard]] bool aborted_status(core::SolveStatus s) {
  return s == core::SolveStatus::kNumericalAbort ||
         s == core::SolveStatus::kCommAbort;
}

}  // namespace

solver::SolveReport solve(const solver::TensorSource& t,
                          const solver::SolverSpec& spec) {
  PARPP_CHECK(spec.rank >= 1, "solve: rank must be positive");
  PARPP_CHECK(spec.execution.nprocs >= 1,
              "solve: execution.nprocs must be >= 1");
  PARPP_CHECK(spec.stopping.max_sweeps >= 1,
              "solve: stopping.max_sweeps must be >= 1");
  PARPP_CHECK(!spec.execution.fault.active() || spec.execution.is_parallel(),
              "solve: execution.fault injects communication faults, which "
              "need a parallel execution (nprocs > 1)");
  PARPP_CHECK(!spec.checkpoint.resume || !spec.checkpoint.path.empty(),
              "solve: checkpoint.resume needs checkpoint.path");

  // A zero tensor has no direction to fit: the fitness 1 - |T - X| / |T|
  // divides by its norm, so reject it up front with a structured error
  // instead of a NaN cascade deep in a driver.
  const double tensor_norm =
      t.is_sparse() ? t.sparse().frobenius_norm() : t.dense().frobenius_norm();
  PARPP_CHECK(std::isfinite(tensor_norm),
              "solve: tensor has a non-finite Frobenius norm");
  PARPP_CHECK(tensor_norm > 0.0,
              "solve: tensor is identically zero (Frobenius norm 0); CP "
              "fitness is undefined for a zero tensor");

  const solver::MethodEntry& entry = solver::method_entry(spec.method);

  // Resume: if the checkpoint file exists, warm-start from it and spend
  // only the remaining sweep budget; if it does not (the previous run died
  // before its first checkpoint) fall through to a cold start. `eff` is the
  // spec the drivers actually see.
  SolverSpec eff = spec;
  int base_sweeps = 0;
  core::DriverHooks hooks;
  core::DriverHooks::ResumeState resume_state;
  if (spec.checkpoint.resume &&
      std::ifstream(spec.checkpoint.path, std::ios::binary).good()) {
    io::CheckpointState ck = io::load_checkpoint_file(spec.checkpoint.path);
    if (ck.sweep >= spec.stopping.max_sweeps) {
      // The checkpoint already covers the whole budget; nothing to run.
      SolveReport done;
      done.factors = std::move(ck.factors);
      done.residual = ck.residual;
      done.fitness = ck.fitness;
      done.sweeps = ck.sweep;
      done.num_als_sweeps = ck.sweep;
      done.stop_reason =
          spec.stopping.fitness_tol > 0.0 &&
                  std::abs(ck.fitness - ck.prev_fitness) <
                      spec.stopping.fitness_tol
              ? StopReason::kConverged
              : StopReason::kMaxSweeps;
      return done;
    }
    base_sweeps = ck.sweep;
    eff.stopping.max_sweeps = spec.stopping.max_sweeps - ck.sweep;
    eff.initial_factors = std::move(ck.factors);
    resume_state.fitness = ck.fitness;
    resume_state.prev_fitness = ck.prev_fitness;
    hooks.resume = &resume_state;
  }
  check_runnable(t, eff, entry);
  if (!eff.initial_factors.empty())
    hooks.initial_factors = &eff.initial_factors;

  if (spec.checkpoint.saving()) {
    hooks.checkpoint_every = spec.checkpoint.every;
    hooks.on_checkpoint = [&](const std::vector<la::Matrix>& factors,
                              int sweep, double fitness,
                              double prev_fitness) {
      io::CheckpointState ck;
      ck.factors = factors;
      ck.sweep = base_sweeps + sweep;
      ck.fitness = fitness;
      ck.prev_fitness = prev_fitness;
      ck.residual = 1.0 - fitness;
      ck.seed = spec.seed;
      ck.rng_state = Rng(spec.seed).state();
      ck.written_ranks = spec.execution.nprocs;
      io::save_checkpoint_file(spec.checkpoint.path, ck);
    };
  }

  // One driver hook folds the facade-level stopping criteria and the
  // observer; when none is active the drivers run their legacy path with
  // zero callbacks (and, in parallel, zero extra collectives).
  StopReason abort_reason = StopReason::kConverged;
  bool aborted = false;
  WallTimer budget_timer;
  const bool needs_hook = spec.stopping.max_seconds > 0.0 ||
                          static_cast<bool>(spec.stopping.predicate) ||
                          static_cast<bool>(spec.observer);
  if (needs_hook) {
    hooks.on_sweep = [&](const core::SweepRecord& rec,
                         const std::vector<la::Matrix>& factors) {
      if (spec.stopping.max_seconds > 0.0 &&
          budget_timer.seconds() >= spec.stopping.max_seconds) {
        abort_reason = StopReason::kTimeBudget;
        aborted = true;
      } else if (spec.stopping.predicate && spec.stopping.predicate(rec)) {
        abort_reason = StopReason::kPredicate;
        aborted = true;
      } else if (spec.observer &&
                 spec.observer(rec, factors) ==
                     solver::ObserverAction::kStop) {
        abort_reason = StopReason::kObserver;
        aborted = true;
      }
      return !aborted;
    };
  }

  SolveReport report = run_driver(t, eff, entry, hooks);

  if (aborted_status(report.status)) {
    // A guardrail or communicator failure ended the run; the recovery log
    // carries the why, and the stop reason points the caller at it.
    report.stop_reason = StopReason::kFault;
  } else if (aborted) {
    report.stop_reason = abort_reason;
  } else if (report.sweeps < eff.stopping.max_sweeps) {
    report.stop_reason = StopReason::kConverged;
  } else {
    // The sweep budget was exhausted, but the run may have converged on
    // exactly the final permitted sweep: the drivers' criterion compares
    // the last two sweeps' fitness, which the history preserves.
    const std::size_t h = report.history.size();
    const bool converged_on_last =
        spec.stopping.fitness_tol > 0.0 && h >= 2 &&
        std::abs(report.history[h - 1].fitness -
                 report.history[h - 2].fitness) < spec.stopping.fitness_tol;
    report.stop_reason = converged_on_last ? StopReason::kConverged
                                           : StopReason::kMaxSweeps;
  }
  // A resumed run reports the cumulative sweep count, so resumed and
  // uninterrupted runs with the same budget report the same totals.
  report.sweeps += base_sweeps;
  report.num_als_sweeps += base_sweeps;
  return report;
}

solver::SolveReport solve(const tensor::DenseTensor& t,
                          const solver::SolverSpec& spec) {
  return solve(solver::TensorSource(t), spec);
}

solver::SolveReport solve(const tensor::CsfTensor& t,
                          const solver::SolverSpec& spec) {
  return solve(solver::TensorSource(t), spec);
}

}  // namespace parpp
