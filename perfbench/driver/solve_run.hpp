// One timed hand-off of a generated instance to parpp::solve().
#pragma once

#include <string>

#include "json.hpp"
#include "parpp/solver/solve.hpp"
#include "workloads.hpp"

namespace perfbench {

struct TimedSolve {
  bool ok = false;          ///< no exception was thrown
  std::string error;
  double csf_build_s = 0.0; ///< COO -> CSF conversion (sparse only)
  double wall_s = 0.0;      ///< parpp::solve() wall time
  double rss_mb = 0.0;      ///< peak resident memory the hand-off added
  parpp::solver::SolveReport report;
};

/// Times the hand-off of `in` to parpp::solve(): for sparse workloads the
/// COO -> CSF build, then the solve itself. `spec` may carry an observer.
/// Also measures the hand-off's own peak memory: the process's peak RSS
/// mark is reset before it, and the resident set held before it (the
/// instances, the benchmark's own buffers) is subtracted after it.
[[nodiscard]] TimedSolve timed_solve(const Instance& in,
                                     const parpp::solver::SolverSpec& spec);

/// Appends the raw per-solve record (sweep times, fitness history, exact
/// counts) that perfbench/metrics.py turns into metrics.
void write_solve(Json& j, const TimedSolve& s);

/// Mean seconds per sweep over the report's history (0 without sweeps).
[[nodiscard]] double mean_sweep_seconds(const parpp::solver::SolveReport& r);


}  // namespace perfbench
