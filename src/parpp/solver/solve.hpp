// parpp::solve() — the single front door for every CP decomposition.
//
//   solver::SolverSpec spec;
//   spec.method = solver::Method::kPp;
//   spec.rank = 32;
//   auto report = parpp::solve(tensor, spec);
//
// Composes method x execution x engine with pluggable stopping, warm start
// and per-sweep observation; see spec.hpp for the axes and registry.hpp for
// how a method maps onto the two driver cores (par::par_cp_als,
// par::par_pp_cp_als), which callers needing driver internals can also run
// directly on a dist::DistProblem.
#pragma once

#include "parpp/solver/spec.hpp"

namespace parpp {

/// Runs the solve described by `spec` on any tensor source — dense or CSF
/// sparse storage, uniformly (TensorSource converts implicitly from both).
/// Sparse sources run the storage-agnostic cores through the CSF engine
/// with the no-densification fitness identity, for every method (als, pp,
/// nncp, pp-nncp) and every execution: the nonzeros are partitioned over
/// the grid with dist::SparseBlockDist. Throws parpp::error on an invalid
/// spec (bad rank, warm-start shape mismatch, bad grid, an engine the
/// storage cannot run) for every execution, before any rank starts.
[[nodiscard]] solver::SolveReport solve(const solver::TensorSource& t,
                                        const solver::SolverSpec& spec);

/// Storage-typed conveniences (exact-match overloads for existing callers).
[[nodiscard]] solver::SolveReport solve(const tensor::DenseTensor& t,
                                        const solver::SolverSpec& spec);
[[nodiscard]] solver::SolveReport solve(const tensor::CsfTensor& t,
                                        const solver::SolverSpec& spec);

}  // namespace parpp
