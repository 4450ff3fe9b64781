// PP-accelerated nonnegative HALS: the new PP x NNCP cell of the solver
// matrix (sequential + parallel drivers).
#include <gtest/gtest.h>

#include <cmath>

#include "parpp/data/collinearity.hpp"
#include "parpp/solver/solver.hpp"
#include "test_util.hpp"

namespace parpp::core {
namespace {

using solver::Method;
using solver::SolveReport;

/// NNCP-HALS solve of `t` with or without PP (MSDT engine, seeded start).
SolveReport run(Method method, const tensor::DenseTensor& t,
                const CpOptions& opt, const PpOptions& pp = {},
                const solver::Execution& execution = {}) {
  solver::SolverSpec spec = test::spec_like(method, opt);
  spec.pp = pp;
  spec.execution = execution;
  return parpp::solve(t, spec);
}

TEST(PpNncp, RecoversNonnegativeLowRank) {
  const auto t = test::low_rank_tensor({10, 9, 8}, 3, 1601);
  CpOptions opt;
  opt.rank = 3;
  opt.max_sweeps = 200;
  opt.tol = 1e-9;
  PpOptions pp;
  pp.pp_tol = 0.3;
  const SolveReport r = run(Method::kPpNncp, t, opt, pp);
  EXPECT_GT(r.fitness, 0.99);
}

TEST(PpNncp, FactorsStayNonnegative) {
  // Even PP-approximated MTTKRPs feed through the projected HALS update,
  // so feasibility survives the approximation.
  const auto t = test::random_tensor({8, 7, 6}, 1602);
  CpOptions opt;
  opt.rank = 4;
  opt.max_sweeps = 60;
  opt.tol = 0.0;
  PpOptions pp;
  pp.pp_tol = 0.5;
  const SolveReport r = run(Method::kPpNncp, t, opt, pp);
  EXPECT_GT(r.num_pp_approx, 0) << "PP must engage for this test to bite";
  for (const auto& a : r.factors) {
    for (index_t i = 0; i < a.rows(); ++i)
      for (index_t j = 0; j < a.cols(); ++j) EXPECT_GE(a(i, j), 0.0);
  }
}

TEST(PpNncp, UsesPpSweepsOnCollinearityAtEqualFitness) {
  // Acceptance criterion: on the collinearity dataset PP-NNCP reaches the
  // same final fitness as plain NNCP-HALS (within 1e-3) with fewer regular
  // sweeps — the PP-approximated sweeps replace them.
  const auto gen =
      data::make_collinear_tensor({20, 20, 20}, 8, 0.5, 0.9, 1603, 1e-3);
  CpOptions opt;
  opt.rank = 8;
  opt.max_sweeps = 300;
  opt.tol = 1e-5;
  const SolveReport plain = run(Method::kNncpHals, gen.tensor, opt);
  PpOptions pp;
  pp.pp_tol = 0.2;
  const SolveReport accel = run(Method::kPpNncp, gen.tensor, opt, pp);
  EXPECT_NEAR(accel.fitness, plain.fitness, 1e-3);
  EXPECT_GT(accel.num_pp_approx, 0);
  EXPECT_LT(accel.num_als_sweeps, plain.num_als_sweeps)
      << "PP must replace regular sweeps, not add to them";
}

TEST(PpNncp, ResidualMatchesExplicit) {
  const auto t = test::low_rank_tensor({8, 7, 6}, 2, 1604);
  CpOptions opt;
  opt.rank = 2;
  opt.max_sweeps = 80;
  opt.tol = 1e-8;
  const SolveReport r = run(Method::kPpNncp, t, opt);
  EXPECT_NEAR(test::explicit_residual(t, r.factors), r.residual, 1e-6);
}

TEST(PpNncp, ParallelMatchesSequentialFitness) {
  const auto t = test::low_rank_tensor({8, 8, 8}, 3, 1605);
  CpOptions opt;
  opt.rank = 3;
  opt.max_sweeps = 60;
  opt.tol = 1e-8;
  PpOptions pp;
  pp.pp_tol = 0.3;
  const SolveReport seq = run(Method::kPpNncp, t, opt, pp);
  const SolveReport par =
      run(Method::kPpNncp, t, opt, pp,
          solver::Execution::simulated_parallel(4, {1, 2, 2}));
  // The distributed HALS update is row-exact; PP phase entry depends on
  // norm comparisons whose reduction order differs, so allow small drift.
  EXPECT_NEAR(par.fitness, seq.fitness, 5e-3);
  for (const auto& a : par.factors) {
    for (index_t i = 0; i < a.rows(); ++i)
      for (index_t j = 0; j < a.cols(); ++j) EXPECT_GE(a(i, j), 0.0);
  }
}

}  // namespace
}  // namespace parpp::core
