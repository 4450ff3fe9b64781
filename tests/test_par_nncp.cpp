#include <gtest/gtest.h>

#include "parpp/data/hyperspectral.hpp"
#include "parpp/par/par_cp_als.hpp"
#include "parpp/solver/solver.hpp"
#include "test_util.hpp"

namespace parpp::par {
namespace {

using solver::SolveReport;

/// NNCP-HALS solve of `t` (MSDT engine, seeded start); sequential unless
/// `grid` is given, then on prod(grid) simulated ranks.
SolveReport nncp(const tensor::DenseTensor& t, const core::CpOptions& opt,
                 const std::vector<int>& grid = {}) {
  solver::SolverSpec spec = test::spec_like(solver::Method::kNncpHals, opt);
  if (!grid.empty()) {
    int nprocs = 1;
    for (int d : grid) nprocs *= d;
    spec.execution = solver::Execution::simulated_parallel(nprocs, grid);
  }
  return parpp::solve(t, spec);
}

TEST(ParNncp, MatchesSequentialHals) {
  const auto t = test::random_tensor({8, 9, 10}, 1401);
  core::CpOptions opt;
  opt.rank = 4;
  opt.max_sweeps = 10;
  opt.tol = 0.0;
  const auto seq = nncp(t, opt);
  const auto par = nncp(t, opt, {2, 2, 2});
  // HALS is row-local given Γ and M, so any grid reproduces the sequential
  // trajectory exactly.
  EXPECT_NEAR(par.fitness, seq.fitness, 1e-8);
  for (std::size_t m = 0; m < seq.factors.size(); ++m)
    EXPECT_LE(par.factors[m].max_abs_diff(seq.factors[m]), 1e-6);
}

TEST(ParNncp, FactorsStayNonnegativeAcrossGrids) {
  const auto t = test::random_tensor({7, 6, 8}, 1402);
  core::CpOptions opt;
  opt.rank = 3;
  opt.max_sweeps = 8;
  opt.tol = 0.0;
  const auto r = nncp(t, opt, {2, 1, 2});
  for (const auto& a : r.factors)
    for (index_t i = 0; i < a.rows(); ++i)
      for (index_t j = 0; j < a.cols(); ++j) EXPECT_GE(a(i, j), 0.0);
}

TEST(ParNncp, HyperspectralWorkloadConverges) {
  data::HyperspectralOptions hs;
  hs.height = 16;
  hs.width = 20;
  hs.bands = 8;
  hs.frames = 4;
  const auto t = data::make_hyperspectral_tensor(hs);
  core::CpOptions opt;
  opt.rank = 10;
  opt.max_sweeps = 40;
  opt.tol = 1e-6;
  const auto r = nncp(t, opt, {2, 2, 1, 1});
  EXPECT_GT(r.fitness, 0.75);
  EXPECT_GT(r.comm_cost.total().messages, 0.0);
}

TEST(ParNncp, NonDivisibleExtentsExact) {
  const auto t = test::random_tensor({9, 5, 7}, 1403);
  core::CpOptions opt;
  opt.rank = 3;
  opt.max_sweeps = 6;
  opt.tol = 0.0;
  const auto seq = nncp(t, opt);
  const auto par = nncp(t, opt, {2, 2, 1});
  EXPECT_NEAR(par.fitness, seq.fitness, 1e-8);
}

TEST(ParNncp, CommunicatesLikeAls) {
  // HALS is row-local, so a parallel NNCP sweep needs exactly the
  // collectives of an ALS sweep: per mode one Reduce-Scatter of M, one Gram
  // All-Reduce and one slice All-Gather, plus the residual All-Reduce that
  // reuses the sweep's last M (no extra MTTKRP or Reduce-Scatter).
  const auto t = test::random_tensor({24, 24, 24}, 1404);
  ParOptions opt;
  opt.base.rank = 4;
  opt.base.max_sweeps = 6;
  opt.base.tol = 0.0;
  opt.base.engine = core::EngineKind::kMsdt;
  opt.grid_dims = {2, 2, 1};
  const dist::DenseBlockProblem problem(t);
  const core::NncpOptions nn;
  const ParResult als = par_cp_als(problem, 4, opt);
  const ParResult hals = par_cp_als(problem, 4, opt, &nn);
  ASSERT_EQ(als.sweeps, hals.sweeps);
  EXPECT_EQ(hals.comm_cost.total().messages, als.comm_cost.total().messages);
  EXPECT_EQ(hals.comm_cost.total().words_horizontal,
            als.comm_cost.total().words_horizontal);
}

}  // namespace
}  // namespace parpp::par
