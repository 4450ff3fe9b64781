#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "parpp/par/par_cp_als.hpp"
#include "parpp/par/planc_baseline.hpp"
#include "parpp/solver/solver.hpp"
#include "test_util.hpp"

namespace parpp::par {
namespace {

struct GridCase {
  std::vector<int> dims;
};

// Names each case by its grid ("grid2x2x4") so test names do not depend on
// where the dims vector happens to be allocated.
void PrintTo(const GridCase& c, std::ostream* os) {
  *os << "grid" << test::shape_name(c.dims);
}

class ParGrids : public ::testing::TestWithParam<GridCase> {};

/// Algorithm 3 on any grid must reproduce the sequential trajectory exactly
/// (same deterministic initialization, same updates).
TEST_P(ParGrids, MatchesSequentialRun) {
  const std::vector<index_t> shape{8, 9, 10};
  const auto t = test::random_tensor(shape, 801);
  core::CpOptions seq_opt;
  seq_opt.rank = 4;
  seq_opt.max_sweeps = 6;
  seq_opt.tol = 0.0;
  seq_opt.engine = core::EngineKind::kDt;
  const solver::SolveReport seq = test::solve_als(t, seq_opt);

  ParOptions par_opt;
  par_opt.base = seq_opt;
  par_opt.grid_dims = GetParam().dims;
  int nprocs = 1;
  for (int d : GetParam().dims) nprocs *= d;
  const ParResult par = par_cp_als(dist::DenseBlockProblem(t), nprocs, par_opt);

  EXPECT_NEAR(par.fitness, seq.fitness, 1e-8);
  ASSERT_EQ(par.factors.size(), seq.factors.size());
  for (std::size_t m = 0; m < seq.factors.size(); ++m) {
    const double scale = seq.factors[m].frobenius_norm() + 1.0;
    EXPECT_LE(par.factors[m].max_abs_diff(seq.factors[m]), 1e-6 * scale)
        << "mode " << m;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, ParGrids,
    ::testing::Values(GridCase{{1, 1, 1}}, GridCase{{2, 1, 1}},
                      GridCase{{1, 2, 2}}, GridCase{{2, 2, 2}},
                      GridCase{{4, 1, 2}}, GridCase{{2, 2, 4}}));

TEST(ParCpAls, MsdtLocalEngineMatchesDt) {
  const auto t = test::random_tensor({8, 8, 8}, 802);
  ParOptions opt;
  opt.base.rank = 3;
  opt.base.max_sweeps = 5;
  opt.base.tol = 0.0;
  opt.grid_dims = {2, 2, 2};
  opt.base.engine = core::EngineKind::kDt;
  const ParResult dt = par_cp_als(dist::DenseBlockProblem(t), 8, opt);
  opt.base.engine = core::EngineKind::kMsdt;
  const ParResult msdt = par_cp_als(dist::DenseBlockProblem(t), 8, opt);
  EXPECT_NEAR(dt.fitness, msdt.fitness, 1e-8);
}

TEST(ParCpAls, PlancBaselineMatchesDistributedSolve) {
  const auto t = test::random_tensor({6, 8, 10}, 803);
  ParOptions opt;
  opt.base.rank = 3;
  opt.base.max_sweeps = 4;
  opt.base.tol = 0.0;
  opt.grid_dims = {2, 2, 1};
  const dist::DenseBlockProblem problem(t);
  const ParResult ours = par_cp_als(problem, 4, opt);
  const ParResult planc = par_cp_als(problem, 4, planc_options(opt));
  EXPECT_NEAR(ours.fitness, planc.fitness, 1e-8);
  // PLANC moves more words (the extra M All-Gather).
  EXPECT_GT(planc.comm_cost.total().words_horizontal,
            ours.comm_cost.total().words_horizontal);
}

TEST(ParCpAls, Order4Grid) {
  const auto t = test::random_tensor({6, 4, 6, 4}, 804);
  core::CpOptions seq_opt;
  seq_opt.rank = 3;
  seq_opt.max_sweeps = 4;
  seq_opt.tol = 0.0;
  const solver::SolveReport seq = test::solve_als(t, seq_opt);
  ParOptions opt;
  opt.base = seq_opt;
  opt.grid_dims = {2, 1, 2, 2};
  const ParResult par = par_cp_als(dist::DenseBlockProblem(t), 8, opt);
  EXPECT_NEAR(par.fitness, seq.fitness, 1e-8);
}

TEST(ParCpAls, NonDivisibleExtentsStillExact) {
  // Padding paths: extents not divisible by grid dims or group sizes.
  const auto t = test::random_tensor({7, 9, 5}, 805);
  core::CpOptions seq_opt;
  seq_opt.rank = 3;
  seq_opt.max_sweeps = 5;
  seq_opt.tol = 0.0;
  const solver::SolveReport seq = test::solve_als(t, seq_opt);
  ParOptions opt;
  opt.base = seq_opt;
  opt.grid_dims = {2, 2, 2};
  const ParResult par = par_cp_als(dist::DenseBlockProblem(t), 8, opt);
  EXPECT_NEAR(par.fitness, seq.fitness, 1e-8);
  for (std::size_t m = 0; m < seq.factors.size(); ++m)
    EXPECT_LE(par.factors[m].max_abs_diff(seq.factors[m]), 1e-6);
}

TEST(ParCpAls, SweepProfilesRecorded) {
  const auto t = test::random_tensor({8, 8, 8}, 806);
  ParOptions opt;
  opt.base.rank = 3;
  opt.base.max_sweeps = 3;
  opt.base.tol = 0.0;
  opt.grid_dims = {2, 2, 1};
  const ParResult r = par_cp_als(dist::DenseBlockProblem(t), 4, opt);
  ASSERT_EQ(static_cast<int>(r.sweep_profiles.size()), r.sweeps);
  for (const auto& p : r.sweep_profiles) {
    EXPECT_GT(p.flops(Kernel::kTTM), 0.0);
  }
  EXPECT_GT(r.comm_cost.total().messages, 0.0);
  EXPECT_GT(r.mean_sweep_seconds, 0.0);
}

TEST(ParCpAls, NonnegativeSweepProfilesRecordedThroughSolve) {
  // The nonnegative methods run the same parallel cores, so they report
  // one slowest-rank profile per sweep and a critical path, like ALS.
  const auto t = test::low_rank_tensor({8, 8, 8}, 3, 808);
  for (solver::Method method :
       {solver::Method::kNncpHals, solver::Method::kPpNncp}) {
    solver::SolverSpec spec;
    spec.method = method;
    spec.rank = 3;
    spec.stopping.max_sweeps = 12;
    spec.stopping.fitness_tol = 0.0;
    spec.pp.pp_tol = 0.3;
    spec.execution = solver::Execution::simulated_parallel(4);
    const solver::SolveReport r = parpp::solve(t, spec);
    const std::string name(solver::to_string(method));
    ASSERT_EQ(static_cast<int>(r.sweep_profiles.size()), r.sweeps) << name;
    EXPECT_GT(r.critical_path_profile.seconds(Kernel::kTTM), 0.0) << name;
    EXPECT_GT(r.profile.flops(Kernel::kTTM), 0.0) << name;
  }
}

TEST(ParCpAls, CommCostScalesWithCollectiveCount) {
  const auto t = test::random_tensor({8, 8, 8}, 807);
  ParOptions opt;
  opt.base.rank = 3;
  opt.base.tol = 0.0;
  opt.grid_dims = {2, 2, 2};
  opt.base.max_sweeps = 2;
  const ParResult two = par_cp_als(dist::DenseBlockProblem(t), 8, opt);
  opt.base.max_sweeps = 4;
  const ParResult four = par_cp_als(dist::DenseBlockProblem(t), 8, opt);
  EXPECT_GT(four.comm_cost.total().messages,
            1.5 * two.comm_cost.total().messages);
}

}  // namespace
}  // namespace parpp::par
