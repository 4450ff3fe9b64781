#include <gtest/gtest.h>

#include <cmath>

#include "parpp/core/driver.hpp"
#include "parpp/data/collinearity.hpp"
#include "test_util.hpp"

namespace parpp::core {
namespace {

TEST(PpAls, ReachesAlsFitnessOnLowRank) {
  const auto t = test::low_rank_tensor({10, 9, 8}, 3, 601);
  CpOptions opt;
  opt.rank = 3;
  opt.max_sweeps = 200;
  opt.tol = 1e-9;
  const solver::SolveReport als = test::solve_als(t, opt);
  PpOptions pp;
  pp.pp_tol = 0.1;
  const solver::SolveReport ppr = test::solve_pp(t, opt, pp);
  EXPECT_GT(ppr.fitness, 0.999);
  EXPECT_NEAR(ppr.fitness, als.fitness, 5e-3);
}

TEST(PpAls, ActivatesPpSweepsOnSlowConvergence) {
  // High-collinearity tensors converge slowly, which is exactly when PP
  // engages (paper Sec. V-C).
  const auto gen =
      data::make_collinear_tensor({14, 14, 14}, 4, 0.85, 0.9, 602);
  CpOptions opt;
  opt.rank = 4;
  opt.max_sweeps = 120;
  opt.tol = 1e-8;
  PpOptions pp;
  pp.pp_tol = 0.1;
  const solver::SolveReport result = test::solve_pp(gen.tensor, opt, pp);
  EXPECT_GT(result.num_pp_init, 0) << "PP should have initialized";
  EXPECT_GT(result.num_pp_approx, 0) << "PP sweeps should have run";
  EXPECT_GT(result.num_als_sweeps, 0);
}

TEST(PpAls, StatsSumToTotalSweeps) {
  const auto gen = data::make_collinear_tensor({12, 12, 12}, 3, 0.6, 0.8, 603);
  CpOptions opt;
  opt.rank = 3;
  opt.max_sweeps = 80;
  opt.tol = 1e-8;
  const solver::SolveReport r = test::solve_pp(gen.tensor, opt);
  EXPECT_EQ(r.sweeps, r.num_als_sweeps + r.num_pp_init + r.num_pp_approx);
}

TEST(PpAls, FinalFitnessMatchesExplicitResidual) {
  const auto t = test::low_rank_tensor({8, 8, 8}, 2, 604);
  CpOptions opt;
  opt.rank = 2;
  opt.max_sweeps = 100;
  opt.tol = 1e-9;
  const solver::SolveReport r = test::solve_pp(t, opt);
  EXPECT_NEAR(test::explicit_residual(t, r.factors), r.residual, 1e-5);
}

TEST(PpAls, HistoryPhasesAreLabelled) {
  const auto gen = data::make_collinear_tensor({12, 12, 12}, 3, 0.85, 0.9, 605);
  CpOptions opt;
  opt.rank = 3;
  opt.max_sweeps = 100;
  opt.tol = 1e-9;
  PpOptions pp;
  pp.pp_tol = 0.1;
  const solver::SolveReport r = test::solve_pp(gen.tensor, opt, pp);
  bool saw_als = false, saw_init = false, saw_approx = false;
  for (const auto& rec : r.history) {
    saw_als |= rec.phase == "als";
    saw_init |= rec.phase == "pp-init";
    saw_approx |= rec.phase == "pp-approx";
  }
  EXPECT_TRUE(saw_als);
  EXPECT_TRUE(saw_init);
  EXPECT_TRUE(saw_approx);
}

TEST(PpAls, Order4Converges) {
  const auto t = test::low_rank_tensor({6, 5, 4, 5}, 2, 606);
  CpOptions opt;
  opt.rank = 2;
  opt.max_sweeps = 150;
  opt.tol = 1e-9;
  PpOptions pp;
  pp.pp_tol = 0.1;
  const solver::SolveReport r = test::solve_pp(t, opt, pp);
  EXPECT_GT(r.fitness, 0.99);
}

TEST(PpAls, RejectsBadTolerance) {
  const auto t = test::random_tensor({4, 4, 4}, 607);
  CpOptions opt;
  PpOptions pp;
  pp.pp_tol = 1.5;
  EXPECT_THROW((void)test::solve_pp(t, opt, pp), error);
}

TEST(PpAls, DtRegularEngineAlsoWorks) {
  const auto t = test::low_rank_tensor({8, 7, 6}, 2, 608);
  CpOptions opt;
  opt.rank = 2;
  opt.max_sweeps = 100;
  opt.tol = 1e-9;
  opt.engine = EngineKind::kDt;
  const solver::SolveReport r = test::solve_pp(t, opt);
  EXPECT_GT(r.fitness, 0.999);
}

TEST(PpAls, NaiveRegularEngineIsPromotedToMsdt) {
  // The operator build amortizes against a tree engine's cache.
  EXPECT_EQ(pp_regular_engine(EngineKind::kNaive), EngineKind::kMsdt);
  EXPECT_EQ(pp_regular_engine(EngineKind::kDt), EngineKind::kDt);
  EXPECT_EQ(pp_regular_engine(EngineKind::kMsdt), EngineKind::kMsdt);
  EXPECT_EQ(pp_regular_engine(EngineKind::kSparse), EngineKind::kSparse);
}

}  // namespace
}  // namespace parpp::core
