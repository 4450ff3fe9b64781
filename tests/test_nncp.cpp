#include <gtest/gtest.h>

#include <cmath>

#include "parpp/data/hyperspectral.hpp"
#include "parpp/solver/solver.hpp"
#include "parpp/tensor/reconstruct.hpp"
#include "test_util.hpp"

namespace parpp::core {
namespace {

using solver::SolveReport;

/// Sequential NNCP-HALS solve of `t` (MSDT engine, seeded start).
SolveReport nncp(const tensor::DenseTensor& t, const CpOptions& opt,
                 const NncpOptions& nn = {},
                 EngineKind engine = EngineKind::kMsdt) {
  solver::SolverSpec spec = test::spec_like(solver::Method::kNncpHals, opt);
  spec.engine = engine;
  spec.nncp = nn;
  return parpp::solve(t, spec);
}

/// Nonnegative ground truth: uniform [0,1) factors are nonnegative, so the
/// planted tensor is recoverable by NNCP.
TEST(Nncp, RecoversNonnegativeLowRank) {
  const auto t = test::low_rank_tensor({10, 9, 8}, 3, 1301);
  CpOptions opt;
  opt.rank = 3;
  opt.max_sweeps = 200;
  opt.tol = 1e-9;
  const SolveReport r = nncp(t, opt);
  EXPECT_GT(r.fitness, 0.995);
}

TEST(Nncp, FactorsStayNonnegative) {
  const auto t = test::random_tensor({8, 7, 6}, 1302);
  CpOptions opt;
  opt.rank = 4;
  opt.max_sweeps = 30;
  opt.tol = 0.0;
  const SolveReport r = nncp(t, opt);
  for (const auto& a : r.factors) {
    for (index_t i = 0; i < a.rows(); ++i)
      for (index_t j = 0; j < a.cols(); ++j)
        EXPECT_GE(a(i, j), 0.0) << "HALS must keep factors nonnegative";
  }
}

TEST(Nncp, FitnessNonDecreasing) {
  const auto t = test::random_tensor({9, 8, 7}, 1303);
  CpOptions opt;
  opt.rank = 5;
  opt.max_sweeps = 25;
  opt.tol = 0.0;
  const SolveReport r = nncp(t, opt);
  ASSERT_GE(r.history.size(), 2u);
  for (std::size_t i = 1; i < r.history.size(); ++i)
    EXPECT_GE(r.history[i].fitness, r.history[i - 1].fitness - 1e-8);
}

TEST(Nncp, DtAndMsdtEnginesAgree) {
  const auto t = test::low_rank_tensor({8, 8, 8}, 2, 1304);
  CpOptions opt;
  opt.rank = 2;
  opt.max_sweeps = 20;
  opt.tol = 0.0;
  const SolveReport dt = nncp(t, opt, {}, EngineKind::kDt);
  const SolveReport msdt = nncp(t, opt, {}, EngineKind::kMsdt);
  EXPECT_NEAR(dt.fitness, msdt.fitness, 1e-8)
      << "engines are exact, trajectories must match";
}

TEST(Nncp, ResidualMatchesExplicit) {
  const auto t = test::low_rank_tensor({7, 6, 5}, 2, 1305);
  CpOptions opt;
  opt.rank = 2;
  opt.max_sweeps = 60;
  opt.tol = 1e-8;
  const SolveReport r = nncp(t, opt);
  EXPECT_NEAR(test::explicit_residual(t, r.factors), r.residual, 1e-6);
}

TEST(Nncp, HandlesHyperspectralWorkload) {
  data::HyperspectralOptions hs;
  hs.height = 16;
  hs.width = 20;
  hs.bands = 8;
  hs.frames = 4;
  const auto t = data::make_hyperspectral_tensor(hs);
  CpOptions opt;
  opt.rank = 12;
  opt.max_sweeps = 60;
  opt.tol = 1e-6;
  const SolveReport r = nncp(t, opt);
  EXPECT_GT(r.fitness, 0.8)
      << "nonnegative radiance data should compress well under NNCP";
}

TEST(Nncp, InnerIterationsStayInSameBallpark) {
  // Extra inner HALS passes change the trajectory but must land at a
  // comparable stationary fitness (they optimize the same subproblems more
  // tightly per sweep — not necessarily better after a fixed sweep count).
  const auto t = test::random_tensor({8, 8, 8}, 1306);
  CpOptions opt;
  opt.rank = 4;
  opt.max_sweeps = 15;
  opt.tol = 0.0;
  NncpOptions one, three;
  three.inner_iterations = 3;
  const SolveReport r1 = nncp(t, opt, one);
  const SolveReport r3 = nncp(t, opt, three);
  EXPECT_GT(r1.fitness, 0.3);
  EXPECT_GT(r3.fitness, 0.3);
  EXPECT_NEAR(r3.fitness, r1.fitness, 0.05);
}

}  // namespace
}  // namespace parpp::core
