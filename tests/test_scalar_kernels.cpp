// The scalar-type axis: fp32-storage kernels vs their fp64 twins.
//
// Every fp32 entry point stores the *streamed* operands (factors, tensor
// values, KRP panels) in fp32 and accumulates in fp64, so parity vs the
// fp64 kernel is bounded by fp32 representation roundoff of the inputs —
// ~1e-7 relative per element, amplified by the reduction length. The
// property tests below assert ~1e-5 relative across all four hot kernels,
// plus the workspace non-aliasing and allocation-free guarantees and the
// end-to-end convergence-quality bound (fp32 fitness within 1e-4 of fp64).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "parpp/core/mttkrp_engine.hpp"
#include "parpp/core/pp_operators.hpp"
#include "parpp/core/sparse_engine.hpp"
#include "parpp/data/sparse_synthetic.hpp"
#include "parpp/la/gemm.hpp"
#include "parpp/la/scalar.hpp"
#include "parpp/solver/solve.hpp"
#include "parpp/tensor/csf_tensor.hpp"
#include "parpp/tensor/mttkrp_fused.hpp"
#include "parpp/tensor/mttkrp_sparse.hpp"
#include "test_util.hpp"

namespace parpp {
namespace {

double max_abs(const la::Matrix& m) {
  return m.max_abs_diff(la::Matrix(m.rows(), m.cols()));
}

/// |a - b|_max <= tol * |a|_max — the relative form the fp32 bounds use.
void expect_rel_near(const la::Matrix& a, const la::Matrix& b, double tol,
                     const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  const double scale = std::max(max_abs(a), 1.0);
  EXPECT_LE(a.max_abs_diff(b), tol * scale) << what;
}

std::vector<float> to_f32(const double* src, index_t n) {
  std::vector<float> out(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    out[static_cast<std::size_t>(i)] = static_cast<float>(src[i]);
  return out;
}

// ---------------------------------------------------------------- GEMM --

TEST(ScalarKernels, GemmF32Parity) {
  for (index_t m : {7, 32}) {
    const index_t k = m + 5;
    const index_t n = m + 3;
    const la::Matrix a = test::random_matrix(m, k, 900 + m);
    const la::Matrix b = test::random_matrix(k, n, 901 + m);
    const std::vector<float> a32 = to_f32(a.data(), a.size());
    const std::vector<float> b32 = to_f32(b.data(), b.size());

    la::Matrix c64(m, n);
    la::Matrix c32(m, n);
    la::gemm_raw(la::Trans::kNo, la::Trans::kNo, m, n, k, 1.0, a.data(), k,
                 b.data(), n, 0.0, c64.data(), n);
    la::gemm_raw_f32(la::Trans::kNo, la::Trans::kNo, m, n, k, 1.0,
                     a32.data(), k, b32.data(), n, 0.0, c32.data(), n);
    expect_rel_near(c64, c32, 1e-5, "gemm fp32 storage");
  }
}

TEST(ScalarKernels, GemmF32ParityTransposed) {
  const index_t m = 17, n = 13, k = 21;
  const la::Matrix at = test::random_matrix(k, m, 910);  // op(A) = A^T
  const la::Matrix bt = test::random_matrix(n, k, 911);  // op(B) = B^T
  const std::vector<float> a32 = to_f32(at.data(), at.size());
  const std::vector<float> b32 = to_f32(bt.data(), bt.size());

  la::Matrix c64(m, n);
  la::Matrix c32(m, n);
  la::gemm_raw(la::Trans::kYes, la::Trans::kYes, m, n, k, 2.0, at.data(), m,
               bt.data(), k, 0.0, c64.data(), n);
  la::gemm_raw_f32(la::Trans::kYes, la::Trans::kYes, m, n, k, 2.0,
                   a32.data(), m, b32.data(), k, 0.0, c32.data(), n);
  expect_rel_near(c64, c32, 1e-5, "gemm fp32 storage (transposed)");
}

// --------------------------------------------------------- fused MTTKRP --

void expect_fused_f32_parity(const std::vector<index_t>& shape, index_t rank,
                             std::uint64_t seed) {
  const tensor::DenseTensor t = test::random_tensor(shape, seed);
  const auto factors = test::random_factors(shape, rank, seed + 1);
  const std::vector<float> t32 = to_f32(t.data(), t.size());
  std::vector<la::MatrixF32> mirrors;
  la::sync_mirrors(factors, mirrors);

  for (int mode = 0; mode < t.order(); ++mode) {
    const la::Matrix ref = tensor::mttkrp_fused(t, factors, mode);
    la::Matrix out;
    tensor::mttkrp_into_f32(t32.data(), shape, mirrors, mode, out);
    expect_rel_near(ref, out, 1e-5, "fused MTTKRP fp32 storage");
  }
}

TEST(ScalarKernels, FusedMttkrpF32ParityAllModes) {
  expect_fused_f32_parity({9, 8, 7}, 6, 920);    // generic-rank kernel
  expect_fused_f32_parity({10, 6, 9}, 8, 921);   // R=8 register block
  expect_fused_f32_parity({7, 5, 4, 6}, 16, 922);  // R=16, order 4
}

// ----------------------------------------------------------- CSF walks --

void expect_csf_f32_parity(const tensor::CooTensor& coo,
                           tensor::CsfLayout layout, index_t rank,
                           std::uint64_t seed) {
  const tensor::CsfTensor csf(coo, tensor::CsfOptions{layout});
  const auto factors = test::random_factors(coo.shape(), rank, seed);
  std::vector<la::MatrixF32> mirrors;
  la::sync_mirrors(factors, mirrors);
  tensor::CsfValsF32 vals32;
  vals32.sync(csf);

  for (int mode = 0; mode < coo.order(); ++mode) {
    for (tensor::CsfWalk walk :
         {tensor::CsfWalk::kFiber, tensor::CsfWalk::kTiled}) {
      const la::Matrix ref =
          tensor::mttkrp_csf(csf, factors, mode, nullptr, nullptr, walk);
      la::Matrix out;
      tensor::mttkrp_csf_into_f32(csf, mirrors, mode, vals32, out, nullptr,
                                  nullptr, walk);
      expect_rel_near(ref, out, 1e-5, "CSF MTTKRP fp32 storage");
    }
  }
}

TEST(ScalarKernels, CsfMttkrpF32ParityAllModesLayout) {
  expect_csf_f32_parity(data::make_sparse_random({9, 8, 7}, 0.15, 30),
                        tensor::CsfLayout::kAllModes, 6, 930);
  expect_csf_f32_parity(data::make_sparse_random({7, 5, 4, 6}, 0.08, 31),
                        tensor::CsfLayout::kAllModes, 8, 931);
}

TEST(ScalarKernels, CsfMttkrpF32ParityHalfLayout) {
  // kHalf exercises the downward leaf-scatter walk for the upper modes.
  expect_csf_f32_parity(data::make_sparse_random({9, 8, 7}, 0.15, 32),
                        tensor::CsfLayout::kHalf, 6, 932);
  expect_csf_f32_parity(data::make_sparse_random({7, 5, 4, 6}, 0.08, 33),
                        tensor::CsfLayout::kHalf, 16, 933);
}

// -------------------------------------------------------- pair operator --

void expect_pair_f32_parity(const tensor::CooTensor& coo, index_t rank,
                            std::uint64_t seed) {
  const tensor::CsfTensor csf(coo);
  const auto factors = test::random_factors(coo.shape(), rank, seed);
  std::vector<la::MatrixF32> mirrors;
  la::sync_mirrors(factors, mirrors);
  tensor::CsfValsF32 vals32;
  vals32.sync(csf);

  for (int i = 0; i < coo.order(); ++i) {
    for (int j = 0; j < coo.order(); ++j) {
      if (i == j) continue;
      tensor::DenseTensor ref;
      tensor::pair_mttkrp_csf_into(csf, factors, i, j, ref);
      tensor::DenseTensor out;
      tensor::pair_mttkrp_csf_into_f32(csf, mirrors, i, j, vals32, out);
      ASSERT_EQ(ref.shape(), out.shape());
      double scale = 0.0;
      for (index_t e = 0; e < ref.size(); ++e)
        scale = std::max(scale, std::abs(ref.data()[e]));
      EXPECT_LE(ref.max_abs_diff(out), 1e-5 * std::max(scale, 1.0))
          << "pair operator fp32 storage (" << i << ", " << j << ")";
    }
  }
}

TEST(ScalarKernels, PairMttkrpF32ParityAllPairs) {
  expect_pair_f32_parity(data::make_sparse_random({9, 8, 7}, 0.15, 40), 6,
                         940);
  expect_pair_f32_parity(data::make_sparse_random({6, 5, 4, 5}, 0.08, 41), 8,
                         941);
}

// -------------------------------------------------- workspace discipline --

TEST(ScalarKernels, F32LeaseNeverAliasesF64LeaseOfSameCount) {
  // The arena's free list is keyed by capacity in doubles. An fp32 lease of
  // n elements asks for ceil(n/2) doubles, an fp64 lease of n elements for
  // n doubles — different keys for every n >= 2, so a recycled fp32 buffer
  // can never come back as a too-small fp64 buffer.
  for (index_t n : {2, 3, 17, 64, 1023}) {
    EXPECT_NE(la::f32_lease_doubles(n), n) << "n = " << n;
    EXPECT_GE(la::f32_lease_doubles(n) * 2, n) << "n = " << n;
  }

  util::KernelWorkspace ws;
  {
    auto f32 = ws.lease(la::f32_lease_doubles(64));
    float* p = la::as_f32(f32);
    for (index_t i = 0; i < 64; ++i) p[i] = 1.0f;  // 64 floats must fit
    EXPECT_GE(f32.capacity(), 32);  // the arena may round the slab up
  }
  // Same element count as fp64: whatever the free list serves (recycled or
  // fresh) must hold 64 *doubles*, not 64 floats.
  auto f64 = ws.lease(64);
  EXPECT_GE(f64.capacity(), 64);
}

TEST(ScalarKernels, SparseEngineF32SteadyStateAllocFree) {
  const tensor::CooTensor coo = data::make_sparse_random({12, 10, 9}, 0.1, 50);
  const tensor::CsfTensor csf(coo);
  auto factors = test::random_factors(coo.shape(), 8, 950);

  core::EngineOptions opts;
  opts.scalar = la::Scalar::kF32;
  core::SparseEngine engine(csf, factors, nullptr, opts);

  // Warm-up sweep: leases sized, mirrors allocated.
  for (int mode = 0; mode < csf.order(); ++mode) {
    factors[static_cast<std::size_t>(mode)] = engine.mttkrp(mode);
    engine.notify_update(mode);
  }
  const std::size_t allocs = engine.workspace().allocation_count();
  const std::size_t bytes = engine.workspace().total_bytes();
  // Steady state: mirror re-syncs and walks must reuse everything.
  for (int sweep = 0; sweep < 3; ++sweep) {
    for (int mode = 0; mode < csf.order(); ++mode) {
      factors[static_cast<std::size_t>(mode)] = engine.mttkrp(mode);
      engine.notify_update(mode);
    }
  }
  EXPECT_EQ(engine.workspace().allocation_count(), allocs);
  EXPECT_EQ(engine.workspace().total_bytes(), bytes);
  EXPECT_EQ(engine.workspace().leased_buffers(), 0u);
}

TEST(ScalarKernels, FusedF32SteadyStateAllocFree) {
  const std::vector<index_t> shape = {10, 9, 8};
  const tensor::DenseTensor t = test::random_tensor(shape, 960);
  const auto factors = test::random_factors(shape, 8, 961);
  const std::vector<float> t32 = to_f32(t.data(), t.size());
  std::vector<la::MatrixF32> mirrors;
  la::sync_mirrors(factors, mirrors);

  util::KernelWorkspace ws;
  la::Matrix out;
  for (int mode = 0; mode < t.order(); ++mode)
    tensor::mttkrp_into_f32(t32.data(), shape, mirrors, mode, out, nullptr,
                            &ws);
  const std::size_t allocs = ws.allocation_count();
  const std::size_t bytes = ws.total_bytes();
  for (int sweep = 0; sweep < 3; ++sweep)
    for (int mode = 0; mode < t.order(); ++mode)
      tensor::mttkrp_into_f32(t32.data(), shape, mirrors, mode, out, nullptr,
                              &ws);
  EXPECT_EQ(ws.allocation_count(), allocs);
  EXPECT_EQ(ws.total_bytes(), bytes);
  EXPECT_EQ(ws.leased_buffers(), 0u);
}

// ------------------------------------------------------------ rejection --

TEST(ScalarKernels, DimensionTreeEnginesRejectF32) {
  const std::vector<index_t> shape = {6, 5, 4};
  const tensor::DenseTensor t = test::random_tensor(shape, 970);
  const auto factors = test::random_factors(shape, 4, 971);
  core::EngineOptions opts;
  opts.scalar = la::Scalar::kF32;
  EXPECT_THROW(core::make_engine(core::EngineKind::kDt, t, factors, nullptr,
                                 opts),
               parpp::error);
  EXPECT_THROW(core::make_engine(core::EngineKind::kMsdt, t, factors,
                                 nullptr, opts),
               parpp::error);
  // The naive (fused) engine is the dense fp32 path and must accept it.
  EXPECT_NO_THROW(core::make_engine(core::EngineKind::kNaive, t, factors,
                                    nullptr, opts));
}

// --------------------------------------------------- end-to-end quality --

solver::SolveReport run_dense(const tensor::DenseTensor& t,
                              la::Scalar scalar) {
  solver::SolverSpec spec;
  spec.method = solver::Method::kAls;
  spec.rank = 6;
  spec.seed = 7;
  spec.engine = core::EngineKind::kNaive;
  spec.engine_options.scalar = scalar;
  spec.stopping.max_sweeps = 40;
  spec.stopping.fitness_tol = 0.0;  // fixed sweep count for a fair compare
  return parpp::solve(t, spec);
}

TEST(ScalarKernels, DenseFusedF32ConvergesLikeF64) {
  const tensor::DenseTensor t = test::low_rank_tensor({12, 11, 10}, 6, 980);
  const auto r64 = run_dense(t, la::Scalar::kF64);
  const auto r32 = run_dense(t, la::Scalar::kF32);
  EXPECT_GT(r64.fitness, 0.98);  // sanity: the problem is solvable
  EXPECT_NEAR(r32.fitness, r64.fitness, 1e-4);
}

solver::SolveReport run_sparse(const tensor::CsfTensor& t,
                               solver::Method method, la::Scalar scalar,
                               int nprocs = 1) {
  solver::SolverSpec spec;
  spec.execution.nprocs = nprocs;
  spec.method = method;
  spec.rank = 5;
  spec.seed = 7;
  spec.engine = core::EngineKind::kSparse;
  spec.engine_options.scalar = scalar;
  spec.stopping.max_sweeps = 40;
  spec.stopping.fitness_tol = 0.0;
  return parpp::solve(t, spec);
}

TEST(ScalarKernels, SparseF32ConvergesLikeF64) {
  const auto data = data::make_sparse_lowrank({16, 14, 12}, 5, 0.08, 985);
  const tensor::CsfTensor csf(data.tensor);
  const auto r64 = run_sparse(csf, solver::Method::kAls, la::Scalar::kF64);
  const auto r32 = run_sparse(csf, solver::Method::kAls, la::Scalar::kF32);
  EXPECT_GT(r64.fitness, 0.9);
  EXPECT_NEAR(r32.fitness, r64.fitness, 1e-4);
}

TEST(ScalarKernels, SparsePpF32ConvergesLikeF64) {
  const auto data = data::make_sparse_lowrank({16, 14, 12}, 5, 0.08, 986);
  const tensor::CsfTensor csf(data.tensor);
  // One rank and four run the same first-order correction, which streams
  // the fp32 pair-operator mirror.
  for (int nprocs : {1, 4}) {
    const auto r64 =
        run_sparse(csf, solver::Method::kPp, la::Scalar::kF64, nprocs);
    const auto r32 =
        run_sparse(csf, solver::Method::kPp, la::Scalar::kF32, nprocs);
    EXPECT_GT(r64.num_pp_approx, 0) << nprocs;  // PP actually engaged
    EXPECT_NEAR(r32.fitness, r64.fitness, 1e-4) << nprocs;
  }
}

// fp32 pair operators: parity of the PpOperators build + the fp32-streamed
// correction path against the all-fp64 build.
TEST(ScalarKernels, PpOperatorsF32BuildMatchesF64) {
  const auto data = data::make_sparse_lowrank({12, 10, 9}, 4, 0.1, 987);
  const tensor::CsfTensor csf(data.tensor);
  const auto factors = test::random_factors(csf.shape(), 4, 988);

  core::PpOperators ops64(csf, factors, nullptr, la::Scalar::kF64);
  core::PpOperators ops32(csf, factors, nullptr, la::Scalar::kF32);
  ops64.build();
  ops32.build();
  for (int i = 0; i < csf.order(); ++i) {
    for (int j = i + 1; j < csf.order(); ++j) {
      const auto& a = ops64.pair_op(i, j);
      const auto& b = ops32.pair_op(i, j);
      ASSERT_EQ(a.data.shape(), b.data.shape());
      double scale = 0.0;
      for (index_t e = 0; e < a.data.size(); ++e)
        scale = std::max(scale, std::abs(a.data.data()[e]));
      EXPECT_LE(a.data.max_abs_diff(b.data), 1e-5 * std::max(scale, 1.0));
      EXPECT_TRUE(b.f32_valid);
      ASSERT_EQ(b.data_f32.size(),
                static_cast<std::size_t>(b.data.size()));
      // The fp32 mirror quantizes the fp64 build it rode along with.
      for (index_t e = 0; e < b.data.size(); ++e)
        EXPECT_EQ(b.data_f32[static_cast<std::size_t>(e)],
                  static_cast<float>(b.data.data()[e]));
    }
  }
}

}  // namespace
}  // namespace parpp
