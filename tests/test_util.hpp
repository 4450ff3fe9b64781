// Shared helpers for the parpp test suite.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "parpp/core/driver.hpp"
#include "parpp/la/matrix.hpp"
#include "parpp/solver/solve.hpp"
#include "parpp/tensor/dense_tensor.hpp"
#include "parpp/tensor/reconstruct.hpp"
#include "parpp/util/rng.hpp"

namespace parpp::test {

inline tensor::DenseTensor random_tensor(const std::vector<index_t>& shape,
                                         std::uint64_t seed) {
  tensor::DenseTensor t(shape);
  Rng rng(seed);
  t.fill_uniform(rng);
  return t;
}

inline tensor::DenseTensor random_normal_tensor(
    const std::vector<index_t>& shape, std::uint64_t seed) {
  tensor::DenseTensor t(shape);
  Rng rng(seed);
  t.fill_normal(rng);
  return t;
}

inline la::Matrix random_matrix(index_t rows, index_t cols,
                                std::uint64_t seed) {
  la::Matrix m(rows, cols);
  Rng rng(seed);
  m.fill_uniform(rng);
  return m;
}

inline std::vector<la::Matrix> random_factors(
    const std::vector<index_t>& shape, index_t rank, std::uint64_t seed) {
  return core::init_factors(shape, rank, seed);
}

/// A parpp::solve() spec running `method` with `opt`'s rank, seed and
/// stopping rule; every other axis keeps its SolverSpec default
/// (sequential, MSDT engine).
inline solver::SolverSpec spec_like(solver::Method method,
                                    const core::CpOptions& opt) {
  solver::SolverSpec spec;
  spec.method = method;
  spec.rank = opt.rank;
  spec.seed = opt.seed;
  spec.stopping.max_sweeps = opt.max_sweeps;
  spec.stopping.fitness_tol = opt.tol;
  return spec;
}

/// spec_like plus `opt`'s engine and history setting: the sequential spec
/// that runs what a driver core runs with `opt` on one rank.
inline solver::SolverSpec core_spec(solver::Method method,
                                    const core::CpOptions& opt) {
  solver::SolverSpec spec = spec_like(method, opt);
  spec.engine = opt.engine;
  spec.engine_options = opt.engine_options;
  spec.record_history = opt.record_history;
  return spec;
}

inline solver::SolveReport solve_als(const solver::TensorSource& t,
                                     const core::CpOptions& opt) {
  return parpp::solve(t, core_spec(solver::Method::kAls, opt));
}

inline solver::SolveReport solve_pp(const solver::TensorSource& t,
                                    const core::CpOptions& opt,
                                    const core::PpOptions& pp = {}) {
  solver::SolverSpec spec = core_spec(solver::Method::kPp, opt);
  spec.pp = pp;
  return parpp::solve(t, spec);
}

/// Exact low-rank tensor with known factors.
inline tensor::DenseTensor low_rank_tensor(const std::vector<index_t>& shape,
                                           index_t rank, std::uint64_t seed) {
  return tensor::reconstruct(random_factors(shape, rank, seed));
}

inline void expect_matrix_near(const la::Matrix& a, const la::Matrix& b,
                               double tol, const char* what = "") {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_LE(a.max_abs_diff(b), tol) << what;
}

inline void expect_tensor_near(const tensor::DenseTensor& a,
                               const tensor::DenseTensor& b, double tol,
                               const char* what = "") {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  EXPECT_LE(a.max_abs_diff(b), tol) << what;
}

/// Explicit relative residual ||T - [[A]]||_F / ||T||_F by reconstruction —
/// the ground truth that Eq. (3) must match.
inline double explicit_residual(const tensor::DenseTensor& t,
                                const std::vector<la::Matrix>& factors) {
  tensor::DenseTensor approx = tensor::reconstruct(factors);
  approx.axpy(-1.0, t);
  return approx.frobenius_norm() / t.frobenius_norm();
}

/// "5x6x7" for {5, 6, 7}: a readable, allocation-independent label for
/// parameterized test cases.
template <typename T>
std::string shape_name(const std::vector<T>& dims) {
  std::string name;
  for (const T d : dims) {
    if (!name.empty()) name += 'x';
    name += std::to_string(d);
  }
  return name;
}

}  // namespace parpp::test
