#include "workloads.hpp"

#include <cmath>

#include "parpp/data/collinearity.hpp"
#include "parpp/data/sparse_synthetic.hpp"
#include "parpp/util/common.hpp"
#include "parpp/util/rng.hpp"

namespace perfbench {

namespace {

using parpp::solver::Execution;
using parpp::solver::Method;

// Relative Gaussian noise added to the planted factors for the warm start.
constexpr double kWarmStartNoise = 0.5;
// Sparse workload generator parameters (make_sparse_powerlaw).
constexpr double kSparseDensity = 2e-5;
constexpr double kSparseZipf = 1.2;
// Collinearity range and noise of the dense generators.
constexpr double kCollinearLo = 0.5, kCollinearHi = 0.9, kDenseNoise = 1e-3;

std::vector<parpp::la::Matrix> perturbed(
    const std::vector<parpp::la::Matrix>& truth, std::uint64_t seed) {
  parpp::Rng rng(seed ^ 0x5DEECE66Dull);
  std::vector<parpp::la::Matrix> init;
  for (const auto& a : truth) {
    parpp::la::Matrix m = a;
    const double rms = a.frobenius_norm() / std::sqrt(double(a.size()));
    for (index_t i = 0; i < m.size(); ++i)
      m.data()[i] += kWarmStartNoise * rms * rng.normal();
    init.push_back(std::move(m));
  }
  return init;
}

std::vector<Workload> all_workloads() {
  return {
      {.name = "dense-msdt-o4",
       .instances = 8,
       .max_sweeps = 19,  // 1 + six MSDT periods of N-1 = 3 sweeps
       .target = 0.98,
       .fitness_floor = 0.98,
       .shape = {40, 40, 40, 40}},
      {.name = "dense-pp-par4",
       .method = Method::kPp,
       .nprocs = 4,
       .instances = 4,
       .max_sweeps = 100,
       .target = 0.98,
       .fitness_floor = 0.98,
       .shape = {200, 200, 200}},
      {.name = "sparse-skew-par4",
       .sparse = true,
       .nprocs = 4,
       .instances = 2,
       .max_sweeps = 50,
       .target = 0.98,
       .fitness_floor = 0.99,
       .shape = {4000, 4000, 4000}},
  };
}

}  // namespace

std::uint64_t instance_seed(std::uint64_t run_seed, int i) {
  return run_seed * 7919u + static_cast<std::uint64_t>(i) + 1u;
}

Instance Workload::make_instance(std::uint64_t seed) const {
  Instance in;
  in.seed = seed;
  if (sparse) {
    auto d = parpp::data::make_sparse_powerlaw(shape, kSparseDensity,
                                               kSparseZipf, seed, rank);
    in.init = perturbed(d.factors, seed);
    in.coo.emplace(std::move(d.tensor));
  } else {
    auto ct = parpp::data::make_collinear_tensor(
        shape, rank, kCollinearLo, kCollinearHi, seed, kDenseNoise);
    in.init = perturbed(ct.factors, seed);
    in.dense.emplace(std::move(ct.tensor));
  }
  return in;
}

parpp::solver::SolverSpec Workload::spec(const Instance& in) const {
  parpp::solver::SolverSpec s;
  s.rank = rank;
  s.seed = in.seed;
  s.initial_factors = in.init;
  // Fixed sweep budget: a negative tolerance never fires, so even the
  // exact-rank sparse tensor, whose fitness settles at exactly 1.0, runs
  // every sweep of the budget.
  s.stopping.max_sweeps = max_sweeps;
  s.stopping.fitness_tol = -1.0;
  if (nprocs > 1) s.execution = Execution::simulated_parallel(nprocs);
  s.method = method;
  s.pp.pp_tol = 0.2;
  if (sparse) {
    s.engine = parpp::core::EngineKind::kSparse;
    s.execution.partition = parpp::dist::PartitionKind::kBalancedNnz;
  }
  return s;
}

const Workload& find_workload(const std::string& name) {
  static const std::vector<Workload> workloads = all_workloads();
  for (const auto& w : workloads)
    if (w.name == name) return w;
  throw parpp::error("unknown workload '" + name + "'");
}

}  // namespace perfbench
