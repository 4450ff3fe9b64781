// The benchmark's workloads: how each one's inputs are generated from a
// seed and how it is handed to parpp::solve().
//
// A run solves `instances` independent problems whose seeds derive from the
// run seed. Every instance warm-starts from its planted factors perturbed by
// relative Gaussian noise, so the number of sweeps to the target fitness is a
// property of the program rather than of a random initialization landing in
// or out of an ALS swamp (see perfbench/README.md for the evidence).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "parpp/la/matrix.hpp"
#include "parpp/solver/spec.hpp"
#include "parpp/tensor/coo_tensor.hpp"
#include "parpp/tensor/dense_tensor.hpp"

namespace perfbench {

using parpp::index_t;

/// One generated problem: the tensor (dense or COO) and the warm start.
struct Instance {
  std::uint64_t seed = 0;
  std::optional<parpp::tensor::DenseTensor> dense;
  std::optional<parpp::tensor::CooTensor> coo;
  std::vector<parpp::la::Matrix> init;
};

struct Workload {
  std::string name;
  parpp::solver::Method method = parpp::solver::Method::kAls;
  bool sparse = false;
  int nprocs = 1;          ///< simulated ranks (1 = sequential)
  int instances = 1;       ///< problems per run
  int max_sweeps = 0;      ///< fixed sweep budget per solve
  double target = 0.0;     ///< fitness that ends time_to_target_s
  double fitness_floor = 0.0;
  std::vector<index_t> shape;
  index_t rank = 16;

  [[nodiscard]] Instance make_instance(std::uint64_t seed) const;
  [[nodiscard]] parpp::solver::SolverSpec spec(const Instance& in) const;
};

/// Throws parpp::error for an unknown name.
[[nodiscard]] const Workload& find_workload(const std::string& name);

/// Seed of instance `i` of a run started with `run_seed`.
[[nodiscard]] std::uint64_t instance_seed(std::uint64_t run_seed, int i);

}  // namespace perfbench
