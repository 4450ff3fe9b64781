#include "parpp/solver/registry.hpp"

#include "parpp/mpsim/grid.hpp"
#include "parpp/solver/strings.hpp"

namespace parpp::solver {

par::ParOptions par_options(const SolverSpec& spec, int order) {
  par::ParOptions p;
  p.base.rank = spec.rank;
  p.base.max_sweeps = spec.stopping.max_sweeps;
  p.base.tol = spec.stopping.fitness_tol;
  p.base.seed = spec.seed;
  p.base.engine = spec.engine;
  p.base.engine_options = spec.engine_options;
  p.base.record_history = spec.record_history;
  p.grid_dims = spec.execution.grid_dims.empty()
                    ? mpsim::ProcessorGrid::balanced_dims(
                          spec.execution.nprocs, order)
                    : spec.execution.grid_dims;
  p.solve = spec.execution.solve_mode;
  p.threads_per_rank = spec.execution.threads_per_rank;
  p.fault = spec.execution.fault;
  p.comm_timeout_seconds = spec.execution.comm_timeout_seconds;
  p.elastic = spec.execution.elastic;
  return p;
}

const std::vector<MethodEntry>& registered_methods() {
  static const std::vector<MethodEntry> entries{
      {Method::kAls, to_string(Method::kAls), false, false},
      {Method::kPp, to_string(Method::kPp), true, false},
      {Method::kNncpHals, to_string(Method::kNncpHals), false, true},
      {Method::kPpNncp, to_string(Method::kPpNncp), true, true},
  };
  return entries;
}

const MethodEntry& method_entry(Method method) {
  for (const MethodEntry& e : registered_methods()) {
    if (e.method == method) return e;
  }
  PARPP_CHECK(false, "solve: unregistered method ",
              static_cast<int>(method));
  return registered_methods().front();  // unreachable
}

}  // namespace parpp::solver
