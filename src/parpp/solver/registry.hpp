// Method registry: what each Method means to the two driver cores.
//
// A method is two independent choices — which sweep runs (plain ALS,
// Algorithm 1/3, or pairwise perturbation, Algorithm 2/4) and which factor
// update it applies (normal-equations solve or nonnegative HALS).
// parpp::solve() reads both flags off the entry and calls par::par_cp_als
// or par::par_pp_cp_als on the problem it built from the tensor source,
// passing &spec.nncp as the update rule when the method is nonnegative.
#pragma once

#include <string_view>
#include <vector>

#include "parpp/solver/spec.hpp"

namespace parpp::solver {

struct MethodEntry {
  Method method;
  std::string_view name;
  bool pairwise_perturbation;  ///< runs the PP sweep (Algorithm 2 / 4)
  bool nonnegative;            ///< HALS factor update (core::NncpOptions)
};

/// The entry for `method`; throws parpp::error for an unregistered method.
[[nodiscard]] const MethodEntry& method_entry(Method method);

/// All registered methods, in enum order (CLI help, bench sweeps).
[[nodiscard]] const std::vector<MethodEntry>& registered_methods();

/// The driver options derived from a spec for a tensor of `order` — what
/// solve() passes to the cores, exposed for tests that call a core
/// directly.
[[nodiscard]] par::ParOptions par_options(const SolverSpec& spec, int order);

}  // namespace parpp::solver
