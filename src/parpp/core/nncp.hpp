// Nonnegative CP decomposition via HALS (hierarchical ALS).
//
// The paper's time-lapse hyperspectral dataset (Fig. 5f) is "usually used
// on the benchmark of nonnegative tensor decomposition" (citing Liavas et
// al. and Ballard et al.), and the PLANC comparator is a nonnegative CP
// code. Nonnegativity only changes the factor update: the bottleneck is
// the *same* MTTKRP the tree engines accelerate, so both drivers (ALS and
// PP) run NNCP by taking a core::NncpOptions and calling the pass below in
// place of the normal-equations solve.
//
// HALS updates one rank-one component at a time:
//   A(n)(:,r) <- max(0, A(n)(:,r) + (M(n)(:,r) - A(n) Γ(n)(:,r)) / Γ(n)(r,r))
// which needs exactly one MTTKRP per mode per sweep — identical cost
// structure to plain ALS, plus O(s R^2) vector work.
#pragma once

#include "parpp/la/matrix.hpp"
#include "parpp/util/profile.hpp"

namespace parpp::core {

/// One projected HALS pass over the columns of A given M = MTTKRP(A's mode)
/// and Γ:  A(:,r) <- max(0, A(:,r) + (M(:,r) - A Γ(:,r)) / Γ(r,r)).
/// Columns update sequentially (Gauss-Seidel), rows independently, so the
/// pass applies unchanged to a rank's block of rows (the drivers call it on
/// their Q rows and rescue zero columns globally, see
/// par::rescue_zero_columns).
void hals_pass(la::Matrix& a, const la::Matrix& m, const la::Matrix& gamma,
               double eps_floor, Profile& profile);

}  // namespace parpp::core
