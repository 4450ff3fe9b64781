// Pairwise-perturbation approximated step (paper Eq. (5)-(8)).
//
//   ~M(n) = M_p(n) + sum_{i != n} U(n,i) + V(n)
//   U(n,i)(x,k) = sum_y M_p(n,i)(x,y,k) dA(i)(y,k)     (first order)
//   V(n) = A(n) (sum_{i<j != n} dS(i) * dS(j) * (*_{k != i,j,n} S(k)))
//   dS(i) = A(i)^T dA(i)
//
// Costs per sweep: 2 N^2 s^2 R for the U corrections (mTTV on the pair
// operators) plus O(N^2 (R^2 + s R^2)) small terms — replacing the
// O(s^N R) tree contractions entirely.
#pragma once

#include "parpp/core/pp_operators.hpp"

namespace parpp::core {

/// Adds the first-order corrections sum_{i != n} U(n,i) to `m`: one mTTV of
/// each pair operator M_p(n,i) with d_factors[i] = dA(i) (d_factors[n] is
/// not read; the rows of every dA(i) match the operators' tensor). Pair
/// operators with a valid fp32 mirror (sparse kF32 builds) stream it. `u`
/// is the mTTV scratch. PpApprox and the parallel PP driver's local
/// correction both run this.
void add_first_order(const PpOperators& ops, int n,
                     const std::vector<la::Matrix>& d_factors, la::Matrix& m,
                     tensor::DenseTensor& u, Profile* profile);

class PpApprox {
 public:
  /// Binds to built operators and the live factor/Gram vectors; `a_p` is
  /// the snapshot taken at the operator build.
  PpApprox(const PpOperators& ops, const std::vector<la::Matrix>& factors,
           const std::vector<la::Matrix>& a_p,
           const std::vector<la::Matrix>& grams, Profile* profile = nullptr);

  /// Recomputes dA(i) = A(i) - A_p(i) and dS(i); call after A(i) changes.
  void refresh_mode(int i);

  /// The approximated MTTKRP ~M(n) at the current factors.
  [[nodiscard]] la::Matrix mttkrp_approx(int n) const;

  /// Include the second-order V(n) term (Eq. (7)); on by default, exposed
  /// so the ablation bench can measure its contribution.
  void set_second_order(bool enabled) { second_order_ = enabled; }

  [[nodiscard]] const la::Matrix& d_factor(int i) const {
    return d_factors_[static_cast<std::size_t>(i)];
  }

 private:
  const PpOperators* ops_;
  const std::vector<la::Matrix>* factors_;
  const std::vector<la::Matrix>* a_p_;
  const std::vector<la::Matrix>* grams_;
  Profile* profile_;
  int n_;
  bool second_order_ = true;
  std::vector<la::Matrix> d_factors_;  ///< dA(i)
  std::vector<la::Matrix> d_grams_;    ///< dS(i)
  /// Scratch for the U(n,i) mTTV corrections, recycled across calls.
  mutable util::KernelWorkspace ws_;
  mutable tensor::DenseTensor u_scratch_{ws_};
};

}  // namespace parpp::core
