#include "parpp/dist/local_problem.hpp"

#include "parpp/core/pp_operators.hpp"

namespace parpp::dist {

namespace {

/// A rank's dense block: an extracted copy, or a view of the global tensor
/// when the block is the whole tensor (a one-block grid).
class DenseLocalProblem final : public LocalProblem {
 public:
  explicit DenseLocalProblem(tensor::DenseTensor block)
      : owned_(std::move(block)), block_(owned_),
        sq_norm_(block_.squared_norm()) {}
  explicit DenseLocalProblem(const tensor::DenseTensor* whole)
      : block_(*whole), sq_norm_(block_.squared_norm()) {}

  [[nodiscard]] const std::vector<index_t>& shape() const override {
    return block_.shape();
  }
  [[nodiscard]] double squared_norm() const override { return sq_norm_; }

  [[nodiscard]] std::unique_ptr<core::MttkrpEngine> make_engine(
      core::EngineKind kind, const std::vector<la::Matrix>& slice_factors,
      Profile* profile, const core::EngineOptions& options) const override {
    return core::make_engine(kind, block_, slice_factors, profile, options);
  }

  [[nodiscard]] std::unique_ptr<core::PpOperators> make_pp_operators(
      const std::vector<la::Matrix>& slice_factors, Profile* profile,
      const core::EngineOptions& options) const override {
    PARPP_CHECK(options.scalar == la::Scalar::kF64,
                "make_pp_operators: dense PP operator chains are fp64-only");
    return std::make_unique<core::PpOperators>(block_, slice_factors,
                                               profile);
  }

 private:
  tensor::DenseTensor owned_;  ///< empty for a whole-tensor view
  const tensor::DenseTensor& block_;
  double sq_norm_;
};

}  // namespace

std::unique_ptr<LocalProblem> DenseBlockProblem::make_local(
    const BlockDist& dist, const std::vector<int>& coords) const {
  if (dist.one_block()) return std::make_unique<DenseLocalProblem>(t_);
  return std::make_unique<DenseLocalProblem>(
      extract_local_block(*t_, dist, coords));
}

}  // namespace parpp::dist
