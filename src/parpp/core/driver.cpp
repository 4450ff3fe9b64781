#include "parpp/core/driver.hpp"

#include "parpp/util/rng.hpp"

namespace parpp::core {

EngineKind pp_regular_engine(EngineKind requested) {
  return requested == EngineKind::kNaive ? EngineKind::kMsdt : requested;
}

std::vector<la::Matrix> init_factors(const std::vector<index_t>& shape,
                                     index_t rank, std::uint64_t seed) {
  Rng root(seed);
  std::vector<la::Matrix> factors;
  factors.reserve(shape.size());
  for (std::size_t m = 0; m < shape.size(); ++m) {
    Rng rng = root.split(m + 1);
    la::Matrix a(shape[m], rank);
    a.fill_uniform(rng);
    factors.push_back(std::move(a));
  }
  return factors;
}

void check_initial_factors(const std::vector<index_t>& shape, index_t rank,
                           const std::vector<la::Matrix>& factors) {
  PARPP_CHECK(factors.size() == shape.size(),
              "warm start: need one factor per tensor mode");
  for (std::size_t m = 0; m < factors.size(); ++m) {
    PARPP_CHECK(factors[m].rows() == shape[m] && factors[m].cols() == rank,
                "warm start: factor ", m, " shape mismatch");
  }
}

}  // namespace parpp::core
