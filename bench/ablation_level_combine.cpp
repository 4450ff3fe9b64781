// Ablation (Sec. IV): combining upper tree levels — auxiliary memory vs
// per-sweep compute trade-off.
//
// The paper notes both MSDT and PP can cap the order of cached
// intermediates at the cost of recomputing contractions: capping at l
// levels raises MSDT's cost to 2N/(N-l) s^N R / P while shrinking auxiliary
// memory from (s^N/P)^{(N-1)/N} R toward (s^N/P)^{(N-l)/N} R. We sweep
// max_cached_modes for DT and MSDT on an order-4 tensor and report
// per-sweep time, first-level TTM count and cached elements.
#include <cstdio>

#include "bench_util.hpp"
#include "parpp/core/driver.hpp"
#include "parpp/core/dim_tree.hpp"
#include "parpp/core/msdt.hpp"
#include "parpp/util/rng.hpp"
#include "parpp/util/timer.hpp"

using namespace parpp;

namespace {

template <typename Engine>
void run(const char* name, const tensor::DenseTensor& t,
         std::vector<la::Matrix>& factors, int max_cached, int sweeps) {
  core::EngineOptions opt;
  opt.max_cached_modes = max_cached;
  Engine engine(t, factors, nullptr, opt);
  const int n = t.order();
  // Warm-up sweep.
  for (int i = 0; i < n; ++i) {
    (void)engine.mttkrp(i);
    engine.notify_update(i);
  }
  index_t peak_elements = 0;
  const long ttm0 = engine.ttm_count();
  WallTimer timer;
  for (int s = 0; s < sweeps; ++s) {
    for (int i = 0; i < n; ++i) {
      (void)engine.mttkrp(i);
      peak_elements = std::max(peak_elements, engine.cached_elements());
      engine.notify_update(i);
    }
  }
  std::printf("%-6s %12d %14.4f %10.2f %16lld\n", name, max_cached,
              timer.seconds() / sweeps,
              static_cast<double>(engine.ttm_count() - ttm0) / sweeps,
              static_cast<long long>(peak_elements));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  const index_t s = args.get_long("--size", 28);
  const index_t rank = args.get_long("--rank", 24);
  const int sweeps = static_cast<int>(args.get_long("--sweeps", 3));

  bench::print_header(
      "Ablation — level combining: cached-intermediate cap vs time/memory",
      "Ma & Solomonik, IPDPS 2021, Sec. IV (auxiliary-memory trade-off)");
  std::printf("order-4 tensor s=%lld R=%lld\n\n", static_cast<long long>(s),
              static_cast<long long>(rank));
  std::printf("%-6s %12s %14s %10s %16s\n", "engine", "max-cached",
              "sec/sweep", "TTM/sweep", "peak-elements");

  const std::vector<index_t> shape{s, s, s, s};
  tensor::DenseTensor t(shape);
  Rng rng(37);
  t.fill_uniform(rng);
  auto factors = core::init_factors(shape, rank, 38);

  for (int cap : {0, 3, 2, 1}) {
    run<core::DtEngine>("DT", t, factors, cap, sweeps);
  }
  for (int cap : {0, 3, 2, 1}) {
    run<core::MsdtEngine>("MSDT", t, factors, cap, sweeps);
  }

  std::printf(
      "\nExpected shape: lowering the cap shrinks peak cached elements and\n"
      "raises TTM count / per-sweep time (recomputation), matching the\n"
      "trade-off analyzed in Sec. IV. cap=0 means cache everything.\n");
  return 0;
}
