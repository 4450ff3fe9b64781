// Ablation (Sec. IV): MSDT with vs without the stored transposed copy.
//
// MSDT's rotating first-level TTMs hit interior tensor modes, which on a
// row-major layout degrade to many small GEMMs. The paper stores one
// transposed copy of the input tensor (enough for orders 3 and 4) so every
// first-level contraction lands on a boundary mode of some copy. We time
// per-sweep MSDT with the copy enabled/disabled and report the one-time
// cost of building the copy.
#include <cstdio>

#include "bench_util.hpp"
#include "parpp/core/driver.hpp"
#include "parpp/core/msdt.hpp"
#include "parpp/util/rng.hpp"
#include "parpp/util/timer.hpp"

using namespace parpp;

namespace {

void run_order(int order, index_t s, index_t rank, int sweeps) {
  std::vector<index_t> shape(static_cast<std::size_t>(order), s);
  tensor::DenseTensor t(shape);
  Rng rng(41);
  t.fill_uniform(rng);
  auto factors = core::init_factors(shape, rank, 42);

  for (bool copy : {false, true}) {
    core::EngineOptions opt;
    opt.use_transposed_copy =
      copy ? core::TransposedCopy::kOn : core::TransposedCopy::kOff;
    WallTimer build_timer;
    core::MsdtEngine engine(t, factors, nullptr, opt);
    const double build = build_timer.seconds();
    // Warm-up rotation.
    for (int w = 0; w < order; ++w)
      for (int i = 0; i < order; ++i) {
        (void)engine.mttkrp(i);
        engine.notify_update(i);
      }
    WallTimer timer;
    for (int sw = 0; sw < sweeps; ++sw)
      for (int i = 0; i < order; ++i) {
        (void)engine.mttkrp(i);
        engine.notify_update(i);
      }
    std::printf("%5d %5lld %10s %12.4f %14.4f\n", order,
                static_cast<long long>(s), copy ? "yes" : "no",
                timer.seconds() / sweeps, build);
    std::fflush(stdout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  const index_t s3 = args.get_long("--size3", 96);
  const index_t s4 = args.get_long("--size4", 28);
  const index_t rank = args.get_long("--rank", 24);
  const int sweeps = static_cast<int>(args.get_long("--sweeps", 3));

  bench::print_header(
      "Ablation — MSDT stored-transpose optimization",
      "Ma & Solomonik, IPDPS 2021, Sec. IV (transpose avoidance in MSDT)");
  std::printf("%5s %5s %10s %12s %14s\n", "order", "s", "copy", "sec/sweep",
              "copy-build-s");

  run_order(3, s3, rank, sweeps);
  run_order(4, s4, rank, sweeps);

  std::printf(
      "\nExpected shape: the stored copy pays a one-time transpose cost and\n"
      "reduces per-sweep time whenever interior-mode TTMs dominate.\n");
  return 0;
}
