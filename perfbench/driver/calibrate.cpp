#include "calibrate.hpp"

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "parpp/la/gemm.hpp"
#include "parpp/mpsim/runtime.hpp"
#include "parpp/util/rng.hpp"
#include "parpp/util/timer.hpp"

namespace perfbench {

namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double l3_mib() {
  std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (!(f >> s) || s.empty()) return 0.0;
  const double v = std::stod(s);
  if (s.back() == 'K') return v / 1024.0;
  if (s.back() == 'M') return v;
  return v / (1024.0 * 1024.0);
}

double gemm_gflops() {
  constexpr parpp::index_t n = 512;
  parpp::Rng rng(7);
  parpp::la::Matrix a(n, n), b(n, n), c(n, n);
  a.fill_uniform(rng);
  b.fill_uniform(rng);
  std::vector<double> rates;
  for (int rep = 0; rep < 21; ++rep) {
    parpp::WallTimer t;
    parpp::la::gemm_raw(parpp::la::Trans::kNo, parpp::la::Trans::kNo, n, n, n,
                        1.0, a.data(), n, b.data(), n, 0.0, c.data(), n);
    rates.push_back(2.0 * n * n * n / t.seconds() / 1e9);
  }
  return median(rates);
}

// Array of at least 420 MiB (4x the 105 MiB L3 of the reference machine,
// and at least 4x this machine's L3).
double stream_gbs(double l3, double& mib) {
  mib = std::max(448.0, 4.0 * l3);
  const std::size_t n = static_cast<std::size_t>(mib * 1024 * 1024 / 8);
  std::vector<double> a(n, 1.0);
  std::vector<double> rates;
  for (int rep = 0; rep < 4; ++rep) {
    parpp::WallTimer t;
    double* p = a.data();
    for (std::size_t i = 0; i < n; ++i) p[i] = p[i] * 0.999 + 0.001;
    rates.push_back(16.0 * static_cast<double>(n) / t.seconds() / 1e9);
  }
  volatile double sink = a[n / 2];
  (void)sink;
  return median(rates);
}

// Two-rank All-Reduce ping-pong: the simulator charges 2 alpha + 2 n beta
// per call at P = 2, so alpha = T(1) / 2 and beta = (T(n) - T(1)) / 2(n-1).
void pingpong(double& alpha, double& beta) {
  constexpr parpp::index_t big = 1 << 16;
  constexpr int iters = 2000, big_iters = 200;
  double t_small = 0.0, t_big = 0.0;
  parpp::mpsim::run(2, [&](parpp::mpsim::Comm& comm) {
    std::vector<double> buf(big, 1.0);
    for (int w = 0; w < 50; ++w)
      comm.allreduce_sum(buf.data(), 1, PARPP_COMM_TAG("cal-warm"));
    comm.barrier(PARPP_COMM_TAG("cal-sync"));
    parpp::WallTimer t;
    for (int i = 0; i < iters; ++i)
      comm.allreduce_sum(buf.data(), 1, PARPP_COMM_TAG("cal-small"));
    const double small = t.seconds() / iters;
    comm.barrier(PARPP_COMM_TAG("cal-sync"));
    t.reset();
    for (int i = 0; i < big_iters; ++i)
      comm.allreduce_sum(buf.data(), big, PARPP_COMM_TAG("cal-big"));
    const double large = t.seconds() / big_iters;
    if (comm.rank() == 0) {
      t_small = small;
      t_big = large;
    }
  });
  alpha = t_small / 2.0;
  beta = std::max(t_big - t_small, 0.0) / (2.0 * (big - 1));
}

}  // namespace

Machine calibrate() {
  Machine m;
  m.l3_mib = l3_mib();
  m.gemm_gflops = gemm_gflops();
  m.stream_gbs = stream_gbs(m.l3_mib, m.stream_mib);
  pingpong(m.alpha_s, m.beta_s);
  return m;
}

}  // namespace perfbench
