// Machine calibration for the traced run: single-thread GEMM rate, memory
// bandwidth over an array well beyond the last-level cache, and the
// simulator's per-message / per-word collective cost. perfbench/metrics.py
// uses the measured values as the alpha-beta-gamma-nu parameters of the
// paper's Table I model.
#pragma once

namespace perfbench {

struct Machine {
  double gemm_gflops = 0.0;  ///< la::gemm_raw, 512^3, one thread
  double stream_gbs = 0.0;   ///< in-place a = a*s + c, one thread
  double stream_mib = 0.0;   ///< array size the bandwidth was measured over
  double l3_mib = 0.0;       ///< last-level cache size (sysfs; 0 if unknown)
  double alpha_s = 0.0;      ///< seconds per collective message
  double beta_s = 0.0;       ///< seconds per word moved
};

[[nodiscard]] Machine calibrate();

}  // namespace perfbench
