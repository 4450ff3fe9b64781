// The traced run: machine calibration plus an outside-in replay of the
// workload's layers through the library's public calls (see
// perfbench/README.md, "Traced run").
#pragma once

#include <cstdint>
#include <string>

#include "workloads.hpp"

namespace perfbench {

/// Returns the traced run's raw JSON record; writes the spans as a Chrome
/// trace-event file to `trace_path` unless it is empty. Reference solves
/// alternate with traced ones for `seconds` (at least three pairs).
[[nodiscard]] std::string traced_run(const Workload& w, std::uint64_t seed,
                                     double seconds,
                                     const std::string& trace_path);

}  // namespace perfbench
