// perfbench_driver: runs one benchmark workload and prints its raw
// measurements as one JSON object on stdout. perfbench/run.py builds this
// binary, calls it and turns the raw record into the benchmark's metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S [--trace FILE]
//
// Without --trace the driver loops over the workload's instances, handing
// each to parpp::solve() untraced, until S seconds have passed (at least
// kMinPasses passes). With --trace it calibrates the machine, replays the
// workload's layers through the library's public calls (traced.cpp) and
// writes the recorded spans to FILE.
#include <malloc.h>
#include <omp.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "json.hpp"
#include "parpp/util/timer.hpp"
#include "solve_run.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace {

constexpr int kMinPasses = 2;

std::string untraced_run(const perfbench::Workload& w, std::uint64_t seed,
                         double seconds) {
  std::vector<perfbench::Instance> instances;
  for (int i = 0; i < w.instances; ++i)
    instances.push_back(w.make_instance(perfbench::instance_seed(seed, i)));

  perfbench::Json j;
  j.begin_object();
  j.field("mode", "run").field("workload", w.name);
  j.field("seed", static_cast<long>(seed)).field("seconds", seconds);
  j.field("instances", w.instances).field("target", w.target);
  j.field("fitness_floor", w.fitness_floor).field("nprocs", w.nprocs);
  j.key("solves").begin_array();
  // One unrecorded warm-up solve: the first solve of a process pays page
  // faults and allocator growth that no later solve sees.
  (void)perfbench::timed_solve(instances[0], w.spec(instances[0]));
  parpp::WallTimer clock;
  for (int pass = 0; pass < kMinPasses || clock.seconds() < seconds; ++pass) {
    for (const auto& in : instances)
      perfbench::write_solve(j, perfbench::timed_solve(in, w.spec(in)));
  }
  j.end_array();
  j.field("measured_s", clock.seconds());
  j.end_object();
  return j.str();
}

const char* arg(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const char* workload = arg(argc, argv, "--workload");
  const char* seed = arg(argc, argv, "--seed");
  const char* seconds = arg(argc, argv, "--seconds");
  const char* trace = arg(argc, argv, "--trace");
  if (!workload || !seed || !seconds) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S [--trace FILE]\n");
    return 2;
  }
  // Pinned thread counts: the main thread (sequential solves, CSF builds)
  // and every simulated rank run single-threaded kernels.
  omp_set_num_threads(1);
  // A fixed mmap threshold keeps every large buffer in its own mapping,
  // returned on free, so a solve's peak RSS does not depend on glibc's
  // adaptive threshold history or on earlier solves' freed buffers.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  try {
    const auto& w = perfbench::find_workload(workload);
    const auto s = std::strtoull(seed, nullptr, 10);
    const double secs = std::atof(seconds);
    const std::string out = trace ? perfbench::traced_run(w, s, secs, trace)
                                  : untraced_run(w, s, secs);
    std::printf("%s\n", out.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  return 0;
}
