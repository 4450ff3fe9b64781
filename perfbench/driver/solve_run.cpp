#include "solve_run.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>

#include "parpp/solver/strings.hpp"
#include "parpp/tensor/csf_tensor.hpp"
#include "parpp/util/timer.hpp"

namespace perfbench {
namespace {

/// A /proc/self/status field in MiB.
double status_mb(const char* field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(field, 0) == 0)
      return std::stod(line.substr(std::strlen(field))) / 1024.0;
  }
  throw std::runtime_error(std::string("no ") + field + " in /proc/self/status");
}

/// Resets the process's peak RSS mark (VmHWM) to its current RSS and
/// returns that RSS in MiB.
double reset_peak_rss_mb() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  if (!f) throw std::runtime_error("cannot reset VmHWM via /proc/self/clear_refs");
  return status_mb("VmRSS:");
}

}  // namespace

TimedSolve timed_solve(const Instance& in,
                       const parpp::solver::SolverSpec& spec) {
  TimedSolve s;
  const double rss_before = reset_peak_rss_mb();
  try {
    parpp::WallTimer t;
    if (in.coo) {
      const parpp::tensor::CsfTensor csf(*in.coo);
      s.csf_build_s = t.seconds();
      t.reset();
      s.report = parpp::solve(csf, spec);
    } else {
      s.report = parpp::solve(*in.dense, spec);
    }
    s.wall_s = t.seconds();
    s.ok = true;
  } catch (const std::exception& e) {
    s.error = e.what();
  }
  s.rss_mb = status_mb("VmHWM:") - rss_before;
  return s;
}

void write_solve(Json& j, const TimedSolve& s) {
  const auto& r = s.report;
  j.begin_object();
  j.field("ok", s.ok).field("error", s.error);
  j.field("status", std::string(parpp::solver::to_string(r.status)));
  j.field("csf_build_s", s.csf_build_s).field("wall_s", s.wall_s);
  j.field("rss_mb", s.rss_mb);
  std::vector<double> t, fit;
  std::string phase;
  for (const auto& h : r.history) {
    t.push_back(h.seconds);
    fit.push_back(h.fitness);
    phase += h.phase == "pp-init" ? 'i' : h.phase == "pp-approx" ? 'x' : 'a';
  }
  j.field("t", t).field("fitness", fit).field("phase", phase);
  j.field("final_fitness", r.fitness).field("sweeps", r.sweeps);
  j.field("als", r.num_als_sweeps).field("pp_init", r.num_pp_init);
  j.field("pp_approx", r.num_pp_approx);
  j.field("msgs", r.comm_cost.total().messages);
  j.field("words", r.comm_cost.total().words_horizontal);
  j.end_object();
}

double mean_sweep_seconds(const parpp::solver::SolveReport& r) {
  if (r.history.empty()) return 0.0;
  return r.history.back().seconds / static_cast<double>(r.history.size());
}

}  // namespace perfbench
