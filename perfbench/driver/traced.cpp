#include "traced.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "calibrate.hpp"
#include "json.hpp"
#include "parpp/core/dim_tree.hpp"
#include "parpp/core/fitness.hpp"
#include "parpp/core/gram.hpp"
#include "parpp/core/pp_engine.hpp"
#include "parpp/core/pp_operators.hpp"
#include "parpp/core/solve_update.hpp"
#include "parpp/dist/factor_dist.hpp"
#include "parpp/dist/sparse_dist.hpp"
#include "parpp/la/gemm.hpp"
#include "parpp/mpsim/grid.hpp"
#include "parpp/mpsim/runtime.hpp"
#include "parpp/tensor/csf_tensor.hpp"
#include "parpp/util/cost_model.hpp"
#include "parpp/util/timer.hpp"
#include "recorder.hpp"
#include "solve_run.hpp"

namespace perfbench {

namespace {

using parpp::WallTimer;
using parpp::la::Matrix;
namespace core = parpp::core;
namespace dist = parpp::dist;
namespace mpsim = parpp::mpsim;

constexpr int kMinReferencePairs = 3;  // untraced / traced alternations

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Per-sweep layer times (seconds) and counters of one traced replay.
struct Layers {
  double mttkrp = 0, csf_mttkrp = 0, pp_build = 0, pp_approx = 0;
  double gram = 0, update = 0, normalize = 0, fitness = 0;
  double transfer = 0, verify = 0;
  double ttm_per_sweep = 0, mttv_per_sweep = 0, pp_build_ttms = 0;
  double pp_operator_mb = 0, mttkrp_flops = 0, pp_approx_flops = 0;
  double mttkrp_bytes = 0, csf_bytes = 0;
};

// ---------------------------------------------------------------------------
// Sequential: drive the ALS sweep of core::cp_als through the public layer
// calls, so the fitness history must match parpp::solve() exactly.

struct SeqTrace {
  Layers per_sweep;
  double sweep_s = 0.0;  ///< traced loop wall time per sweep
  std::vector<double> fitness;
};

SeqTrace traced_als(const Workload& w, const Instance& in,
                    const parpp::solver::SolverSpec& spec, Recorder& rec) {
  const auto& t = *in.dense;
  const auto problem = core::make_problem(t);
  std::vector<Matrix> factors = spec.initial_factors;
  std::vector<Matrix> grams = core::all_grams(factors);
  auto engine = problem.make_engine(spec.engine, factors, nullptr,
                                    spec.engine_options);
  const int n = problem.order();
  const long ttm0 = engine->ttm_count(), mttv0 = engine->mttv_count();
  SeqTrace out;
  WallTimer loop;
  double fit = 0.0, fit_old = -1.0;
  int sweep = 0;
  while (sweep < spec.stopping.max_sweeps &&
         std::abs(fit - fit_old) > spec.stopping.fitness_tol) {
    ScopedSpan sweep_span(rec, "sweep", sweep, -1, 0, "als");
    Matrix gamma_last, m_last;
    for (int i = 0; i < n; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      Matrix gamma, m;
      {
        ScopedSpan s(rec, "core.gram", sweep, i, 0, "als");
        gamma = core::gamma_chain(grams, i);
      }
      {
        ScopedSpan s(rec, "core.mttkrp", sweep, i, 0, "als");
        m = engine->mttkrp(i);
      }
      {
        ScopedSpan s(rec, "core.update", sweep, i, 0, "als");
        factors[ui] = core::update_factor(gamma, m);
      }
      {
        ScopedSpan s(rec, "core.mttkrp", sweep, i, 0, "als");
        engine->notify_update(i);
      }
      {
        ScopedSpan s(rec, "core.gram", sweep, i, 0, "als");
        grams[ui] = parpp::la::gram(factors[ui]);
      }
      if (i == n - 1) {
        gamma_last = std::move(gamma);
        m_last = std::move(m);
      }
    }
    ++sweep;
    fit_old = fit;
    {
      ScopedSpan s(rec, "core.fitness", sweep - 1, n - 1, 0, "als");
      const auto last = static_cast<std::size_t>(n - 1);
      fit = core::fitness_from_residual(core::relative_residual(
          problem.squared_norm, gamma_last, grams[last], m_last,
          factors[last]));
    }
    out.fitness.push_back(fit);
  }
  const double sweeps = std::max(sweep, 1);
  out.sweep_s = loop.seconds() / sweeps;
  Layers& l = out.per_sweep;
  l.mttkrp = rec.total("core.mttkrp") / sweeps;
  l.gram = rec.total("core.gram") / sweeps;
  l.update = rec.total("core.update") / sweeps;
  l.fitness = rec.total("core.fitness") / sweeps;
  l.ttm_per_sweep = double(engine->ttm_count() - ttm0) / sweeps;
  l.mttv_per_sweep = double(engine->mttv_count() - mttv0) / sweeps;
  l.mttkrp_flops =
      parpp::TableOneModel{n, w.shape[0], w.rank, 1}.msdt_seq_flops();
  // Computed bytes: every first-level TTM streams the whole tensor once.
  l.mttkrp_bytes = 8.0 * double(t.size()) * l.ttm_per_sweep;
  return out;
}

// ---------------------------------------------------------------------------
// Parallel: rebuild the distribution, then replay each rank's kernels
// single-threaded on its local problem, and the collectives on mpsim.

struct Distributed {
  std::unique_ptr<dist::DistProblem> problem;
  std::vector<int> dims;
  std::optional<dist::BlockDist> geometry;
  std::vector<std::vector<int>> coords;
  std::vector<std::unique_ptr<dist::LocalProblem>> locals;
  double partition_s = 0.0, distribute_s = 0.0, partition_passes = 0.0;
};

Distributed distribute(const Workload& w, const Instance& in,
                       const parpp::tensor::CsfTensor* csf) {
  Distributed d;
  const int p = w.nprocs;
  d.dims = mpsim::ProcessorGrid::balanced_dims(p, int(w.shape.size()));
  WallTimer t;
  if (csf != nullptr)
    d.problem = std::make_unique<dist::BalancedSparseDist>(*csf);
  else
    d.problem = std::make_unique<dist::DenseBlockProblem>(*in.dense);
  const double construct_s = t.seconds();
  d.coords.resize(static_cast<std::size_t>(p));
  d.locals.resize(static_cast<std::size_t>(p));
  double geometry_s = 0.0;
  mpsim::run(p, [&](mpsim::Comm& world) {
    mpsim::ProcessorGrid grid(world, d.dims);
    world.barrier(PARPP_COMM_TAG("trace-sync"));
    WallTimer tg;
    dist::BlockDist bd = d.problem->make_block_dist(grid);
    world.barrier(PARPP_COMM_TAG("trace-sync"));
    const double g = tg.seconds();
    tg.reset();
    auto local = d.problem->make_local(bd, grid.coords());
    world.barrier(PARPP_COMM_TAG("trace-sync"));
    const auto me = static_cast<std::size_t>(world.rank());
    d.coords[me] = grid.coords();
    d.locals[me] = std::move(local);
    if (world.rank() == 0) {
      geometry_s = g;
      d.distribute_s = tg.seconds();
      d.geometry.emplace(bd);
    }
  });
  d.partition_s = construct_s + geometry_s;
  if (csf != nullptr) {
    d.partition_passes = double(
        static_cast<const dist::SparseBlockDist&>(*d.problem).partition_passes());
  }
  return d;
}

/// Rows of the global factors that block `coords` holds (zero-padded).
std::vector<Matrix> slices_of(const std::vector<Matrix>& global,
                              const dist::BlockDist& bd,
                              const std::vector<int>& coords) {
  std::vector<Matrix> s;
  for (int m = 0; m < bd.order(); ++m) {
    const auto& g = global[static_cast<std::size_t>(m)];
    Matrix a(bd.local_extent(m), g.cols());
    const int c = coords[static_cast<std::size_t>(m)];
    for (parpp::index_t r = bd.slab_offset(m, c); r < bd.slab_end(m, c); ++r)
      std::copy(g.row(r), g.row(r) + g.cols(),
                a.row(r - bd.slab_offset(m, c)));
    s.push_back(std::move(a));
  }
  return s;
}

Matrix top_rows(const Matrix& a, parpp::index_t rows) {
  Matrix q(rows, a.cols());
  std::copy(a.data(), a.data() + std::min(q.size(), a.size()), q.data());
  return q;
}

/// One rank's kernel times per sweep kind, in seconds.
struct RankKernels {
  double mttkrp_exact = 0, pp_build = 0, pp_approx = 0;
  double gram = 0, update = 0, fitness = 0;
  long ttm = 0, mttv = 0;
  double ttm_sweeps = 1, pp_build_ttms = 0, pp_operator_mb = 0;
  double csf_bytes = 0;
};

RankKernels replay_rank(const Workload& w, const parpp::solver::SolverSpec& spec,
                        const Distributed& d, int rank,
                        const std::vector<Matrix>& global, Recorder& rec) {
  const auto ur = static_cast<std::size_t>(rank);
  const dist::BlockDist& bd = *d.geometry;
  const auto& local = *d.locals[ur];
  const int n = bd.order();
  std::vector<Matrix> slices = slices_of(global, bd, d.coords[ur]);
  auto engine = local.make_engine(spec.engine, slices, nullptr,
                                  spec.engine_options);
  RankKernels k;
  const bool pp = spec.method == parpp::solver::Method::kPp;
  const char* kernel = w.sparse ? "tensor.csf_mttkrp" : "core.mttkrp";

  // Exact sweeps: one warm-up, then two MSDT periods (N-1 sweeps each).
  std::vector<Matrix> m(static_cast<std::size_t>(n));
  auto exact_sweep = [&](int sweep) {
    for (int i = 0; i < n; ++i) {
      ScopedSpan s(rec, kernel, sweep, i, rank, "als");
      m[static_cast<std::size_t>(i)] = engine->mttkrp(i);
      engine->notify_update(i);
    }
  };
  exact_sweep(-1);
  const int measured = 2 * (n - 1);
  const long ttm0 = engine->ttm_count(), mttv0 = engine->mttv_count();
  const double before = rec.total(kernel, rank);
  for (int s = 0; s < measured; ++s) exact_sweep(s);
  k.mttkrp_exact = (rec.total(kernel, rank) - before) / measured;
  k.ttm = engine->ttm_count() - ttm0;
  k.mttv = engine->mttv_count() - mttv0;
  k.ttm_sweeps = measured;
  if (w.sparse) {
    // Computed bytes of one CSF sweep: value + leaf index (16 B) and one
    // gathered factor row (8R B) per nonzero and mode, plus the output rows.
    const double nnz = double(local.nnz()), r = double(w.rank);
    for (int i = 0; i < n; ++i)
      k.csf_bytes += nnz * (16.0 + 8.0 * r) + 8.0 * r * double(bd.local_extent(i));
  }

  // Gram / solve / fitness on this rank's Q rows (repeated, averaged).
  std::vector<Matrix> grams = core::all_grams(global);
  constexpr int kSmallReps = 5;
  for (int s = 0; s < kSmallReps; ++s) {
    Matrix gamma_last, mq_last, q_last;
    for (int i = 0; i < n; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      const Matrix q = top_rows(slices[ui], bd.rows_q(i));
      const Matrix mq = top_rows(m[ui], bd.rows_q(i));
      Matrix gamma, a;
      {
        ScopedSpan sp(rec, "core.gram", s, i, rank, "als");
        gamma = core::gamma_chain(grams, i);
        grams[ui] = parpp::la::gram(q);
      }
      {
        ScopedSpan sp(rec, "core.update", s, i, rank, "als");
        a = core::update_factor(gamma, mq);
      }
      if (i == n - 1) {
        gamma_last = std::move(gamma);
        mq_last = mq;
        q_last = std::move(a);
      }
    }
    ScopedSpan sp(rec, "core.fitness", s, n - 1, rank, "als");
    volatile double r = core::relative_residual(
        1.0, gamma_last, grams[static_cast<std::size_t>(n - 1)], mq_last,
        q_last);
    (void)r;
  }
  grams = core::all_grams(global);  // the replay above overwrote them
  k.gram = rec.total("core.gram", rank) / kSmallReps;
  k.update = rec.total("core.update", rank) / kSmallReps;
  k.fitness = rec.total("core.fitness", rank) / kSmallReps;

  if (pp) {
    auto ops = local.make_pp_operators(slices, nullptr, spec.engine_options);
    const auto* donor = dynamic_cast<const core::TreeEngineBase*>(engine.get());
    ops->build(donor);  // first build sizes the arena
    constexpr int kBuilds = 2;
    for (int b = 0; b < kBuilds; ++b) {
      exact_sweep(-1);  // a regular sweep between builds, as in the solve
      ScopedSpan s(rec, "core.pp_build", b, -1, rank, "pp-init");
      ops->build(donor);
    }
    k.pp_build = rec.total("core.pp_build", rank) / kBuilds;
    k.pp_build_ttms = double(ops->last_build_ttms());
    k.pp_operator_mb = double(ops->operator_elements()) * 8.0 / (1 << 20);

    // Approximated sweeps around a slightly moved iterate.
    std::vector<Matrix> a_p = slices, live = slices, live_grams;
    for (auto& a : live) {
      for (parpp::index_t x = 0; x < a.size(); ++x)
        a.data()[x] *= 1.0 + 1e-3 * double((x % 7) - 3);
      live_grams.push_back(parpp::la::gram(a));
    }
    core::PpApprox approx(*ops, live, a_p, live_grams);
    for (int i = 0; i < n; ++i) approx.refresh_mode(i);
    constexpr int kApproxSweeps = 5;
    for (int s = 0; s < kApproxSweeps; ++s) {
      for (int i = 0; i < n; ++i) {
        ScopedSpan sp(rec, "core.pp_approx", s, i, rank, "pp-approx");
        volatile double sink = approx.mttkrp_approx(i).data()[0];
        (void)sink;
        approx.refresh_mode(i);
      }
    }
    k.pp_approx = rec.total("core.pp_approx", rank) / kApproxSweeps;
  }
  return k;
}

/// Seconds per exact and per PP-approximated sweep of the solve's
/// collective pattern, replayed back to back (so no rank waits on another
/// rank's compute): per mode a Reduce-Scatter of the slice-shaped MTTKRP, a
/// Gram All-Reduce and the slice All-Gather, plus the residual All-Reduce;
/// approximated sweeps add the dS All-Reduce per mode.
void replay_collectives(const Workload& w, const Distributed& d,
                        bool verify, Recorder* rec, double& exact_s,
                        double& approx_s) {
  constexpr int kSweeps = 20;
  mpsim::RunOptions ro;
  ro.verify_collectives = verify;
  const int n = int(w.shape.size());
  mpsim::run(
      w.nprocs,
      [&](mpsim::Comm& world) {
        mpsim::ProcessorGrid grid(world, d.dims);
        const dist::BlockDist bd = d.problem->make_block_dist(grid);
        dist::FactorDist fd(grid, bd, w.rank);
        std::vector<Matrix> contrib;
        for (int m = 0; m < n; ++m) contrib.emplace_back(bd.local_extent(m), w.rank);
        Matrix s(w.rank, w.rank);
        double health[5] = {0, 0, 0, 0, 0};
        const bool record = rec != nullptr && world.rank() == 0;
        auto sweep = [&](bool approx, int k) {
          std::optional<ScopedSpan> span;
          if (record)
            span.emplace(*rec, "mpsim.transfer", k, -1, 0,
                         approx ? "pp-approx" : "als");
          for (int m = 0; m < n; ++m) {
            static_cast<void>(
                fd.reduce_scatter(m, contrib[static_cast<std::size_t>(m)]));
            world.allreduce_sum(s.data(), s.size(), PARPP_COMM_TAG("trace-gram"));
            fd.gather_slice(m);
            if (approx)
              world.allreduce_sum(s.data(), s.size(), PARPP_COMM_TAG("trace-dgram"));
          }
          world.allreduce_sum(health, 5, PARPP_COMM_TAG("trace-residual"));
        };
        sweep(false, -1);
        world.barrier(PARPP_COMM_TAG("trace-sync"));
        WallTimer t;
        for (int k = 0; k < kSweeps; ++k) sweep(false, k);
        world.barrier(PARPP_COMM_TAG("trace-sync"));
        const double e = t.seconds() / kSweeps;
        t.reset();
        for (int k = 0; k < kSweeps; ++k) sweep(true, k);
        world.barrier(PARPP_COMM_TAG("trace-sync"));
        if (world.rank() == 0) {
          exact_s = e;
          approx_s = t.seconds() / kSweeps;
        }
      },
      ro);
}

void write_layers(Json& j, const Layers& l) {
  j.field("mttkrp_s", l.mttkrp).field("csf_mttkrp_s", l.csf_mttkrp);
  j.field("pp_build_s", l.pp_build).field("pp_approx_s", l.pp_approx);
  j.field("gram_s", l.gram).field("update_s", l.update);
  j.field("normalize_s", l.normalize).field("fitness_s", l.fitness);
  j.field("transfer_s", l.transfer).field("verify_s", l.verify);
  j.field("ttm_per_sweep", l.ttm_per_sweep);
  j.field("mttv_per_sweep", l.mttv_per_sweep);
  j.field("pp_build_ttms", l.pp_build_ttms);
  j.field("pp_operator_mb", l.pp_operator_mb);
  j.field("mttkrp_flops", l.mttkrp_flops);
  j.field("pp_approx_flops", l.pp_approx_flops);
  j.field("mttkrp_bytes", l.mttkrp_bytes).field("csf_bytes", l.csf_bytes);
}

}  // namespace

std::string traced_run(const Workload& w, std::uint64_t seed, double seconds,
                       const std::string& trace_path) {
  const Machine machine = calibrate();
  const Instance in = w.make_instance(instance_seed(seed, 0));
  const auto spec = w.spec(in);
  Recorder rec(w.name);

  Json j;
  j.begin_object();
  j.field("mode", "trace").field("workload", w.name);
  j.field("seed", static_cast<long>(seed)).field("nprocs", w.nprocs);
  j.key("machine").begin_object();
  j.field("gemm_gflops", machine.gemm_gflops);
  j.field("stream_gbs", machine.stream_gbs);
  j.field("stream_mib", machine.stream_mib).field("l3_mib", machine.l3_mib);
  j.field("alpha_s", machine.alpha_s).field("beta_s", machine.beta_s);
  j.end_object();

  // Untraced reference solves alternate with traced ones until `seconds`
  // have passed: the sequential workload's traced solve is the replay loop
  // itself; the parallel ones install an observer that records one span per
  // sweep.
  std::vector<double> untraced_sweep_s, traced_sweep_s, comm_s, csf_build_s;
  std::optional<TimedSolve> reference;
  SeqTrace seq;
  std::vector<Layers> seq_layers;  // one per traced loop
  const WallTimer clock;
  for (int pair = 0; pair < kMinReferencePairs || clock.seconds() < seconds;
       ++pair) {
    TimedSolve s = timed_solve(in, spec);
    PARPP_CHECK(s.ok, "traced run: reference solve failed: ", s.error);
    untraced_sweep_s.push_back(mean_sweep_seconds(s.report));
    csf_build_s.push_back(s.csf_build_s);
    const double sweeps = std::max(s.report.sweeps, 1);
    comm_s.push_back(
        s.report.critical_path_profile.seconds(parpp::Kernel::kComm) / sweeps);
    if (w.nprocs == 1) {
      Recorder scratch(w.name);
      SeqTrace t = traced_als(w, in, spec, pair == 0 ? rec : scratch);
      traced_sweep_s.push_back(t.sweep_s);
      seq_layers.push_back(t.per_sweep);
      if (pair == 0) seq = std::move(t);
    } else {
      auto observed = spec;
      int k = 0;
      observed.observer = [&](const core::SweepRecord& r,
                              const std::vector<Matrix>&) {
        ScopedSpan sp(rec, "solve.sweep", k++, -1, 0, r.phase);
        return parpp::solver::ObserverAction::kContinue;
      };
      TimedSolve o = timed_solve(in, observed);
      PARPP_CHECK(o.ok, "traced run: observed solve failed: ", o.error);
      traced_sweep_s.push_back(mean_sweep_seconds(o.report));
    }
    if (!reference) reference = std::move(s);
  }
  const auto& report = reference->report;
  const double sweeps = std::max(report.sweeps, 1);

  Layers l;
  std::optional<Distributed> d;
  double replay_diff = 0.0;
  if (w.nprocs == 1) {
    // Per-layer medians over the traced loops, like solver.sweep_ms.
    l = seq.per_sweep;
    auto layer_median = [&](double Layers::*f) {
      std::vector<double> v;
      for (const Layers& x : seq_layers) v.push_back(x.*f);
      l.*f = median(v);
    };
    for (double Layers::*f : {&Layers::mttkrp, &Layers::gram, &Layers::update,
                              &Layers::fitness})
      layer_median(f);
    for (std::size_t i = 0; i < report.history.size(); ++i) {
      const double f = i < seq.fitness.size() ? seq.fitness[i] : 0.0;
      replay_diff = std::max(replay_diff, std::abs(f - report.history[i].fitness));
    }
    if (seq.fitness.size() != report.history.size()) replay_diff = 1.0;
  } else {
    std::optional<parpp::tensor::CsfTensor> csf;
    if (in.coo) csf.emplace(*in.coo);
    d.emplace(distribute(w, in, csf ? &*csf : nullptr));
    RankKernels cp;  // critical path: per-kernel maximum over ranks
    for (int r = 0; r < w.nprocs; ++r) {
      const RankKernels k = replay_rank(w, spec, *d, r, report.factors, rec);
      cp.mttkrp_exact = std::max(cp.mttkrp_exact, k.mttkrp_exact);
      cp.pp_build = std::max(cp.pp_build, k.pp_build);
      cp.pp_approx = std::max(cp.pp_approx, k.pp_approx);
      cp.gram = std::max(cp.gram, k.gram);
      cp.update = std::max(cp.update, k.update);
      cp.fitness = std::max(cp.fitness, k.fitness);
      if (r == 0) {
        cp.ttm = k.ttm;
        cp.mttv = k.mttv;
        cp.ttm_sweeps = k.ttm_sweeps;
        cp.pp_build_ttms = k.pp_build_ttms;
        cp.pp_operator_mb = k.pp_operator_mb;
      }
      cp.csf_bytes = std::max(cp.csf_bytes, k.csf_bytes);
    }
    double x_exact = 0, x_approx = 0, o_exact = 0, o_approx = 0;
    replay_collectives(w, *d, true, &rec, x_exact, x_approx);
    replay_collectives(w, *d, false, nullptr, o_exact, o_approx);

    // Weight each sweep kind by how often the solve ran it.
    const double f_exact = report.num_als_sweeps / sweeps;
    const double f_init = report.num_pp_init / sweeps;
    const double f_approx = report.num_pp_approx / sweeps;
    (w.sparse ? l.csf_mttkrp : l.mttkrp) = f_exact * cp.mttkrp_exact;
    l.pp_build = f_init * cp.pp_build;
    l.pp_approx = f_approx * cp.pp_approx;
    l.gram = (f_exact + f_approx) * cp.gram;
    l.update = (f_exact + f_approx) * cp.update;
    l.fitness = (f_exact + f_approx) * cp.fitness;
    l.transfer = f_exact * x_exact + f_approx * x_approx;
    l.verify = f_exact * (x_exact - o_exact) + f_approx * (x_approx - o_approx);
    l.ttm_per_sweep = double(cp.ttm) / cp.ttm_sweeps;
    l.mttv_per_sweep = double(cp.mttv) / cp.ttm_sweeps;
    l.pp_build_ttms = cp.pp_build_ttms;
    l.pp_operator_mb = cp.pp_operator_mb;
    const int n = int(w.shape.size());
    const parpp::TableOneModel model{n, w.shape[0], w.rank, w.nprocs};
    if (!w.sparse) {
      double block = 1.0;
      for (const index_t e : d->geometry->local_shape()) block *= double(e);
      l.mttkrp_flops = model.msdt_local_flops();
      l.mttkrp_bytes = 8.0 * block * l.ttm_per_sweep;
      l.pp_approx_flops = model.pp_approx_local_flops();
    }
    l.csf_bytes = cp.csf_bytes;
    j.field("csf_mttkrp_exact_s", w.sparse ? cp.mttkrp_exact : 0.0);
    j.field("mttkrp_exact_s", w.sparse ? 0.0 : cp.mttkrp_exact);
    j.field("pp_approx_sweep_s", cp.pp_approx);
  }

  j.key("layers").begin_object();
  write_layers(j, l);
  j.end_object();
  j.field("sweep_s", median(untraced_sweep_s));
  j.field("traced_sweep_s", median(traced_sweep_s));
  j.field("comm_s", median(comm_s));
  j.field("csf_build_s", median(csf_build_s));
  j.field("replay_fitness_diff", replay_diff);
  j.field("sweeps", report.sweeps).field("als", report.num_als_sweeps);
  j.field("pp_init", report.num_pp_init);
  j.field("pp_approx", report.num_pp_approx);
  j.field("msgs", report.comm_cost.total().messages);
  j.field("words", report.comm_cost.total().words_horizontal);
  j.field("nnz_imbalance", report.nnz_imbalance);
  j.field("partition_s", d ? d->partition_s : 0.0);
  j.field("distribute_s", d ? d->distribute_s : 0.0);
  j.field("partition_passes", d ? d->partition_passes : 0.0);
  j.field("spans", static_cast<long>(rec.size()));
  j.end_object();
  if (!trace_path.empty()) rec.write(trace_path);
  return j.str();
}

}  // namespace perfbench
