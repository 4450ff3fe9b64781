#include "parpp/par/par_pp.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "parpp/core/dim_tree.hpp"
#include "parpp/core/fitness.hpp"
#include "parpp/core/gram.hpp"
#include "parpp/core/pp_engine.hpp"
#include "parpp/core/pp_operators.hpp"
#include "parpp/la/gemm.hpp"
#include "parpp/par/elastic.hpp"
#include "parpp/util/timer.hpp"

namespace parpp::par {

namespace {

/// Relative factor changes ||A(i) - ref(i)|| / ||A(i)|| over the Q rows,
/// global (one All-Reduce of 2N scalars).
std::vector<double> relative_changes(mpsim::Comm& comm,
                                     const dist::FactorDist& fd,
                                     const std::vector<la::Matrix>& ref) {
  const int n = fd.order();
  std::vector<double> sq(static_cast<std::size_t>(2 * n), 0.0);
  for (int i = 0; i < n; ++i) {
    const auto& q = fd.q(i);
    la::Matrix dq = q;
    dq.axpy(-1.0, ref[static_cast<std::size_t>(i)]);
    const double fa = q.frobenius_norm();
    const double fd_i = dq.frobenius_norm();
    sq[static_cast<std::size_t>(i)] = fd_i * fd_i;
    sq[static_cast<std::size_t>(n + i)] = fa * fa;
  }
  comm.allreduce_sum(sq.data(), static_cast<index_t>(sq.size()),
                     PARPP_COMM_TAG("pp-drift-allreduce"));
  std::vector<double> rel(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double fa = std::sqrt(sq[static_cast<std::size_t>(n + i)]);
    rel[static_cast<std::size_t>(i)] =
        fa > 0.0 ? std::sqrt(sq[static_cast<std::size_t>(i)]) / fa : 0.0;
  }
  return rel;
}

/// Per-rank PP state layered over the Algorithm 3 context.
class LocalPp {
 public:
  LocalPp(mpsim::Comm& comm, ParCpContext& ctx, bool second_order)
      : comm_(comm), ctx_(ctx), n_(ctx.order()), second_order_(second_order),
        ops_(ctx.local_problem().make_pp_operators(
            ctx.factor_dist().slices(), nullptr, ctx.engine_options())) {}

  /// Algorithm 4 line 2: local PP initialization. The donor is the local
  /// regular-sweep tree engine (footnote-1 amortization applies per rank;
  /// sparse blocks have no tree cache and the cast yields null).
  void build() {
    const auto* donor =
        dynamic_cast<const core::TreeEngineBase*>(&ctx_.engine());
    ops_->build(donor);
    // Snapshot A_p in both layouts; dA and dS start at zero.
    a_p_slice_.clear();
    a_p_q_.clear();
    d_slices_.clear();
    d_grams_.assign(static_cast<std::size_t>(n_), la::Matrix());
    for (int m = 0; m < n_; ++m) {
      const la::Matrix& slice = ctx_.factor_dist().slice(m);
      a_p_slice_.push_back(slice);
      a_p_q_.push_back(ctx_.factor_dist().q(m));
      d_slices_.emplace_back(slice.rows(), slice.cols());
      d_grams_[static_cast<std::size_t>(m)] =
          la::Matrix(ctx_.grams()[static_cast<std::size_t>(m)].rows(),
                     ctx_.grams()[static_cast<std::size_t>(m)].cols());
    }
  }

  /// Refreshes dA(i) on the slice after A(i) changed and, when the
  /// second-order term is on, dS(i) = A(i)^T dA(i) from the Q rows plus one
  /// R^2 All-Reduce.
  void refresh_mode(int i) {
    const auto ui = static_cast<std::size_t>(i);
    d_slices_[ui] = ctx_.factor_dist().slice(i);
    d_slices_[ui].axpy(-1.0, a_p_slice_[ui]);
    if (!second_order_) return;
    const auto& q = ctx_.factor_dist().q(i);
    la::Matrix dq = q;
    dq.axpy(-1.0, a_p_q_[ui]);
    la::Matrix ds = la::matmul(q, dq, la::Trans::kYes);
    comm_.allreduce_sum(ds.data(), ds.size(),
                        PARPP_COMM_TAG("pp-dgram-allreduce"));
    d_grams_[ui] = std::move(ds);
  }

  /// V(n) = A(n) W with the Hadamard chain of Eq. (7) over global dS / S;
  /// applied to the Q rows after the Reduce-Scatter.
  [[nodiscard]] la::Matrix second_order_term(int n) const {
    const auto& grams = ctx_.grams();
    const index_t r = grams[0].rows();
    la::Matrix w(r, r);
    for (int i = 0; i < n_; ++i) {
      if (i == n) continue;
      for (int j = i + 1; j < n_; ++j) {
        if (j == n) continue;
        la::Matrix term = la::hadamard(d_grams_[static_cast<std::size_t>(i)],
                                       d_grams_[static_cast<std::size_t>(j)]);
        for (int k = 0; k < n_; ++k) {
          if (k == i || k == j || k == n) continue;
          term.hadamard_inplace(grams[static_cast<std::size_t>(k)]);
        }
        w.axpy(1.0, term);
      }
    }
    return la::matmul(ctx_.factor_dist().q(n), w);
  }

  /// Relative factor changes vs the snapshot A_p.
  [[nodiscard]] std::vector<double> relative_changes() const {
    return par::relative_changes(comm_, ctx_.factor_dist(), a_p_q_);
  }

  /// One full PP-approximated sweep (Algorithm 4 lines 4-16): the local
  /// M_p(n) + sum_i U(n,i) is reduce-scattered, V(n) is added on the Q
  /// rows (lines 10-11) unless the second-order term is off.
  void approx_sweep() {
    for (int j = 0; j < n_; ++j) {
      la::Matrix m_local = ops_->mttkrp_p(j);
      core::add_first_order(*ops_, j, d_slices_, m_local, u_scratch_,
                            nullptr);
      la::Matrix m_q = ctx_.factor_dist().reduce_scatter(j, m_local);
      if (second_order_) m_q.axpy(1.0, second_order_term(j));
      ctx_.apply_pp_mttkrp(j, m_q);
      refresh_mode(j);
    }
  }

 private:
  mpsim::Comm& comm_;
  ParCpContext& ctx_;
  int n_;
  bool second_order_;
  std::unique_ptr<core::PpOperators> ops_;
  std::vector<la::Matrix> a_p_slice_, a_p_q_;
  std::vector<la::Matrix> d_slices_;  ///< dA(i) on the slice rows
  std::vector<la::Matrix> d_grams_;
  util::KernelWorkspace ws_;  ///< backs the U(n,i) mTTV scratch
  tensor::DenseTensor u_scratch_{ws_};
};

bool all_below(const std::vector<double>& rel, double eps) {
  for (double v : rel)
    if (v >= eps) return false;
  return true;
}

}  // namespace

ParResult par_pp_cp_als(const dist::DistProblem& problem, int nprocs,
                        const ParOptions& options,
                        const core::PpOptions& pp_opt,
                        const core::NncpOptions* nn,
                        const core::DriverHooks& hooks) {
  ParOptions par = options;
  par.base.engine = core::pp_regular_engine(options.base.engine);
  const char* exact_phase = core::regular_phase(nn);
  return run_par_driver(
      problem, nprocs, par, hooks, [&](ElasticAttempt& at, RankTrace& trace) {
        mpsim::Comm& comm = at.comm;
        ParResult& result = *at.result;
        ParCpContext ctx(comm, problem, at.options, at.init_factors);
        at.begin_epoch(ctx);
        if (nn != nullptr) ctx.enable_hals(*nn);
        const int n = ctx.order();
        LocalPp pp(comm, ctx, pp_opt.second_order);
        WallTimer timer;

        // dA across the latest regular sweep; seeded large so regular
        // sweeps run first (also after a shrink: the rebuilt epoch re-earns
        // PP eligibility with an exact sweep before approximating again).
        std::vector<la::Matrix> prev_q;
        for (int m = 0; m < n; ++m)
          prev_q.emplace_back(ctx.factor_dist().q(m).rows(),
                              ctx.factor_dist().q(m).cols());

        double fit = at.fit, fit_old = at.fit_old;
        int total = at.start_sweep;
        int last_checkpoint = at.start_sweep;
        int rollbacks = 0;
        bool have_sweep = false;
        bool aborted = false;
        trace.sweep = total;
        auto sweep_hook = [&](const char* phase, double f) {
          if (!hooks_continue_collective(comm, hooks,
                                         {timer.seconds(), f, phase},
                                         ctx.factor_dist().slices()))
            aborted = true;
          return !aborted;
        };
        while (!aborted && total < par.base.max_sweeps &&
               std::abs(fit - fit_old) > par.base.tol) {
          if (have_sweep &&
              all_below(relative_changes(comm, ctx.factor_dist(), prev_q),
                        pp_opt.pp_tol)) {
            // ---- PP phase -----------------------------------------
            const Profile before_init = Profile::thread_default();
            // Trust-guard snapshot: the whole phase is discarded back to
            // this iterate if an approximated sweep regresses the fitness
            // or goes non-finite.
            at.publish(ctx, total, fit, fit_old);
            ctx.capture_state();
            const double fit_p = fit;
            pp.build();
            ++total;
            trace.sweep = total;
            trace.profiles.push_back(
                Profile::thread_default().delta_since(before_init));
            if (comm.rank() == 0) {
              ++result.num_pp_init;
              if (par.base.record_history)
                result.history.push_back({timer.seconds(), fit, "pp-init"});
            }
            if (!sweep_hook("pp-init", fit)) break;
            int pp_sweeps = 0;
            bool discarded = false;
            double pp_fit = fit, pp_fit_old = fit - 1.0;
            // Trust-guard floor: the PP model can break down when Γ is
            // rank-deficient (e.g. CP rank above a mode extent). A phase
            // whose approximate fitness drops below this floor — or goes
            // non-finite — is discarded wholesale and exact sweeps take
            // over; the pair operators are rebuilt at the next phase entry.
            const double fit_floor =
                fit - 10.0 * std::max(par.base.tol, 1e-6);
            while (all_below(pp.relative_changes(), pp_opt.pp_tol) &&
                   std::abs(pp_fit - pp_fit_old) > par.base.tol &&
                   pp_sweeps < pp_opt.max_pp_sweeps_per_phase &&
                   total < par.base.max_sweeps) {
              const Profile before = Profile::thread_default();
              pp.approx_sweep();
              ++pp_sweeps;
              ++total;
              trace.sweep = total;
              trace.profiles.push_back(
                  Profile::thread_default().delta_since(before));
              // Fitness from the approximated MTTKRP — cheap and close to
              // exact while the PP condition holds. It is also the inner
              // stopping criterion: the paper stops on the fitness
              // difference of neighbouring sweeps, which must apply inside
              // the PP phase too or a converged run would spin until
              // max_sweeps.
              const double r = ctx.residual();
              pp_fit_old = pp_fit;
              pp_fit = core::fitness_from_residual(r);
              const ParCpContext::SweepHealth h = ctx.last_health();
              if (comm.rank() == 0) {
                // Counted even if the guard below discards it, so the
                // sweep kinds always add up to the sweep total.
                ++result.num_pp_approx;
                record_health_events(result, total, h);
              }
              if (h.nonfinite > 0.0 || !std::isfinite(pp_fit) ||
                  pp_fit < fit_floor) {
                // Replicated verdict: discard the approximated phase on
                // every rank, fall back to exact sweeps; pair operators
                // are rebuilt at the next phase entry.
                ctx.restore_state();
                discarded = true;
                if (comm.rank() == 0) {
                  result.recovery_log.push_back(
                      {total, "PP trust guard: approximated sweep regressed "
                              "or went non-finite; discarded the PP phase "
                              "and resumed exact sweeps"});
                  if (result.status == core::SolveStatus::kOk)
                    result.status = core::SolveStatus::kRecovered;
                }
                break;
              }
              if (comm.rank() == 0 && par.base.record_history &&
                  pp_opt.record_pp_sweeps) {
                result.history.push_back(
                    {timer.seconds(), pp_fit, "pp-approx"});
              }
              if (!sweep_hook("pp-approx", pp_fit)) break;
            }
            // Carry PP progress into the outer stopping comparison;
            // otherwise the next regular sweep is compared against a
            // fitness from before the whole phase and the loop
            // re-initializes forever. A discarded phase keeps the entry
            // fitness — its sweeps were reverted.
            if (discarded)
              fit = fit_p;
            else if (pp_sweeps > 0)
              fit = pp_fit;
          }
          if (aborted || total >= par.base.max_sweeps) break;

          // ---- Regular sweep ---------------------------------------
          at.publish(ctx, total, fit, fit_old);
          ctx.capture_state();
          const double saved_fit = fit, saved_fit_old = fit_old;
          for (int m = 0; m < n; ++m)
            prev_q[static_cast<std::size_t>(m)] = ctx.factor_dist().q(m);
          const Profile before = Profile::thread_default();
          for (int i = 0; i < n; ++i) ctx.update_mode(i);
          ++total;
          trace.sweep = total;
          have_sweep = true;
          trace.profiles.push_back(
              Profile::thread_default().delta_since(before));
          fit_old = fit;
          const double r = ctx.residual();
          fit = core::fitness_from_residual(r);
          const ParCpContext::SweepHealth h = ctx.last_health();
          if (comm.rank() == 0) record_health_events(result, total, h);
          if (h.nonfinite > 0.0 || !std::isfinite(fit)) {
            ctx.restore_state();
            fit = saved_fit;
            fit_old = saved_fit_old;
            have_sweep = false;  // changes vs prev_q are no longer valid
            if (retry_after_rollback(result, comm, total, rollbacks)) continue;
            break;
          }
          if (comm.rank() == 0) {
            ++result.num_als_sweeps;
            result.residual = r;
            result.fitness = fit;
            result.sweeps = total;
            if (par.base.record_history)
              result.history.push_back({timer.seconds(), fit, exact_phase});
          }
          // Checkpoints land after regular (exact) sweeps only, so the
          // saved factors are never mid-approximation.
          if (hooks.checkpoint_every > 0 && hooks.on_checkpoint &&
              total - last_checkpoint >= hooks.checkpoint_every) {
            write_checkpoint(comm, ctx, hooks, total, fit, fit_old);
            last_checkpoint = total;
          }
          if (!sweep_hook(exact_phase, fit)) break;
        }
        // Final exact residual at the current factors (the loop may exit
        // mid-PP-phase, leaving the stored residual stale).
        const double r_final = ctx.measure_residual();
        std::vector<la::Matrix> assembled = ctx.assemble_factors();
        if (comm.rank() == 0) {
          result.factors = std::move(assembled);
          result.sweeps = total;
          result.residual = r_final;
          result.fitness = core::fitness_from_residual(r_final);
        }
      });
}

PpKernelTimings time_pp_kernels(const tensor::DenseTensor& global_t,
                                int nprocs, const ParOptions& options,
                                int sweeps) {
  PpKernelTimings out;
  std::vector<double> init_secs(static_cast<std::size_t>(nprocs), 0.0);
  std::vector<double> approx_secs(static_cast<std::size_t>(nprocs), 0.0);
  std::vector<Profile> init_prof(static_cast<std::size_t>(nprocs));
  std::vector<Profile> approx_prof(static_cast<std::size_t>(nprocs));

  const dist::DenseBlockProblem problem(global_t);
  mpsim::RunOptions ropt;
  ropt.threads_per_rank = options.threads_per_rank;
  auto run_result = mpsim::run(
      nprocs,
      [&](mpsim::Comm& comm) {
        ParCpContext ctx(comm, problem, options);
        const int n = ctx.order();
        // One regular sweep to warm the tree cache (donor amortization).
        for (int i = 0; i < n; ++i) ctx.update_mode(i);

        LocalPp pp(comm, ctx, /*second_order=*/true);
        const auto r = static_cast<std::size_t>(comm.rank());
        {
          WallTimer t;
          const Profile before = Profile::thread_default();
          pp.build();
          comm.barrier(PARPP_COMM_TAG("ppbench-init-barrier"));
          init_secs[r] = t.seconds();
          init_prof[r] = Profile::thread_default().delta_since(before);
        }
        {
          WallTimer t;
          const Profile before = Profile::thread_default();
          for (int s = 0; s < sweeps; ++s) pp.approx_sweep();
          comm.barrier(PARPP_COMM_TAG("ppbench-sweep-barrier"));
          approx_secs[r] = t.seconds() / std::max(1, sweeps);
          approx_prof[r] = Profile::thread_default().delta_since(before);
        }
      },
      ropt);

  for (int r = 0; r < nprocs; ++r) {
    out.init_seconds =
        std::max(out.init_seconds, init_secs[static_cast<std::size_t>(r)]);
    out.approx_sweep_seconds = std::max(
        out.approx_sweep_seconds, approx_secs[static_cast<std::size_t>(r)]);
  }
  out.init_profile = init_prof.empty() ? Profile{} : init_prof[0];
  out.approx_profile = approx_prof.empty() ? Profile{} : approx_prof[0];
  out.comm_cost = run_result.max_cost();
  return out;
}

}  // namespace parpp::par
