"""Statistics and metric formulas of the benchmark (pure functions).

run.py turns the driver's raw JSON into metrics with these; compare.py uses
the same statistics for its verdicts; test_perfbench.py checks them on
synthetic inputs. Formulas are documented in perfbench/README.md.
"""

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10
# Same-seed repeats must reproduce the fitness history to this tolerance.
HISTORY_TOL = 1e-10
# Closure: the per-layer times come from replays, the sweep time from the
# untraced solves, so they can disagree. The layers may over-attribute by at
# most this share of the sweep (replay noise) ...
OVER_ATTRIBUTION_TOL = 0.25
# ... and the unattributed remainder may be at most this share of it. It is
# 1-25% on a quiet machine; other load adds scheduling waits of the 4-rank
# solves to it (36% seen); a replay that misses the dominant layer leaves
# more than this.
MAX_UNATTRIBUTED_SHARE = 0.75

END_TO_END_UNITS = {
    "time_to_target_s": "s",
    "setup_s": "s",
    "sweeps_per_s": "1/s",
    "sweep_ms_p50": "ms",
    "sweep_ms_p90": "ms",
    "sweeps_to_target": "count",
    "fitness": "ratio",
    "peak_rss_mb": "MiB",
    "ok_rate": "ratio",
    "sweep_samples": "count",
}


def median(xs):
    return statistics.median(xs)


def quartiles(xs):
    """(q1, q2, q3) exactly as statistics.quantiles(xs, n=4) gives them."""
    q = statistics.quantiles(xs, n=4)
    return q[0], q[1], q[2]


def iqr_ratio(xs):
    """Inter-quartile range as a share of the median."""
    q1, _, q3 = quartiles(xs)
    m = median(xs)
    return (q3 - q1) / abs(m) if m else math.inf


def percentile(xs, q):
    """Nearest-rank q-th percentile of xs."""
    s = sorted(xs)
    rank = max(1, math.ceil(q / 100.0 * len(s)))
    return s[rank - 1]


def percentile_supported(n, q, beyond=MIN_BEYOND):
    """True when at least `beyond` of n samples lie above the q-th
    percentile (and, for q <= 50, below it as well)."""
    rank = max(1, math.ceil(q / 100.0 * n))
    above = n - rank
    below = rank - 1
    return above >= beyond and (q > 50 or below >= beyond)


def closure_problems(layers, sweep):
    """Why the summed per-layer times do not account for the measured sweep
    time (empty when they do): the layers exceed the sweep by more than
    OVER_ATTRIBUTION_TOL of it, or leave more than MAX_UNATTRIBUTED_SHARE of
    it unattributed."""
    rest = sweep - sum(layers)
    if sweep <= 0:
        return ["no measured sweep time"]
    if rest < -OVER_ATTRIBUTION_TOL * sweep:
        return ["per-layer times exceed the sweep time by %.1f%% (tolerance %g%%)"
                % (-100.0 * rest / sweep, 100.0 * OVER_ATTRIBUTION_TOL)]
    if rest > MAX_UNATTRIBUTED_SHARE * sweep:
        return ["%.1f%% of the sweep time is unattributed (at most %g%%)"
                % (100.0 * rest / sweep, 100.0 * MAX_UNATTRIBUTED_SHARE)]
    return []


def sweeps_to_target(fitness, target):
    """1-based index of the first sweep at or above target, else None."""
    for i, f in enumerate(fitness):
        if f >= target:
            return i + 1
    return None


def sweep_times(t):
    """Per-sweep seconds from cumulative history times."""
    return [b - a for a, b in zip([0.0] + t[:-1], t)]


def _signature(s, target):
    """Exact counts a same-seed repeat must reproduce."""
    return (s["sweeps"], s["als"], s["pp_init"], s["pp_approx"], s["phase"],
            s["msgs"], s["words"], sweeps_to_target(s["fitness"], target))


def solve_failures(raw):
    """Per-solve failure reasons (empty string = passed), in solve order.

    A solve fails when it threw, ended with a status other than ok, missed
    the fitness floor or the target, or does not reproduce the exact counts
    and fitness history of the first solve of the same instance."""
    k = raw["instances"]
    target, floor = raw["target"], raw["fitness_floor"]
    solves = raw["solves"]
    out = []
    for idx, s in enumerate(solves):
        first = solves[idx % k]
        if not s["ok"]:
            out.append("threw: " + s["error"])
        elif s["status"] != "ok":
            out.append("status " + s["status"])
        elif s["final_fitness"] < floor:
            out.append("fitness %.6f below floor %g" % (s["final_fitness"], floor))
        elif sweeps_to_target(s["fitness"], target) is None:
            out.append("target %g not reached" % target)
        elif first["ok"] and _signature(s, target) != _signature(first, target):
            out.append("exact counts differ from the instance's first solve")
        elif first["ok"] and any(abs(a - b) > HISTORY_TOL
                                 for a, b in zip(s["fitness"], first["fitness"])):
            out.append("fitness history differs from the instance's first solve")
        else:
            out.append("")
    return out


def by_instance(raw, values):
    """Group per-solve values by instance (solves run pass by pass), dropping
    the None entries of failed solves."""
    k = raw["instances"]
    return [[v for i, v in enumerate(values) if i % k == j and v is not None]
            for j in range(k)]


def best_of(groups, pick=min):
    """Mean over instances of the best repeat (the noise floor: repeats run
    identical work, so interference from other load only adds time)."""
    best = [pick(g) for g in groups if g]
    return sum(best) / len(best) if best else 0.0


def floor_profile(groups):
    """Per instance, the fastest time of each sweep position over the
    repeats; pooled over instances."""
    pooled = []
    for g in groups:
        if g:
            pooled.extend(min(col) for col in zip(*g))
    return pooled


def end_to_end(raw):
    """(metrics, attempted, failed, problems) of an untraced run."""
    target = raw["target"]
    fails = solve_failures(raw)
    solves = raw["solves"]
    good = [s if not f and s["t"] else None for s, f in zip(solves, fails)]
    setup, ttt, rate, sweeps = [], [], [], []
    for s in good:
        if s is None:
            setup.append(None), ttt.append(None)
            rate.append(None), sweeps.append(None)
            continue
        t = s["t"]
        su = s["csf_build_s"] + s["wall_s"] - t[-1]
        setup.append(su)
        ttt.append(su + t[sweeps_to_target(s["fitness"], target) - 1])
        rate.append(len(t) / t[-1])
        sweeps.append(sweep_times(t))
    pooled = floor_profile(by_instance(raw, sweeps)) or [0.0]
    problems = sorted({f for f in fails if f})
    for q in (50, 90):
        if not percentile_supported(len(pooled), q):
            problems.append("p%d needs %d sweeps beyond it; run has %d sweeps"
                            % (q, MIN_BEYOND, len(pooled)))
    first_pass = [s for s in good[: raw["instances"]] if s is not None]
    attempted = len(solves)
    failed = sum(1 for f in fails if f)

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    metrics = {
        "time_to_target_s": best_of(by_instance(raw, ttt)),
        "setup_s": best_of(by_instance(raw, setup)),
        "sweeps_per_s": best_of(by_instance(raw, rate), max),
        "sweep_ms_p50": 1e3 * percentile(pooled, 50),
        "sweep_ms_p90": 1e3 * percentile(pooled, 90),
        "sweeps_to_target": mean([sweeps_to_target(s["fitness"], target)
                                  for s in first_pass]),
        "fitness": mean([s["final_fitness"] for s in first_pass]),
        "peak_rss_mb": max(s["rss_mb"] for s in solves),
        "ok_rate": 1.0 - failed / attempted if attempted else 0.0,
        "sweep_samples": len(pooled),
    }
    return metrics, attempted, failed, problems


PER_LAYER_UNITS = {
    "core.mttkrp_ms": "ms",
    "core.ttm_per_sweep": "count",
    "core.mttv_per_sweep": "count",
    "core.mttkrp_gflops": "GFLOP/s",
    "core.mttkrp_roofline_pct": "%",
    "core.mttkrp_model_ratio": "ratio",
    "core.pp_build_ms": "ms",
    "core.pp_build_ttms": "count",
    "core.pp_approx_ms": "ms",
    "core.pp_operator_mb": "MiB",
    "core.pp_approx_model_ratio": "ratio",
    "core.gram_ms": "ms",
    "core.update_ms": "ms",
    "core.normalize_ms": "ms",
    "core.fitness_ms": "ms",
    "tensor.csf_build_s": "s",
    "tensor.csf_mttkrp_ms": "ms",
    "tensor.csf_gbs": "GB/s",
    "tensor.csf_model_ratio": "ratio",
    "dist.partition_s": "s",
    "dist.nnz_imbalance": "ratio",
    "dist.partition_passes": "count",
    "dist.distribute_s": "s",
    "mpsim.msgs_per_sweep": "count",
    "mpsim.words_per_sweep": "count",
    "mpsim.transfer_ms": "ms",
    "mpsim.verify_ms": "ms",
    "mpsim.comm_model_ratio": "ratio",
    "par.comm_ms": "ms",
    "par.wait_ms": "ms",
    "solver.sweep_ms": "ms",
    "solver.unattributed_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
    "trace.replay_fitness_diff": "ratio",
    "machine.gemm_gflops": "GFLOP/s",
    "machine.stream_gbs": "GB/s",
    "machine.stream_mib": "MiB",
    "machine.l3_mib": "MiB",
    "machine.alpha_us": "us",
    "machine.beta_ns_per_word": "ns/word",
}

# Layers whose per-sweep times add up to solver.sweep_ms.
SUMMED_LAYERS = ["core.mttkrp_ms", "core.pp_build_ms", "core.pp_approx_ms",
                 "core.gram_ms", "core.update_ms", "core.normalize_ms",
                 "core.fitness_ms", "tensor.csf_mttkrp_ms", "mpsim.transfer_ms"]


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(raw):
    """(metrics, problems) of a traced run."""
    L, m = raw["layers"], raw["machine"]
    sweeps = max(raw["sweeps"], 1)
    gamma = 1.0 / (m["gemm_gflops"] * 1e9)   # s per flop
    nu = 8.0 / (m["stream_gbs"] * 1e9)       # s per 8-byte word
    msgs_ps = raw["msgs"] / sweeps
    words_ps = raw["words"] / sweeps
    mttkrp_exact = raw.get("mttkrp_exact_s", L["mttkrp_s"])
    csf_exact = raw.get("csf_mttkrp_exact_s", 0.0)
    gflops = _ratio(L["mttkrp_flops"], mttkrp_exact) / 1e9
    # Roofline: the lower of the GEMM rate and bandwidth x flops per byte.
    roofline = min(m["gemm_gflops"], m["stream_gbs"] * _ratio(
        L["mttkrp_flops"], L["mttkrp_bytes"])) if L["mttkrp_bytes"] else 0.0
    csf_gbs = _ratio(L["csf_bytes"], csf_exact) / 1e9
    approx_sweep = raw.get("pp_approx_sweep_s", 0.0)
    transfer_model = (msgs_ps * m["alpha_s"] + words_ps * m["beta_s"])
    x = {
        "core.mttkrp_ms": 1e3 * L["mttkrp_s"],
        "core.ttm_per_sweep": L["ttm_per_sweep"],
        "core.mttv_per_sweep": L["mttv_per_sweep"],
        "core.mttkrp_gflops": gflops,
        "core.mttkrp_roofline_pct": 100.0 * _ratio(gflops, roofline),
        "core.mttkrp_model_ratio": _ratio(mttkrp_exact, L["mttkrp_flops"] * gamma),
        "core.pp_build_ms": 1e3 * L["pp_build_s"],
        "core.pp_build_ttms": L["pp_build_ttms"],
        "core.pp_approx_ms": 1e3 * L["pp_approx_s"],
        "core.pp_operator_mb": L["pp_operator_mb"],
        "core.pp_approx_model_ratio": _ratio(approx_sweep, L["pp_approx_flops"] * gamma),
        "core.gram_ms": 1e3 * L["gram_s"],
        "core.update_ms": 1e3 * L["update_s"],
        "core.normalize_ms": 1e3 * L["normalize_s"],
        "core.fitness_ms": 1e3 * L["fitness_s"],
        "tensor.csf_build_s": raw["csf_build_s"],
        "tensor.csf_mttkrp_ms": 1e3 * L["csf_mttkrp_s"],
        "tensor.csf_gbs": csf_gbs,
        "tensor.csf_model_ratio": _ratio(csf_exact, L["csf_bytes"] / 8.0 * nu),
        "dist.partition_s": raw["partition_s"],
        "dist.nnz_imbalance": raw["nnz_imbalance"],
        "dist.partition_passes": raw["partition_passes"],
        "dist.distribute_s": raw["distribute_s"],
        "mpsim.msgs_per_sweep": msgs_ps,
        "mpsim.words_per_sweep": words_ps,
        "mpsim.transfer_ms": 1e3 * L["transfer_s"],
        "mpsim.verify_ms": 1e3 * L["verify_s"],
        "mpsim.comm_model_ratio": _ratio(L["transfer_s"], transfer_model),
        "par.comm_ms": 1e3 * raw["comm_s"],
        "par.wait_ms": 1e3 * (raw["comm_s"] - L["transfer_s"]),
        "solver.sweep_ms": 1e3 * raw["sweep_s"],
        "trace.overhead_pct": 100.0 * (_ratio(raw["traced_sweep_s"], raw["sweep_s"]) - 1.0),
        "trace.spans": raw["spans"],
        "trace.replay_fitness_diff": raw["replay_fitness_diff"],
        "machine.gemm_gflops": m["gemm_gflops"],
        "machine.stream_gbs": m["stream_gbs"],
        "machine.stream_mib": m["stream_mib"],
        "machine.l3_mib": m["l3_mib"],
        "machine.alpha_us": 1e6 * m["alpha_s"],
        "machine.beta_ns_per_word": 1e9 * m["beta_s"],
    }
    summed = [x[k] for k in SUMMED_LAYERS]
    x["solver.unattributed_ms"] = x["solver.sweep_ms"] - sum(summed)
    problems = closure_problems(summed, x["solver.sweep_ms"])
    if raw["replay_fitness_diff"] > HISTORY_TOL:
        problems.append("traced replay differs from parpp::solve() by %g"
                        % raw["replay_fitness_diff"])
    return x, problems
