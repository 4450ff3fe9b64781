#!/usr/bin/env python3
"""Parent-vs-change comparison under the benchmark's acceptance rules.

Collect alternating pairs (parent run, change run, same seed) from two
checkouts, then judge every end-to-end metric per workload:

    python3 perfbench/compare.py run --parent ../parent --change . \\
        --workload dense-msdt-o4 --pairs 10 --out-dir cmp/
    python3 perfbench/compare.py report cmp/

measure one tree's spread over seeds (what a baseline file records), and
check that two such sessions of the same code agree within the bounds:

    python3 perfbench/compare.py spread --workload dense-msdt-o4 --seeds 10 \\
        --out perfbench/baselines/dense-msdt-o4.session1.json
    python3 perfbench/compare.py agree perfbench/baselines/dense-msdt-o4.session1.json \\
        perfbench/baselines/dense-msdt-o4.session2.json

Rules (perfbench/README.md, "Comparing two commits"):
  * at least MIN_PAIRS pairs, the side that runs first alternating;
  * "unresolved" when either side's IQR/median exceeds the metric's bound,
    unless every change run beats every parent run;
  * "gain" only when the change wins >= 9/10 of the pairs, the medians
    differ by more than the parent's IQR, and no more solves fail than at
    the parent;
  * "regression" when the change's median is worse than the parent's by
    more than the bound; otherwise "same";
  * every ratio is printed with its base (the parent median and unit).
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


def verdict(parent, change, better, bound, parent_failed=0, change_failed=0):
    """Verdict of one metric on one workload from paired samples;
    *_failed are the failed solves summed over each side's runs."""
    n = min(len(parent), len(change))
    if n < MIN_PAIRS:
        return "too few pairs (%d < %d)" % (n, MIN_PAIRS)
    parent, change = parent[:n], change[:n]
    sign = 1.0 if better == "higher" else -1.0
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    wide = metrics.iqr_ratio(parent) > bound or metrics.iqr_ratio(change) > bound
    if wide and not beats_all:
        return "unresolved"
    p_med, c_med = metrics.median(parent), metrics.median(change)
    q1, _, q3 = metrics.quartiles(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if (wins >= math.ceil(WIN_SHARE * n) and sign * (c_med - p_med) > q3 - q1
            and change_failed <= parent_failed):
        return "gain"
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "regression"
    return "same"


def load(out_dir):
    """{(side, workload): [result per pair]} ordered by pair index."""
    runs = {}
    for f in sorted(Path(out_dir).glob("*.result.json")):
        side, workload, idx = f.name[: -len(".result.json")].split("__")
        runs.setdefault((side, workload), []).append(
            (int(idx), json.loads(f.read_text())))
    return {k: [m for _, m in sorted(v)] for k, v in runs.items()}


def report(out_dir, bench):
    runs = load(out_dir)
    spec = {m["name"]: m for m in bench["end_to_end"]}
    workloads = sorted({w for _, w in runs})
    lines = []
    for w in workloads:
        p_runs, c_runs = runs.get(("parent", w), []), runs.get(("change", w), [])
        cells = []
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        for name, m in spec.items():
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            if not p or not c:
                continue
            v = verdict(p, c, m["better"], m["bound"], p_failed, c_failed)
            base = metrics.median(p)
            ratio = metrics.median(c) / base if base else float("nan")
            cells.append("%s %s %.3fx of %.6g %s" % (name, v, ratio, base, m["unit"]))
        lines.append("%s (%d pairs) | %s" % (w, min(len(p_runs), len(c_runs)),
                                             " | ".join(cells)))
    return lines


def pair_order(i):
    """Sides of pair i in run order: the parent goes first on even pairs and
    second on odd ones, so warm-up and drift do not favour one side."""
    sides = ["parent", "change"]
    return sides[::-1] if i % 2 else sides


def run_pairs(args, seconds):
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trees = {"parent": args.parent, "change": args.change}
    for i in range(args.pairs):
        seed = args.first_seed + i
        for w in args.workload:
            for side in pair_order(i):
                dest = out / ("%s__%s__%03d.result.json" % (side, w, i))
                cmd = ["python3", "perfbench/run.py", "--workload", w,
                       "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", "0", "--out", str(dest.resolve())]
                subprocess.run(cmd, cwd=trees[side], check=True,
                               stdout=subprocess.DEVNULL)


def spread(args, bench):
    """Runs seeds 1..N of one workload and summarises each end-to-end metric
    as per-seed values, median and IQR/median."""
    seconds = bench["run_seconds"]
    per_seed, fingerprint = [], None
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        out = Path(args.out).with_suffix(".tmp.json")
        cmd = ["python3", str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0", "--out", str(out)]
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        result = json.loads(out.read_text())
        out.unlink()
        fingerprint = result["fingerprint"]
        per_seed.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"]
                                     for k, v in result["metrics"].items()}})
    summary = {}
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]] for r in per_seed]
        summary[m["name"]] = {"unit": m["unit"], "median": metrics.median(values),
                              "iqr_ratio": metrics.iqr_ratio(values),
                              "bound": m["bound"]}
    record = {"workload": args.workload, "seconds": seconds,
              "fingerprint": fingerprint, "summary": summary, "runs": per_seed}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return ["%-18s median %-12.6g IQR/median %.4f (bound %g)"
            % (k, v["median"], v["iqr_ratio"], v["bound"])
            for k, v in summary.items()]


def agreement(first, second, bench):
    """Rows (name, first median, second median, shift, bound, ok) comparing
    two spread sessions: shift is how much worse the second median is, as a
    share of the first; ok when the shift is within the metric's bound."""
    rows = []
    for m in bench["end_to_end"]:
        a = first["summary"][m["name"]]["median"]
        b = second["summary"][m["name"]]["median"]
        sign = 1.0 if m["better"] == "higher" else -1.0
        shift = sign * (a - b) / abs(a) if a else 0.0
        rows.append((m["name"], a, b, shift, m["bound"], shift <= m["bound"]))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="collect alternating parent/change pairs")
    r.add_argument("--parent", required=True, help="parent checkout root")
    r.add_argument("--change", required=True, help="change checkout root")
    r.add_argument("--workload", action="append", required=True)
    r.add_argument("--pairs", type=int, default=MIN_PAIRS)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--out-dir", required=True)
    p = sub.add_parser("report", help="judge collected pairs")
    p.add_argument("out_dir")
    s = sub.add_parser("spread", help="one tree's spread over seeds")
    s.add_argument("--workload", required=True)
    s.add_argument("--seeds", type=int, default=MIN_PAIRS)
    s.add_argument("--first-seed", type=int, default=1)
    s.add_argument("--out", required=True)
    a = sub.add_parser("agree", help="do two spread sessions agree?")
    a.add_argument("first")
    a.add_argument("second")
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if args.cmd == "spread":
        lines = spread(args, bench)
    elif args.cmd == "agree":
        rows = agreement(json.loads(Path(args.first).read_text()),
                         json.loads(Path(args.second).read_text()), bench)
        lines = ["%-18s %-12.6g -> %-12.6g worse by %+.4f (bound %g) %s"
                 % (n, a_, b_, d, bd, "ok" if ok else "DISAGREE")
                 for n, a_, b_, d, bd, ok in rows]
    else:
        if args.cmd == "run":
            run_pairs(args, bench["run_seconds"])
        lines = report(args.out_dir, bench)
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
