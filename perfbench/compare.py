#!/usr/bin/env python3
"""Compare a change against its parent with the repository benchmark.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

PARENT_DIR and CHANGE_DIR are checkouts of the two commits. Both run the
benchmark of CHANGE_DIR (copied over PARENT_DIR's perfbench/ first, so
the two sides use identical benchmark code and settings) for the
run_seconds of its BENCHMARK.json, on every workload. Pair i runs seed i
(1 to 10) on both sides, alternating which side runs first; one last
pair runs the held-out seed from perfbench/baseline.json, which no
change may be tuned on.

For each workload and end-to-end metric it prints both sides' median and
quartiles, the change's wins out of the pairs (ties count for neither)
and a verdict:

  gain         the change wins at least 9/10 of the pairs and the medians
               differ by more than the parent's interquartile range
  regression   the change's median is worse than the parent's by more
               than the metric's bound
  unresolved   a side's spread (IQR over median) exceeds the bound, unless
               every change run beats every parent run
  same         none of the above

The simulated metrics that are not in the result's JSON (sim_pause_max_us,
sim_open_p50_us, sim_open_p999_us, sim_slo_mops), which every run prints
above its JSON line, are exact functions of the workload and seed, so
they are compared seed by seed with no noise allowance:

  same         equal on every seed
  regression   the change's median over the seeds is worse, by any
               amount, or the change is worse on some seed and better on none
  gain         better on at least 9/10 of the seeds and worse on none
  mixed        none of the above: better on some seeds, worse on others

The wall-clock times (wall_s, setup_wall_s) are printed as medians for
reference; they swing with the CPU time the host steals and are not
judged.

It exits 1 if any run failed or any metric regressed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PAIRS = 10
# Rows printed above the JSON line for metrics outside the result.
EXTRA = " (not in the result)"
WALL = ["wall_s", "setup_wall_s"]


def run_bench(checkout, workload, seed, seconds):
    """Run one workload; return the result's metrics and the extra rows."""
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        raise RuntimeError(f"{checkout}: {workload} seed {seed}: {res['failed']} of {res['attempted']} failed")
    extra = {}
    for line in lines[:-1]:
        if line.endswith(EXTRA):
            f = line.split()
            extra[f[0]] = float(f[1])
    return {k: v["value"] for k, v in res["metrics"].items()}, extra


def spread(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q, med, (q[2] - q[0]) / med if med else 0.0


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def verdict(metric, parent, change):
    """Apply the pairwise gain rule and the regression bound to one metric."""
    direction, bound = metric["better"], metric["bound"]
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    (pq, pmed, pspread), (_, cmed, cspread) = spread(parent), spread(change)
    gap = cmed - pmed if direction == "higher" else pmed - cmed  # > 0: change is better
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if wins >= 0.9 * len(parent) and gap > pq[2] - pq[0]:
        v = "gain"
    elif -gap > bound * pmed:
        v = "regression"
    elif max(pspread, cspread) > bound and not all_better:
        v = "unresolved"
    else:
        v = "same"
    return v, wins, pmed, cmed


def exact_verdict(direction, parent, change):
    """Judge a metric that is an exact function of the seed."""
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    losses = sum(better(p, c, direction) for p, c in zip(parent, change))
    pmed, cmed = statistics.median(parent), statistics.median(change)
    if wins == 0 and losses == 0:
        v = "same"
    elif better(pmed, cmed, direction) or wins == 0:
        v = "regression"
    elif wins >= 0.9 * len(parent) and losses == 0:
        v = "gain"
    else:
        v = "mixed"
    return v, wins, losses, pmed, cmed


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "baseline.json")) as f:
        held_out = json.load(f)["held_out_seed"]
    directions = {m["name"]: m["better"] for m in spec["per_layer"]}

    # Identical benchmark code on both sides.
    bench = os.path.join(args.parent, "perfbench")
    if os.path.abspath(bench) != os.path.abspath(os.path.join(args.change, "perfbench")):
        shutil.rmtree(bench, ignore_errors=True)
        shutil.copytree(os.path.join(args.change, "perfbench"), bench)

    failed = False
    for wl in (w["name"] for w in spec["workloads"]):
        sides = {"parent": [], "change": []}
        extras = {"parent": [], "change": []}
        held = {}
        seeds = list(range(1, PAIRS + 1)) + [held_out]
        for i, seed in enumerate(seeds):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                m, extra = run_bench(args.parent if side == "parent" else args.change, wl, seed,
                                     spec["run_seconds"])
                if seed == held_out:
                    held[side] = m
                else:
                    sides[side].append(m)
                    extras[side].append(extra)
        cells = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [m[name] for m in sides["parent"]]
            c = [m[name] for m in sides["change"]]
            v, wins, pmed, cmed = verdict(metric, p, c)
            failed |= v == "regression"
            h = "better" if better(held["change"][name], held["parent"][name], metric["better"]) else "not better"
            pq, cq = spread(p)[0], spread(c)[0]
            cells.append(f"{name} {v} parent {pmed:.6g} [{pq[0]:.6g}, {pq[2]:.6g}] -> change {cmed:.6g} "
                         f"[{cq[0]:.6g}, {cq[2]:.6g}] {metric['unit']}, wins {wins}/{len(p)}, held-out seed {h}")
        names = sorted(set(extras["parent"][0]) | set(extras["change"][0]))
        for name in (n for n in names if n.startswith("sim_")):
            p = [e.get(name) for e in extras["parent"]]
            c = [e.get(name) for e in extras["change"]]
            if None in p or None in c:
                failed = True
                cells.append(f"{name} regression: reported by only one side")
                continue
            v, wins, losses, pmed, cmed = exact_verdict(directions[name], p, c)
            failed |= v == "regression"
            cells.append(f"{name} {v} (exact) parent {pmed:.10g} -> change {cmed:.10g}, "
                         f"better on {wins}/{len(p)} seeds, worse on {losses}")
        for name in (n for n in WALL if n in names):
            pmed = statistics.median(e[name] for e in extras["parent"])
            cmed = statistics.median(e[name] for e in extras["change"])
            cells.append(f"{name} (not judged) parent {pmed:.6g} -> change {cmed:.6g}")
        print(f"{wl}: " + "; ".join(cells), flush=True)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    try:
        main()
    except RuntimeError as e:
        print(f"compare: {e}", file=sys.stderr)
        sys.exit(1)
