#!/usr/bin/env python3
"""Compare two result sets of the end-to-end benchmark.

Collect alternating pairs (parent and change are two checkouts; the pair
order alternates so neither side always runs first):

    python3 e2ebench/compare.py pairs --parent ../parent --change . \\
        --workload ingest_small --out results/

    -> results/parent.jsonl, results/change.jsonl (one run per line)

Every run lasts BENCHMARK.json's run_seconds. Pair i uses seed 9001 + i,
starting at the held-out seed that was never used to tune the benchmark.

Judge them:

    python3 e2ebench/compare.py judge results/parent.jsonl results/change.jsonl

For every workload (one row each) and end-to-end metric of BENCHMARK.json:

  gain        the change wins at least 9 of every 10 pairs (ties count for
              neither side) and its median is better than the parent's by
              more than the parent's own interquartile spread;
  regression  the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's spread (IQR / median) exceeds the bound, unless
              every change run reads better than every parent run;
  same        otherwise.

Fewer than 10 pairs is reported as "too few pairs", never as a verdict.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
WIN_SHARE = 0.9
HELD_OUT_SEED = 9001


def run_once(checkout, workload, seed, seconds):
    out = subprocess.run(
        ["python3", "e2ebench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {"workload": workload, "seed": seed, **result}


def cmd_pairs(args):
    bench = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(PAIRS):
        seed = HELD_OUT_SEED + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            row = run_once(getattr(args, side), args.workload, seed, seconds)
            with open(out / f"{side}.jsonl", "a") as f:
                f.write(json.dumps(row) + "\n")
            print(f"pair {i + 1}/{PAIRS} {side} seed {seed}: "
                  f"correct={row['correct']}", file=sys.stderr)
    return 0


def load(path):
    rows = {}
    for line in open(path):
        if line.strip():
            row = json.loads(line)
            rows[(row["workload"], row["seed"])] = row
    return rows


def iqr(values):
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(parent, change, better, bound):
    """One metric on one workload; `parent` and `change` are the paired
    values in pair order."""
    n = len(parent)
    if n < PAIRS:
        return f"too few pairs ({n})"
    sign = 1 if better == "lower" else -1
    improve = [sign * (p - c) for p, c in zip(parent, change)]
    wins = sum(1 for d in improve if d > 0)
    pm, cm = statistics.median(parent), statistics.median(change)
    gain = sign * (pm - cm)
    delta = (cm - pm) / pm if pm else 0.0
    tag = f"{delta:+.1%}"
    if wins >= WIN_SHARE * n and gain > iqr(parent):
        return f"gain {tag} ({wins}/{n} wins)"
    if -gain > bound * abs(pm):
        return f"regression {tag}"
    spread = iqr(parent) / abs(pm) if pm else float("inf")
    if spread > bound:
        worst_change = max(change) if better == "lower" else min(change)
        best_parent = min(parent) if better == "lower" else max(parent)
        if sign * (best_parent - worst_change) > 0:
            return f"better in every run {tag}"
        return f"unresolved {tag}"
    return f"same {tag}"


def cmd_judge(args):
    bench = json.loads(Path(args.benchmark).read_text())
    parent, change = load(args.parent), load(args.change)
    keys = sorted(set(parent) & set(change))
    workloads = sorted({w for w, _ in keys})
    status = 0
    for w in workloads:
        seeds = [s for ww, s in keys if ww == w]
        bad = [s for s in seeds if not (parent[(w, s)]["correct"] and
                                        change[(w, s)]["correct"])]
        print(f"{w}: {len(seeds)} pairs" +
              (f", FAILED output checks at seeds {bad}" if bad else ""))
        cells = []
        for m in bench["end_to_end"]:
            name = m["name"]
            pv = [parent[(w, s)]["metrics"][name]["value"] for s in seeds]
            cv = [change[(w, s)]["metrics"][name]["value"] for s in seeds]
            v = verdict(pv, cv, m["better"], m["bound"])
            if v.startswith("regression") or bad:
                status = 1
            cells.append(f"{name}: {v}")
        print("  " + "; ".join(cells))
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("pairs", help="run alternating parent/change pairs")
    p.add_argument("--parent", required=True, help="parent checkout")
    p.add_argument("--change", required=True, help="change checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--out", required=True)
    j = sub.add_parser("judge", help="apply the pairwise rule")
    j.add_argument("parent")
    j.add_argument("change")
    j.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args()
    return cmd_pairs(args) if args.cmd == "pairs" else cmd_judge(args)


if __name__ == "__main__":
    sys.exit(main())
