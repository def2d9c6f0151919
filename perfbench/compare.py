#!/usr/bin/env python3
"""A/B comparison of two sets of benchmark runs.

Judges a change by the rule the benchmark is built for: run both sides
with the same benchmark code and settings, at least ten pairs, alternating
which side runs first; claim a gain only when the change wins at least
nine tenths of the pairs and the medians differ by more than the parent's
own interquartile spread; call a metric worse when the change's median
is worse than the parent's by more than the metric's bound in
BENCHMARK.json, and unresolved when the parent's spread is wider than the
bound.

Each side is a directory of saved runs, one file per run named
<workload>.<seed>.out holding the benchmark's standard output (its last
line is the JSON result); runs pair up by workload and seed. Both sides
must be made with the same perfbench/ and BENCHMARK.json. From the root of
the change's checkout:

  python3 perfbench/compare.py /tmp/ab/base /tmp/ab/head

It prints, per workload and end-to-end metric, both sides' quartiles, the
pairs the change won and a verdict, and exits 1 when a metric is worse.
"""

import argparse
import json
import os
import statistics
import sys


def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def last_json(path):
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.startswith("{")]
    return json.loads(lines[-1]) if lines else None


def load_runs(directory):
    """Returns {workload: {seed: result}} from <workload>.<seed>.out files."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".out"):
            continue
        workload, _, seed = name[: -len(".out")].partition(".")
        res = last_json(os.path.join(directory, name))
        if res is not None:
            runs.setdefault(workload, {})[seed] = res
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(bench, base, head, out=sys.stdout):
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    worst = "same"
    for workload in sorted(set(base) | set(head)):
        b, h = base.get(workload, {}), head.get(workload, {})
        seeds = sorted(set(b) & set(h))
        print(f"\n{workload}: {len(seeds)} pairs", file=out)
        for sid, side in (("base", b), ("head", h)):
            share = {round(r["failed"] / r["attempted"], 9) for r in side.values()}
            bad = [s for s, r in side.items() if not r["correct"]]
            print(f"  {sid}: failed share {sorted(share)}{'; INCORRECT runs: ' + ','.join(bad) if bad else ''}", file=out)
        if len(seeds) < 10:
            print(f"  unresolved: {len(seeds)} pairs; the rule needs at least ten", file=out)
            if worst == "same":
                worst = "unresolved"
            continue
        print(f"  {'metric':16s} {'base q1/med/q3':>32s} {'head q1/med/q3':>32s} {'delta':>8s} {'won':>6s}  verdict", file=out)
        for name, m in metrics.items():
            bv = [b[s]["metrics"][name]["value"] for s in seeds if name in b[s]["metrics"]]
            hv = [h[s]["metrics"][name]["value"] for s in seeds if name in h[s]["metrics"]]
            if not bv or not hv:
                continue
            higher = m["better"] == "higher"
            bq1, bmed, bq3 = quartiles(bv)
            hq1, hmed, hq3 = quartiles(hv)
            won = sum(1 for x, y in zip(bv, hv) if (y > x if higher else y < x))
            delta = (hmed - bmed) / bmed if bmed else float("nan")
            gain = delta if higher else -delta
            spread = (bq3 - bq1) / bmed if bmed else float("inf")
            bound = m.get("bound", 0.0)
            all_better = (min(hv) > max(bv)) if higher else (max(hv) < min(bv))
            if won >= 0.9 * len(seeds) and abs(hmed - bmed) > (bq3 - bq1) and gain > 0:
                verdict = "better"
            elif -gain > bound:
                verdict = "WORSE"
            elif spread > bound and not all_better:
                verdict = "unresolved (parent spread %.3f > bound %.3f)" % (spread, bound)
            else:
                verdict = "same (within bound %.2f)" % bound
            if verdict == "WORSE" or (verdict.startswith("unresolved") and worst == "same"):
                worst = verdict.split()[0]
            print(f"  {name:16s} {bq1:10.4g}/{bmed:10.4g}/{bq3:10.4g} {hq1:10.4g}/{hmed:10.4g}/{hq3:10.4g} "
                  f"{delta:+8.2%} {won:3d}/{len(seeds):<2d}  {verdict}", file=out)
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base", help="runs of the parent commit")
    ap.add_argument("head", help="runs of the change")
    ap.add_argument("--bench", default=".", help="checkout whose BENCHMARK.json holds the bounds")
    args = ap.parse_args()
    worst = compare(load_benchmark(args.bench), load_runs(args.base), load_runs(args.head))
    print(f"\noverall: {worst}")
    sys.exit(1 if worst == "WORSE" else 0)


if __name__ == "__main__":
    main()
