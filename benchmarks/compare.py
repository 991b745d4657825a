"""Compare two sets of benchmark records (parent and change).

    python3 benchmarks/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the JSON records that ``run.py --out DIR`` writes.
For every workload and end-to-end metric it prints each side's median and
quartiles, the share of seed-matched pairs the change won, and a verdict:

- ``worse``: the change's median is worse than the parent's by more than
  the bound in BENCHMARK.json;
- ``unresolved``: the parent's own spread (quartile distance over median)
  exceeds the bound, and not every change run beats every parent run;
- ``better``: the change won at least nine tenths of the pairs and the
  medians differ by more than the parent's quartile distance;
- ``same``: none of the above.

``fail_frac`` and ``worst_dev_ratio`` have no bound: a change median above
the parent's upper quartile is ``worse``, below its lower quartile ``better``.
Traced records add one row per per-layer metric whose median moved, with
no verdict.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
UNBOUNDED = ({"name": "fail_frac", "better": "lower", "bound": None}, {"name": "worst_dev_ratio", "better": "lower", "bound": None})


def load(directory: str) -> list[dict]:
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".spans.json"):
            continue
        with open(path) as fh:
            records.append(json.load(fh))
    return records


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def pairs(parent: list[dict], change: list[dict], name: str) -> list[tuple[float, float]]:
    """Runs matched by seed, in the order they were written."""
    by_seed: dict[int, list[float]] = {}
    for r in change:
        by_seed.setdefault(r["seed"], []).append(r["all_metrics"][name])
    out = []
    for r in parent:
        if by_seed.get(r["seed"]):
            out.append((r["all_metrics"][name], by_seed[r["seed"]].pop(0)))
    return out


def verdict(metric: dict, p: list[float], c: list[float], matched: list[tuple[float, float]]) -> tuple[str, float | None]:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(1 for a, b in matched if sign * (b - a) < 0)
    share = wins / len(matched) if matched else None
    p1, pm, p3 = quartiles(p)
    _, cm, _ = quartiles(c)
    worse_by = sign * (cm - pm)
    if metric["bound"] is None:
        # unbounded figures: any move past the parent's quartiles counts
        worse_edge, better_edge = (p3, p1) if sign > 0 else (p1, p3)
        if sign * (cm - worse_edge) > 0:
            return "worse", share
        if sign * (cm - better_edge) < 0:
            return "better", share
        return "same", share
    spread = (p3 - p1) / abs(pm) if pm else float("inf")
    all_better = all(sign * (b - a) < 0 for a in p for b in c)
    if pm and worse_by / abs(pm) > metric["bound"]:
        return "worse", share
    if spread > metric["bound"] and not all_better:
        return "unresolved", share
    if share is not None and share >= 0.9 and -worse_by > p3 - p1:
        return "better", share
    return "same", share


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parent, change = load(argv[0]), load(argv[1])
    metrics = spec["end_to_end"] + list(UNBOUNDED)
    print(f"{'workload':<11} {'metric':<16} {'parent median [q1, q3]':<36} {'change median [q1, q3]':<36} {'won':>5}  verdict")
    status = 0
    for wl in [w["name"] for w in spec["workloads"]]:
        p_runs = [r for r in parent if r["workload"] == wl and r["trace"] == 0]
        c_runs = [r for r in change if r["workload"] == wl and r["trace"] == 0]
        if not p_runs or not c_runs:
            print(f"{wl:<11} (no untraced records on one side)")
            continue
        for m in metrics:
            p = [r["all_metrics"][m["name"]] for r in p_runs]
            c = [r["all_metrics"][m["name"]] for r in c_runs]
            v, share = verdict(m, p, c, pairs(p_runs, c_runs, m["name"]))
            status |= v == "worse"
            pq, cq = quartiles(p), quartiles(c)
            won = "-" if share is None else f"{share:.0%}"
            print(
                f"{wl:<11} {m['name']:<16} {pq[1]:<10.5g} [{pq[0]:.5g}, {pq[2]:.5g}]".ljust(65)
                + f"{cq[1]:<10.5g} [{cq[0]:.5g}, {cq[2]:.5g}]".ljust(37)
                + f"{won:>5}  {v}"
            )
    for wl in [w["name"] for w in spec["workloads"]]:
        p_runs = [r for r in parent if r["workload"] == wl and r["trace"] == 1]
        c_runs = [r for r in change if r["workload"] == wl and r["trace"] == 1]
        if not p_runs or not c_runs:
            continue
        for m in spec["per_layer"]:
            pm = statistics.median(r["all_metrics"][m["name"]] for r in p_runs)
            cm = statistics.median(r["all_metrics"][m["name"]] for r in c_runs)
            if pm != cm:
                ratio = f"x{cm / pm:.3f}" if pm else "new"
                print(f"{wl:<11} {m['name']:<44} {pm:<12.5g} -> {cm:<12.5g} {ratio}  (traced, {m['better']} is better)")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
