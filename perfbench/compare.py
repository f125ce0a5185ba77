"""Compare two sets of benchmark results: a parent commit and a change.

Usage (from the repository root):

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are each a results directory written by ``run.py``
(``.perfbench/results`` or a copy of it).  Only untraced records are compared.  For every workload and
end-to-end metric of ``BENCHMARK.json`` one row gives each side's median and
quartiles and a verdict:

- ``improved``: the change wins at least 9 of 10 pairs (ties count for
  neither side) and the medians differ, in the better direction, by more than
  the parent's interquartile distance; or every change run beats every
  parent run;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound, or every change run is worse than every parent run;
- ``unresolved``: either side's spread (interquartile distance over median)
  is wider than the bound, so a move within the bound cannot be told apart;
- ``unchanged``: none of the above.

Runs are paired by seed where both sides ran the same seeds, else by order.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load_records(results_dir: Path) -> list[dict]:
    records = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(results_dir.glob("*.json"))]
    return [r for r in records if r.get("trace", 0) == 0 and "workload" in r]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair_up(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["seed"]: r for r in change}
    if {r["seed"] for r in parent} == set(by_seed):
        return [(r, by_seed[r["seed"]]) for r in sorted(parent, key=lambda r: r["seed"])]
    return list(zip(parent, change))


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if min(sign * c for c in change) > max(sign * p for p in parent):
        return "improved"
    if max(sign * c for c in change) < min(sign * p for p in parent):
        return "worse"
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    gain = sign * (cm - pm)
    if wins >= WIN_SHARE * len(pairs) and gain > p3 - p1:
        return "improved"
    if -gain > bound * abs(pm):
        return "worse"
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound:
        return "unresolved"
    return "unchanged"


def compare(parent_records: list[dict], change_records: list[dict], bench: dict) -> list[dict]:
    rows = []
    workloads = sorted({r["workload"] for r in parent_records} & {r["workload"] for r in change_records})
    for workload in workloads:
        parent = [r for r in parent_records if r["workload"] == workload]
        change = [r for r in change_records if r["workload"] == workload]
        pairs = pair_up(parent, change)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p_vals = [r["metrics"][name]["value"] for r in parent]
            c_vals = [r["metrics"][name]["value"] for r in change]
            pair_vals = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs]
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "parent": quartiles(p_vals),
                    "change": quartiles(c_vals),
                    "runs": (len(p_vals), len(c_vals)),
                    "verdict": verdict(p_vals, c_vals, pair_vals, metric["better"], metric["bound"]),
                }
            )
    return rows


def format_rows(rows: list[dict]) -> str:
    head = f"{'workload':16s} {'metric':14s} {'parent median [q1, q3]':>32s} {'change median [q1, q3]':>32s} {'runs':>7s}  verdict"
    out = [head]
    for r in rows:
        parent, change = (f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {r['unit']}" for q in (r["parent"], r["change"]))
        runs = "%d/%d" % r["runs"]
        out.append(f"{r['workload']:16s} {r['metric']:14s} {parent:>32s} {change:>32s} {runs:>7s}  {r['verdict']}")
    return "\n".join(out)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare parent and change benchmark results.")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = p.parse_args(argv)
    bench = json.loads(args.benchmark.read_text(encoding="utf-8"))
    rows = compare(load_records(args.parent), load_records(args.change), bench)
    if not rows:
        sys.stderr.write("compare: no workload has untraced results on both sides\n")
        return 1
    print(format_rows(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
