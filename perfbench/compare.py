"""Compare two result sets of end-to-end runs, one row per workload x metric.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are directories (or single files) of run records written
by ``run.py --trace 0``, one set per commit, made with the same benchmark
code and settings.  Runs are paired by seed when both sides used the same
seeds, otherwise in the order they ran.  Each row gives both medians and
quartiles, the fraction of pairs the change won (ties count for neither)
and a verdict:

* ``improved``: at least ten pairs, the change won at least nine tenths of
  them, no more calls failed than at the parent, and the medians differ by
  more than the parent's own quartile spread;
* ``unresolved``: the parent's quartile spread, as a share of its median,
  is wider than the metric's bound, and not every change run beat every
  parent run;
* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``no worse`` otherwise.

Bounds and directions come from BENCHMARK.json at the checkout root; every
workload with runs on both sides is compared, reach included.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_records(path: str) -> list[dict]:
    paths = [path]
    if os.path.isdir(path):
        paths = [os.path.join(path, n) for n in sorted(os.listdir(path)) if n.endswith(".json")]
    records = []
    for p in paths:
        with open(p, encoding="utf-8") as handle:
            record = json.load(handle)
        if isinstance(record, dict) and record.get("trace") == 0 and "result" in record:
            records.append(record)
    records.sort(key=lambda r: r["started_utc"])
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair_runs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["seed"]: r for r in parent}
    if len(by_seed) == len(parent) and all(r["seed"] in by_seed for r in change):
        return [(by_seed[r["seed"]], r) for r in change]
    return list(zip(parent, change))


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            bound: float, lower_is_better: bool, more_failures: bool) -> tuple[str, float]:
    def better(a, b):
        return a < b if lower_is_better else a > b

    wins = sum(1 for p, c in pairs if better(c, p))
    won = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = p3 - p1
    if (len(pairs) >= 10 and won >= 0.9 and not more_failures
            and better(cm, pm) and abs(cm - pm) > spread):
        return "improved", won
    all_better = all(better(c, p) for c in change for p in parent)
    if pm and spread / abs(pm) > bound and not all_better:
        return "unresolved", won
    worse_by = (cm - pm) if lower_is_better else (pm - cm)
    if worse_by > bound * abs(pm):
        return "worse", won
    return "no worse", won


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    metrics = spec["end_to_end"]
    parent_runs, change_runs = load_records(args.parent), load_records(args.change)
    seen = {r["workload"] for r in parent_runs + change_runs}
    workloads = [w for w in WORKLOADS if w in seen]
    header = (f"{'workload':<8} {'metric':<16} {'parent median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'won':>9}  verdict")
    print(header)
    for workload in workloads:
        parent = [r for r in parent_runs if r["workload"] == workload]
        change = [r for r in change_runs if r["workload"] == workload]
        if not parent or not change:
            print(f"{workload:<8} (no runs on {'parent' if not parent else 'change'} side)")
            continue
        pairs = pair_runs(parent, change)
        more_failures = sum(r["result"]["failed"] for r in change) > sum(r["result"]["failed"] for r in parent)
        for metric in metrics:
            name = metric["name"]

            def values(runs):
                return [r["result"]["metrics"][name]["value"] for r in runs]

            pv, cv = values(parent), values(change)
            pair_values = [(p["result"]["metrics"][name]["value"], c["result"]["metrics"][name]["value"])
                           for p, c in pairs]
            tag, won = verdict(pv, cv, pair_values, metric["bound"], metric["better"] == "lower", more_failures)
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print(f"{workload:<8} {name:<16} {pm:>12.5g} [{p1:.5g}, {p3:.5g}]".ljust(60)
                  + f" {cm:>12.5g} [{c1:.5g}, {c3:.5g}]".ljust(35)
                  + f" {won:>5.2f}/{len(pairs):<3} {tag}")
        calibration = [statistics.median(statistics.median(r["calibration_s"]) for r in side)
                       for side in (parent, change)]
        print(f"{workload:<8} {'calibration_s':<16} {calibration[0]:>12.5g}".ljust(60)
              + f" {calibration[1]:>12.5g}   (host speed, not compared)")
        failed = [sum(r["result"]["failed"] for r in side) for side in (parent, change)]
        print(f"{workload:<8} {'failed calls':<16} {failed[0]:>12}".ljust(60) + f" {failed[1]:>12}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
