"""Benchmark entry point: runs one workload for a fixed time and prints its
metrics, then one JSON result line.

    python3 perfbench/run.py --workload check --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  Each pass over the workload's calls runs in a fresh
process (``passrun.py``), so every pass pays the cold caches a CLI
invocation pays.  Full passes repeat while the next one is expected to end
within ``--seconds``; there is always at least one.  The time left goes to
partial passes over the cheapest calls that still fit.

``--trace 0`` reports the end-to-end metrics (tracing off).  ``--trace 1``
runs rounds of an untraced, a traced and a kernel-counting pass and
reports the per-layer metrics.  Every run also writes a record with the
host details, the calibration time and every pass to ``--results``; the
traced pass's spans go next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import workloads

HERE = workloads.HERE
ROOT = workloads.ROOT
SETUP_SAMPLES = 15
# a run must end within 180 s; stop starting passes past this point
HARD_LIMIT_S = 160.0
PARSE_SPANS = (
    "cli.build_parser", "cli.parse_args", "cli.load_document", "cli.document_data",
    "cli.document_genus", "cli.document_order", "cli.parse_sign_patterns",
)
RENDER_SPANS = (
    "cli.poly_json", "cli.data_json", "cli.proof_json", "cli.result_json",
    "cli.emit", "cli.json_dumps", "cli.print",
)
SETUP_CODE = (
    "import sys; sys.path.insert(0, {here!r}); import passrun; "
    "print(passrun.timed_import()[1])"
)


class BenchError(Exception):
    """The benchmark cannot run here (missing program or pinned data)."""


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def _child(argv, limit_s: float) -> subprocess.CompletedProcess:
    """Run a child process in its own process group; on timeout the whole
    group (pool workers too) is killed and reaped."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(limit_s, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nkilled after {limit_s:.0f} s"
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def measure_setup(samples: int) -> list[float]:
    """Seconds of ``import txyrigid.cli`` in fresh processes, after one
    untimed import that leaves the bytecode cache warm."""
    argv = [sys.executable, "-c", SETUP_CODE.format(here=HERE)]
    times = []
    for index in range(samples + 1):
        done = _child(argv, 60)
        if done.returncode != 0:
            raise BenchError(f"cannot import txyrigid.cli: {done.stderr.strip()[-400:]}")
        if index:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def calibrate(repeats: int = 3) -> float:
    """Median seconds of a fixed stdlib workload (rational arithmetic and
    dict updates, like the program's kernel), to show host speed drift."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total, table = Fraction(0), {}
        for i in range(1, 30_000):
            total += Fraction(i % 89 + 1, i % 97 + 1)
            key = (i % 31, i % 37)
            table[key] = table.get(key, 0) + i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _src_lines() -> int:
    count = 0
    for folder, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as handle:
                    count += sum(1 for _ in handle)
    return count


def _git_commit():
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: int, results: str, stamp: str):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.results, self.stamp = results, stamp
        self.calls = len(workloads.build_calls(workload, seed))
        self.passes: list[dict] = []
        self.started = time.monotonic()
        self.measuring_since = self.started

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def run_pass(self, mode: str, index: int, only=None) -> dict:
        argv = [
            sys.executable, os.path.join(HERE, "passrun.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--mode", mode,
        ]
        if only is not None:
            argv += ["--only", ",".join(map(str, only))]
        if mode != "plain":
            argv += ["--spool", os.path.join(self.results, f"spool-{os.getpid()}-{index}")]
        if mode == "trace":
            argv += ["--spans", os.path.join(
                self.results, f"spans-{self.workload}-seed{self.seed}-{self.stamp}-r{index}.json")]
        started = time.monotonic()
        done = _child(argv, HARD_LIMIT_S + 10 - self.elapsed())
        try:
            record = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            # the pass process died: every call of the pass counts as failed
            size = self.calls if only is None else len(only)
            record = {
                "attempted": size, "failed": size,
                "failures": [f"pass process exited {done.returncode}: {done.stderr.strip()[-400:]}"],
            }
        record["mode"] = mode
        record["process_s"] = time.monotonic() - started
        self.passes.append(record)
        return record

    def repeat(self, modes) -> list[list[dict]]:
        """Rounds of passes while the next round is expected to end within
        the run's seconds (and well within the hard limit)."""
        rounds, durations = [], []
        self.measuring_since = time.monotonic()
        while True:
            start = time.monotonic()
            rounds.append([self.run_pass(mode, len(rounds)) for mode in modes])
            durations.append(time.monotonic() - start)
            expected = _median(durations)
            if (time.monotonic() - self.measuring_since + expected > self.seconds
                    or self.elapsed() + expected > HARD_LIMIT_S):
                return rounds

    def fill(self, passes: list[dict]) -> None:
        """Spend the time in which no further full pass fits on passes over
        the cheapest calls that still fit, so that short calls, such as the
        small-n searches of desk, get more samples than the long ones."""
        times = [statistics.median(t) for t in zip(*(p["latencies_s"] for p in passes))]
        start_cost = _median([p["process_s"] - p["elapsed_s"] for p in passes])
        order = sorted(range(len(times)), key=times.__getitem__)
        while True:
            budget = self.seconds - (time.monotonic() - self.measuring_since) - start_cost
            budget = min(budget, HARD_LIMIT_S - self.elapsed() - start_cost)
            chosen, total = [], 0.0
            for i in order:
                if total + times[i] > budget:
                    break
                chosen.append(i)
                total += times[i]
            if total < start_cost:  # a pass would mostly pay its start-up
                return
            self.run_pass("plain", len(self.passes), only=sorted(chosen))


def typical(times: list[float]) -> float:
    """A call's time over the run's passes: the upper quartile.

    Shared hosts alternate between a contended state, which holds most of
    the time, and bursts of a few to tens of seconds in which the same
    code runs up to 1.8x faster.  The upper quartile reports the contended
    state whenever it covers a quarter of the run; the median and the
    minimum flip between the two states from run to run."""
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=4, method="inclusive")[2]


def end_to_end(run: Run, setup: list[float]) -> dict:
    """Full passes make every call; partial passes (``Run.fill``) repeat the
    cheapest ones.  Each call's time is ``typical`` over all its samples;
    ``wall_s`` is the sum of those times and the latency percentiles are
    taken over them."""
    rounds = run.repeat(["plain"])
    full = [r[0] for r in rounds if "wall_s" in r[0]]
    if not full:
        raise BenchError("no pass completed: " + "; ".join(rounds[0][0]["failures"]))
    run.fill(full)
    samples = [[] for _ in range(run.calls)]
    for p in run.passes:
        for index, seconds in zip(p.get("indices", ()), p.get("latencies_s", ())):
            samples[index].append(seconds)
    per_call = [typical(times) * 1000.0 for times in samples]
    p95 = statistics.quantiles(per_call, n=20, method="inclusive")[18] if len(per_call) > 1 else per_call[0]
    return {
        "wall_s": (sum(per_call) / 1000.0, "s"),
        "latency_p50_ms": (statistics.median(per_call), "ms"),
        "latency_p95_ms": (p95, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (_median([p["peak_rss_mb"] for p in full]), "MB"),
    }


def _layer_metrics(plain: dict, traced: dict, counted: dict) -> dict:
    stats = traced["layers"]["stats"]
    tallies = traced["layers"]["tallies"]

    def self_s(*names):
        return sum(stats.get(n, (0, 0.0))[1] for n in names)

    def calls(name):
        return stats.get(name, (0,))[0]

    kernel = counted["layers"]
    search, cache = plain["search"], plain["factor_cache"]
    return {
        "search.enumerate_s": (self_s("search.enumerate"), "s"),
        "search.prune_s": (self_s("search.prune"), "s"),
        "search.candidates": (search["candidates"], "count"),
        "search.prune_keep_ratio": (_ratio(search["checked"], search["candidates"]), "ratio"),
        "search.checked": (search["checked"], "count"),
        "search.rigid": (search["rigid"], "count"),
        "search.pool_worker_cpu_s": (plain["pool_worker_cpu_s"], "s"),
        "search.pool_utilization": (_ratio(plain["pool_worker_cpu_s"], plain["pool_capacity_s"]), "ratio"),
        "genera.is_rigid_s": (self_s("genera.is_rigid"), "s"),
        "genera.is_rigid_calls": (calls("genera.is_rigid"), "count"),
        "genera.rigid_ratio": (_ratio(tallies.get("genera.rigid", 0), calls("genera.is_rigid")), "ratio"),
        "genera.defect_s": (self_s("genera.rigidity_defect"), "s"),
        "genera.defect_calls": (calls("genera.rigidity_defect"), "count"),
        "genera.defect_terms": (plain["defect_terms"], "count"),
        "classify.classify_s": (self_s("classify.classify_two_points"), "s"),
        "classify.replay_s": (self_s("classify.replay_proof"), "s"),
        "series.genus_series_s": (self_s("series.genus_series"), "s"),
        "series.calls": (calls("series.genus_series"), "count"),
        "series.is_constant_s": (self_s("series.series_is_constant"), "s"),
        "series.factor_cache_hit_ratio": (_ratio(cache["hits"], cache["hits"] + cache["misses"]), "ratio"),
        "cli.parse_s": (self_s(*PARSE_SPANS), "s"),
        "cli.render_s": (self_s(*RENDER_SPANS), "s"),
        "cli.calls": (calls("cli.main"), "count"),
        "cli.exit2": (tallies.get("cli.exit2", 0), "count"),
        "algebra.laurent_mul_calls": (kernel.get("algebra.laurent_mul_calls", 0), "count"),
        "algebra.laurent_mul_s": (kernel.get("algebra.laurent_mul_s", 0.0), "s"),
        "algebra.poly_mul_calls": (kernel.get("algebra.poly_mul_calls", 0), "count"),
        "algebra.poly_term_products": (kernel.get("algebra.poly_term_products", 0), "count"),
        "algebra.series_mul_calls": (kernel.get("algebra.series_mul_calls", 0), "count"),
        "algebra.series_term_products": (kernel.get("algebra.series_term_products", 0), "count"),
        "trace.untraced_wall_s": (plain["wall_s"], "s"),
        "trace.traced_wall_s": (traced["wall_s"], "s"),
        "trace.overhead_s": (traced["wall_s"] - plain["wall_s"], "s"),
    }


def per_layer(run: Run) -> dict:
    rounds = run.repeat(["plain", "trace", "count"])
    good = [r for r in rounds if all("wall_s" in p for p in r)]
    if not good:
        failures = [f for r in rounds for p in r for f in p["failures"]]
        raise BenchError("no traced round completed: " + "; ".join(failures[:3]))
    per_round = [_layer_metrics(*r) for r in good]
    return {
        name: (_median([m[name][0] for m in per_round]), unit)
        for name, (_, unit) in per_round[0].items()
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool, results: str) -> dict:
    """Run one workload; returns the run record (its ``result`` is the line
    the benchmark prints)."""
    os.makedirs(results, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime()) + f"-{os.getpid()}"
    started_utc = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    run = Run(workload, seed, seconds, results, stamp)
    setup = measure_setup(SETUP_SAMPLES)
    calibration = [calibrate()]
    metrics = per_layer(run) if trace else end_to_end(run, setup)
    calibration.append(calibrate())
    attempted = sum(p["attempted"] for p in run.passes)
    failed = sum(p["failed"] for p in run.passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "started_utc": started_utc,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "src_lines": _src_lines(),
        "calibration_s": calibration,
        "setup_samples_s": setup,
        "latency_samples": run.calls,
        "full_passes": sum(1 for p in run.passes if p["mode"] == "plain"
                           and len(p.get("indices", ())) == run.calls),
        "partial_passes": sum(1 for p in run.passes if p["mode"] == "plain"
                              and 0 < len(p.get("indices", ())) < run.calls),
        "failed_ratio": _ratio(failed, attempted),
        "result": result,
        "passes": run.passes,
    }
    path = os.path.join(results, f"{workload}-seed{seed}-trace{int(trace)}-{stamp}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    record["path"] = path
    return record


def describe(record: dict) -> list[str]:
    """Human-readable lines: the run context, then one line per metric."""
    result = record["result"]
    commit = (record["git_commit"] or "unknown")[:12]
    modes = [p["mode"] for p in record["passes"]]
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"passes {modes.count('plain')}  python {record['python']}  nproc {record['nproc']}  "
        f"commit {commit}  src_lines {record['src_lines']}  "
        f"calibration_s {' '.join(f'{c:.4f}' for c in record['calibration_s'])}",
    ]
    for name, metric in result["metrics"].items():
        note = ""
        if name.startswith("latency_"):
            note = (f"  ({record['latency_samples']} calls; {record['full_passes']} full and "
                    f"{record['partial_passes']} partial passes)")
        lines.append(f"  {name:<32} {metric['value']:>14.6g} {metric['unit']}{note}")
    lines.append(
        f"  {'failed_ratio':<32} {record['failed_ratio']:>14.6g}  "
        f"({result['failed']} of {result['attempted']} calls failed)"
    )
    failures = [f for p in record["passes"] for f in p.get("failures", ())]
    lines.extend(f"  FAILED {f}" for f in failures[:5])
    lines.append(f"  record {os.path.relpath(record['path'], ROOT)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=os.path.join(HERE, "results"),
                        help="directory for run records and spans")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "txyrigid", "cli.py")):
        print(f"error: no txyrigid sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [
            run_workload(name, args.seed, args.seconds, bool(args.trace), os.path.abspath(args.results))
            for name in names
        ]
    except (BenchError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for record in records:
        print("\n".join(describe(record)), flush=True)
    if len(records) == 1:
        print(json.dumps(records[0]["result"]))
    else:
        print(json.dumps({
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {
                f"{r['workload']}.{name}": metric
                for r in records for name, metric in r["result"]["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
