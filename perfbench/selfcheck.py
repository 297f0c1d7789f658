"""Seconds-long self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

For the smoke size of every workload it requires that:

1. every output matches its pinned expectation (failed_ratio 0);
2. a corrupted expected value makes the pass count a failed call
   (failed_ratio > 0);
3. the traced pass sees the layers the workload exercises, and the
   counting pass sees kernel products where the workload uses the kernel.

It also requires that run.py, in a directory holding only the benchmark,
exits with a nonzero code without printing a result.  Exits 1 if any check
fails.
"""

import dataclasses
import os
import shutil
import subprocess
import sys

import passrun
import tracer
import workloads

# the corruption applied to the first call's expectation, by command
CORRUPT = {
    "search": ("candidates", lambda v: v + 1),
    "verify": ("rigid", lambda v: not v),
    "series": ("rows_sha256", lambda v: "0" * 64),
}
# spans the traced smoke pass must see, by workload
LAYERS = {
    "desk": ("search.enumerate", "search.prune", "genera.is_rigid", "genera.rigidity_defect"),
    "reach": ("search.enumerate", "search.prune", "genera.is_rigid"),
    "check": ("cli.load_document", "genera.is_rigid", "genera.rigidity_defect",
              "classify.classify_two_points", "classify.replay_proof"),
    "series": ("series.genus_series", "series.series_is_constant", "genera.is_rigid"),
}
KERNEL = {
    "desk": "algebra.laurent_mul_calls",
    "reach": "algebra.laurent_mul_calls",
    "check": "algebra.laurent_mul_calls",
    "series": "algebra.series_mul_calls",
}


def check_workload(cli, name: str, spool: str) -> list[str]:
    problems = []
    calls = workloads.build_calls(name, seed=1, smoke=True)
    record = passrun.run_calls(cli, calls)
    if record["failed"]:
        problems.append(f"{name}: {record['failed']} of {record['attempted']} calls failed: {record['failures'][:2]}")

    field, corrupt = CORRUPT[calls[0].argv[0]]
    bad = dataclasses.replace(calls[0], expect={**calls[0].expect, field: corrupt(calls[0].expect[field])})
    record = passrun.run_calls(cli, [bad] + calls[1:])
    if not record["failed"]:
        problems.append(f"{name}: a corrupted expected {field} was not counted as a failed call")

    probe = tracer.Tracer().install()
    probe.spool_dir = spool
    try:
        record = passrun.run_calls(cli, calls, probe)
    finally:
        probe.uninstall()
    missing = [span for span in LAYERS[name] if probe.calls(span) == 0]
    if record["failed"] or missing:
        problems.append(f"{name}: traced pass failed {record['failed']} calls, saw no {missing}")

    counter = tracer.KernelCounter().install()
    counter.spool_dir = spool
    try:
        passrun.run_calls(cli, calls, counter)
    finally:
        counter.uninstall()
    if not counter.counts[KERNEL[name]]:
        problems.append(f"{name}: the counting pass saw no {KERNEL[name]}")
    print(f"{name}: {len(calls)} calls checked", flush=True)
    return problems


def check_bare_directory(scratch: str) -> list[str]:
    """run.py in a directory holding only the benchmark must fail cleanly."""
    bare = os.path.join(scratch, "bare")
    shutil.copytree(workloads.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(workloads.ROOT, "BENCHMARK.json"), bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    if done.returncode == 0 or '"correct"' in done.stdout:
        return ["run.py without the program's sources did not fail cleanly"]
    return []


def main() -> int:
    cli, _ = passrun.timed_import()
    scratch = os.path.join(workloads.HERE, "results", f"selfcheck-{os.getpid()}")
    spool = os.path.join(scratch, "spool")
    os.makedirs(spool, exist_ok=True)
    try:
        problems = []
        for name in workloads.WORKLOADS:
            problems += check_workload(cli, name, spool)
        problems += check_bare_directory(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
