"""One pass of a workload in a fresh process; prints its record as one JSON
line on stdout.

    python3 perfbench/passrun.py --workload check --seed 1 --mode plain

The pass first times ``import txyrigid.cli`` (the set-up a CLI user pays),
then makes the workload's calls to ``txyrigid.cli.main(argv)`` in one
closed loop: a single caller, each call starting after the previous one
returned.  Documents arrive on a substituted stdin and the report is
captured from stdout, so every call pays JSON parsing and rendering.
Every output is checked against its pinned expectation after the call's
clock has stopped.

Modes: ``plain`` is the untraced pass; ``trace`` installs
``tracer.Tracer``; ``count`` installs ``tracer.KernelCounter``.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def timed_import():
    """Import txyrigid.cli from the checkout's src/ and return it with the
    seconds the import took.  Runs before any other benchmark import, so
    the modules the package needs are loaded inside the timed region."""
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    start = time.perf_counter()
    import txyrigid.cli as cli

    return cli, time.perf_counter() - start


def _children_cpu(resource) -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _jobs(argv) -> int:
    return int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else 1


def run_calls(cli, calls, probe=None) -> dict:
    """Make the calls in order, check each output, and return the pass
    record (without set-up time)."""
    # imported here rather than at the top, so that a pass's timed import
    # of txyrigid.cli also pays for the stdlib modules the package loads
    import io
    import json
    import resource
    from contextlib import redirect_stderr, redirect_stdout

    import workloads

    latencies, failures = [], []
    search = {"candidates": 0, "checked": 0, "rigid": 0}
    defect_terms = 0
    pool_cpu = pool_capacity = 0.0
    clock = time.perf_counter
    origin = clock()
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(call.stdin) if call.stdin is not None else saved
        jobs = _jobs(call.argv)
        cpu_before = _children_cpu(resource)
        code, problem = None, None
        start = clock()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(call.argv))
        except Exception as exc:  # a raising call is a failed operation
            problem = f"raised {type(exc).__name__}: {exc}"
        finally:
            elapsed = clock() - start
            sys.stdin = saved
        latencies.append(elapsed)
        if jobs > 1:
            pool_cpu += _children_cpu(resource) - cpu_before
            pool_capacity += jobs * elapsed
        text = out.getvalue()
        if problem is None:
            problem = workloads.check_output(call, code, text)
        if problem is not None:
            failures.append(f"{' '.join(call.argv)}: {problem}")
            continue
        if call.argv[0] == "search":
            summary = json.loads(text.splitlines()[-1])
            for field in search:
                search[field] += summary[field]
        elif call.argv[0] == "verify":
            defect_terms += json.loads(text)["defect_terms"]
    end = clock()
    if probe is not None:
        probe.collect()
    usage = [resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    cache = sys.modules["txyrigid.series"].txy_factor_series.cache_info()
    return {
        "wall_s": sum(latencies),
        "elapsed_s": end - origin,
        "latencies_s": latencies,
        "attempted": len(calls),
        "failed": len(failures),
        "failures": failures[:10],
        "peak_rss_mb": max(usage) / 1024.0,
        "pool_worker_cpu_s": pool_cpu,
        "pool_capacity_s": pool_capacity,
        "search": search,
        "defect_terms": defect_terms,
        "factor_cache": {"hits": cache.hits, "misses": cache.misses},
        "origin": origin,
    }


def layer_record(mode: str, probe) -> dict:
    if mode == "count":
        return {**probe.counts, **probe.seconds}
    return {
        "stats": {name: list(entry) for name, entry in probe.stats.items()},
        "tallies": dict(probe.tallies),
        "spans_dropped": probe.dropped,
    }


def main(argv=None) -> int:
    cli, setup_s = timed_import()
    import argparse
    import json
    import shutil

    import tracer
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--mode", choices=("plain", "trace", "count"), default="plain")
    parser.add_argument("--only", help="comma-separated indices of the calls to make (default: all)")
    parser.add_argument("--spool", help="directory for pool-worker aggregates (trace, count)")
    parser.add_argument("--spans", help="file to write the trace pass's spans to")
    args = parser.parse_args(argv)

    calls = workloads.build_calls(args.workload, args.seed)
    indices = [int(i) for i in args.only.split(",")] if args.only else list(range(len(calls)))
    calls = [calls[i] for i in indices]
    probe = None
    if args.mode == "trace":
        probe = tracer.Tracer().install()
    elif args.mode == "count":
        probe = tracer.KernelCounter().install()
    if probe is not None and args.spool:
        os.makedirs(args.spool, exist_ok=True)
        probe.spool_dir = args.spool
    try:
        record = run_calls(cli, calls, probe)
    finally:
        if probe is not None:
            probe.uninstall()
            if args.spool:
                shutil.rmtree(args.spool, ignore_errors=True)
    record["setup_s"] = setup_s
    record["mode"] = args.mode
    record["indices"] = indices
    if probe is not None:
        record["layers"] = layer_record(args.mode, probe)
    if args.mode == "trace" and args.spans:
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump({"spans": probe.span_records(record["origin"]), "dropped": probe.dropped}, handle)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
