"""Outside-in tracing of txyrigid: wrappers installed on the package's module
attributes and kernel classes from the benchmark's own files, so the
program's code is unchanged.

``Tracer`` wraps the public functions of each module (the table
``SPANS``).  Every call records a span (id, parent id, name, start, end);
per-name aggregates keep the call count and the self time, which is the
span's duration minus the time its child spans cover.  Spans live in
memory and are written out when the pass ends.  The per-candidate spans of
the search loop (enumeration steps and prune calls) are aggregated only,
since desk makes half a million of each.

``KernelCounter`` wraps ``__mul__``/``__rmul__`` of ``PolyXY``, ``LaurentZ``
and ``SeriesU`` to count multiplications and coefficient products, and
times ``LaurentZ`` products.

``search_rigid`` may run shards in a process pool whose workers inherit the
wrappers by fork.  ``shard_entry`` replaces ``search._search_shard`` while a
probe is installed: in a worker it resets the inherited aggregates, runs
the shard and writes the worker's aggregates to a spool directory, which
the parent merges with ``collect``.
"""

from __future__ import annotations

import argparse
import bisect
import builtins
import itertools
import json
import os
import time
from collections import Counter
from typing import Optional

# The installed probe.  Pool workers reach it through the module state
# they inherit by fork; the function they run must be importable by name.
_ACTIVE: Optional["_Probe"] = None

# span name -> the (module, attribute) slots that hold the function.  A
# function imported into several modules is wrapped in each of them.
# Tracer.install adds cli.parse_args, cli.json_dumps, cli.print and
# search.enumerate (the enumeration generator's next() calls) by hand.
SPANS = {
    "cli.main": [("cli", "main")],
    "cli.build_parser": [("cli", "build_parser")],
    "cli.load_document": [("cli", "load_document")],
    "cli.document_data": [("cli", "document_data")],
    "cli.document_genus": [("cli", "document_genus")],
    "cli.document_order": [("cli", "document_order")],
    "cli.parse_sign_patterns": [("cli", "_parse_sign_patterns")],
    "cli.poly_json": [("cli", "poly_json")],
    "cli.data_json": [("cli", "data_json")],
    "cli.proof_json": [("cli", "proof_json")],
    "cli.result_json": [("cli", "result_json")],
    "cli.emit": [("cli", "emit")],
    "search.search_rigid": [("cli", "search_rigid")],
    "search.prune": [("search", "prune")],
    "genera.is_rigid": [("cli", "is_rigid"), ("search", "is_rigid")],
    "genera.rigidity_defect": [("genera", "rigidity_defect"), ("classify", "rigidity_defect")],
    "classify.classify_two_points": [("cli", "classify_two_points"), ("search", "classify_two_points")],
    "classify.replay_proof": [("cli", "replay_proof")],
    "series.genus_series": [("cli", "genus_series")],
    "series.series_is_constant": [("cli", "series_is_constant")],
}
# spans kept per pass; past this, only the aggregates grow
SPAN_CAP = 200_000
# aggregated only: one span per candidate would not fit in memory
AGGREGATE_ONLY = frozenset({"search.enumerate", "search.prune"})

# outcome tallies: span name -> function of the result giving a tally key
TALLIES = {
    "cli.main": lambda code: "cli.exit2" if code == 2 else None,
    "genera.is_rigid": lambda report: "genera.rigid" if report.rigid else None,
}


def _modules() -> dict:
    from txyrigid import algebra, classify, cli, genera, search, series

    return {
        "algebra": algebra, "classify": classify, "cli": cli,
        "genera": genera, "search": search, "series": series,
    }


class _Probe:
    """Patch bookkeeping and the pool-worker hand-off shared by both probes."""

    def __init__(self):
        self.pid = os.getpid()
        self.spool_dir: Optional[str] = None
        self._patches: list[tuple[object, str, object]] = []
        self._original_shard = None

    def _patch(self, owner, attribute: str, value) -> None:
        self._patches.append((owner, attribute, owner.__dict__.get(attribute)))
        setattr(owner, attribute, value)

    def _install_shard_entry(self, search) -> None:
        global _ACTIVE
        self._original_shard = search._search_shard
        self._patch(search, "_search_shard", shard_entry)
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attribute, original in reversed(self._patches):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patches.clear()
        _ACTIVE = None

    def snapshot(self) -> dict:
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError

    def absorb(self, snapshot: dict) -> None:
        raise NotImplementedError

    def collect(self) -> None:
        """Merge, then delete, the aggregates pool workers spooled."""
        if not self.spool_dir or not os.path.isdir(self.spool_dir):
            return
        for name in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, name)
            with open(path, encoding="utf-8") as handle:
                self.absorb(json.load(handle))
            os.remove(path)


def shard_entry(args):
    """Stands in for ``search._search_shard`` while a probe is installed."""
    probe = _ACTIVE
    if probe is None:  # a worker that did not inherit the probe
        from txyrigid import search

        return search._search_shard(args)
    if os.getpid() == probe.pid:
        return probe._original_shard(args)
    probe.reset()
    try:
        return probe._original_shard(args)
    finally:
        if probe.spool_dir:
            path = os.path.join(probe.spool_dir, f"shard-{os.getpid()}-{args[1]}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(probe.snapshot(), handle)


class _TimedIterator:
    __slots__ = ("_inner", "_next")

    def __init__(self, inner, timed_next):
        self._inner = inner
        self._next = timed_next

    def __iter__(self):
        return self

    def __next__(self):
        return self._next(self._inner)


class _JsonProxy:
    """Stands in for the ``json`` module inside ``cli`` with a traced dumps."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer(_Probe):
    """Spans and self-time aggregates at the module boundaries of txyrigid."""

    def __init__(self):
        super().__init__()
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.tallies: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []  # open spans: [span id, child seconds]
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn):
        stack, spans, tallies = self._stack, self.spans, self.tallies
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        tally = TALLIES.get(name)
        keep = name not in AGGREGATE_ONLY
        clock = time.perf_counter
        next_id = self._ids.__next__
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next_id(), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                entry[0] += 1
                entry[1] += duration - frame[1]
                entry[2] += duration
                if parent is not None:
                    parent[1] += duration
                if keep:
                    if len(spans) < SPAN_CAP:
                        spans.append((frame[0], parent[0] if parent else 0, name, start, end))
                    else:
                        tracer.dropped += 1
            if tally is not None:
                key = tally(result)
                if key is not None:
                    tallies[key] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> "Tracer":
        modules = _modules()
        for name, slots in SPANS.items():
            for module_name, attribute in slots:
                module = modules[module_name]
                original = getattr(module, attribute)
                if name == "cli.build_parser":
                    original = self._parser_hook(self.wrap(name, original))
                else:
                    original = self.wrap(name, original)
                self._patch(module, attribute, original)
        cli, search = modules["cli"], modules["search"]
        self._patch(cli, "json", _JsonProxy(json, self.wrap("cli.json_dumps", json.dumps)))
        self._patch(cli, "print", self.wrap("cli.print", builtins.print))
        enumerate_shard = search._enumerate_shard
        timed_next = self.wrap("search.enumerate", next)
        self._patch(
            search, "_enumerate_shard",
            lambda *args: _TimedIterator(enumerate_shard(*args), timed_next),
        )
        self._install_shard_entry(search)
        return self

    def _parser_hook(self, traced_build):
        wrap = self.wrap

        def build_parser() -> argparse.ArgumentParser:
            parser = traced_build()
            parser.parse_args = wrap("cli.parse_args", parser.parse_args)
            return parser

        return build_parser

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()}, "tallies": dict(self.tallies)}

    def reset(self) -> None:
        # the wrappers hold references to these containers: clear in place
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0]
        self.tallies.clear()
        self.spans.clear()
        self._stack.clear()
        self.dropped = 0

    def absorb(self, snapshot: dict) -> None:
        for name, (calls, self_s, total_s) in snapshot["stats"].items():
            entry = self.stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += self_s
            entry[2] += total_s
        self.tallies.update(snapshot["tallies"])

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def span_records(self, origin: float) -> list:
        """Spans as [id, parent, call, name, start_s, end_s], times relative
        to ``origin``; ``call`` is the id of the root span (the CLI call)."""
        root: dict[int, int] = {}
        for span_id, parent, _, _, _ in reversed(self.spans):
            root[span_id] = root.get(parent, parent) if parent else span_id
        return [
            [span_id, parent, root[span_id], name, start - origin, end - origin]
            for span_id, parent, name, start, end in self.spans
        ]


def _series_products(a, b) -> int:
    """Coefficient products SeriesU.__mul__ performs for a * b."""
    if not hasattr(b, "coeffs"):
        return len(a.coeffs)
    room = min(a.order + b.lowest, b.order + a.lowest) - (a.lowest + b.lowest)
    nonzero = [j for j, c in enumerate(b.coeffs) if not c.is_zero()]
    return sum(
        bisect.bisect_left(nonzero, room - i)
        for i, c in enumerate(a.coeffs)
        if not c.is_zero()
    )


class KernelCounter(_Probe):
    """Counts kernel multiplications and coefficient products; times
    LaurentZ products (the time includes the nested PolyXY counting)."""

    def __init__(self):
        super().__init__()
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()

    def install(self) -> "KernelCounter":
        modules = _modules()
        algebra = modules["algebra"]

        def poly_terms(a, b):
            return len(a.terms) * (len(b.terms) if isinstance(b, algebra.PolyXY) else 1)

        def laurent_terms(a, b):
            return len(a.terms) * (len(b.terms) if isinstance(b, algebra.LaurentZ) else 1)

        for cls, prefix, products, timed in (
            (algebra.PolyXY, "algebra.poly", poly_terms, False),
            (algebra.LaurentZ, "algebra.laurent", laurent_terms, True),
            (algebra.SeriesU, "algebra.series", _series_products, False),
        ):
            for attribute in ("__mul__", "__rmul__"):
                original = cls.__dict__[attribute]
                self._patch(cls, attribute, self._counting(original, prefix, products, timed))
        self._install_shard_entry(modules["search"])
        return self

    def _counting(self, original, prefix: str, products, timed: bool):
        counts, seconds = self.counts, self.seconds
        clock = time.perf_counter
        calls_key, products_key, time_key = f"{prefix}_mul_calls", f"{prefix}_term_products", f"{prefix}_mul_s"
        if timed:
            def mul(a, b):
                counts[calls_key] += 1
                counts[products_key] += products(a, b)
                start = clock()
                try:
                    return original(a, b)
                finally:
                    seconds[time_key] += clock() - start
        else:
            def mul(a, b):
                counts[calls_key] += 1
                counts[products_key] += products(a, b)
                return original(a, b)
        return mul

    def snapshot(self) -> dict:
        return {"counts": dict(self.counts), "seconds": dict(self.seconds)}

    def reset(self) -> None:
        self.counts.clear()
        self.seconds.clear()

    def absorb(self, snapshot: dict) -> None:
        self.counts.update(snapshot["counts"])
        self.seconds.update(snapshot["seconds"])
