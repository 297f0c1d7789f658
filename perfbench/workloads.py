"""Workload definitions: the CLI calls each workload makes and the pinned
outputs every call is checked against.

``desk`` and ``reach`` are fixed lists of ``search`` calls.  ``check`` and
``series`` send JSON documents drawn from a pinned catalogue
(``expected/check.json``, ``expected/series.json``, written by ``pin.py``).
The catalogue is split into strata (document kind x n); a pass takes a
fixed number of entries from every stratum, chosen and ordered by the run
seed.  The program therefore sees only the generated documents, different
seeds send different documents, every output still has a pinned
expectation, and the mix of sizes in a pass is the same for every seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected")

WORKLOADS = ("desk", "reach", "check", "series")

DESK_ARGV = tuple(
    ("search", "--m", "2", "--max-weight", "5", "--n", str(n), "--signs", "all", "--jobs", "1")
    for n in (1, 2, 3, 4)
)

REACH_ARGV = (
    # the process pool at larger n (2 workers = nproc of the reference box)
    ("search", "--m", "2", "--max-weight", "3", "--n", "5", "--jobs", "2"),
    ("search", "--m", "2", "--max-weight", "3", "--n", "6", "--jobs", "2"),
    # m = 3: the pairing rung of the prune ladder does not apply
    ("search", "--m", "3", "--n", "2", "--max-weight", "4"),
    # the fixed-sign-pattern enumeration branch with its dedupe set
    ("search", "--m", "2", "--n", "3", "--max-weight", "5", "--signs", "++,+-"),
)

# documents per pass, by catalogue stratum.  Passes are short so that a
# run repeats each call several times; see run.py for why.
CHECK_MIX = {
    **{f"near/{n}": 48 for n in range(2, 7)},
    "z": 15,
    "l1": 15,
    "s3": 15,
    "three": 10,
    **{f"large/{n}": 2 for n in range(8, 13)},
}
# Most series calls are TXY at order 12; n = 3 is the largest group and
# sits in the middle of the latency distribution, so the median call is an
# n = 3 call whatever documents the seed draws.
SERIES_MIX = {
    "txy12/2": 40,
    "txy12/3": 80,
    "txy12/4": 40,
    "txy12/5": 20,
    **{f"todd/{n}": 6 for n in range(2, 6)},
    **{f"custom/{n}": 6 for n in range(2, 6)},
    **{f"txy24/{n}": 2 for n in range(2, 5)},
}
# catalogue entries per stratum, as a multiple of the per-pass count
CATALOGUE_FACTOR = 6

# smoke sizes for selfcheck.py: a few seconds per workload
SMOKE_DESK = DESK_ARGV[:2]
SMOKE_REACH = REACH_ARGV[:1]
SMOKE_CHECK_MIX = {"near/3": 6, "z": 2, "l1": 2, "s3": 2, "three": 2, "large/8": 1}
SMOKE_SERIES_MIX = {"txy12/2": 3, "todd/3": 2, "custom/2": 2, "txy24/2": 1}

# constructed truth for the rigid families, independent of the pinned outputs
FAMILY_CONSTANT = {
    "Z": [],
    "L1": [{"x": 0, "y": 1, "coeff": "-1"}, {"x": 1, "y": 0, "coeff": "1"}],
    "S3": [{"x": 1, "y": 2, "coeff": "1"}, {"x": 2, "y": 1, "coeff": "-1"}],
}


@dataclass(frozen=True)
class Call:
    """One CLI call: its argv, the document on stdin, the pinned
    expectation and, for family members, the constructed truth."""

    argv: tuple[str, ...]
    stdin: Optional[str]
    expect: dict
    truth: Optional[dict] = None


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def load_expected(name: str) -> dict:
    with open(os.path.join(EXPECTED, f"{name}.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _search_calls(argvs, pinned: dict) -> list[Call]:
    return [Call(argv, None, pinned[" ".join(argv)]) for argv in argvs]


def _draw(catalogue: dict, mix: dict, seed: int) -> list[dict]:
    rng = random.Random(seed)
    entries = []
    for stratum in sorted(mix):
        entries.extend(rng.sample(catalogue[stratum], mix[stratum]))
    rng.shuffle(entries)
    return entries


def _document_calls(entry: dict) -> list[Call]:
    text = json.dumps(entry["doc"], sort_keys=True)
    truth = entry.get("family")
    if "series" in entry["expect"]:
        return [Call(("series", "-"), text, entry["expect"]["series"], truth)]
    calls = [Call(("verify", "-"), text, entry["expect"]["verify"], truth)]
    if "classify" in entry["expect"]:
        calls.append(Call(("classify", "-"), text, entry["expect"]["classify"], truth))
    return calls


def build_calls(workload: str, seed: int, smoke: bool = False) -> list[Call]:
    """The calls of one pass, in order.  The same seed gives the same calls."""
    if workload in ("desk", "reach"):
        pinned = load_expected("search")
        if workload == "desk":
            return _search_calls(SMOKE_DESK if smoke else DESK_ARGV, pinned)
        return _search_calls(SMOKE_REACH if smoke else REACH_ARGV, pinned)
    if workload == "check":
        mix = SMOKE_CHECK_MIX if smoke else CHECK_MIX
    elif workload == "series":
        mix = SMOKE_SERIES_MIX if smoke else SERIES_MIX
    else:
        raise ValueError(f"unknown workload {workload!r}")
    catalogue = load_expected(workload)
    calls = []
    for entry in _draw(catalogue, mix, seed):
        calls.extend(_document_calls(entry))
    return calls


def _mismatch(field: str, got, want) -> str:
    return f"{field}: got {json.dumps(got)[:120]}, expected {json.dumps(want)[:120]}"


def check_output(call: Call, code, stdout: str) -> Optional[str]:
    """None when the call's exit code and output match its pinned
    expectation (and constructed truth), else a one-line diagnostic."""
    want = call.expect
    if code != want["exit"]:
        return _mismatch("exit code", code, want["exit"])
    lines = stdout.splitlines()
    try:
        records = [json.loads(line) for line in lines]
    except json.JSONDecodeError as err:
        return f"output is not JSON lines: {err}"
    if not records:
        return "no output"
    command = call.argv[0]
    if command == "search":
        summary = records[-1]
        results = records[:-1]
        if summary.get("type") != "summary" or any(r.get("type") != "result" for r in results):
            return "search output is not result records followed by one summary"
        for field in ("candidates", "rigid"):
            if summary.get(field) != want[field]:
                return _mismatch(field, summary.get(field), want[field])
        if len(results) != want["rigid"] or digest(results) != want["records_sha256"]:
            return "result records differ from the pinned records"
        return None
    if len(records) != 1:
        return f"expected one JSON report, got {len(records)} lines"
    report = records[0]
    fields = {
        "verify": ("rigid", "constant", "ah_constant"),
        "classify": ("family", "rigid"),
        "series": ("verdict", "constant", "cross_check", "genus", "order"),
    }[command]
    for field in fields:
        if report.get(field) != want[field]:
            return _mismatch(field, report.get(field), want[field])
    if command == "series" and digest(report.get("coefficients")) != want["rows_sha256"]:
        return "series coefficient rows differ from the pinned rows"
    truth = call.truth
    if truth is not None:
        if command in ("verify", "series") and report.get("constant") != FAMILY_CONSTANT[truth["kind"]]:
            return _mismatch("family constant", report.get("constant"), FAMILY_CONSTANT[truth["kind"]])
        if command == "classify" and report.get("family") != truth:
            return _mismatch("family", report.get("family"), truth)
    return None
