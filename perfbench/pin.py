"""Write the pinned catalogue and expected outputs under perfbench/expected/.

    python3 perfbench/pin.py

Run it from a checkout of the commit whose outputs are to be pinned; it
takes about two minutes.  It writes:

* ``search.json``: for every desk and reach ``search`` call, the exit code,
  ``candidates``, ``rigid`` and a digest of the result records.  ``pruned``,
  ``checked`` and the summary bytes are not pinned, so the summary record
  may grow new fields;
* ``check.json`` and ``series.json``: the document catalogues, by stratum,
  with each document's pinned outputs.  Family members (Z, L1, S3) also
  carry their constructed family tag, and the pinned outputs are refused
  unless they agree with the constructed truth.
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

import workloads as wl

CATALOGUE_SEED = 1512_03528

# Taylor coefficients of H(u)/u - 1/u for two classical genera
SIGNATURE = ["0", "1/3", "0", "-1/45", "0", "2/945", "0", "-1/4725", "0", "2/93555"]
A_HAT = ["0", "-1/24", "0", "7/5760", "0", "-31/967680"]


def _point(weights, sign) -> dict:
    return {"weights": [str(w) for w in weights], "sign": str(sign)}


def _doc(n: int, points) -> dict:
    return {"n": n, "points": [_point(w, s) for w, s in points]}


def _signed(rng: random.Random, magnitudes) -> list[int]:
    return [m * rng.choice((1, -1)) for m in magnitudes]


def _paired(rng: random.Random, n: int, max_abs: int, distinct: bool = False) -> dict:
    """Two points with the same weight magnitudes: past the pairing rung,
    so most are near misses that only the exact check rejects."""
    if distinct:
        magnitudes = rng.sample(range(1, max_abs + 1), n)
    else:
        magnitudes = [rng.randint(1, max_abs) for _ in range(n)]
    other = magnitudes[:]
    rng.shuffle(other)
    return _doc(n, [
        (_signed(rng, magnitudes), rng.choice((1, -1))),
        (_signed(rng, other), rng.choice((1, -1))),
    ])


def _three(rng: random.Random, n: int, max_abs: int) -> dict:
    return _doc(n, [
        (_signed(rng, [rng.randint(1, max_abs) for _ in range(n)]), rng.choice((1, -1)))
        for _ in range(3)
    ])


def _ordered(rng: random.Random, points) -> list:
    points = [(list(w), s) for w, s in points]
    for weights, _ in points:
        rng.shuffle(weights)
    rng.shuffle(points)
    return points


def _family_z(rng: random.Random, n: int, max_abs: int) -> tuple[dict, dict]:
    weights = _signed(rng, [rng.randint(1, max_abs) for _ in range(n)])
    doc = _doc(n, _ordered(rng, [(weights, 1), (weights, -1)]))
    return doc, {"kind": "Z", "params": sorted(weights, reverse=True)}


def _family_l1(rng: random.Random, a: int) -> tuple[dict, dict]:
    return _doc(1, _ordered(rng, [([a], 1), ([-a], 1)])), {"kind": "L1", "params": [a]}


def _family_s3(rng: random.Random, max_abs: int) -> tuple[dict, dict]:
    a, b = rng.randint(1, max_abs), rng.randint(1, max_abs)
    doc = _doc(3, _ordered(rng, [([a, b, -(a + b)], 1), ([-a, -b, a + b], 1)]))
    return doc, {"kind": "S3", "params": sorted((a, b))}


class Runner:
    """Calls the CLI in-process and records exit codes and parsed output."""

    def __init__(self, main):
        self.main = main

    def run(self, argv, stdin=None):
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin) if stdin is not None else saved
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = self.main(list(argv))
        finally:
            sys.stdin = saved
        return code, out.getvalue()


def pin_search(runner: Runner) -> dict:
    pinned = {}
    for argv in wl.DESK_ARGV + wl.REACH_ARGV:
        code, out = runner.run(argv)
        records = [json.loads(line) for line in out.splitlines()]
        summary, results = records[-1], records[:-1]
        pinned[" ".join(argv)] = {
            "exit": code,
            "candidates": summary["candidates"],
            "rigid": summary["rigid"],
            "records_sha256": wl.digest(results),
        }
        print(" ".join(argv), summary["candidates"], summary["rigid"], file=sys.stderr)
    return pinned


def _require(condition: bool, what: str, doc: dict) -> None:
    if not condition:
        raise SystemExit(f"pin refused: {what} for {json.dumps(doc)}")


def _unique(make, count: int) -> list:
    seen, out = set(), []
    while len(out) < count:
        item = make()
        key = json.dumps(item[0] if isinstance(item, tuple) else item, sort_keys=True)
        if key not in seen:
            seen.add(key)
            out.append(item)
    return out


def check_documents(rng: random.Random) -> dict:
    """Stratum -> list of (document, constructed family or None)."""
    size = {k: v * wl.CATALOGUE_FACTOR for k, v in wl.CHECK_MIX.items()}
    strata = {}
    for n in range(2, 7):
        strata[f"near/{n}"] = [(d, None) for d in _unique(lambda: _paired(rng, n, 8), size[f"near/{n}"])]
    for n in range(8, 13):
        strata[f"large/{n}"] = [
            (d, None) for d in _unique(lambda: _paired(rng, n, 30, distinct=True), size[f"large/{n}"])
        ]
    strata["three"] = [
        (d, None) for d in _unique(lambda: _three(rng, rng.randint(1, 4), 6), size["three"])
    ]
    strata["z"] = _unique(lambda: _family_z(rng, rng.randint(1, 6), 8), size["z"])
    strata["l1"] = [_family_l1(rng, a) for a in rng.sample(range(1, 400), size["l1"])]
    strata["s3"] = _unique(lambda: _family_s3(rng, 15), size["s3"])
    return strata


def pin_check(runner: Runner, rng: random.Random) -> dict:
    catalogue = {}
    for stratum, items in check_documents(rng).items():
        entries = []
        for doc, family in items:
            text = json.dumps(doc, sort_keys=True)
            expect = {}
            code, out = runner.run(("verify", "-"), text)
            report = json.loads(out)
            expect["verify"] = {
                "exit": code,
                "rigid": report["rigid"],
                "constant": report["constant"],
                "ah_constant": report["ah_constant"],
            }
            if len(doc["points"]) == 2:
                code, out = runner.run(("classify", "-"), text)
                report = json.loads(out)
                expect["classify"] = {"exit": code, "family": report["family"], "rigid": report["rigid"]}
            entry = {"doc": doc, "expect": expect}
            if family is not None:
                _require(expect["verify"]["rigid"], "family member not rigid", doc)
                _require(
                    expect["verify"]["constant"] == wl.FAMILY_CONSTANT[family["kind"]],
                    "family constant differs from the constructed truth", doc,
                )
                _require(expect["classify"]["family"] == family, "family tag differs", doc)
                entry["family"] = family
            entries.append(entry)
        catalogue[stratum] = entries
        print(stratum, len(entries), file=sys.stderr)
    return catalogue


def _series_data(rng: random.Random, n: int) -> tuple[dict, dict | None]:
    roll = rng.random()
    if roll < 0.2:
        if n == 3 and roll < 0.1:
            return _family_s3(rng, 6)
        return _family_z(rng, n, 6)
    if roll < 0.3:
        return _three(rng, n, 6), None
    return _paired(rng, n, 6), None


def _custom_genus(rng: random.Random) -> dict:
    pick = rng.randrange(3)
    if pick == 0:
        return {"name": "signature", "coefficients": SIGNATURE}
    if pick == 1:
        return {"name": "ahat", "coefficients": A_HAT}
    coefficients = [f"{rng.randint(-9, 9)}/{rng.randint(1, 12)}" for _ in range(rng.randint(4, 8))]
    return {"name": "random", "coefficients": coefficients}


def series_documents(rng: random.Random) -> dict:
    strata = {}
    for stratum, per_pass in sorted(wl.SERIES_MIX.items()):
        kind, n = stratum.split("/")
        n = int(n)

        def make():
            doc, family = _series_data(rng, n)
            if kind == "todd":
                doc["genus"], family = {"name": "todd"}, None
            elif kind == "custom":
                doc["genus"], family = _custom_genus(rng), None
            else:
                doc["genus"] = {"name": "txy"}
            doc["order"] = 24 if kind == "txy24" else 12
            return doc, family

        strata[stratum] = _unique(make, per_pass * wl.CATALOGUE_FACTOR)
    return strata


def pin_series(runner: Runner, rng: random.Random) -> dict:
    catalogue = {}
    for stratum, items in series_documents(rng).items():
        entries = []
        for doc, family in items:
            code, out = runner.run(("series", "-"), json.dumps(doc, sort_keys=True))
            report = json.loads(out)
            expect = {
                "exit": code,
                "verdict": report["verdict"],
                "constant": report["constant"],
                "cross_check": report["cross_check"],
                "genus": report["genus"],
                "order": report["order"],
                "rows_sha256": wl.digest(report["coefficients"]),
            }
            if doc["genus"]["name"] == "txy":
                _require(report["cross_check"] == "agree", "series and z-domain disagree", doc)
            entry = {"doc": doc, "expect": {"series": expect}}
            if family is not None:
                _require(
                    report["constant"] == wl.FAMILY_CONSTANT[family["kind"]],
                    "series constant differs from the constructed truth", doc,
                )
                entry["family"] = family
            entries.append(entry)
        catalogue[stratum] = entries
        print(stratum, len(entries), file=sys.stderr)
    return catalogue


def _write(name: str, value: dict) -> None:
    path = os.path.join(wl.EXPECTED, f"{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{\n")
        keys = sorted(value)
        for i, key in enumerate(keys):
            items = value[key]
            if isinstance(items, list):
                body = ",\n".join(json.dumps(e, sort_keys=True, separators=(",", ":")) for e in items)
                handle.write(f"{json.dumps(key)}: [\n{body}\n]")
            else:
                handle.write(f"{json.dumps(key)}: {json.dumps(items, sort_keys=True)}")
            handle.write(",\n" if i + 1 < len(keys) else "\n")
        handle.write("}\n")


def main() -> int:
    sys.path.insert(0, wl.SRC)
    from txyrigid.cli import main as cli_main

    runner = Runner(cli_main)
    os.makedirs(wl.EXPECTED, exist_ok=True)
    _write("search", pin_search(runner))
    _write("check", pin_check(runner, random.Random(CATALOGUE_SEED)))
    _write("series", pin_series(runner, random.Random(CATALOGUE_SEED + 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
