"""Command-line front end.

Commands
--------
verify    exact rigidity check of one candidate
classify  two-point family classification plus the argument trace
series    truncated-series evaluation and constancy verdict
search    exhaustive rigidity search within bounds

Input is a JSON document (file argument or '-' for stdin):

    {
      "n": 3,
      "points": [
        {"weights": ["1", "2", "-3"], "sign": "1"},
        {"weights": ["-1", "-2", "3"], "sign": "1"}
      ],
      "genus": {"name": "todd"},          // optional, series command
      "order": 12                         // optional, series command
    }

Integers may be JSON numbers or decimal strings; strings are the
canonical form (no platform width limits).  Reports are JSON with all
rational values rendered as reduced fraction strings.

Exit codes: 0 rigid / constant / success, 1 completed with a negative
verdict, 2 input or usage error.  Data whose exact check or series would
exceed its work bound (``genera.MAX_DEFECT_WORK``,
``series.MAX_SERIES_WORK``) is an input error, as are search bounds above
``search.MAX_SEARCH_CANDIDATES`` raw candidates and ``search --jobs``
below 1; the search runs at most ``os.cpu_count()`` workers whatever
``--jobs`` asks for.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Any, Optional

from .algebra import PolyXY
from .classify import ProofTrace, classify_two_points, pairing_check, replay_proof
from .genera import FixedPoint, FixedPointData, is_rigid
from .search import SearchParams, SearchResult, search_rigid
from .series import GenusSeries, TODD, TXY, genus_from_coefficients, genus_series, series_is_constant

DEFAULT_ORDER = 12
MAX_ORDER = 200


# decimal strings: ASCII digits only, so no '_' separators or other scripts
_INTEGER = re.compile(r"[+-]?[0-9]+")
_FRACTION = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


class InputError(Exception):
    """Malformed input document; the message carries a field diagnostic."""


def _parse_int(value: Any, where: str) -> int:
    if isinstance(value, bool):
        raise InputError(f"{where}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        text = value.strip()
        if not _INTEGER.fullmatch(text):
            raise InputError(f"{where}: {value!r} is not a decimal integer")
        return int(text)
    raise InputError(f"{where}: expected an integer or decimal string")


def _parse_sign(value: Any, where: str) -> int:
    sign = _parse_int(value, where)
    if sign not in (1, -1):
        raise InputError(f"{where}: sign must be +1 or -1, got {sign}")
    return sign


def _parse_fraction(value: Any, where: str) -> Fraction:
    if isinstance(value, bool):
        raise InputError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _FRACTION.fullmatch(text):
            raise InputError(f"{where}: {value!r} is not a fraction 'p/q'")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise InputError(f"{where}: {value!r} has a zero denominator") from None
    raise InputError(f"{where}: expected an integer or fraction string")


def load_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise InputError(f"input:{err.lineno}:{err.colno}: {err.msg}") from None
    if not isinstance(doc, dict):
        raise InputError("input: the document must be a JSON object")
    return doc


def document_data(doc: dict) -> FixedPointData:
    if "n" not in doc:
        raise InputError("n: required field is missing")
    n = _parse_int(doc["n"], "n")
    raw_points = doc.get("points")
    if not isinstance(raw_points, list) or not raw_points:
        raise InputError("points: a nonempty list of points is required")
    points = []
    for index, entry in enumerate(raw_points):
        where = f"points[{index}]"
        if not isinstance(entry, dict):
            raise InputError(f"{where}: expected an object")
        raw_weights = entry.get("weights")
        if not isinstance(raw_weights, list) or not raw_weights:
            raise InputError(f"{where}.weights: a nonempty list is required")
        weights = tuple(
            _parse_int(w, f"{where}.weights[{slot}]") for slot, w in enumerate(raw_weights)
        )
        for slot, w in enumerate(weights):
            if w == 0:
                raise InputError(f"{where}.weights[{slot}]: weights must be nonzero")
        if len(weights) != n:
            raise InputError(f"{where}.weights: expected {n} weights, got {len(weights)}")
        sign = _parse_sign(entry.get("sign", None), f"{where}.sign")
        points.append(FixedPoint(weights, sign))
    try:
        return FixedPointData(n, tuple(points))
    except ValueError as err:
        raise InputError(f"input: {err}") from None


def document_genus(doc: dict, override: Optional[str]) -> GenusSeries:
    if override is not None:
        name = override
        entry = doc.get("genus") if isinstance(doc.get("genus"), dict) else {}
        if entry.get("name") != name:
            entry = {}
    else:
        entry = doc.get("genus")
        if entry is None:
            return TXY
        if not isinstance(entry, dict) or "name" not in entry:
            raise InputError("genus: expected an object with a 'name' field")
        name = entry["name"]
    if not isinstance(name, str):
        raise InputError("genus.name: expected a string")
    coeffs = entry.get("coefficients")
    if name in ("txy", "todd"):
        if coeffs is not None:
            raise InputError(
                f"genus.coefficients: the built-in genus {name!r} takes no coefficient list"
            )
        return TXY if name == "txy" else TODD
    if coeffs is None:
        raise InputError(
            f"genus.name: unknown genus {name!r} and no coefficient list given"
        )
    if not isinstance(coeffs, list):
        raise InputError("genus.coefficients: expected a list of rationals")
    values = [
        _parse_fraction(c, f"genus.coefficients[{i}]") for i, c in enumerate(coeffs)
    ]
    return genus_from_coefficients(name, values)


def document_order(doc: dict, override: Optional[int], n: int) -> int:
    order = override if override is not None else doc.get("order", DEFAULT_ORDER)
    order = _parse_int(order, "order")
    if order < n + 1 or order > MAX_ORDER:
        raise InputError(f"order: must lie in [{n + 1}, {MAX_ORDER}]")
    return order


# -- report rendering -----------------------------------------------------


def poly_json(p: PolyXY) -> list[dict]:
    return [
        {"x": i, "y": j, "coeff": str(c)}
        for (i, j), c in p.sorted_terms()
    ]


def data_json(data: FixedPointData) -> dict:
    return {
        "n": data.n,
        "points": [
            {"weights": list(p.weights), "sign": p.sign} for p in data.points
        ],
    }


def proof_json(trace: ProofTrace) -> dict:
    return {
        "paired": trace.paired,
        "negation_pairing": trace.negation_pairing,
        "max_weight_tie": trace.max_weight_tie,
        "n1_shortcut": trace.n1_shortcut,
        "k": trace.k,
        "l": trace.l,
        "a_values": list(trace.a_values),
        "b_values": list(trace.b_values),
        "balance_holds": trace.balance_holds,
        "max_rule_holds": trace.max_rule_holds,
        "final_form": None
        if trace.final_form is None
        else {
            "k": trace.final_form[0],
            "l": trace.final_form[1],
            "max_is_pair_sum": trace.final_form[2],
        },
    }


def emit(report: dict, fmt: str, table_lines) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        for line in table_lines:
            print(line)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        raise InputError(f"input: cannot read {path}: {err.strerror}") from None


# -- commands ---------------------------------------------------------------


def run_verify(args) -> int:
    doc = load_document(_read_input(args.input))
    data = document_data(doc)
    report = is_rigid(data)
    out = {
        "command": "verify",
        "n": data.n,
        "m": data.m,
        "rigid": report.rigid,
        "constant": poly_json(report.constant) if report.rigid else None,
        "constant_pretty": str(report.constant) if report.rigid else None,
        "ah_constant": poly_json(report.ah_constant),
        "ah_constant_pretty": str(report.ah_constant),
        "defect_terms": report.defect.term_count(),
        "limits_symmetric": report.limits_symmetric,
        "weight_gcd": report.weight_gcd,
    }
    table = [
        f"rigid            {report.rigid}",
        f"constant         {report.constant if report.rigid else '-'}",
        f"ah constant      {report.ah_constant}",
        f"defect terms     {report.defect.term_count()}",
        f"limits symmetric {report.limits_symmetric}",
        f"weight gcd       {report.weight_gcd}",
    ]
    emit(out, args.format, table)
    return 0 if report.rigid else 1


def run_classify(args) -> int:
    doc = load_document(_read_input(args.input))
    data = document_data(doc)
    if data.m != 2:
        raise InputError("points: classification needs exactly two fixed points")
    family = classify_two_points(data)
    trace = None
    if family.kind != "Z" and pairing_check(data):
        trace = replay_proof(data)
    rigid = family.kind in ("Z", "L1", "S3", "RigidUnclassified")
    out = {
        "command": "classify",
        "family": {"kind": family.kind, "params": list(family.params)},
        "rigid": rigid,
        "proof": proof_json(trace) if trace is not None else None,
    }
    table = [f"family {family.kind}{list(family.params) if family.params else ''}"]
    if trace is not None:
        table.append(
            f"trace  k={trace.k} l={trace.l} a={list(trace.a_values)} b={list(trace.b_values)}"
        )
        table.append(
            f"       balance={trace.balance_holds} max_rule={trace.max_rule_holds}"
            f" final={trace.final_form}"
        )
    emit(out, args.format, table)
    return 0 if rigid else 1


def run_series(args) -> int:
    doc = load_document(_read_input(args.input))
    data = document_data(doc)
    genus = document_genus(doc, args.genus)
    order = document_order(doc, args.order, data.n)
    series = genus_series(data, genus, order)
    constant = series_is_constant(series)
    rows = []
    for k in range(series.lowest, series.order):
        c = series.coeff(k)
        rows.append(
            {"exp": k, "coeff": poly_json(c), "pretty": str(c)}
        )
    cross = None
    if genus.symbolic:
        zreport = is_rigid(data)
        agree = (constant is not None) == zreport.rigid and (
            constant is None or constant == zreport.ah_constant
        )
        cross = "agree" if agree else "disagree"
    out = {
        "command": "series",
        "genus": genus.name,
        "order": order,
        "expansion_variable": "(x+y)*u" if genus.symbolic else "u",
        "coefficients": rows,
        "constant": poly_json(constant) if constant is not None else None,
        "constant_pretty": str(constant) if constant is not None else None,
        "verdict": "constant" if constant is not None else "not-constant",
        "cross_check": cross,
    }
    table = [f"genus {genus.name}   order {order}"]
    for row in rows:
        table.append(f"u^{row['exp']:<4} {row['pretty']}")
    table.append(f"verdict {out['verdict']}")
    if cross is not None:
        table.append(f"cross-check {cross}")
    emit(out, args.format, table)
    return 0 if constant is not None else 1


def _parse_sign_patterns(text: str, m: int):
    if text == "all":
        return None
    patterns = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if len(chunk) != m or any(c not in "+-" for c in chunk):
            raise InputError(
                f"--signs: pattern {chunk!r} must be {m} characters of '+'/'-'"
            )
        patterns.append(tuple(1 if c == "+" else -1 for c in chunk))
    if not patterns:
        raise InputError("--signs: at least one pattern is required")
    return tuple(patterns)


def result_json(result: SearchResult) -> dict:
    family = result.family
    return {
        "type": "result",
        **data_json(result.data),
        "family": None
        if family is None
        else {"kind": family.kind, "params": list(family.params)},
        "constant": poly_json(result.report.ah_constant),
        "constant_pretty": str(result.report.ah_constant),
        "weight_gcd": result.report.weight_gcd,
    }


def run_search(args) -> int:
    patterns = _parse_sign_patterns(args.signs, args.m)
    try:
        params = SearchParams(
            n=args.n,
            m=args.m,
            max_abs_weight=args.max_weight,
            sign_patterns=patterns,
            require_effective=args.effective_only,
        )
    except ValueError as err:
        raise InputError(f"search parameters: {err}") from None
    outcome = search_rigid(params, jobs=args.jobs)
    summary = {
        "type": "summary",
        "candidates": outcome.summary.candidates,
        "pruned": outcome.summary.pruned,
        "pruned_by": outcome.summary.pruned_by._asdict(),
        "checked": outcome.summary.checked,
        "rigid": outcome.summary.rigid,
        "params": {
            "n": params.n,
            "m": params.m,
            "max_weight": params.max_abs_weight,
            "signs": args.signs,
            "effective_only": params.require_effective,
        },
    }
    if args.format == "json":
        for result in outcome.results:
            print(json.dumps(result_json(result), sort_keys=True))
        print(json.dumps(summary, sort_keys=True))
    else:
        for result in outcome.results:
            family = result.family
            tag = f"{family.kind}{list(family.params)}" if family else "-"
            points = "  ".join(
                f"({','.join(map(str, p.weights))};{'+' if p.sign > 0 else '-'})"
                for p in result.data.points
            )
            print(f"{tag:<16} {points}  constant {result.report.ah_constant}")
        s = outcome.summary
        print(
            f"candidates {s.candidates}  pruned {s.pruned}  checked {s.checked}  rigid {s.rigid}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="txyrigid",
        description="Exact rigidity checker and search for circle-action fixed-point data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("input", nargs="?", default="-", help="JSON document path or '-' for stdin")
        p.add_argument("--format", choices=("json", "table"), default="json")

    p_verify = sub.add_parser("verify", help="exact rigidity check")
    add_io(p_verify)
    p_verify.set_defaults(handler=run_verify)

    p_classify = sub.add_parser("classify", help="two-point family classification")
    add_io(p_classify)
    p_classify.set_defaults(handler=run_classify)

    p_series = sub.add_parser("series", help="truncated-series evaluation")
    add_io(p_series)
    p_series.add_argument("--genus", default=None, help="genus name override (txy, todd)")
    p_series.add_argument("--order", type=int, default=None, help="truncation order")
    p_series.set_defaults(handler=run_series)

    p_search = sub.add_parser("search", help="exhaustive rigidity search")
    p_search.add_argument("--n", type=int, required=True, help="weights per point")
    p_search.add_argument("--m", type=int, required=True, help="number of fixed points")
    p_search.add_argument("--max-weight", type=int, required=True, help="weight magnitude bound")
    p_search.add_argument("--signs", default="all", help="'all' or comma list like '+-,++'")
    p_search.add_argument("--effective-only", action="store_true", help="keep weight gcd 1 only")
    p_search.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p_search.add_argument("--format", choices=("json", "table"), default="json")
    p_search.set_defaults(handler=run_search)
    return parser


# the parser main uses, filled by calling build_parser() on first use;
# build_parser itself stays uncached, so each of its calls gives a new parser
_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors, matching the error status
        return int(err.code) if err.code else 0
    try:
        return args.handler(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
