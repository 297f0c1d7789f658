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
verdict, 2 input or usage error, 141 the reader closed stdout early.
Data whose exact check or series would exceed its work bound
(``genera.MAX_DEFECT_WORK``, ``series.MAX_SERIES_WORK``) or its size
bounds (``series.MAX_SERIES_BITS`` and the interpreter's int-to-str digit
limit) is an input error, as are search bounds whose join work exceeds
``search.MAX_SEARCH_WORK`` and ``search --jobs`` below 1.  Every search
runs in one process; ``--jobs`` is read and checked but changes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from itertools import chain
from typing import Any, Optional

from .algebra import PolyXY, format_terms
from .classify import ProofTrace, classify_two_points, pairing_check, replay_proof
from .genera import FixedPointData, is_rigid
from .search import SearchParams, SearchResult, _shown, search_rigid
from .series import GenusSeries, TODD, TXY, genus_from_coefficients, genus_series, series_is_constant

DEFAULT_ORDER = 12
MAX_ORDER = 200


# decimal strings: ASCII digits only, so no '_' separators or other scripts
_INTEGER = re.compile(r"[+-]?[0-9]+")
_FRACTION = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")
# a token of more than 40 characters that _shown has not cut already
_LONG_TOKEN = re.compile(r"(?<!\S)\S{41,}(?!\S)(?! \(\d+ characters\))")
# one encoder for every report (json.dumps builds one per call); no cycles
_encode = json.JSONEncoder(sort_keys=True, check_circular=False).encode


class InputError(Exception):
    """Malformed input document; the message carries a field diagnostic."""


def _too_long() -> str:
    # int(), Fraction() and str() raise ValueError past this many digits
    limit = sys.get_int_max_str_digits()
    return f"an integer of more than {limit} digits, the interpreter's limit for integer strings"


def _decimal(text: str, rational: bool = False):
    """The int, or with ``rational`` the Fraction, that a decimal string
    names; a bad string raises ValueError with the reason."""
    value = text.strip()
    if not (_FRACTION if rational else _INTEGER).fullmatch(value):
        kind = "a fraction 'p/q'" if rational else "a decimal integer"
        raise ValueError(f"{_shown(text)} is not {kind}")
    try:
        return Fraction(value) if rational else int(value)
    except ZeroDivisionError:
        raise ValueError(f"{_shown(text)} has a zero denominator") from None
    except ValueError:
        raise ValueError(_too_long()) from None


def _field(value: Any, where: str, rational: bool = False):
    """``_decimal`` for the document field ``where``, which may also be a JSON integer."""
    if isinstance(value, bool):
        kind = "a rational" if rational else "an integer"
        raise InputError(f"{where}: expected {kind}, got a boolean")
    if isinstance(value, int):
        return Fraction(value) if rational else value
    if not isinstance(value, str):
        kind = "fraction" if rational else "decimal"
        raise InputError(f"{where}: expected an integer or {kind} string")
    try:
        return _decimal(value, rational)
    except ValueError as err:
        raise InputError(f"{where}: {err}") from None


def _int_flag(text: str) -> int:
    """argparse type of the integer flags: a bad value is a usage error (exit 2)."""
    try:
        return _decimal(text.strip())
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def load_document(text: str) -> dict:
    try:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            raise
        except ValueError:
            # a number past the interpreter's digit limit (sign excluded) is
            # kept as its decimal string, which its field's parser refuses
            limit = sys.get_int_max_str_digits()
            doc = json.loads(text, parse_int=lambda s: s if len(s.lstrip("-")) > limit else int(s))
    except json.JSONDecodeError as err:
        raise InputError(f"input:{err.lineno}:{err.colno}: {err.msg}") from None
    except RecursionError:
        raise InputError("input: the document nests too deeply") from None
    if not isinstance(doc, dict):
        raise InputError("input: the document must be a JSON object")
    return doc


def _parse_weights(raw_weights: list, where: str) -> list[int]:
    """A point's weights; a canonical decimal string costs one match and
    one int(), and a field name is formatted only for a bad weight."""
    weights = []
    try:
        for w in raw_weights:
            if type(w) is str and _INTEGER.fullmatch(w):
                weights.append(int(w))
            elif type(w) is int:
                weights.append(w)
            else:
                # padded strings pass here; every other value raises
                weights.append(_field(w, f"{where}.weights[{len(weights)}]"))
    except ValueError:  # from int(w): past the interpreter's digit limit
        raise InputError(f"{where}.weights[{len(weights)}]: {_too_long()}") from None
    return weights


def document_data(doc: dict) -> FixedPointData:
    if "n" not in doc:
        raise InputError("n: required field is missing")
    n = _field(doc["n"], "n")
    if n < 1:
        raise InputError(f"n: must be a positive integer, got {_shown(n)}")
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
        # every weight is parsed before any is tested for zero
        weights = _parse_weights(raw_weights, where)
        if 0 in weights:
            raise InputError(f"{where}.weights[{weights.index(0)}]: weights must be nonzero")
        if len(weights) != n:
            raise InputError(f"{where}.weights: expected {_shown(n)} weights, got {len(weights)}")
        sign = _field(entry.get("sign", None), f"{where}.sign")
        if sign not in (1, -1):
            raise InputError(f"{where}.sign: sign must be +1 or -1, got {_shown(sign)}")
        points.append((sign, tuple(weights)))
    return FixedPointData._from_canonical(n, points)  # every constructor check is made above


def document_genus(doc: dict, override: Optional[str]) -> GenusSeries:
    if override is not None:
        name, entry = override, doc.get("genus")
        if not isinstance(entry, dict) or entry.get("name") != name:
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
                f"genus.coefficients: the built-in genus {_shown(name)} takes no coefficient list"
            )
        return TXY if name == "txy" else TODD
    if coeffs is None:
        raise InputError(f"genus.name: unknown genus {_shown(name)} and no coefficient list given")
    if not isinstance(coeffs, list):
        raise InputError("genus.coefficients: expected a list of rationals")
    values = [_field(c, f"genus.coefficients[{i}]", True) for i, c in enumerate(coeffs)]
    return genus_from_coefficients(name, values)


def document_order(doc: dict, override: Optional[int], n: int) -> int:
    order = _field(doc.get("order", DEFAULT_ORDER), "order") if override is None else override
    if order < n + 1 or order > MAX_ORDER:
        raise InputError(f"order: must lie in [{n + 1}, {MAX_ORDER}]")
    return order


# -- report rendering -----------------------------------------------------


def poly_json(p: PolyXY) -> list[dict]:
    return [{"x": i, "y": j, "coeff": str(c)} for (i, j), c in p.sorted_terms()]


def _rendered(p: PolyXY) -> tuple[list[dict], str]:
    """``poly_json(p)`` and ``str(p)``, one decimal conversion per integer."""
    rows = poly_json(p)
    return rows, format_terms([((r["x"], r["y"]), r["coeff"]) for r in rows])


def data_json(data: FixedPointData) -> dict:
    points = [{"weights": list(p.weights), "sign": p.sign} for p in data.points]
    return {"n": data.n, "points": points}


def proof_json(trace: ProofTrace) -> dict:
    form = trace.final_form and dict(zip(("k", "l", "max_is_pair_sum"), trace.final_form))
    return {**vars(trace), "final_form": form}


def emit(fmt: str, reports, table) -> None:
    """Write each of ``reports`` as one JSON line, or the lines table()
    yields; only the chosen format's lines are built.  The final newline
    is a second write: unbuffered, a write that a closed reader cuts short
    raises nothing, but the next one does (exit 141)."""
    lines = map(_encode, reports) if fmt == "json" else table()
    sys.stdout.write("\n".join(lines))
    sys.stdout.write("\n")


def _read_input(path: str) -> str:
    name = "stdin" if path == "-" else _shown(path, quote=False)
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        raise InputError(f"input: cannot read {name}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise InputError(f"input: {name} is not UTF-8 text (byte {err.start})") from None


# -- commands ---------------------------------------------------------------


def run_verify(args) -> int:
    doc = load_document(_read_input(args.input))
    data = document_data(doc)
    report = is_rigid(data)
    # a rigid datum's constant is its AH constant: render that once
    ah_json, ah_pretty = _rendered(report.ah_constant)
    out = {
        "command": "verify",
        "n": data.n,
        "m": data.m,
        "rigid": report.rigid,
        "constant": ah_json if report.rigid else None,
        "constant_pretty": ah_pretty if report.rigid else None,
        "ah_constant": ah_json,
        "ah_constant_pretty": ah_pretty,
        "defect_terms": report.defect.term_count(),
        "limits_symmetric": report.limits_symmetric,
        "weight_gcd": report.weight_gcd,
    }

    def table():
        yield f"rigid            {report.rigid}"
        yield f"constant         {out['constant_pretty'] if report.rigid else '-'}"
        yield f"ah constant      {out['ah_constant_pretty']}"
        yield f"defect terms     {out['defect_terms']}"
        yield f"limits symmetric {report.limits_symmetric}"
        yield f"weight gcd       {report.weight_gcd}"

    emit(args.format, [out], table)
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

    def table():
        yield f"family {family.kind}{list(family.params) if family.params else ''}"
        if trace is not None:
            yield f"trace  k={trace.k} l={trace.l} a={list(trace.a_values)} b={list(trace.b_values)}"
            yield (
                f"       balance={trace.balance_holds} max_rule={trace.max_rule_holds}"
                f" final={trace.final_form}"
            )

    emit(args.format, [out], table)
    return 0 if rigid else 1


def run_series(args) -> int:
    doc = load_document(_read_input(args.input))
    data = document_data(doc)
    genus = document_genus(doc, args.genus)
    order = document_order(doc, args.order, data.n)
    series = genus_series(data, genus, order, sys.get_int_max_str_digits())
    constant = series_is_constant(series)
    rows = []
    for k in range(series.lowest, series.order):
        try:
            coeff, pretty = _rendered(series.coeff(k))
            rows.append({"exp": k, "coeff": coeff, "pretty": pretty})
        except ValueError:
            # str() refuses ints longer than the interpreter's digit limit
            raise InputError(f"series: the u^{k} coefficient has {_too_long()}") from None
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
        # a constant series's constant is its u^0 row
        "constant": None if constant is None else rows[-series.lowest]["coeff"],
        "constant_pretty": None if constant is None else rows[-series.lowest]["pretty"],
        "verdict": "constant" if constant is not None else "not-constant",
        "cross_check": cross,
    }

    def table():
        yield f"genus {genus.name}   order {order}"
        for row in rows:
            yield f"u^{row['exp']:<4} {row['pretty']}"
        yield f"verdict {out['verdict']}"
        if cross is not None:
            yield f"cross-check {cross}"

    emit(args.format, [out], table)
    return 0 if constant is not None else 1


def _parse_sign_patterns(text: str):
    """The --signs patterns as tuples of +1/-1; SearchParams checks their
    length against m, after it has checked m itself."""
    if text == "all":
        return None
    patterns = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if any(c not in "+-" for c in chunk):
            raise InputError(f"--signs: pattern {_shown(chunk)} may hold only '+' and '-'")
        patterns.append(tuple(1 if c == "+" else -1 for c in chunk))
    return tuple(patterns)


def result_json(result: SearchResult) -> dict:
    family = result.family
    constant, pretty = _rendered(result.report.ah_constant)
    return {
        "type": "result",
        **data_json(result.data),
        "family": None if family is None else {"kind": family.kind, "params": list(family.params)},
        "constant": constant,
        "constant_pretty": pretty,
        "weight_gcd": result.report.weight_gcd,
    }


def run_search(args) -> int:
    patterns = _parse_sign_patterns(args.signs)
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
    if args.jobs < 1:
        raise InputError(f"jobs must be at least 1, got {_shown(args.jobs)}")
    outcome = search_rigid(params)
    summary = {
        "type": "summary",
        "candidates": outcome.summary.candidates,
        "pruned": outcome.summary.pruned,
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

    def table():
        for result in outcome.results:
            family = result.family
            tag = f"{family.kind}{list(family.params)}" if family else "-"
            points = "  ".join(
                f"({','.join(map(str, p.weights))};{'+' if p.sign > 0 else '-'})"
                for p in result.data.points
            )
            yield f"{tag:<16} {points}  constant {result.report.ah_constant}"
        s = outcome.summary
        yield f"candidates {s.candidates}  pruned {s.pruned}  checked {s.checked}  rigid {s.rigid}"

    emit(args.format, chain(map(result_json, outcome.results), [summary]), table)
    return 0


class _Parser(argparse.ArgumentParser):
    """The parser of the CLI and, through ``parser_class``, of its commands:
    a usage error cuts each long token of its message as ``_shown`` does."""

    def error(self, message):
        super().error(_LONG_TOKEN.sub(lambda token: _shown(token[0], quote=False), message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="txyrigid",
        description="Exact rigidity checker and search for circle-action fixed-point data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> the command's own parser

    def add_document_command(name, help, handler):
        p = sub.add_parser(name, help=help)
        p.add_argument("input", nargs="?", default="-", help="JSON document path or '-' for stdin")
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.set_defaults(handler=handler)
        return p

    add_document_command("verify", "exact rigidity check", run_verify)
    add_document_command("classify", "two-point family classification", run_classify)
    p_series = add_document_command("series", "truncated-series evaluation", run_series)
    p_series.add_argument("--genus", default=None, help="genus name override (txy, todd)")
    p_series.add_argument("--order", type=_int_flag, default=None, help="truncation order")

    p_search = sub.add_parser("search", help="exhaustive rigidity search")
    p_search.add_argument("--n", type=_int_flag, required=True, help="weights per point")
    p_search.add_argument("--m", type=_int_flag, required=True, help="number of fixed points")
    p_search.add_argument("--max-weight", type=_int_flag, required=True, help="weight magnitude bound")
    p_search.add_argument("--signs", default="all", help="'all' or comma list like '+-,++'")
    p_search.add_argument("--effective-only", action="store_true", help="keep weight gcd 1 only")
    p_search.add_argument("--jobs", type=_int_flag, default=1, help="checked (at least 1), changes nothing")
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
    if argv is None:
        argv = sys.argv[1:]
    # a named command is parsed by its own parser, the one the subparsers
    # action would hand it to; anything else goes through the full parser
    command = _PARSER.commands.get(argv[0]) if argv else None
    try:
        if command is not None:
            args = command.parse_args(argv[1:])
        else:
            args = _PARSER.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors, matching the error status
        return int(err.code) if err.code else 0
    try:
        return args.handler(args)
    except (InputError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # exit as a writer killed by SIGPIPE would; stdout goes to devnull
        # so that the interpreter's final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    sys.exit(status)
