import io
import json
import random
import sys
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd
from operator import or_
from unittest import mock

from txyrigid import FixedPoint, FixedPointData
from txyrigid.algebra import LaurentZ, PolyXY
from txyrigid.cli import _rendered, data_json, main
from txyrigid.genera import ah_constant, is_rigid, rigidity_defect
from txyrigid.search import MODULUS, _enumerate_shard, _ratios
from txyrigid.series import genus_series

try:
    from hypothesis import configuration, settings
except ImportError:  # the property tests skip themselves
    configuration = None
else:
    # derandomized and without an example database, so Tier-1 stays
    # deterministic
    settings.register_profile(
        "tier1", derandomize=True, database=None, deadline=None, max_examples=200
    )
    settings.load_profile("tier1")


def pytest_configure(config):
    # while pytest collects, hypothesis caches the constants of the
    # package's modules in its storage directory, even without a database;
    # keep that under pytest's own cache directory
    if configuration is not None and hasattr(config, "cache"):
        configuration.set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))


def random_data(rng: random.Random, n=None, m=None, max_abs=6, n_max=4, m_max=3) -> FixedPointData:
    """Seeded random candidate within the given bounds."""
    n = n if n is not None else rng.randint(1, n_max)
    m = m if m is not None else rng.randint(1, m_max)
    choices = [w for w in range(-max_abs, max_abs + 1) if w]
    points = tuple(
        FixedPoint(tuple(rng.choice(choices) for _ in range(n)), rng.choice((1, -1)))
        for _ in range(m)
    )
    return FixedPointData(n, points)


def raw_stream(n, m, max_abs, sign_patterns=None, require_effective=False):
    """Brute-force reference for the search enumeration: every ordered
    tuple of m points with ordered weights, in all sign assignments or in
    the given ordered sign patterns, with no quotient."""
    values = [w for w in range(-max_abs, max_abs + 1) if w]
    raw_points = [
        (sign, weights)
        for weights in product(values, repeat=n)
        for sign in (1, -1)
    ]
    for key in product(raw_points, repeat=m):
        if sign_patterns is not None and tuple(s for s, _ in key) not in sign_patterns:
            continue
        if require_effective and gcd(*(w for _, ws in key for w in ws)) != 1:
            continue
        yield FixedPointData(n, tuple(FixedPoint(weights, sign) for sign, weights in key))


def paired_keys(params):
    """The two-point keys of the full walk whose points have the same
    sorted weight magnitudes (the keys that pass the pairing rung)."""
    return [
        key
        for key in _enumerate_shard(params)
        if sorted(map(abs, key[0][1])) == sorted(map(abs, key[1][1]))
    ]


def residue_sum(data: FixedPointData) -> int:
    """The sum of the points' evaluation residues mod the search's prime,
    each point's share of the genus sum at (x, y, z) = (2, 1, 3) minus its
    Atiyah-Hirzebruch monomial, one weight at a time; 0 for every rigid
    datum."""
    ratios = _ratios(max(abs(w) for p in data.points for w in p.weights))
    total = 0
    for p in data.points:
        value = p.sign
        for w in p.weights:
            value = value * ratios[w] % MODULUS
        total += value - p.sign * 2**p.s_plus * (-1) ** p.s_minus
    return total % MODULUS


def substitute(poly: PolyXY, x0, y0) -> Fraction:
    """The polynomial's value at rational x0, y0."""
    x0, y0 = Fraction(x0), Fraction(y0)
    return sum((c * x0**i * y0**j for (i, j), c in poly.terms.items()), Fraction(0))


def swap_xy(poly: PolyXY) -> PolyXY:
    """The polynomial with the roles of x and y exchanged."""
    return PolyXY({(j, i): c for (i, j), c in poly.terms.items()})


def is_homogeneous(poly: PolyXY, degree: int) -> bool:
    return all(i + j == degree for i, j in poly.terms)


def reference_defect(data: FixedPointData) -> LaurentZ:
    """The defect by LaurentZ products: each point's binomial chain over
    the least common multiset of its (z^a - 1) factors, minus the
    Atiyah-Hirzebruch constant times the shared chain, at y = 1."""
    own = [Counter(abs(w) for w in p.weights) for p in data.points]
    shared = reduce(or_, own)
    total = LaurentZ()
    for point, mine in zip(data.points, own):
        term = LaurentZ({0: point.sign})
        for w in point.weights:
            if w > 0:
                term = term * LaurentZ({w: {1: 1}, 0: 1})  # x z^w + 1
            else:
                term = term * LaurentZ({0: {1: -1}, -w: -1})  # -(x + z^a)
        for a in (shared - mine).elements():
            term = term * LaurentZ({a: 1, 0: -1})
        total = total + term
    ah = Counter()
    for (i, _), c in ah_constant(data).terms.items():
        ah[i] += int(c)
    expected = LaurentZ({0: ah})
    for a in shared.elements():
        expected = expected * LaurentZ({a: 1, 0: -1})
    return total - expected


def assert_matches_reference(data: FixedPointData) -> None:
    packed, reference = rigidity_defect(data), reference_defect(data)
    assert packed.terms == reference.terms
    assert packed.is_zero() == reference.is_zero()
    assert packed.term_count() == reference.term_count()


def result_reference(result) -> dict:
    """The dict of a search result's JSON line, the reference for
    ``cli.result_json``, which writes the line as text."""
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


def series_reference(data: FixedPointData, genus, order: int) -> dict:
    """The dict of a series report's JSON line, built from the expansion's
    ``PolyXY`` coefficients: the reference for ``cli.run_series``, which
    writes the line as text from the expansion's integer rows."""
    series = genus_series(data, genus, order)
    rows = []
    for k in range(series.lowest, series.order):
        coeff, pretty = _rendered(series.coeff(k))
        rows.append({"exp": k, "coeff": coeff, "pretty": pretty})
    # constant when every retained coefficient but u^0 vanishes
    constant = None
    if not any(row["coeff"] for row in rows if row["exp"] != 0):
        constant = series.coeff(0)
    cross = None
    if genus.symbolic:
        zreport = is_rigid(data)
        agree = (constant is not None) == zreport.rigid and (
            constant is None or constant == zreport.ah_constant
        )
        cross = "agree" if agree else "disagree"
    return {
        "command": "series",
        "genus": genus.name,
        "order": order,
        "expansion_variable": "(x+y)*u" if genus.symbolic else "u",
        "coefficients": rows,
        "constant": None if constant is None else rows[-series.lowest]["coeff"],
        "constant_pretty": None if constant is None else rows[-series.lowest]["pretty"],
        "verdict": "constant" if constant is not None else "not-constant",
        "cross_check": cross,
    }


def series_table_reference(report: dict) -> str:
    """The ``--format table`` output of the series report ``report``."""
    lines = [f"genus {report['genus']}   order {report['order']}"]
    lines += [f"u^{row['exp']:<4} {row['pretty']}" for row in report["coefficients"]]
    lines.append(f"verdict {report['verdict']}")
    if report["cross_check"] is not None:
        lines.append(f"cross-check {report['cross_check']}")
    return "\n".join(lines) + "\n"


def series_document(data: FixedPointData, genus, order: int) -> str:
    """The CLI document of ``data`` with ``genus`` and ``order``."""
    doc = {
        "n": str(data.n),
        "points": [
            {"weights": [str(w) for w in p.weights], "sign": str(p.sign)} for p in data.points
        ],
        "genus": {"name": genus.name},
        "order": order,
    }
    if genus.regular_coeffs is not None:
        doc["genus"]["coefficients"] = [str(c) for c in genus.regular_coeffs]
    return json.dumps(doc)


def assert_series_output_matches_reference(data: FixedPointData, genus, order: int) -> None:
    """The series command's JSON line is the sorted-key encoding of
    ``series_reference``, its table the reference table, and its exit
    status 0 exactly for a constant series."""
    report = series_reference(data, genus, order)
    text = series_document(data, genus, order)
    for fmt, want in (
        ("json", json.dumps(report, sort_keys=True) + "\n"),
        ("table", series_table_reference(report)),
    ):
        stdout = io.StringIO()
        with mock.patch.object(sys, "stdin", io.StringIO(text)), redirect_stdout(stdout):
            status = main(["series", "-", "--format", fmt])
        assert stdout.getvalue() == want
        assert status == (0 if report["verdict"] == "constant" else 1)
