"""Property tests (hypothesis, derandomized by the conftest profile)."""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, strategies as st

from conftest import (
    assert_matches_reference,
    assert_series_output_matches_reference,
    residue_sum,
    result_reference,
    swap_xy,
)
from txyrigid.cli import document_data, main, result_json
from txyrigid.classify import (
    classify_two_points,
    make_l1,
    make_s3,
    make_z,
    replay_proof,
)
from txyrigid.genera import (
    FixedPoint,
    FixedPointData,
    GenusReport,
    ah_constant,
    is_rigid,
    limit_symmetry,
    pairs_off,
    rigidity_defect,
    weight_gcd,
)
from txyrigid.search import SearchParams, SearchResult, _count_classes, enumerate_data
from txyrigid.algebra import PolyXY
from txyrigid.series import TODD, TXY, GenusSeries, genus_series, series_is_constant

SIGNS = st.sampled_from((1, -1))


def _weights(n, max_abs=8):
    """Lists of n nonzero weights with magnitudes up to max_abs."""
    values = st.integers(1, max_abs).flatmap(lambda a: st.sampled_from((a, -a)))
    return st.lists(values, min_size=n, max_size=n)


@st.composite
def paired_non_z(draw, max_n=8, max_abs=60):
    """Two points with the same weight magnitudes, outside family Z.  The
    second point is the first one negated or carries random signs; the
    first point's weights often sum to zero, the shape that balances."""
    n = draw(st.integers(1, max_n))
    if n > 1 and draw(st.booleans()):
        rest = draw(_weights(n - 1, max_abs // (n - 1)))
        first = rest + [-sum(rest) or rest[0]]
    else:
        first = draw(_weights(n, max_abs))
    if draw(st.booleans()):
        second = [-w for w in first]
    else:
        second = [draw(SIGNS) * abs(w) for w in first]
    p1 = FixedPoint(tuple(first), draw(SIGNS))
    p2 = FixedPoint(tuple(draw(st.permutations(second))), draw(SIGNS))
    assume(not pairs_off((p1, p2)))
    return FixedPointData(n, (p1, p2))


@given(paired_non_z())
def test_weight_only_balance_matches_defect_rule(data):
    # the rule the replay used before it read the weights only: the y = 0
    # part of the defect (kept at y = 1) is its x^n coefficient
    expected = all(data.n not in c for c in rigidity_defect(data).terms.values())
    assert replay_proof(data).balance_holds == expected


@st.composite
def two_points(draw):
    """Two-point data: a family member, paired data, or any two points."""
    kind = draw(st.sampled_from(("Z", "L1", "S3", "paired", "any")))
    if kind == "Z":
        return make_z(draw(_weights(draw(st.integers(1, 4)))))
    if kind == "L1":
        return make_l1(draw(st.integers(1, 8)))
    if kind == "S3":
        return make_s3(draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    if kind == "paired":
        return draw(paired_non_z(max_n=4, max_abs=8))
    n = draw(st.integers(1, 4))
    return FixedPointData(
        n, tuple(FixedPoint(tuple(draw(_weights(n))), draw(SIGNS)) for _ in range(2))
    )


@given(st.data())
def test_classify_invariant_under_order_and_negation(data):
    base = data.draw(two_points())
    tag = classify_two_points(base)
    points = [FixedPoint(tuple(data.draw(st.permutations(p.weights))), p.sign) for p in base.points]
    if data.draw(st.booleans()):
        points.reverse()
    assert classify_two_points(FixedPointData(base.n, tuple(points))) == tag
    negated = tuple(FixedPoint(tuple(-w for w in p.weights), p.sign) for p in points)
    assert classify_two_points(FixedPointData(base.n, negated)).kind == tag.kind


@st.composite
def family_members(draw):
    """Members of the rigid two-point families Z, L1 and S3."""
    kind = draw(st.sampled_from(("Z", "L1", "S3")))
    if kind == "Z":
        return make_z(draw(_weights(draw(st.integers(1, 6)), max_abs=40)))
    if kind == "L1":
        return make_l1(draw(st.integers(1, 10**4)))
    return make_s3(draw(st.integers(1, 200)), draw(st.integers(1, 200)))


@given(family_members())
def test_rigid_family_residues_sum_to_zero(data):
    # the evaluation invariant the search joins on holds on every rigid datum
    assert residue_sum(data) == 0


@st.composite
def small_search_params(draw):
    """Search bounds small enough to walk: m, n, W <= 3 with n + W <= 5
    at m = 3, all signs or a set of sign patterns, effective-only or not."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    bound = draw(st.integers(0, 3 if m < 3 else min(3, 5 - n)))
    pattern = st.tuples(*[SIGNS] * m)
    signs = draw(st.none() | st.lists(pattern, min_size=1, max_size=3).map(tuple))
    return SearchParams(n, m, bound, signs, draw(st.booleans()))


@given(small_search_params())
def test_class_count_is_the_walk_length(params):
    assert _count_classes(params) == len(list(enumerate_data(params)))


@st.composite
def small_data(draw):
    """Any data with m <= 4 points, n <= 5 weights of mixed signs and
    magnitudes up to 6."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    return FixedPointData(
        n, tuple(FixedPoint(tuple(draw(_weights(n, 6))), draw(SIGNS)) for _ in range(m))
    )


@st.composite
def large_weight_data(draw):
    """Data with m <= 4 points of n <= 2 weights with magnitudes up to
    10^6: mostly past the one-int cap, so the per-z-exponent dict loop."""
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    return FixedPointData(
        n, tuple(FixedPoint(tuple(draw(_weights(n, 10**6))), draw(SIGNS)) for _ in range(m))
    )


@given(small_data() | large_weight_data())
def test_packed_defect_matches_reference(data):
    # terms, zero test and term count against the LaurentZ product chain
    assert_matches_reference(data)


@st.composite
def paired_off(draw):
    """Data that pairs off completely: one to three Z pairs of n <= 6
    weights, each partner's weights permuted, the points shuffled."""
    n, points = draw(st.integers(1, 6)), []
    for _ in range(draw(st.integers(1, 3))):
        weights, sign = tuple(draw(_weights(n, 6))), draw(SIGNS)
        partner = tuple(draw(st.permutations(weights)))
        points += [FixedPoint(weights, sign), FixedPoint(partner, -sign)]
    return FixedPointData(n, tuple(draw(st.permutations(points))))


@given(paired_off())
def test_paired_shortcut_matches_the_full_report(data):
    # is_rigid builds no constant for paired data; the report is the one
    # that the defect, the AH constant and the limit test give
    report = is_rigid(data)
    assert report == GenusReport(
        rigidity_defect(data), ah_constant(data), limit_symmetry(data), weight_gcd(data)
    )
    assert report.constant == 0


@example(make_l1(7))
@example(make_s3(2, 5))
@example(FixedPointData(1, (FixedPoint((1,), -1),) * 3))  # AH coefficient -3, family None
@example(FixedPointData(2, (FixedPoint((3, -2), -1),) * 4))  # AH coefficient 4
@given(small_data() | two_points())
def test_result_line_equals_the_encoders_output(data):
    # the result as the search would make it, rigid or not
    family = classify_two_points(data) if data.m == 2 else None
    result = SearchResult(data, is_rigid(data), family)
    assert result_json(result) == json.dumps(result_reference(result), sort_keys=True)


# -- symmetries of the exact check ----------------------------------------------


def _verdict(data):
    report = is_rigid(data)
    return report.rigid, report.ah_constant, report.defect.term_count()


@given(small_data() | two_points(), st.data())
def test_exact_check_invariant_under_permutations(base, data):
    points = [
        FixedPoint(tuple(data.draw(st.permutations(p.weights))), p.sign)
        for p in data.draw(st.permutations(base.points))
    ]
    assert _verdict(FixedPointData(base.n, tuple(points))) == _verdict(base)


@given(small_data() | two_points())
def test_negation_swaps_x_and_y_in_the_ah_constant(data):
    # sign * x^s+ (-y)^s- goes to sign * x^s- (-y)^s+, which is (-1)^n
    # times the first with x and y swapped
    base = is_rigid(data)
    negated = is_rigid(FixedPointData(data.n, tuple(
        FixedPoint(tuple(-w for w in p.weights), p.sign) for p in data.points
    )))
    assert negated.rigid == base.rigid
    assert negated.ah_constant == swap_xy(base.ah_constant) * (-1) ** data.n


@st.composite
def odd_n_odd_m(draw):
    """Data with odd n and an odd number of points: any points, or a rigid
    family member of odd n with one more point."""
    if draw(st.booleans()):
        n, m = draw(st.sampled_from((1, 3, 5))), draw(st.sampled_from((1, 3, 5)))
        points = ()
    else:
        base = draw(family_members().filter(lambda d: d.n % 2))
        n, m, points = base.n, 1, base.points
    more = tuple(FixedPoint(tuple(draw(_weights(n, 6))), draw(SIGNS)) for _ in range(m))
    return FixedPointData(n, points + more)


@given(odd_n_odd_m())
def test_odd_n_with_odd_m_is_never_rigid(data):
    # with n odd, limit symmetry pairs the Atiyah-Hirzebruch coefficient of
    # x^i y^(n-i) with minus that of x^(n-i) y^i, so they sum to 0; but
    # every point adds +-1 to one of them, so they sum to m mod 2
    report = is_rigid(data)
    assert not report.limits_symmetric and not report.rigid


@st.composite
def l1_differences(draw):
    """L1(a) x t - L1(b) x t for a != b and a tail t of n - 1 nonzero
    weights, n <= 7: the points (a, t) and (-a, t) with sign -1 and the
    points (b, t) and (-b, t) with sign +1."""
    n = draw(st.integers(1, 7))
    a, b = draw(st.lists(st.integers(1, 12), min_size=2, max_size=2, unique=True))
    tail = tuple(draw(_weights(n - 1, 12)))
    return FixedPointData(n, (
        FixedPoint((a, *tail), -1),
        FixedPoint((-a, *tail), -1),
        FixedPoint((b, *tail), 1),
        FixedPoint((-b, *tail), 1),
    ))


@given(l1_differences())
def test_l1_difference_is_rigid_with_constant_zero(data):
    # each L1 part sums to (x - y) T(z), T the tail's product, so the
    # difference is rigid with constant 0; the series route agrees
    report = is_rigid(data)
    assert report.rigid and report.ah_constant == PolyXY.zero()
    if data.n <= 4:
        assert series_is_constant(genus_series(data, TXY, 12)) == PolyXY.zero()


@st.composite
def with_z_pair(draw, base):
    """base with a Z pair appended: any point, then a point with the same
    weights in any order and the opposite sign."""
    data = draw(base)
    weights = tuple(draw(_weights(data.n, 6)))
    sign = draw(SIGNS)
    pair = (FixedPoint(weights, sign), FixedPoint(tuple(draw(st.permutations(weights))), -sign))
    return data, FixedPointData(data.n, data.points + pair)


@given(with_z_pair(small_data() | two_points()))
def test_z_pair_keeps_verdict_and_constant(pair):
    # the pair's fixed-point terms and AH monomials cancel exactly
    data, grown = pair
    base, report = is_rigid(data), is_rigid(grown)
    assert (report.rigid, report.ah_constant) == (base.rigid, base.ah_constant)
    if report.rigid:
        assert report.defect.term_count() == 0


@given(with_z_pair(
    st.integers(1, 8).map(make_l1)
    | st.tuples(st.integers(1, 8), st.integers(1, 8)).map(lambda ab: make_s3(*ab))
))
def test_family_with_z_pair_stays_rigid(pair):
    family, grown = pair
    x, y = PolyXY({(1, 0): 1}), PolyXY({(0, 1): 1})
    # L1 has constant x - y, S3 x y^2 - x^2 y
    expected = x - y if family.n == 1 else x * y * y - x * x * y
    report = is_rigid(grown)
    assert report.rigid and report.constant == expected
    assert report.defect.term_count() == 0


# -- symmetries of the series route ---------------------------------------------


def _series(data, genus):
    return genus_series(data, genus, data.n + 4)


@given(small_data() | two_points(), st.sampled_from((TXY, TODD)), st.data())
def test_series_invariant_under_permutations(base, genus, data):
    points = [
        FixedPoint(tuple(data.draw(st.permutations(p.weights))), p.sign)
        for p in data.draw(st.permutations(base.points))
    ]
    assert _series(FixedPointData(base.n, tuple(points)), genus) == _series(base, genus)


@given(small_data() | two_points())
def test_series_negation_swaps_x_and_y(data):
    # x + (x+y) g(-s) = -(y + (x+y) g(s)), since g(-s) = -1 - g(s)
    base = _series(data, TXY)
    negated = _series(FixedPointData(data.n, tuple(
        FixedPoint(tuple(-w for w in p.weights), p.sign) for p in data.points
    )), TXY)
    assert negated.coeffs == tuple(swap_xy(c) * (-1) ** data.n for c in base.coeffs)


@given(small_data() | two_points(), st.integers(-4, 4).filter(bool))
def test_series_scaling_weights_scales_coefficients(data, c):
    # the weights enter only through w * u (w * t for TXY), so scaling them
    # by c multiplies the u^k (t^k) coefficient by c^k
    scaled = FixedPointData(data.n, tuple(
        FixedPoint(tuple(c * w for w in p.weights), p.sign) for p in data.points
    ))
    for genus in (TXY, TODD):
        base, image = _series(data, genus), _series(scaled, genus)
        assert image.coeffs == tuple(
            coeff * Fraction(c) ** k for k, coeff in enumerate(base.coeffs, base.lowest)
        )


@st.composite
def custom_genera(draw):
    """A listed genus: up to six rational coefficients, negative and
    non-unit ones among them, under a name that may need escaping."""
    coefficients = draw(st.lists(
        st.fractions(min_value=-20, max_value=20, max_denominator=12), max_size=6
    ))
    name = draw(st.text(max_size=6).filter(lambda name: name not in ("txy", "todd")))
    return GenusSeries(name, coefficients)


@example(make_z((2, 5, -4)), TXY, 12)  # cancels completely: every row is zero
@example(make_l1(3), TODD, 24)
@example(make_s3(2, 5), GenusSeries('"\\\x01\u00e9', [Fraction(-7, 3), 0, 5]), 12)
@given(small_data(), st.sampled_from((TXY, TODD)) | custom_genera(), st.sampled_from((None, 12, 24)))
def test_series_line_equals_the_encoders_output(data, genus, order):
    # m = 1..4, n = 1..5, at orders n + 1 (None), 12 and 24: the line is
    # the encoder's, and the table the one the report's dict gives
    assert_series_output_matches_reference(data, genus, order or data.n + 1)


@st.composite
def point_specs(draw):
    """n and (weights, sign) pairs with up to two defects: n <= 0, no
    points, a point without weights, a zero weight, a wrong weight count
    or a sign other than +-1.  Each value is a JSON integer or a string."""
    n = draw(st.integers(1, 3))
    points = draw(st.lists(st.tuples(_weights(n, 2), SIGNS), min_size=1, max_size=3))
    for defect in draw(st.lists(st.sampled_from(range(6)), max_size=2)):
        if not points:
            break
        i = draw(st.integers(0, len(points) - 1))
        weights, sign = points[i]
        if defect == 0:
            n = draw(st.integers(-1, 0))
        elif defect == 1:
            points = []
        elif defect == 2:
            points[i] = ([], sign)
        elif defect == 3 and weights:
            weights[draw(st.integers(0, len(weights) - 1))] = 0
        elif defect == 4:
            points[i] = (weights + [1] if draw(st.booleans()) else weights[1:], sign)
        elif defect == 5:
            points[i] = (weights, draw(st.sampled_from((0, 2, -3))))
    return n, points, draw(st.sampled_from((str, int)))


@given(point_specs())
def test_document_data_accepts_what_the_constructors_accept(spec):
    # document_data makes the constructors' checks itself and skips theirs
    n, points, form = spec
    doc = {
        "n": form(n),
        "points": [{"weights": list(map(form, ws)), "sign": form(s)} for ws, s in points],
    }
    try:
        data = FixedPointData(n, [FixedPoint(tuple(ws), s) for ws, s in points])
    except ValueError:
        stdout, stderr = io.StringIO(), io.StringIO()
        with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(doc))):
            with redirect_stdout(stdout), redirect_stderr(stderr):
                assert main(["verify", "-"]) == 2
        assert stdout.getvalue() == "" and stderr.getvalue().startswith("error: ")
    else:
        assert document_data(doc) == data
