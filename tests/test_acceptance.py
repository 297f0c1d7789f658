"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything here is exact arithmetic; "tolerance" is equality of rationals
and polynomials throughout.  The desk-scale search (two fixed points,
n in {1, 2, 3, 4}, weight magnitudes up to 5, all sign patterns) is run
once as a fixture and reused by the criteria that consume its output.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from conftest import is_homogeneous, random_data, substitute
from txyrigid.algebra import PolyXY
from txyrigid.classify import make_l1, make_s3, make_z
from txyrigid.cli import result_json
from txyrigid.genera import FixedPoint, FixedPointData, ah_constant, is_rigid
from txyrigid.search import SearchParams, enumerate_data, prune, search_rigid
from txyrigid.series import TXY, genus_series, series_is_constant

X = PolyXY({(1, 0): 1})
Y = PolyXY({(0, 1): 1})

SEARCH_NS = (1, 2, 3, 4)
SEARCH_MAX_WEIGHT = 5
SERIES_ORDER = 12


def desk_params(n: int) -> SearchParams:
    return SearchParams(n=n, m=2, max_abs_weight=SEARCH_MAX_WEIGHT)


def serialize_outcome(outcome) -> bytes:
    lines = [result_json(r) for r in outcome.results]
    summary = outcome.summary
    lines.append(
        json.dumps(
            {
                "type": "summary",
                "candidates": summary.candidates,
                "pruned": summary.pruned,
                "checked": summary.checked,
                "rigid": summary.rigid,
            },
            sort_keys=True,
        )
    )
    return ("\n".join(lines) + "\n").encode()


@pytest.fixture(scope="module")
def desk_search():
    start = time.monotonic()
    outcomes = {n: search_rigid(desk_params(n)) for n in SEARCH_NS}
    elapsed = time.monotonic() - start
    return outcomes, elapsed


def report(number: int, label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_family_rigidity():
    start = time.monotonic()
    ok = True
    for a in range(1, 11):
        r = is_rigid(make_l1(a))
        ok = ok and r.rigid and r.constant == X - Y
    for a in range(1, 6):
        for b in range(1, 6):
            r = is_rigid(make_s3(a, b))
            ok = ok and r.rigid and r.constant == X * Y * Y - X * X * Y
    rng = random.Random(1001)
    for _ in range(20):
        n = rng.randint(1, 5)
        weights = tuple(rng.choice([w for w in range(-10, 11) if w]) for _ in range(n))
        r = is_rigid(make_z(weights))
        ok = ok and r.rigid and r.constant == PolyXY.zero()
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    report(1, f"family rigidity, exact constants ({elapsed:.1f}s)", ok)


def test_criterion_2_two_point_classification(desk_search):
    outcomes, elapsed = desk_search
    allowed = {1: {"Z", "L1"}, 2: {"Z"}, 3: {"Z", "S3"}, 4: {"Z"}}
    ok = elapsed < 300.0
    for n, outcome in outcomes.items():
        kinds = {r.family.kind for r in outcome.results}
        ok = ok and "RigidUnclassified" not in kinds
        ok = ok and kinds == allowed[n]  # every expected family occurs, nothing else
    report(
        2,
        f"exhaustive two-point search reproduces the classification ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_3_proof_replay(desk_search):
    from txyrigid.classify import replay_proof

    outcomes, _ = desk_search
    ok = True
    seen_chain = 0
    for n, outcome in outcomes.items():
        for result in outcome.results:
            if result.family.kind == "Z":
                continue
            trace = replay_proof(result.data)
            ok = ok and trace.paired and trace.balance_holds and trace.max_rule_holds
            if n == 1:
                ok = ok and trace.n1_shortcut and result.family.kind == "L1"
                ok = ok and trace.final_form is None
            else:
                ok = ok and trace.final_form == (1, 2, True)
                ok = ok and result.family.kind == "S3"
                seen_chain += 1
    ok = ok and seen_chain > 0
    report(3, "proof replay holds on every rigid non-Z datum", ok)


def test_criterion_4_oracle_cross_validation(desk_search):
    outcomes, _ = desk_search
    # corpus: every candidate the desk search passed to the exact checker,
    # plus 200 random candidates
    corpus = []
    for n in SEARCH_NS:
        for data in enumerate_data(desk_params(n)):
            if prune(data):
                corpus.append(data)
    rng = random.Random(1004)
    for _ in range(200):
        corpus.append(random_data(rng, max_abs=6, n_max=4, m_max=3))
    disagreements = 0
    for data in corpus:
        exact = is_rigid(data)
        constant = series_is_constant(genus_series(data, TXY, SERIES_ORDER))
        if (constant is not None) != exact.rigid:
            disagreements += 1
        elif exact.rigid and constant != exact.ah_constant:
            disagreements += 1
    ok = disagreements == 0
    report(
        4,
        f"z-domain and series verdicts agree on {len(corpus)} candidates",
        ok,
    )


def test_criterion_5_specialization_sanity():
    ok = True
    for a in range(1, 11):
        c = ah_constant(make_l1(a))
        ok = ok and substitute(c, 1, 0) == 1  # the Todd value
        ok = ok and substitute(c, 1, 1) == 0
    for a in range(1, 6):
        for b in range(1, 6):
            ok = ok and substitute(ah_constant(make_s3(a, b)), 1, 1) == 0
    report(5, "constants specialize correctly at (1,0) and (1,1)", ok)


def test_criterion_6_symmetry_invariants():
    rng = random.Random(1006)
    violations = 0
    for _ in range(500):
        data = random_data(rng, max_abs=6, n_max=4, m_max=3)
        base = is_rigid(data)

        points = list(data.points)
        rng.shuffle(points)
        shuffled = []
        for p in points:
            ws = list(p.weights)
            rng.shuffle(ws)
            shuffled.append(FixedPoint(tuple(ws), p.sign))
        perm = is_rigid(FixedPointData(data.n, tuple(shuffled)))
        if perm.rigid != base.rigid or perm.ah_constant != base.ah_constant:
            violations += 1

        neg = is_rigid(
            FixedPointData(
                data.n,
                tuple(FixedPoint(tuple(-w for w in p.weights), p.sign) for p in data.points),
            )
        )
        swapped = PolyXY.zero()
        for p in data.points:
            coeff = Fraction(p.sign if p.s_plus % 2 == 0 else -p.sign)
            swapped = swapped + PolyXY({(p.s_minus, p.s_plus): coeff})
        if neg.rigid != base.rigid or neg.ah_constant != swapped:
            violations += 1

        for t in (2, 3):
            scaled = is_rigid(
                FixedPointData(
                    data.n,
                    tuple(
                        FixedPoint(tuple(t * w for w in p.weights), p.sign)
                        for p in data.points
                    ),
                )
            )
            if scaled.rigid != base.rigid or scaled.ah_constant != base.ah_constant:
                violations += 1

        if not is_homogeneous(base.ah_constant, data.n):
            violations += 1
    ok = violations == 0
    report(6, "symmetry invariants on 500 random data", ok)


def test_criterion_7_pruning_soundness():
    violations = 0
    # full double-check in the small range
    for n in (1, 2):
        for data in enumerate_data(SearchParams(n=n, m=2, max_abs_weight=3)):
            if not prune(data) and is_rigid(data).rigid:
                violations += 1
    # a deterministic 1% sample across the desk-scale range
    rng = random.Random(1007)
    sampled = 0
    for n in SEARCH_NS:
        for data in enumerate_data(desk_params(n)):
            if prune(data):
                continue
            if rng.random() < 0.01:
                sampled += 1
                if is_rigid(data).rigid:
                    violations += 1
    ok = violations == 0 and sampled > 0
    report(7, f"pruning rejected no rigid candidate (sampled {sampled})", ok)


def test_criterion_8_determinism(desk_search):
    outcomes, _ = desk_search
    first = b"".join(serialize_outcome(outcomes[n]) for n in SEARCH_NS)
    second = b"".join(
        serialize_outcome(search_rigid(desk_params(n))) for n in SEARCH_NS
    )
    ok = first == second
    report(8, "two consecutive desk-scale searches are byte-identical", ok)
