import io
import json
import sys
from collections import Counter

import pytest

from conftest import paired_keys
from txyrigid import classify, genera
from txyrigid.algebra import PolyXY
from txyrigid.classify import (
    FamilyTag,
    classify_two_points,
    make_l1,
    make_s3,
    make_z,
    pairing_check,
    replay_proof,
)
from txyrigid.cli import main
from txyrigid.genera import FixedPoint, FixedPointData, is_rigid, pairs_off, rigidity_defect
from txyrigid.search import SearchParams, enumerate_data

X = PolyXY({(1, 0): 1})
Y = PolyXY({(0, 1): 1})


# -- constructors --------------------------------------------------------------


def test_make_z():
    data = make_z((5,))
    assert data.points[0].weights == (5,) and data.points[0].sign == 1
    assert data.points[1].weights == (5,) and data.points[1].sign == -1
    data = make_z((1, -2))
    assert data.n == 2
    assert data.points[0].weights == data.points[1].weights == (1, -2)
    with pytest.raises(ValueError):
        make_z((0,))
    with pytest.raises(ValueError):
        make_z(())


def test_make_l1():
    for a in (1, 7):
        data = make_l1(a)
        assert data.n == 1
        assert data.points[0].weights == (a,)
        assert data.points[1].weights == (-a,)
        assert data.points[0].sign == data.points[1].sign == 1
    with pytest.raises(ValueError):
        make_l1(0)
    with pytest.raises(ValueError):
        make_l1(-3)


def test_make_s3():
    data = make_s3(1, 1)
    assert data.points[0].weights == (1, 1, -2)
    assert data.points[1].weights == (-1, -1, 2)
    data = make_s3(2, 3)
    assert data.points[0].weights == (2, 3, -5)
    assert data.points[1].weights == (-2, -3, 5)
    with pytest.raises(ValueError):
        make_s3(1, 0)


@pytest.mark.parametrize(
    "make, args",
    [
        (make_z, ((1.5, -2.7),)),
        (make_z, (("1", "2"),)),
        (make_z, ("12",)),
        (make_l1, (2.5,)),
        (make_l1, ("3",)),
        (make_s3, (1.9, 2.2)),
        (make_s3, (1, "2")),
    ],
)
def test_family_constructors_reject_non_integers(make, args):
    # no truncation: 2.5 is refused, not read as 2
    with pytest.raises(ValueError):
        make(*args)


# -- classification -------------------------------------------------------------


def test_classify_families():
    assert classify_two_points(make_s3(2, 5)) == FamilyTag("S3", (2, 5))
    assert classify_two_points(make_z((3, -4))) == FamilyTag("Z", (3, -4))
    assert classify_two_points(make_l1(4)) == FamilyTag("L1", (4,))


def test_classify_not_rigid():
    data = FixedPointData(2, (FixedPoint((1, 2), 1), FixedPoint((-1, -2), 1)))
    assert classify_two_points(data) == FamilyTag("NotRigid")


def test_classify_handles_point_order_and_weight_order():
    data = FixedPointData(3, (FixedPoint((2, -1, -1), 1), FixedPoint((-2, 1, 1), 1)))
    assert classify_two_points(data) == FamilyTag("S3", (1, 1))


def test_classify_negative_sign_variants():
    # both-minus variants satisfy the family definitions (equal signs)
    data = FixedPointData(1, (FixedPoint((2,), -1), FixedPoint((-2,), -1)))
    assert classify_two_points(data) == FamilyTag("L1", (2,))
    assert is_rigid(data).rigid


def test_classify_same_weights_same_signs_is_not_z():
    data = FixedPointData(2, (FixedPoint((1, -1), 1), FixedPoint((1, -1), 1)))
    tag = classify_two_points(data)
    assert tag == FamilyTag("NotRigid")
    assert not is_rigid(data).rigid


def test_classify_rejects_wrong_point_count():
    with pytest.raises(ValueError):
        classify_two_points(FixedPointData(1, (FixedPoint((1,), 1),)))


# -- pairing --------------------------------------------------------------------


def test_pairing_check():
    assert pairing_check(make_s3(1, 2))
    assert pairing_check(make_z((4,)))
    bad = FixedPointData(2, (FixedPoint((1, 2), 1), FixedPoint((-1, -3), 1)))
    assert not pairing_check(bad)
    with pytest.raises(ValueError):
        pairing_check(FixedPointData(1, (FixedPoint((1,), 1),)))


# -- proof replay ----------------------------------------------------------------


def test_replay_s3():
    trace = replay_proof(make_s3(1, 2))
    assert trace.paired and trace.negation_pairing and not trace.max_weight_tie
    assert (trace.k, trace.l) == (1, 2)
    assert trace.a_values == (3,) and trace.b_values == (1, 2)
    assert trace.balance_holds and trace.max_rule_holds
    assert trace.final_form == (1, 2, True)


def test_replay_s3_equal_parameters():
    trace = replay_proof(make_s3(2, 2))
    assert trace.a_values == (4,) and trace.b_values == (2, 2)
    assert trace.balance_holds and trace.max_rule_holds
    assert trace.final_form == (1, 2, True)


def test_replay_l1_shortcut():
    trace = replay_proof(make_l1(4))
    assert trace.n1_shortcut
    assert (trace.k, trace.l) == (1, 0)
    assert trace.a_values == (4,)
    assert trace.balance_holds and trace.max_rule_holds
    assert trace.final_form is None


def test_replay_unbalanced_two_weights():
    data = FixedPointData(2, (FixedPoint((3, -2), 1), FixedPoint((-3, 2), 1)))
    trace = replay_proof(data)
    assert (trace.k, trace.l) == (1, 1)
    assert trace.a_values == (3,) and trace.b_values == (2,)
    assert not trace.balance_holds  # 3 != 2
    assert classify_two_points(data) == FamilyTag("NotRigid")


def test_replay_one_sided_partition():
    data = FixedPointData(2, (FixedPoint((2, 3), 1), FixedPoint((-2, -3), 1)))
    trace = replay_proof(data)
    assert (trace.k, trace.l) == (2, 0)
    assert trace.a_values == (3, 2)
    assert not trace.balance_holds
    assert classify_two_points(data) == FamilyTag("NotRigid")


def test_replay_relabels_to_put_max_in_a_group():
    # the largest magnitude sits at the second point's positive slot
    data = FixedPointData(3, (FixedPoint((1, 2, -3), 1), FixedPoint((-1, -2, 3), 1)))
    trace = replay_proof(data)
    assert trace.a_values == (3,)
    assert trace.b_values == (1, 2)


def test_replay_max_weight_tie():
    data = FixedPointData(2, (FixedPoint((1, -1), 1), FixedPoint((-1, 1), 1)))
    trace = replay_proof(data)
    assert trace.max_weight_tie
    assert not trace.balance_holds
    assert classify_two_points(data) == FamilyTag("NotRigid")


def test_replay_rejects_z_and_unpaired():
    with pytest.raises(ValueError):
        replay_proof(make_z((2, 3)))
    with pytest.raises(ValueError):
        replay_proof(FixedPointData(2, (FixedPoint((1, 2), 1), FixedPoint((-1, -3), 1))))
    with pytest.raises(ValueError):
        replay_proof(FixedPointData(1, (FixedPoint((1,), 1),)))


def test_replay_balance_matches_defect_rule_on_paired_walk():
    # the weight-only balance against the rule it replaces (the y = 0 part
    # of the defect, kept at y = 1, is its x^n coefficient) on every
    # paired non-Z key of the two-point full walk
    keys = balanced = 0
    for n, bound in ((1, 5), (2, 5), (3, 5), (4, 3)):
        for key in paired_keys(SearchParams(n, 2, bound)):
            data = FixedPointData._from_canonical(n, key)
            if pairs_off(data.points):
                continue
            expected = all(n not in c for c in rigidity_defect(data).terms.values())
            assert replay_proof(data).balance_holds == expected, data
            keys += 1
            balanced += expected
    assert (keys, balanced) == (3010, 36)


NEAR_MISS = FixedPointData(3, (FixedPoint((1, 2, -4), 1), FixedPoint((-1, -2, 4), 1)))


@pytest.mark.parametrize(
    "data, status, builds",
    [(NEAR_MISS, 1, 1), (make_l1(4), 0, 0), (make_s3(1, 2), 0, 0), (make_z((2, 3)), 0, 0)],
)
def test_cli_classify_builds_at_most_one_defect(capsys, monkeypatch, data, status, builds):
    calls = []

    def counting(datum):
        calls.append(datum)
        return rigidity_defect(datum)

    monkeypatch.setattr(classify, "rigidity_defect", counting)
    monkeypatch.setattr(genera, "rigidity_defect", counting)
    points = [{"weights": list(p.weights), "sign": p.sign} for p in data.points]
    doc = {"n": data.n, "points": points}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert main(["classify", "-"]) == status
    report = json.loads(capsys.readouterr().out)
    assert (report["proof"] is None) == (report["family"]["kind"] == "Z")
    assert len(calls) == builds


# -- family invariants ------------------------------------------------------------


def test_l1_family_invariant():
    for a in range(1, 11):
        assert classify_two_points(make_l1(a)) == FamilyTag("L1", (a,))
        report = is_rigid(make_l1(a))
        assert report.rigid and report.constant == X - Y


def test_s3_family_invariant():
    for a in range(1, 5):
        for b in range(1, 5):
            assert classify_two_points(make_s3(a, b)) == FamilyTag(
                "S3", tuple(sorted((a, b)))
            )
            report = is_rigid(make_s3(a, b))
            assert report.rigid and report.constant == X * Y * Y - X * X * Y


def test_rigid_non_z_satisfies_negation_dichotomy():
    # within a small exhaustive range, every rigid non-Z two-point datum
    # pairs each weight with its exact negative at the other point
    for n in (1, 2, 3):
        for data in enumerate_data(SearchParams(n=n, m=2, max_abs_weight=3)):
            report = is_rigid(data)
            if not report.rigid:
                continue
            tag = classify_two_points(data)
            assert tag.kind in ("Z", "L1", "S3")
            if tag.kind != "Z":
                p1, p2 = data.points
                assert Counter(p1.weights) == Counter(-w for w in p2.weights)
