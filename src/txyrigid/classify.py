"""The three rigid two-point families, the classifier, and a step-by-step
replay of the argument that pins two-point rigid data down to them.

Families (all with exactly two fixed points):

* Z   - both points carry the same weights, opposite signs; such data is
        null-cobordant and trivially rigid with constant 0.
* L1  - n = 1, weights (a) and (-a) with a > 0, equal signs; rigid with
        constant x - y.
* S3  - n = 3, weights (a, b, -(a+b)) and (-a, -b, a+b) with a, b > 0,
        equal signs; rigid with constant x*y^2 - x^2*y.

For two-point data outside family Z the matched weights must be exact
negatives of each other; splitting the lead point's weights into the
positive group (a-values) and the magnitudes of the negative group
(b-values) gives the chain of conditions replayed by ``replay_proof``:
equal group sums, then k * max = sum of the b-values, forcing k = 1,
l = 2 and max = b1 + b2, which is exactly the S3 shape.

The replay reads the weights only.  The one exact check in this module is
the fallback of ``classify_two_points``, for data that matches no family;
it decides NotRigid against RigidUnclassified and reads nothing of the
defect but whether it is zero.
"""

from __future__ import annotations

from operator import index
from typing import Optional, Sequence

from .algebra import Record, _set
from .genera import FixedPoint, FixedPointData, pairs_off, rigidity_defect


class FamilyTag(Record):
    """Classification outcome for two-point data.

    ``kind`` is one of "Z", "L1", "S3", "NotRigid", "RigidUnclassified";
    RigidUnclassified marks rigid data outside the three families and is
    never expected to occur.
    """

    def __init__(self, kind: str, params: tuple[int, ...] = ()):
        _set(self, "kind", kind)
        _set(self, "params", params)


NOT_RIGID = FamilyTag("NotRigid")
RIGID_UNCLASSIFIED = FamilyTag("RigidUnclassified")


def _positive(*values: int) -> tuple[int, ...]:
    """The family parameters as ints, refusing non-integers and values below 1."""
    try:
        values = tuple(map(index, values))
    except TypeError:
        raise ValueError("family parameters must be integers") from None
    if min(values) <= 0:
        raise ValueError("family parameters must be positive")
    return values


def make_z(weights: Sequence[int]) -> FixedPointData:
    """Family Z data: two points with identical weights and opposite signs."""
    weights = tuple(weights)
    return FixedPointData(
        len(weights), (FixedPoint(weights, 1), FixedPoint(weights, -1))
    )


def make_l1(a: int) -> FixedPointData:
    """Family L1 data: n = 1, weights (a) and (-a), equal signs."""
    (a,) = _positive(a)
    return FixedPointData(1, (FixedPoint((a,), 1), FixedPoint((-a,), 1)))


def make_s3(a: int, b: int) -> FixedPointData:
    """Family S3 data: n = 3, weights (a, b, -(a+b)) and (-a, -b, a+b)."""
    a, b = _positive(a, b)
    return FixedPointData(
        3,
        (FixedPoint((a, b, -(a + b)), 1), FixedPoint((-a, -b, a + b), 1)),
    )


def _require_two_points(data: FixedPointData) -> tuple[FixedPoint, FixedPoint]:
    if data.m != 2:
        raise ValueError(f"exactly two fixed points required, got {data.m}")
    return data.points[0], data.points[1]


def pairing_check(data: FixedPointData) -> bool:
    """Whether the two points carry the same weight magnitudes (as
    multisets) - a necessary condition for two-point rigidity."""
    p1, p2 = _require_two_points(data)
    return sorted(abs(w) for w in p1.weights) == sorted(abs(w) for w in p2.weights)


def classify_two_points(data: FixedPointData) -> FamilyTag:
    """Match two-point data against the families Z, L1, S3 exactly; data in
    no family is split by the exact rigidity check into NotRigid and
    RigidUnclassified."""
    p1, p2 = _require_two_points(data)
    if pairs_off(data.points):
        plus = p1 if p1.sign == 1 else p2
        return FamilyTag("Z", tuple(sorted(plus.weights, reverse=True)))
    if p1.sign == p2.sign:
        if data.n == 1 and p2.weights[0] == -p1.weights[0]:
            return FamilyTag("L1", (abs(p1.weights[0]),))
        if data.n == 3:
            for lead, other in ((p1, p2), (p2, p1)):
                positive = sorted(w for w in lead.weights if w > 0)
                negative = [w for w in lead.weights if w < 0]
                if (
                    len(positive) == 2
                    and len(negative) == 1
                    and negative[0] == -(positive[0] + positive[1])
                    and sorted(other.weights) == sorted(-w for w in lead.weights)
                ):
                    return FamilyTag("S3", (positive[0], positive[1]))
    if rigidity_defect(data).is_zero():
        return RIGID_UNCLASSIFIED
    return NOT_RIGID


class ProofTrace(Record):
    """Record of the two-point classification argument on one candidate.

    ``a_values`` are the lead point's positive weights (largest first) and
    ``b_values`` the magnitudes of its negative weights (smallest first),
    after relabeling the points so the largest magnitude sits among the
    a-values; k and l are the group sizes, k + l = n.

    ``balance_holds`` is the y = 0 specialization of the rigidity identity,
    decided in closed form from the weights.  Paired points share the
    denominator D = prod (z^a - 1) over their magnitudes, and at y = 0 the
    identity reads

        sum_i e_i (-1)^{s-_i} z^{A_i} = S * D,

    with A_i the sum of point i's positive weights and S the sum of the
    signs of the points with no negative weight.  For n >= 2, D vanishes
    to order n at z = 1, while a nonzero sum of at most two monomials
    vanishes there to order at most 1; so both sides are zero.  The
    monomials cancel: A_1 = A_2 and e_1 (-1)^{s-_1} = -e_2 (-1)^{s-_2}
    (equal group sums plus the matching sign condition).  Paired points
    share sum |w|, so A_1 = A_2 is equality of the weight sums, and it
    leaves either both points or neither with a negative weight; outside
    family Z "neither" means equal signs, which the sign condition
    rejects, so S = 0 follows.  For n = 1 the identity holds exactly on
    the L1 shape.  The trace never consults the exact check.

    ``max_rule_holds`` checks k * max = sum of b-values.  ``final_form`` is
    (k, l, shape-ok) for n > 1, where shape-ok means k = 1, l = 2 and
    max = b1 + b2; for n = 1 the argument stops early (``n1_shortcut``)
    and final_form is None.
    """

    def __init__(
        self, paired: bool, negation_pairing: bool, max_weight_tie: bool, n1_shortcut: bool,
        k: int, l: int, a_values: tuple[int, ...], b_values: tuple[int, ...],
        balance_holds: bool, max_rule_holds: bool, final_form: Optional[tuple[int, int, bool]],
    ):
        _set(self, "paired", paired)
        _set(self, "negation_pairing", negation_pairing)
        _set(self, "max_weight_tie", max_weight_tie)
        _set(self, "n1_shortcut", n1_shortcut)
        _set(self, "k", k)
        _set(self, "l", l)
        _set(self, "a_values", a_values)
        _set(self, "b_values", b_values)
        _set(self, "balance_holds", balance_holds)
        _set(self, "max_rule_holds", max_rule_holds)
        _set(self, "final_form", final_form)


def replay_proof(data: FixedPointData) -> ProofTrace:
    """Replay the two-point classification argument on non-Z paired data.

    Rejects data with m != 2, data whose weight magnitudes do not match,
    and family Z data (the argument does not apply there).  The recorded
    conditions must all hold for rigid data; for non-rigid data they may
    fail in any pattern.  The trace is computed from the weights alone and
    builds no defect; the verdict always comes from the exact check in
    ``classify_two_points``, never from this trace.
    """
    p1, p2 = _require_two_points(data)
    if not pairing_check(data):
        raise ValueError("the two points carry different weight magnitudes")
    if pairs_off(data.points):
        raise ValueError("family Z data: the non-Z branch does not apply")

    negation_pairing = sorted(p1.weights) == sorted(-w for w in p2.weights)

    big = max(abs(w) for w in p1.weights)
    lead = p1
    if big not in p1.weights and big in p2.weights:
        lead = p2  # put the largest magnitude into the positive group
    a_values = tuple(sorted((w for w in lead.weights if w > 0), reverse=True))
    b_values = tuple(sorted(-w for w in lead.weights if w < 0))
    k, l = len(a_values), len(b_values)
    max_weight_tie = big in a_values and big in b_values

    n1_shortcut = data.n == 1
    if n1_shortcut:
        # balance is the L1 shape; the chain below is skipped for n = 1
        balance_holds = p1.sign == p2.sign and p1.weights[0] == -p2.weights[0]
        max_rule_holds = True
        final_form = None
    else:
        # the y = 0 identity in closed form (see ProofTrace), with the sign
        # condition e_1 (-1)^{s-_1} = -e_2 (-1)^{s-_2} written as a product
        balance_holds = sum(p1.weights) == sum(p2.weights) and (
            p1.sign * p2.sign == (-1) ** (p1.s_minus + p2.s_minus + 1)
        )
        top = a_values[0] if a_values else 0
        max_rule_holds = k >= 1 and k * top == sum(b_values)
        final_form = (k, l, k == 1 and l == 2 and top == sum(b_values))
    return ProofTrace(
        paired=True,
        negation_pairing=negation_pairing,
        max_weight_tie=max_weight_tie,
        n1_shortcut=n1_shortcut,
        k=k,
        l=l,
        a_values=a_values,
        b_values=b_values,
        balance_holds=balance_holds,
        max_rule_holds=max_rule_holds,
        final_form=final_form,
    )
