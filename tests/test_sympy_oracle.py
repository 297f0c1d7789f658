"""Third, independent oracle: sympy cancels the fixed-point sum minus the
Atiyah-Hirzebruch constant as a rational function in x, y and z, sharing
no code with the z-domain kernel or the series back-end."""

import random

import pytest

from conftest import random_data
from txyrigid.classify import make_l1, make_s3, make_z
from txyrigid.genera import is_rigid
from txyrigid.search import SearchParams, enumerate_data, prune

sympy = pytest.importorskip("sympy")

X, Y, Z = sympy.symbols("x y z")


def sympy_rigid(data) -> bool:
    total = 0
    for p in data.points:
        term = sympy.Integer(p.sign)
        for w in p.weights:
            term *= (X * Z**w + Y) / (Z**w - 1)
        plus = sum(1 for w in p.weights if w > 0)
        total += term - p.sign * X**plus * (-Y) ** (data.n - plus)
    return sympy.cancel(total) == 0


def corpus():
    data = [make_l1(a) for a in (1, 2, 5)]
    data += [make_s3(a, b) for a, b in ((1, 1), (1, 2), (2, 3))]
    data += [make_z(ws) for ws in ((1,), (2, -1), (1, -2, 3))]
    rng = random.Random(2024)
    for n in (1, 2, 3):
        survivors = [d for d in enumerate_data(SearchParams(n=n, m=2, max_abs_weight=5)) if prune(d)]
        data += survivors if n < 3 else rng.sample(survivors, 20)
    data += [random_data(rng, max_abs=4, n_max=3, m_max=3) for _ in range(20)]
    return data


def test_sympy_cancel_agrees_with_is_rigid():
    data = corpus()
    verdicts = [is_rigid(d).rigid for d in data]
    assert any(verdicts) and not all(verdicts)
    disagreements = [d for d, rigid in zip(data, verdicts) if sympy_rigid(d) != rigid]
    assert disagreements == []
