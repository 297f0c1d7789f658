"""The package's value types are immutable records (``algebra.Record``):
fixed fields in the order of their constructors, equality within one
class, hashing over the fields, pickling, dataclass-style reprs, and an
import that loads no ``dataclasses``."""

import copy
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from txyrigid import (
    FamilyTag,
    FixedPoint,
    FixedPointData,
    GenusExpansion,
    GenusReport,
    GenusSeries,
    ProofTrace,
    SearchOutcome,
    SearchParams,
    SearchResult,
    SearchSummary,
    SeriesU,
    is_rigid,
    replay_proof,
    search_rigid,
)
from txyrigid.algebra import PolyXY

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

S3_DATA = FixedPointData(3, (FixedPoint((1, 2, -3), 1), FixedPoint((-1, -2, 3), 1)))
# (2) and (3) with opposite signs: not rigid, a nonzero defect
NOT_RIGID = FixedPointData(1, (FixedPoint((2,), 1), FixedPoint((3,), -1)))

# each type's fields in the order of its constructor's parameters
FIELDS = {
    SeriesU: ("lowest", "coeffs"),
    FixedPoint: ("weights", "sign"),
    FixedPointData: ("n", "points"),
    GenusReport: ("defect", "ah_constant", "limits_symmetric", "weight_gcd"),
    FamilyTag: ("kind", "params"),
    ProofTrace: (
        "paired", "negation_pairing", "max_weight_tie", "n1_shortcut", "k", "l",
        "a_values", "b_values", "balance_holds", "max_rule_holds", "final_form",
    ),
    SearchParams: ("n", "m", "max_abs_weight", "sign_patterns", "require_effective"),
    SearchResult: ("data", "report", "family"),
    SearchSummary: ("candidates", "checked", "rigid"),
    SearchOutcome: ("results", "summary"),
    GenusSeries: ("name", "regular_coeffs"),
    GenusExpansion: ("lowest", "denominator", "rows"),
}

# the types whose fields may hold a PolyXY or a PackedDefect, neither of
# which is hashable
UNHASHABLE = {SeriesU, GenusReport, SearchResult, SearchOutcome}


def sample(cls):
    """One value of cls, built afresh on every call."""
    return {
        SeriesU: lambda: SeriesU(-1, (PolyXY({(1, 0): 1}), PolyXY({}))),
        FixedPoint: lambda: FixedPoint((1, 2, -3), 1),
        FixedPointData: lambda: FixedPointData(1, (FixedPoint((2,), 1), FixedPoint((-2,), 1))),
        GenusReport: lambda: is_rigid(NOT_RIGID),
        FamilyTag: lambda: FamilyTag("S3", (1, 2)),
        ProofTrace: lambda: replay_proof(S3_DATA),
        SearchParams: lambda: SearchParams(2, 2, 3, ((1, -1),), True),
        SearchResult: lambda: SearchResult(NOT_RIGID, is_rigid(NOT_RIGID), None),
        SearchSummary: lambda: SearchSummary(10, 4, 1),
        SearchOutcome: lambda: search_rigid(SearchParams(1, 2, 2)),
        GenusSeries: lambda: GenusSeries("g", regular_coeffs=[1, Fraction(1, 2)]),
        GenusExpansion: lambda: GenusExpansion(-1, 6, (((0, 1), (3, -4)), ((1, 0), (0, 6)))),
    }[cls]()


TYPES = pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)


@TYPES
def test_fields_follow_the_constructor(cls):
    value = sample(cls)
    fields = FIELDS[cls]
    assert cls._fields == fields
    values = [getattr(value, name) for name in fields]
    assert cls(*values) == value
    assert cls(**dict(zip(fields, values))) == value


@TYPES
def test_fields_refuse_assignment_and_deletion(cls):
    value = sample(cls)
    for name in (*FIELDS[cls], "unknown"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == sample(cls)


@TYPES
def test_equality_holds_within_one_class(cls):
    value = sample(cls)
    assert value == sample(cls) and not value != sample(cls)
    as_tuple = tuple(getattr(value, name) for name in FIELDS[cls])
    assert value != as_tuple and as_tuple != value
    assert all(value != sample(other) for other in FIELDS if other is not cls)


def test_equality_compares_the_fields():
    assert FamilyTag("Z", (1,)) != ("Z", (1,))
    assert FamilyTag("Z", (1,)) != FamilyTag("Z", (2,))
    assert FamilyTag("Z", (1,)) != FamilyTag("L1", (1,))
    assert SearchSummary(1, 2, 3) != SearchSummary(1, 2, 4)


@TYPES
def test_equal_records_hash_equal(cls):
    value = sample(cls)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(sample(cls))
        assert len({value, sample(cls)}) == 1


def test_genus_report_stays_unhashable_through_its_defect():
    report = is_rigid(NOT_RIGID)
    with pytest.raises(TypeError, match="PackedDefect"):
        hash(GenusReport(report.defect, 0, True, 1))


@TYPES
def test_records_survive_pickle_and_copy(cls):
    value = sample(cls)
    for restored in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(restored) is cls and restored == value
        with pytest.raises(AttributeError):
            setattr(restored, FIELDS[cls][0], None)


def test_pickled_search_result_keeps_a_nonzero_defect():
    result = sample(SearchResult)
    assert not result.report.defect.is_zero()
    restored = pickle.loads(pickle.dumps(result))
    assert restored == result
    assert restored.report.defect.terms == result.report.defect.terms != {}


@TYPES
def test_repr_has_the_dataclass_format(cls):
    value = sample(cls)
    fields = ", ".join(f"{name}={getattr(value, name)!r}" for name in FIELDS[cls])
    assert repr(value) == f"{cls.__name__}({fields})"


def test_repr_examples():
    assert repr(FamilyTag("S3", (1, 2))) == "FamilyTag(kind='S3', params=(1, 2))"
    assert repr(SearchSummary(10, 4, 1)) == "SearchSummary(candidates=10, checked=4, rigid=1)"
    assert repr(FixedPoint((1, -1), -1)) == "FixedPoint(weights=(1, -1), sign=-1)"
    assert repr(GenusSeries("g", regular_coeffs=[1])) == (
        "GenusSeries(name='g', regular_coeffs=(Fraction(1, 1),))"
    )


def test_keyword_construction_and_defaults():
    params = SearchParams(n=2, m=2, max_abs_weight=3)
    assert (params.sign_patterns, params.require_effective) == (None, False)
    assert params == SearchParams(2, 2, 3, None, False)
    assert FamilyTag("NotRigid").params == ()
    genus = GenusSeries("g", regular_coeffs=[1])
    assert (genus.symbolic, genus.regular_coeffs) == (False, (Fraction(1),))
    assert GenusSeries("todd").regular_coeffs is None
    assert list(vars(replay_proof(S3_DATA))) == list(FIELDS[ProofTrace])


# each derived attribute, a value of its type, and what it must read there
DERIVED = {
    "order": ("order", lambda: sample(SeriesU), 1),
    "order-empty": ("order", lambda: SeriesU(3, ()), 3),
    "order-expansion": ("order", lambda: sample(GenusExpansion), 1),
    "coeffs-expansion": (
        "coeffs",
        lambda: sample(GenusExpansion),
        (PolyXY({(0, 1): Fraction(1, 2)}), PolyXY({(0, 1): Fraction(-2, 3), (1, 0): 1})),
    ),
    "rigid-false": ("rigid", lambda: is_rigid(NOT_RIGID), False),
    "constant-none": ("constant", lambda: is_rigid(NOT_RIGID), None),
    "rigid-true": ("rigid", lambda: is_rigid(S3_DATA), True),
    "constant": ("constant", lambda: is_rigid(S3_DATA), PolyXY({(1, 2): 1, (2, 1): -1})),
    "symbolic-txy": ("symbolic", lambda: GenusSeries("txy"), True),
    "symbolic-todd": ("symbolic", lambda: GenusSeries("todd"), False),
    # a listed genus is a rational one; a built-in name refuses a list
    "symbolic-listed": ("symbolic", lambda: GenusSeries("g", [1]), False),
}


@pytest.mark.parametrize("name, build, expected", list(DERIVED.values()), ids=list(DERIVED))
def test_derived_attributes_read_from_the_fields(name, build, expected):
    value = build()
    assert name not in type(value)._fields
    assert getattr(value, name) == expected
    with pytest.raises(AttributeError):
        setattr(value, name, expected)
    assert getattr(pickle.loads(pickle.dumps(value)), name) == expected


def test_a_builtin_genus_refuses_a_coefficient_list():
    # a listed genus under a built-in name would be a rational genus that
    # the CLI cannot express and that differs from the built-in one
    for name, coeffs in (("txy", [1]), ("todd", [5]), ("todd", [])):
        with pytest.raises(ValueError):
            GenusSeries(name, coeffs)
        with pytest.raises(ValueError):
            GenusSeries(name, regular_coeffs=coeffs)


def test_derived_attributes_are_not_parameters():
    with pytest.raises(TypeError):
        GenusSeries("txy", symbolic=True)
    with pytest.raises(TypeError):
        SeriesU(-1, 1, (PolyXY({}), PolyXY({})))
    report = is_rigid(S3_DATA)
    with pytest.raises(TypeError):
        GenusReport(True, report.ah_constant, report.defect, report.ah_constant, True, 1)


def test_a_missing_field_is_a_type_error():
    trace = replay_proof(S3_DATA)
    kwargs = {name: getattr(trace, name) for name in FIELDS[ProofTrace]}
    del kwargs["final_form"]
    with pytest.raises(TypeError):
        ProofTrace(**kwargs)
    with pytest.raises(TypeError):
        FamilyTag()


def test_cli_import_loads_no_dataclasses():
    # a fresh interpreter: the package's import adds none of the modules
    # that dataclasses brings in
    script = (
        "import json, sys; before = set(sys.modules); import txyrigid.cli;"
        " print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert "txyrigid.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis"}
