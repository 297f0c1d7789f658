import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

from fractions import Fraction

from conftest import assert_series_output_matches_reference, result_reference
from txyrigid.classify import make_l1, make_s3, make_z
from txyrigid.cli import main
from txyrigid.genera import FixedPoint, FixedPointData
from txyrigid.series import TODD, TXY, GenusSeries


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def child_env():
    """The environment for a `python -m txyrigid` child: pytest's own
    pythonpath setting does not reach subprocesses, so put src/ first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def document(n, points, **extra):
    doc = {
        "n": str(n),
        "points": [
            {"weights": [str(w) for w in ws], "sign": str(s)} for ws, s in points
        ],
    }
    doc.update(extra)
    return json.dumps(doc)


S3_12 = document(3, [((1, 2, -3), 1), ((-1, -2, 3), 1)])
L1_4 = document(1, [((4,), 1), ((-4,), 1)])
Z_23 = document(2, [((2, 3), 1), ((2, 3), -1)])
NOT_RIGID = document(2, [((1, 2), 1), ((-1, -2), 1)])
# a bad value far longer than any diagnostic may echo
LONG_BAD = "1" * 4999 + "x"
LONG_SHOWN = "'" + "1" * 40 + "'... (5000 characters)"


# -- verify -------------------------------------------------------------------


def test_verify_s3(capsys, tmp_path):
    doc = tmp_path / "s3.json"
    doc.write_text(S3_12)
    status, out, _ = run_cli(capsys, ["verify", str(doc)])
    assert status == 0
    report = json.loads(out)
    assert report["rigid"] is True
    assert report["constant"] == [
        {"x": 1, "y": 2, "coeff": "1"},
        {"x": 2, "y": 1, "coeff": "-1"},
    ]
    assert report["constant_pretty"] == "x*y^2 - x^2*y"
    assert report["defect_terms"] == 0


def test_verify_z_constant_is_empty_list(capsys, monkeypatch):
    status, out, _ = run_cli(capsys, ["verify", "-"], stdin=Z_23, monkeypatch=monkeypatch)
    assert status == 0
    report = json.loads(out)
    assert report["rigid"] is True
    assert report["constant"] == []


def test_verify_not_rigid_exits_one(capsys, monkeypatch):
    status, out, _ = run_cli(capsys, ["verify", "-"], stdin=NOT_RIGID, monkeypatch=monkeypatch)
    assert status == 1
    report = json.loads(out)
    assert report["rigid"] is False
    assert report["constant"] is None
    assert report["defect_terms"] > 0


@pytest.mark.parametrize(
    "doc, terms",
    [
        (NOT_RIGID, 2),
        # a paired near miss: z-exponents 0 .. 5; the top one, 6, cancels
        (document(3, [((1, -2, 3), 1), ((-1, 2, 3), 1)]), 6),
        # the one-int defect would have 3.2 * 10^10 bits, so it is kept per
        # z-exponent: (1 + x) (z^a + z^(a - 1) - 2) for a = 10^9 + 7
        (document(1, [((10**9 + 7,), 1), ((10**9 + 6,), 1)]), 3),
    ],
)
def test_verify_counts_defect_terms(capsys, monkeypatch, doc, terms):
    status, out, _ = run_cli(capsys, ["verify", "-"], stdin=doc, monkeypatch=monkeypatch)
    assert status == 1
    assert json.loads(out)["defect_terms"] == terms


def test_verify_zero_weight_is_input_error(capsys, monkeypatch):
    bad = document(1, [((0,), 1), ((1,), 1)])
    status, out, err = run_cli(capsys, ["verify", "-"], stdin=bad, monkeypatch=monkeypatch)
    assert status == 2
    assert "points[0].weights[0]" in err


@pytest.mark.parametrize(
    "field, text",
    [
        ("weights", "1_000"),  # digit-group separators
        ("weights", "\u0661\u0662"),  # Arabic-Indic digits for 12
        ("weights", "\uff11"),  # fullwidth digit one
        ("weights", "0x10"),
        ("weights", "1e3"),
        ("weights", "++1"),
        ("weights", ""),
        ("sign", "\u0661"),
        ("coefficients", "1_0/3"),
        ("coefficients", "\u0661/\u0662"),
        ("coefficients", "1.5"),
        ("coefficients", "1/-2"),
        ("coefficients", "1/0"),
        pytest.param("weights", LONG_BAD, id="weights-long"),
        pytest.param("sign", LONG_BAD, id="sign-long"),
        pytest.param("coefficients", LONG_BAD, id="coefficients-long"),
        # within the interpreter's digit limit, so the denominator is read
        pytest.param("coefficients", "1" * 4000 + "/0", id="coefficients-long-zero"),
    ],
)
def test_non_decimal_strings_are_input_errors(capsys, monkeypatch, field, text):
    point = {"weights": ["1"], "sign": "1"}
    doc = {"n": "1", "points": [point, {"weights": ["-1"], "sign": "1"}]}
    command = "verify"
    if field == "coefficients":
        doc["genus"] = {"name": "custom", "coefficients": ["1/2", text]}
        command = "series"
    else:
        point[field] = [text] if field == "weights" else text
    status, out, err = run_cli(
        capsys, [command, "-"], stdin=json.dumps(doc), monkeypatch=monkeypatch
    )
    assert status == 2 and out == ""
    assert field in err
    # one line, which shows a long value cut to 40 characters and its length
    assert err.count("\n") == 1 and len(err.encode()) <= 200


def test_decimal_strings_keep_sign_and_fraction_forms(capsys, monkeypatch):
    doc = document(1, [(("+4",), "+1"), (("-4",), " 1 ")])
    doc = json.loads(doc)
    doc["genus"] = {"name": "custom", "coefficients": ["-1/2", " +3/4 ", "0"]}
    status, out, _ = run_cli(capsys, ["series", "-"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert status == 0
    assert json.loads(out)["verdict"] == "constant"


POWERS_17 = [2**i for i in range(17)]


@pytest.mark.parametrize(
    "doc, status, terms",
    [
        # (1, 2)+ and (2, 1)- cancel; (1, 3)+ is left, so the full defect
        (document(2, [((1, 2), 1), ((2, 1), -1), ((1, 3), 1)]), 1, 4),
        # equal signs add up, so nothing cancels
        (document(2, [((1, 2), 1), ((2, 1), 1)]), 1, 3),
        # everything cancels and nothing is expanded: the full defect's
        # work estimate, 120324096, is past the guard
        (document(17, [(POWERS_17, 1), (POWERS_17, -1)]), 0, 0),
    ],
    ids=["one-pair-cancels", "equal-signs", "z-past-the-work-guard"],
)
def test_verify_cancels_z_sub_pairs(capsys, monkeypatch, doc, status, terms):
    code, out, _ = run_cli(capsys, ["verify", "-"], stdin=doc, monkeypatch=monkeypatch)
    report = json.loads(out)
    assert code == status and report["rigid"] is (status == 0)
    assert report["defect_terms"] == terms
    if status == 0:
        assert report["constant"] == []


def test_verify_work_guard_exits_two_fast(capsys, monkeypatch):
    # two points with the 30 distinct weights 2^0..2^29 would take hours
    weights = [2**i for i in range(30)]
    doc = document(30, [(weights, 1), ([-w for w in weights], 1)])
    start = time.perf_counter()
    status, out, err = run_cli(capsys, ["verify", "-"], stdin=doc, monkeypatch=monkeypatch)
    assert time.perf_counter() - start < 1.0
    assert status == 2 and out == ""
    assert "work estimate" in err and "exceeds the bound" in err


def test_verify_work_guard_on_many_points_exits_two_fast(capsys, monkeypatch):
    # the guard runs before any point's missing factors are listed, work
    # that grows with the points times their distinct magnitudes
    doc = document(1, [((w,), 1) for w in range(1, 20001)])
    start = time.perf_counter()
    status, out, err = run_cli(capsys, ["verify", "-"], stdin=doc, monkeypatch=monkeypatch)
    assert time.perf_counter() - start < 1.0
    assert (status, out) == (2, "")
    assert err.startswith("error: defect work estimate ") and "exceeds the bound 67108864" in err
    # the series cross-check's exact check refuses the same way
    doc = document(1, [((w,), 1) for w in range(1, 5001)])
    start = time.perf_counter()
    argv = ["series", "-", "--order", "2"]
    status, out, err = run_cli(capsys, argv, stdin=doc, monkeypatch=monkeypatch)
    assert time.perf_counter() - start < 1.0
    assert (status, out) == (2, "")
    assert err.startswith("error: defect work estimate ")


def test_series_work_guard_exits_two_fast(capsys, monkeypatch):
    weights = [2**i for i in range(30)]
    doc = document(30, [(weights, 1), ([-w for w in weights], 1)])
    start = time.perf_counter()
    status, out, err = run_cli(
        capsys, ["series", "-", "--order", "31"], stdin=doc, monkeypatch=monkeypatch
    )
    assert time.perf_counter() - start < 1.0
    assert status == 2 and out == ""
    assert "series work estimate" in err and "exceeds the bound" in err


def test_series_guards_see_points_that_pair_off(capsys, monkeypatch):
    # a Z pair is refused by the work guard at n = 15, order 16, and by the
    # size guard at weight 10^30, before its points are grouped away
    weights = [2**i for i in range(15)]
    a = 10**30 + 7
    for doc, message in (
        (
            document(15, [(weights, 1), (weights, -1)], order=16),
            "series work estimate 1297920 monomial products exceeds the bound 1048576",
        ),
        (
            document(2, [((a, a + 2), 1), ((a + 2, a), -1)], order=200),
            "series size estimate 20504 bits per coefficient exceeds the bound 16384",
        ),
    ):
        status, out, err = run_cli(capsys, ["series", "-"], stdin=doc, monkeypatch=monkeypatch)
        assert (status, out, err) == (2, "", f"error: {message}\n")


def test_series_size_guard_exits_two_fast(capsys, monkeypatch):
    # weights of 31, 301 and 3,001 digits at order 200, whose expansion
    # takes from a second to minutes
    for exponent in (30, 300, 3000):
        a = 10**exponent + 7
        doc = document(2, [((a, a + 2), 1), ((-a, a + 2), 1)], order=200)
        start = time.perf_counter()
        status, out, err = run_cli(capsys, ["series", "-"], stdin=doc, monkeypatch=monkeypatch)
        assert time.perf_counter() - start < 0.1
        assert status == 2 and out == ""
        assert "series size estimate" in err and "bits per coefficient exceeds the bound 16384" in err


def test_series_past_the_print_limit_names_the_coefficient(capsys, monkeypatch):
    # admitted by the size guard, but the u^195 coefficient has an integer
    # longer than the interpreter prints by default: refused before the
    # 0.7 s expansion, by the estimate plus the Bernoulli allowance
    a = 10**21 + 7
    doc = document(2, [((a, a + 2), 1), ((-a, a + 2), 1)], order=200)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        start = time.perf_counter()
        status, out, err = run_cli(capsys, ["series", "-"], stdin=doc, monkeypatch=monkeypatch)
        elapsed = time.perf_counter() - start
    finally:
        sys.set_int_max_str_digits(limit)
    assert elapsed < 0.1
    assert status == 2 and out == ""
    assert err == (
        "error: series size estimate 14354 bits plus 1254 for the Bernoulli coefficients"
        " exceeds 14280 bits, the interpreter's limit of 4300 digits for integer strings\n"
    )


def test_series_print_backstop_names_the_coefficient(capsys, monkeypatch):
    # with the up-front estimate forced to 0, the report's own conversion
    # still fails cleanly and names the coefficient
    from txyrigid import series

    monkeypatch.setattr(series, "_size_estimate", lambda *args: 0)
    a = 10**21 + 7
    doc = document(2, [((a, a + 2), 1), ((-a, a + 2), 1)], order=200)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        status, out, err = run_cli(capsys, ["series", "-"], stdin=doc, monkeypatch=monkeypatch)
    finally:
        sys.set_int_max_str_digits(limit)
    assert status == 2 and out == ""
    assert err == (
        "error: series: the u^195 coefficient has an integer of more than 4300 digits,"
        " the interpreter's limit for integer strings\n"
    )


def test_series_print_limit_off_admits_the_report(capsys, monkeypatch):
    # a limit of 0 means no limit: 10^20 at order 200 runs and prints
    a = 10**20 + 7
    doc = document(2, [((a, a + 2), 1), ((-a, a + 2), 1)], order=200)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        status, out, _ = run_cli(capsys, ["series", "-"], stdin=doc, monkeypatch=monkeypatch)
    finally:
        sys.set_int_max_str_digits(limit)
    assert status in (0, 1) and json.loads(out)["command"] == "series"


def test_verify_malformed_json_reports_position(capsys, monkeypatch):
    status, _, err = run_cli(capsys, ["verify", "-"], stdin="{nope", monkeypatch=monkeypatch)
    assert status == 2
    assert "input:1:" in err


def test_verify_deeply_nested_json_exits_two(capsys, monkeypatch):
    # the decoder's recursion limit is an input error, not a crash (exit 1)
    text = "[" * 100_000 + "]" * 100_000
    status, out, err = run_cli(capsys, ["verify", "-"], stdin=text, monkeypatch=monkeypatch)
    assert status == 2 and out == ""
    assert err == "error: input: the document nests too deeply\n"


def test_input_that_is_not_utf8_exits_two(capsys, monkeypatch, tmp_path):
    path = tmp_path / ("x" * 50 + ".bin")
    path.write_bytes(b"\xff" + Z_23.encode())
    status, out, err = run_cli(capsys, ["verify", str(path)])
    assert status == 2 and out == ""
    shown = str(path)[:40] + f"... ({len(str(path))} characters)"
    assert err == f"error: input: {shown} is not UTF-8 text (byte 0)\n"
    stdin = io.TextIOWrapper(io.BytesIO(b"{\n \xe9}"), encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stdin", stdin)
    status, out, err = run_cli(capsys, ["verify", "-"])
    assert status == 2 and out == ""
    assert err == "error: input: stdin is not UTF-8 text (byte 3)\n"


def test_verify_table_format(capsys, monkeypatch):
    status, out, _ = run_cli(
        capsys, ["verify", "-", "--format", "table"], stdin=L1_4, monkeypatch=monkeypatch
    )
    assert status == 0
    assert "rigid" in out and "True" in out


# -- classify -----------------------------------------------------------------


def test_classify_l1(capsys, monkeypatch):
    status, out, _ = run_cli(capsys, ["classify", "-"], stdin=L1_4, monkeypatch=monkeypatch)
    assert status == 0
    report = json.loads(out)
    assert report["family"] == {"kind": "L1", "params": [4]}
    assert report["rigid"] is True
    assert report["proof"]["n1_shortcut"] is True


def test_classify_unpaired_is_not_rigid(capsys, monkeypatch):
    doc = document(1, [((3,), 1), ((-2,), 1)])
    status, out, _ = run_cli(capsys, ["classify", "-"], stdin=doc, monkeypatch=monkeypatch)
    assert status == 1
    report = json.loads(out)
    assert report["family"]["kind"] == "NotRigid"
    assert report["rigid"] is False
    assert report["proof"] is None


def test_classify_s3_with_full_trace(capsys, monkeypatch):
    doc = document(3, [((2, 2, -4), 1), ((-2, -2, 4), 1)])
    status, out, _ = run_cli(capsys, ["classify", "-"], stdin=doc, monkeypatch=monkeypatch)
    assert status == 0
    report = json.loads(out)
    assert report["family"] == {"kind": "S3", "params": [2, 2]}
    assert report["rigid"] is True
    proof = report["proof"]
    assert proof["balance_holds"] and proof["max_rule_holds"]
    assert proof["final_form"] == {"k": 1, "l": 2, "max_is_pair_sum": True}


def test_classify_z_has_no_trace(capsys, monkeypatch):
    status, out, _ = run_cli(capsys, ["classify", "-"], stdin=Z_23, monkeypatch=monkeypatch)
    assert status == 0
    report = json.loads(out)
    assert report["family"]["kind"] == "Z"
    assert report["rigid"] is True
    assert report["proof"] is None


def test_classify_reads_rigidity_from_the_family(capsys, monkeypatch):
    # every family but NotRigid is rigid, a kind the CLI has never seen included
    from txyrigid import cli
    from txyrigid.classify import FamilyTag

    for kind, rigid in (("RigidUnclassified", True), ("New", True), ("NotRigid", False)):
        monkeypatch.setattr(cli, "classify_two_points", lambda data, kind=kind: FamilyTag(kind))
        status, out, _ = run_cli(capsys, ["classify", "-"], stdin=L1_4, monkeypatch=monkeypatch)
        assert (status, json.loads(out)["rigid"]) == (0 if rigid else 1, rigid)


def test_classify_wrong_point_count(capsys, monkeypatch):
    doc = document(1, [((1,), 1)])
    status, _, err = run_cli(capsys, ["classify", "-"], stdin=doc, monkeypatch=monkeypatch)
    assert status == 2
    assert "two fixed points" in err


# -- series -------------------------------------------------------------------


def test_series_todd_l1(capsys, monkeypatch):
    doc = document(1, [((1,), 1), ((-1,), 1)], genus={"name": "todd"})
    status, out, _ = run_cli(capsys, ["series", "-"], stdin=doc, monkeypatch=monkeypatch)
    assert status == 0
    report = json.loads(out)
    assert report["verdict"] == "constant"
    assert report["constant_pretty"] == "1"
    for row in report["coefficients"]:
        if row["exp"] != 0:
            assert row["coeff"] == []


def test_series_txy_cross_check(capsys, monkeypatch):
    doc = document(3, [((1, 1, -2), 1), ((-1, -1, 2), 1)])
    status, out, _ = run_cli(
        capsys, ["series", "-", "--order", "12"], stdin=doc, monkeypatch=monkeypatch
    )
    assert status == 0
    report = json.loads(out)
    assert report["verdict"] == "constant"
    assert report["constant_pretty"] == "x*y^2 - x^2*y"
    assert report["cross_check"] == "agree"
    assert report["expansion_variable"] == "(x+y)*u"


def test_series_single_point_not_constant(capsys, monkeypatch):
    doc = document(1, [((1,), 1)])
    status, out, _ = run_cli(capsys, ["series", "-"], stdin=doc, monkeypatch=monkeypatch)
    assert status == 1
    report = json.loads(out)
    assert report["verdict"] == "not-constant"
    pole = [row for row in report["coefficients"] if row["exp"] == -1]
    assert pole and pole[0]["coeff"] != []


def test_series_unknown_genus_errors(capsys, monkeypatch):
    doc = document(1, [((1,), 1), ((-1,), 1)], genus={"name": "mystery"})
    status, _, err = run_cli(capsys, ["series", "-"], stdin=doc, monkeypatch=monkeypatch)
    assert status == 2
    assert "mystery" in err


def test_series_custom_coefficient_genus(capsys, monkeypatch):
    # H(u)/u = 1/u + coefficients: feeding Todd's data as a custom list
    from math import factorial

    from txyrigid.series import bernoulli

    coeffs = [str(bernoulli(k + 1) / factorial(k + 1) + (k == 0)) for k in range(20)]
    doc = document(
        1,
        [((1,), 1), ((-1,), 1)],
        genus={"name": "my-genus", "coefficients": coeffs},
    )
    status, out, _ = run_cli(capsys, ["series", "-"], stdin=doc, monkeypatch=monkeypatch)
    assert status == 0
    report = json.loads(out)
    assert report["constant_pretty"] == "1"
    assert report["cross_check"] is None


@pytest.mark.parametrize("name", ["todd", "txy"])
def test_series_builtin_genus_rejects_coefficients(capsys, monkeypatch, name):
    doc = document(1, [((1,), 1), ((-1,), 1)], genus={"name": name, "coefficients": ["5", "7"]})
    status, out, err = run_cli(capsys, ["series", "-"], stdin=doc, monkeypatch=monkeypatch)
    assert status == 2 and out == ""
    assert "genus.coefficients" in err and name in err
    # the same list under any other name is a custom genus: 1/u + 5 + 7u
    custom = document(1, [((1,), 1), ((-1,), 1)], genus={"name": "mine", "coefficients": ["5", "7"]})
    status, out, _ = run_cli(capsys, ["series", "-"], stdin=custom, monkeypatch=monkeypatch)
    assert status == 0 and json.loads(out)["constant_pretty"] == "10"


@pytest.mark.parametrize(
    "genus, message",
    [
        (3, "genus: expected an object with a 'name' field"),
        ({"name": 3}, "genus.name: expected a string"),
        ({"name": "g", "coefficients": "1/2"}, "genus.coefficients: expected a list of rationals"),
    ],
    ids=["not-an-object", "name-not-a-string", "coefficients-not-a-list"],
)
def test_series_genus_diagnostics(capsys, monkeypatch, genus, message):
    doc = document(1, [((4,), 1), ((-4,), 1)], genus=genus)
    status, out, err = run_cli(capsys, ["series", "-"], stdin=doc, monkeypatch=monkeypatch)
    assert (status, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "genus, lines",
    [
        ("txy", ["u^0    -y + x", "u^1    0", "u^2    0", "verdict constant", "cross-check agree"]),
        ("todd", ["u^0    1", "u^1    0", "u^2    0", "verdict constant"]),
    ],
)
def test_series_table_format(capsys, monkeypatch, genus, lines):
    argv = ["series", "-", "--order", "3", "--genus", genus, "--format", "table"]
    status, out, err = run_cli(capsys, argv, stdin=L1_4, monkeypatch=monkeypatch)
    assert (status, err) == (0, "")
    assert out.splitlines() == [f"genus {genus}   order 3", "u^-1   0", *lines]


# a custom genus with negative and non-unit coefficients
SIGNED = [Fraction(-3, 7), Fraction(5, 2), -4, 0, Fraction(1, 9)]
SERIES_CASES = {
    "z": (make_z((1, -2, 3)), TXY, 12),
    "z-todd": (make_z((2, 5, -4)), TODD, 24),
    "l1": (make_l1(4), TXY, 12),
    "l1-7-order-200": (make_l1(7), TXY, 200),
    "l1-todd": (make_l1(4), TODD, 12),
    "s3": (make_s3(1, 2), TXY, 24),
    "s3-least-order": (make_s3(2, 5), TXY, 4),
    # a Z pair next to S3(1, 2) cancels before expansion
    "s3-with-z-pair": (
        FixedPointData(3, make_s3(1, 2).points + (FixedPoint((2, 5, -4), 1), FixedPoint((5, -4, 2), -1))),
        TXY,
        13,
    ),
    # every row is zero
    "cancelling": (FixedPointData(2, (FixedPoint((3, -1), 1), FixedPoint((-1, 3), -1))), TXY, 12),
    "not-constant": (FixedPointData(2, (FixedPoint((1, 2), 1), FixedPoint((-1, -2), 1))), TXY, 12),
    "signed-custom": (make_s3(1, 1), GenusSeries("signed", SIGNED), 12),
    "quote": (make_l1(2), GenusSeries('say "hi"', SIGNED), 6),
    "backslash": (make_l1(2), GenusSeries("a\\b", SIGNED), 6),
    "control": (make_l1(2), GenusSeries("tab\tbell\x07", SIGNED), 6),
    "non-ascii": (make_l1(2), GenusSeries("\u00e9t\u00e9 \u2028\U0001d4af", SIGNED), 6),
}


@pytest.mark.parametrize("data, genus, order", list(SERIES_CASES.values()), ids=list(SERIES_CASES))
def test_series_line_and_table_equal_the_reference(data, genus, order):
    # the JSON line is the sorted-key encoding of the report's dict, and
    # the table the one that dict gives
    assert_series_output_matches_reference(data, genus, order)


MINE = document(1, [((1,), 1), ((-1,), 1)], genus={"name": "mine", "coefficients": ["5", "7"]})


@pytest.mark.parametrize("name, constant", [("todd", "1"), ("mine", "10")])
def test_series_genus_flag_overrides_the_document(capsys, monkeypatch, name, constant):
    # the document's coefficients serve only the genus of the same name
    argv = ["series", "-", "--genus", name, "--order", "3"]
    status, out, _ = run_cli(capsys, argv, stdin=MINE, monkeypatch=monkeypatch)
    assert status == 0
    report = json.loads(out)
    assert report["genus"] == name and report["order"] == 3
    assert [row["pretty"] for row in report["coefficients"] if row["exp"] == 0] == [constant]


def test_series_genus_flag_unknown_name_exits_two(capsys, monkeypatch):
    argv = ["series", "-", "--genus", "other", "--order", "3"]
    status, out, err = run_cli(capsys, argv, stdin=MINE, monkeypatch=monkeypatch)
    assert (status, out) == (2, "")
    assert err == "error: genus.name: unknown genus 'other' and no coefficient list given\n"


@pytest.mark.parametrize(
    "argv, doc, prefix",
    [
        (
            ["search", "--n", "1", "--m", "2", "--max-weight", "2", "--signs", "+*" * 2500],
            None,
            "--signs: pattern '" + "+*" * 20 + "'... (5000 characters) may hold",
        ),
        (
            ["series", "-"],
            document(1, [((4,), 1), ((-4,), 1)], genus={"name": LONG_BAD}),
            f"genus.name: unknown genus {LONG_SHOWN} and",
        ),
        (["series", "-", "--genus", LONG_BAD], L1_4, f"genus.name: unknown genus {LONG_SHOWN} and"),
        # integers stay within the interpreter's digit limit, so 4000 digits
        (
            ["search", "--n", "1", "--m", "2", "--max-weight", "1", "--jobs", "-" + "1" * 3999],
            None,
            "jobs must be at least 1, got -" + "1" * 39 + "... (4000 characters)\n",
        ),
        (
            ["search", "--n", "1", "--m", "1" * 4000, "--max-weight", "0", "--signs", "+"],
            None,
            "search parameters: each sign pattern needs m = " + "1" * 40 + "... (4000 characters) entries",
        ),
        (
            ["verify", "/nonexistent/" + "1" * 4987],
            None,
            "input: cannot read /nonexistent/" + "1" * 27 + "... (5000 characters): ",
        ),
    ],
    ids=["signs", "genus-in-document", "genus-flag", "jobs", "pattern-length", "input-path"],
)
def test_long_bad_names_are_echoed_cut(capsys, monkeypatch, argv, doc, prefix):
    status, out, err = run_cli(capsys, argv, stdin=doc, monkeypatch=monkeypatch)
    assert status == 2 and out == ""
    assert err.startswith(f"error: {prefix}")
    assert err.count("\n") == 1 and len(err.encode()) <= 200


def test_series_order_bounds(capsys, monkeypatch):
    doc = document(3, [((1, 1, -2), 1), ((-1, -1, 2), 1)])
    status, _, err = run_cli(
        capsys, ["series", "-", "--order", "2"], stdin=doc, monkeypatch=monkeypatch
    )
    assert status == 2
    assert "order" in err


# -- search -------------------------------------------------------------------


def test_search_n3_table_and_json(capsys):
    status, out, _ = run_cli(
        capsys, ["search", "--n", "3", "--m", "2", "--max-weight", "3"]
    )
    assert status == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[-1]["type"] == "summary"
    kinds = {line["family"]["kind"] for line in lines[:-1]}
    assert kinds == {"Z", "S3"}


def test_search_n1_m1_finds_nothing(capsys):
    status, out, _ = run_cli(
        capsys, ["search", "--n", "1", "--m", "1", "--max-weight", "3"]
    )
    assert status == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 1
    assert lines[0]["type"] == "summary"
    assert lines[0]["rigid"] == 0
    # with no weights there is nothing to build, however large n and m are
    for n, m in (("1", "100000"), ("1" * 30, "1"), ("1", "1" * 24)):
        start = time.perf_counter()
        status, out, err = run_cli(capsys, ["search", "--n", n, "--m", m, "--max-weight", "0"])
        assert time.perf_counter() - start < 1.0
        assert (status, err) == (0, "")
        summary = json.loads(out)
        assert summary["candidates"] == summary["checked"] == summary["rigid"] == 0


def test_search_sign_pattern_flag(capsys):
    status, out, _ = run_cli(
        capsys,
        ["search", "--n", "1", "--m", "2", "--max-weight", "2", "--signs", "+-"],
    )
    assert status == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    kinds = {line["family"]["kind"] for line in lines[:-1]}
    assert kinds == {"Z"}


def test_search_bad_signs_flag(capsys):
    status, _, err = run_cli(
        capsys,
        ["search", "--n", "1", "--m", "2", "--max-weight", "2", "--signs", "+*"],
    )
    assert status == 2
    assert "--signs" in err


@pytest.mark.parametrize(
    "m, message",
    [
        # the pattern '+' is checked against m only once m itself is valid
        ("0", "n and m must be positive"),
        ("-1", "n and m must be positive"),
        ("2", "each sign pattern needs m = 2 entries of +1/-1"),
    ],
)
def test_search_bad_m_or_pattern_length(capsys, m, message):
    status, _, err = run_cli(
        capsys,
        ["search", "--m", m, "--n", "2", "--max-weight", "2", "--signs", "+"],
    )
    assert status == 2
    assert err.strip() == f"error: search parameters: {message}"


def test_search_deterministic_output(capsys):
    argv = ["search", "--n", "2", "--m", "2", "--max-weight", "2"]
    status1, out1, _ = run_cli(capsys, argv)
    status2, out2, _ = run_cli(capsys, argv)
    assert status1 == status2 == 0
    assert out1 == out2


def test_search_jobs_flag_matches_sequential(capsys):
    base = ["search", "--n", "2", "--m", "2", "--max-weight", "2"]
    _, sequential, _ = run_cli(capsys, base + ["--jobs", "1"])
    _, parallel, _ = run_cli(capsys, base + ["--jobs", "2"])
    assert sequential == parallel


class RecordingPool:
    """Stands in for ProcessPoolExecutor and records each pool created."""

    created = []

    def __init__(self, max_workers=None, **_):
        RecordingPool.created.append(max_workers)


def test_search_starts_no_worker(capsys, monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    RecordingPool.created.clear()
    base = ["search", "--n", "2", "--m", "2", "--max-weight", "2"]
    runs = [run_cli(capsys, base + ["--jobs", jobs]) for jobs in ("1", "2", "100000")]
    statuses, outs, _ = zip(*runs)
    assert statuses == (0, 0, 0) and outs[1] == outs[2] == outs[0]
    assert RecordingPool.created == []


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_search_jobs_below_one_exits_two(capsys, monkeypatch, jobs):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    RecordingPool.created.clear()
    status, out, err = run_cli(
        capsys, ["search", "--n", "1", "--m", "2", "--max-weight", "2", "--jobs", jobs]
    )
    assert status == 2 and out == ""
    assert "jobs" in err
    assert RecordingPool.created == []


def test_search_enumeration_guard_exits_two_fast(capsys):
    # 15,777,450 points, about 1.2e14 candidate pairs
    start = time.perf_counter()
    status, out, err = run_cli(
        capsys, ["search", "--n", "8", "--m", "2", "--max-weight", "12"]
    )
    assert time.perf_counter() - start < 1.0
    assert status == 2 and out == ""
    assert "join steps" in err and "above the bound" in err


PINNED_SEARCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench", "expected", "search.json",
)


# the benchmark's desk and reach calls
SEARCH_CALLS = [
    *(f"search --m 2 --max-weight 5 --n {n} --signs all --jobs 1" for n in (1, 2, 3, 4)),
    "search --m 3 --n 2 --max-weight 4",
    "search --m 2 --n 3 --max-weight 5 --signs ++,+-",
    "search --m 2 --max-weight 3 --n 5 --jobs 2",
    "search --m 2 --max-weight 3 --n 6 --jobs 2",
]


@pytest.mark.parametrize("call", SEARCH_CALLS)
def test_search_matches_pinned_outputs(capsys, call):
    with open(PINNED_SEARCH, encoding="utf-8") as handle:
        want = json.load(handle)[call]
    status, out, _ = run_cli(capsys, call.split())
    records = [json.loads(line) for line in out.splitlines()]
    results, summary = records[:-1], records[-1]
    # the digest rule of the benchmark's pinned search outputs
    digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
    assert status == want["exit"]
    assert (summary["candidates"], summary["rigid"]) == (want["candidates"], want["rigid"])
    assert digest == want["records_sha256"]


@pytest.mark.parametrize("call", SEARCH_CALLS)
def test_search_result_lines_equal_the_encoders_output(capsys, monkeypatch, call):
    from txyrigid import cli

    search, outcomes = cli.search_rigid, []

    def recording(params):
        outcomes.append(search(params))
        return outcomes[-1]

    monkeypatch.setattr(cli, "search_rigid", recording)
    status, out, _ = run_cli(capsys, call.split())
    lines = out.splitlines()
    (outcome,) = outcomes
    assert status == 0 and len(lines) == len(outcome.results) + 1
    for line, result in zip(lines, outcome.results):
        assert line == cli.result_json(result)
        assert line == json.dumps(result_reference(result), sort_keys=True)


PINNED_SERIES = os.path.join(os.path.dirname(PINNED_SEARCH), "series.json")
SERIES_STRATA = [
    *(f"txy12/{n}" for n in (2, 3, 4, 5)),
    *(f"txy24/{n}" for n in (2, 3, 4)),
    *(f"{kind}/{n}" for kind in ("todd", "custom") for n in (2, 3, 4, 5)),
]


def _sample(entries):
    # the first entry of each verdict, and the last entry
    picked = {}
    for entry in entries:
        picked.setdefault(entry["expect"]["series"]["verdict"], entry)
    return [*picked.values(), entries[-1]]


@pytest.mark.parametrize("stratum", SERIES_STRATA)
def test_series_matches_pinned_outputs(capsys, monkeypatch, stratum):
    with open(PINNED_SERIES, encoding="utf-8") as handle:
        entries = json.load(handle)[stratum]
    for entry in _sample(entries):
        want = entry["expect"]["series"]
        stdin = json.dumps(entry["doc"], sort_keys=True)
        status, out, _ = run_cli(capsys, ["series", "-"], stdin=stdin, monkeypatch=monkeypatch)
        report = json.loads(out)
        # the digest rule of the benchmark's pinned series outputs
        rows = json.dumps(report["coefficients"], sort_keys=True).encode()
        assert status == want["exit"]
        for field in ("verdict", "constant", "cross_check"):
            assert report[field] == want[field]
        assert hashlib.sha256(rows).hexdigest() == want["rows_sha256"]


PINNED_CHECK = os.path.join(os.path.dirname(PINNED_SEARCH), "check.json")
CHECK_STRATA = [
    *(f"near/{n}" for n in range(2, 7)),
    "z", "l1", "s3", "three",
    *(f"large/{n}" for n in range(8, 13)),
]


def _check_sample(entries):
    # the first entry of each verify verdict, and the last entry
    picked = {}
    for entry in entries:
        picked.setdefault(entry["expect"]["verify"]["rigid"], entry)
    return [*picked.values(), entries[-1]]


@pytest.mark.parametrize("stratum", CHECK_STRATA)
def test_check_matches_pinned_outputs(capsys, monkeypatch, stratum):
    with open(PINNED_CHECK, encoding="utf-8") as handle:
        entries = json.load(handle)[stratum]
    fields = {"verify": ("rigid", "constant", "ah_constant"), "classify": ("rigid", "family")}
    for entry in _check_sample(entries):
        stdin = json.dumps(entry["doc"], sort_keys=True)
        # classify is pinned for the two-point documents only
        for command, want in entry["expect"].items():
            status, out, _ = run_cli(capsys, [command, "-"], stdin=stdin, monkeypatch=monkeypatch)
            report = json.loads(out)
            assert status == want["exit"]
            for field in fields[command]:
                assert report[field] == want[field]


def test_search_summary_counts_each_prune_rung(capsys):
    status, out, _ = run_cli(capsys, ["search", "--n", "2", "--m", "2", "--max-weight", "5"])
    summary = json.loads(out.splitlines()[-1])
    assert status == 0
    assert "pruned_by" not in summary
    assert summary["pruned"] == summary["candidates"] - summary["checked"] == 3075
    assert summary["params"] == {
        "n": 2, "m": 2, "max_weight": 5, "signs": "all", "effective_only": False,
    }


def test_search_table_format(capsys):
    status, out, _ = run_cli(
        capsys,
        ["search", "--n", "1", "--m", "2", "--max-weight", "2", "--format", "table"],
    )
    assert status == 0
    assert "candidates" in out


# -- round trips and process-level entry ----------------------------------------


def test_reports_reparse_as_json(capsys, monkeypatch):
    for argv, text in (
        (["verify", "-"], S3_12),
        (["classify", "-"], L1_4),
        (["series", "-"], L1_4),
    ):
        status, out, _ = run_cli(capsys, argv, stdin=text, monkeypatch=monkeypatch)
        report = json.loads(out)
        assert isinstance(report, dict) and report["command"] == argv[0]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "txyrigid", "verify", "-"],
        input=L1_4,
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rigid"] is True


def test_main_builds_each_command_parser_once(capsys, monkeypatch):
    from txyrigid import cli

    built = []

    class CountingParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.prog)

    monkeypatch.setattr(cli, "_Parser", CountingParser)
    monkeypatch.setattr(cli, "_PARSERS", {})
    status, out, _ = run_cli(capsys, ["verify", "-"], stdin=S3_12, monkeypatch=monkeypatch)
    assert status == 0 and json.loads(out)["command"] == "verify"
    status, out, _ = run_cli(
        capsys, ["classify", "--format", "table", "-"], stdin=NOT_RIGID, monkeypatch=monkeypatch
    )
    assert status == 1 and out.startswith("family NotRigid")
    # the second call's options do not leak into the third
    status, out, _ = run_cli(capsys, ["classify", "-"], stdin=L1_4, monkeypatch=monkeypatch)
    assert status == 0 and json.loads(out)["family"] == {"kind": "L1", "params": [4]}
    status, out, err = run_cli(capsys, ["search", "--n", "1"])
    assert status == 2 and out == "" and "--m" in err
    status, out, _ = run_cli(capsys, ["verify", "-"], stdin=L1_4, monkeypatch=monkeypatch)
    assert status == 0 and json.loads(out)["rigid"] is True
    # a named command builds only its own parser, once per process
    assert built == ["txyrigid verify", "txyrigid classify", "txyrigid search"]
    # argv that names no command builds the full parser, with every command
    status, out, err = run_cli(capsys, [])
    assert status == 2 and out == "" and "required: command" in err
    assert built[3:] == ["txyrigid", *(f"txyrigid {name}" for name in cli._COMMANDS)]


@pytest.mark.parametrize("text", ["1_0", "\u0662", "1.5", "0x5", pytest.param(LONG_BAD, id="long")])
@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--n", "{}", "--m", "2", "--max-weight", "1"],
        ["search", "--n", "1", "--m", "{}", "--max-weight", "1"],
        ["search", "--n", "1", "--m", "2", "--max-weight", "{}"],
        ["search", "--n", "1", "--m", "2", "--max-weight", "1", "--jobs", "{}"],
        ["series", "-", "--order", "{}"],
    ],
)
def test_integer_flags_follow_the_decimal_rule(capsys, monkeypatch, argv, text):
    flag = argv[argv.index("{}") - 1]
    argv = [a.format(text) for a in argv]
    status, out, err = run_cli(capsys, argv, stdin=L1_4, monkeypatch=monkeypatch)
    assert status == 2 and out == ""
    assert "is not a decimal integer" in err
    # after argparse's usage lines, one error line names the flag
    last = err.splitlines()[-1]
    assert f"argument {flag}: " in last and len(last.encode()) <= 200


def test_integer_flags_accept_a_plus_sign(capsys):
    status, out, _ = run_cli(capsys, ["search", "--n", "+1", "--m", "+2", "--max-weight", "+3"])
    assert status == 0
    assert json.loads(out.splitlines()[-1])["params"]["max_weight"] == 3


OVER_LIMIT = "1" * 5000
TOO_LONG = "an integer of more than 4300 digits, the interpreter's limit for integer strings"


@pytest.fixture
def digit_limit_4300():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "command, template, field",
    [
        ("verify", '{"n": 1, "points": [{"weights": ["BIG"], "sign": 1}]}', "points[0].weights[0]"),
        ("verify", '{"n": 1, "points": [{"weights": [1, BIG], "sign": 1}]}', "points[0].weights[1]"),
        ("verify", '{"n": "BIG", "points": [{"weights": [1], "sign": 1}]}', "n"),
        ("verify", '{"n": BIG, "points": [{"weights": [1], "sign": 1}]}', "n"),
        ("verify", '{"n": 1, "points": [{"weights": [1], "sign": -BIG}]}', "points[0].sign"),
        ("series", '{"n": 1, "points": [{"weights": [1], "sign": 1}], "order": BIG}', "order"),
        (
            "series",
            '{"n": 1, "points": [{"weights": [1], "sign": 1}],'
            ' "genus": {"name": "g", "coefficients": ["1/2", "BIG/3"]}}',
            "genus.coefficients[1]",
        ),
        (
            "series",
            '{"n": 1, "points": [{"weights": [1], "sign": 1}],'
            ' "genus": {"name": "g", "coefficients": [BIG]}}',
            "genus.coefficients[0]",
        ),
    ],
    ids=[
        "weight-string", "weight-number", "n-string", "n-number", "sign-number",
        "order-number", "coefficient-fraction", "coefficient-number",
    ],
)
def test_integers_past_the_digit_limit_name_their_field(
    capsys, monkeypatch, digit_limit_4300, command, template, field
):
    doc = template.replace("BIG", OVER_LIMIT)
    status, out, err = run_cli(capsys, [command, "-"], stdin=doc, monkeypatch=monkeypatch)
    assert status == 2 and out == ""
    assert err == f"error: {field}: {TOO_LONG}\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["search", "--n", "BIG", "--m", "2", "--max-weight", "1"], "--n"),
        (["search", "--n", "1", "--m", "2", "--max-weight", "BIG"], "--max-weight"),
        (["search", "--n", "1", "--m", "2", "--max-weight", "1", "--jobs", "BIG"], "--jobs"),
        (["series", "-", "--order", "BIG"], "--order"),
    ],
    ids=["n", "max-weight", "jobs", "order"],
)
def test_integer_flags_past_the_digit_limit_name_the_flag(
    capsys, monkeypatch, digit_limit_4300, argv, flag
):
    argv = [OVER_LIMIT if a == "BIG" else a for a in argv]
    status, out, err = run_cli(capsys, argv, stdin=L1_4, monkeypatch=monkeypatch)
    assert status == 2 and out == ""
    assert err.endswith(f"error: argument {flag}: {TOO_LONG}\n")
    assert "1" * 100 not in err


def test_usage_error_exits_two():
    proc = subprocess.run(
        [sys.executable, "-m", "txyrigid", "search", "--n", "1"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 2


def _point(*weights, sign="1"):
    return {"weights": list(weights), "sign": sign}


PAIR = [_point("1", "2"), _point("-1", "-2")]


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"points": PAIR}, "n: required field is missing"),
        ({"n": True, "points": PAIR}, "n: expected an integer, got a boolean"),
        ({"n": "2", "points": [["1", "2"], PAIR[1]]}, "points[0]: expected an object"),
        (
            {"n": "2", "points": [PAIR[0], _point()]},
            "points[1].weights: a nonempty list is required",
        ),
        (
            {"n": "2", "points": [_point("1", 2.0), PAIR[1]]},
            "points[0].weights[1]: expected an integer or decimal string",
        ),
        (
            {"n": "2", "points": [_point("1", "1_0"), PAIR[1]]},
            "points[0].weights[1]: '1_0' is not a decimal integer",
        ),
        (
            {"n": "2", "points": [PAIR[0], _point("-1", "\u0662")]},
            "points[1].weights[1]: '\u0662' is not a decimal integer",
        ),
        (
            {"n": "2", "points": [PAIR[0], _point("-1", "0")]},
            "points[1].weights[1]: weights must be nonzero",
        ),
        (
            {"n": "2", "points": [_point("1", "2", "3"), PAIR[1]]},
            "points[0].weights: expected 2 weights, got 3",
        ),
        (
            {"n": "2", "points": [_point("1", "2", sign="2"), PAIR[1]]},
            "points[0].sign: sign must be +1 or -1, got 2",
        ),
        # every weight of a point is parsed before any is tested for zero
        (
            {"n": "2", "points": [_point("0", "x"), PAIR[1]]},
            "points[0].weights[1]: 'x' is not a decimal integer",
        ),
        # n is checked before any point is read
        ({"n": -3, "points": [_point("1")]}, "n: must be a positive integer, got -3"),
        ({"n": "0", "points": [_point("1")]}, "n: must be a positive integer, got 0"),
        # a bad value is echoed whole up to 40 characters, past that cut
        (
            {"n": "2", "points": [_point("1", "1" * 39 + "x"), PAIR[1]]},
            f"points[0].weights[1]: '{'1' * 39}x' is not a decimal integer",
        ),
        (
            {"n": "2", "points": [_point("1", LONG_BAD), PAIR[1]]},
            f"points[0].weights[1]: {LONG_SHOWN} is not a decimal integer",
        ),
        ({"n": LONG_BAD, "points": PAIR}, f"n: {LONG_SHOWN} is not a decimal integer"),
        (
            {"n": "2", "points": [PAIR[0], _point("-1", "-2", sign=LONG_BAD)]},
            f"points[1].sign: {LONG_SHOWN} is not a decimal integer",
        ),
        # so is a decimal integer out of range, shown without quotes
        (
            {"n": "-" + "1" * 4000, "points": PAIR},
            f"n: must be a positive integer, got -{'1' * 39}... (4001 characters)",
        ),
        (
            {"n": "1" * 4000, "points": PAIR},
            f"points[0].weights: expected {'1' * 40}... (4000 characters) weights, got 2",
        ),
        (
            {"n": "2", "points": [_point("1", "2", sign="1" * 4000), PAIR[1]]},
            f"points[0].sign: sign must be +1 or -1, got {'1' * 40}... (4000 characters)",
        ),
        ([], "input: the document must be a JSON object"),
    ],
)
def test_document_diagnostics(capsys, monkeypatch, doc, message):
    status, out, err = run_cli(capsys, ["verify", "-"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert (status, out, err) == (2, "", f"error: {message}\n")
    assert len(err.encode()) <= 200


def test_help_lists_the_commands(capsys):
    status, out, _ = run_cli(capsys, ["-h"])
    assert status == 0
    assert "{verify,classify,series,search}" in out
    for command in ("verify", "classify", "series", "search"):
        assert f"\n    {command}" in out


@pytest.mark.parametrize(
    "argv, last_line",
    [
        ([], "txyrigid: error: the following arguments are required: command"),
        (
            ["bogus"],
            "txyrigid: error: argument command: invalid choice: 'bogus'"
            " (choose from 'verify', 'classify', 'series', 'search')",
        ),
        # an error after a command names that command
        (["verify", "--bogus"], "txyrigid verify: error: unrecognized arguments: --bogus"),
        (
            ["search", "--n", "1"],
            "txyrigid search: error: the following arguments are required: --m, --max-weight",
        ),
    ],
)
def test_usage_errors_name_the_parser(capsys, argv, last_line):
    status, out, err = run_cli(capsys, argv)
    assert status == 2 and out == ""
    assert err.startswith("usage: txyrigid")
    assert err.splitlines()[-1] == last_line


@pytest.mark.parametrize(
    "argv, last_line",
    [
        (
            ["search", "--n", "1", "--m", "2", "--max-weight", "1", "--format", "x" + "1" * 4000],
            "txyrigid search: error: argument --format: invalid choice: '"
            + "x" + "1" * 38 + "... (4003 characters) (choose from 'json', 'table')",
        ),
        (
            ["verify", "-", "x" + "1" * 4000],
            "txyrigid verify: error: unrecognized arguments: x" + "1" * 39 + "... (4001 characters)",
        ),
        (
            ["verify", "-", "--formatt=x" + "1" * 4000],
            "txyrigid verify: error: unrecognized arguments: --formatt=x"
            + "1" * 29 + "... (4011 characters)",
        ),
        # a value the package has cut already is not cut again
        (
            ["search", "--n", "x" + "1" * 4000, "--m", "2", "--max-weight", "1"],
            "txyrigid search: error: argument --n: 'x" + "1" * 39
            + "'... (4001 characters) is not a decimal integer",
        ),
    ],
    ids=["invalid-choice", "unrecognized", "unrecognized-option", "type-error"],
)
def test_usage_errors_echo_long_values_cut(capsys, argv, last_line):
    status, out, err = run_cli(capsys, argv)
    assert status == 2 and out == ""
    assert err.startswith("usage: txyrigid")
    assert err.splitlines()[-1] == last_line
    assert len(err.encode()) < 400


def test_command_help_exits_zero(capsys):
    status, out, _ = run_cli(capsys, ["series", "--help"])
    assert status == 0
    assert out.startswith("usage: txyrigid series [-h]")
    assert "--order ORDER" in out and "--genus GENUS" in out


def test_closed_pipe_exits_quietly():
    # the reader takes one line of an output larger than the pipe buffer
    # and closes its end, as `| head -1` does
    proc = subprocess.Popen(
        [sys.executable, "-m", "txyrigid", "search", "--m", "2", "--n", "4", "--max-weight", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    assert proc.stdout.readline().startswith(b'{"constant"')
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert b"Traceback" not in err


# a series report of about 110 kB, larger than the pipe buffer
SERIES_160 = document(2, [((1, 2), 1), ((-1, -2), 1)], order="160")


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "argv, doc, take",
    [(["verify", "-"], S3_12, 0), (["series", "-"], SERIES_160, 1)],
    ids=["verify", "series"],
)
def test_closed_pipe_exits_quietly_for_every_command(argv, doc, take, unbuffered):
    # verify: the reader is gone before the report is written; series: it
    # takes the first bytes of the report and closes while the write waits
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "txyrigid", *argv],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    if not take:
        proc.stdout.close()
    proc.stdin.write(doc.encode())
    proc.stdin.close()
    if take:
        assert proc.stdout.read(take) == b"{"
        proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""
