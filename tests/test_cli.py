import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from txyrigid.cli import main


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


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


def test_decimal_strings_keep_sign_and_fraction_forms(capsys, monkeypatch):
    doc = document(1, [(("+4",), "+1"), (("-4",), " 1 ")])
    doc = json.loads(doc)
    doc["genus"] = {"name": "custom", "coefficients": ["-1/2", " +3/4 ", "0"]}
    status, out, _ = run_cli(capsys, ["series", "-"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert status == 0
    assert json.loads(out)["verdict"] == "constant"


def test_verify_work_guard_exits_two_fast(capsys, monkeypatch):
    # two points with the 30 distinct weights 2^0..2^29 would take hours
    weights = [2**i for i in range(30)]
    doc = document(30, [(weights, 1), ([-w for w in weights], 1)])
    start = time.perf_counter()
    status, out, err = run_cli(capsys, ["verify", "-"], stdin=doc, monkeypatch=monkeypatch)
    assert time.perf_counter() - start < 1.0
    assert status == 2 and out == ""
    assert "work estimate" in err and "exceeds the bound" in err


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


def test_verify_malformed_json_reports_position(capsys, monkeypatch):
    status, _, err = run_cli(capsys, ["verify", "-"], stdin="{nope", monkeypatch=monkeypatch)
    assert status == 2
    assert "input:1:" in err


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
    assert report["proof"]["n1_shortcut"] is True


def test_classify_unpaired_is_not_rigid(capsys, monkeypatch):
    doc = document(1, [((3,), 1), ((-2,), 1)])
    status, out, _ = run_cli(capsys, ["classify", "-"], stdin=doc, monkeypatch=monkeypatch)
    assert status == 1
    report = json.loads(out)
    assert report["family"]["kind"] == "NotRigid"
    assert report["proof"] is None


def test_classify_s3_with_full_trace(capsys, monkeypatch):
    doc = document(3, [((2, 2, -4), 1), ((-2, -2, 4), 1)])
    status, out, _ = run_cli(capsys, ["classify", "-"], stdin=doc, monkeypatch=monkeypatch)
    assert status == 0
    report = json.loads(out)
    assert report["family"] == {"kind": "S3", "params": [2, 2]}
    proof = report["proof"]
    assert proof["balance_holds"] and proof["max_rule_holds"]
    assert proof["final_form"] == {"k": 1, "l": 2, "max_is_pair_sum": True}


def test_classify_z_has_no_trace(capsys, monkeypatch):
    status, out, _ = run_cli(capsys, ["classify", "-"], stdin=Z_23, monkeypatch=monkeypatch)
    assert status == 0
    report = json.loads(out)
    assert report["family"]["kind"] == "Z"
    assert report["proof"] is None


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
    from txyrigid.series import TODD

    coeffs = [str(TODD.regular_coefficient(k)) for k in range(20)]
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
    """Stands in for ProcessPoolExecutor: records max_workers and runs the
    shards in this process, so no worker is ever started."""

    created = []

    def __init__(self, max_workers=None, **_):
        RecordingPool.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_search_jobs_capped_at_cpu_count(capsys, monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    RecordingPool.created.clear()
    base = ["search", "--n", "2", "--m", "2", "--max-weight", "2"]
    _, sequential, _ = run_cli(capsys, base + ["--jobs", "1"])
    status, capped, _ = run_cli(capsys, base + ["--jobs", "100000"])
    assert status == 0 and capped == sequential
    assert all(workers <= (os.cpu_count() or 1) for workers in RecordingPool.created)


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
    assert "raw candidates" in err and "above the bound" in err


PINNED_SEARCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench", "expected", "search.json",
)


@pytest.mark.parametrize(
    "call",
    [
        *(f"search --m 2 --max-weight 5 --n {n} --signs all --jobs 1" for n in (1, 2, 3)),
        "search --m 3 --n 2 --max-weight 4",
        "search --m 2 --n 3 --max-weight 5 --signs ++,+-",
        "search --m 2 --max-weight 3 --n 5 --jobs 2",
    ],
)
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


def test_search_summary_counts_each_prune_rung(capsys):
    status, out, _ = run_cli(capsys, ["search", "--n", "2", "--m", "2", "--max-weight", "5"])
    summary = json.loads(out.splitlines()[-1])
    assert status == 0
    assert summary["pruned_by"] == {"pairing": 2840, "limit_symmetry": 145, "principal_part": 80}
    assert sum(summary["pruned_by"].values()) == summary["pruned"]
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
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rigid"] is True


def test_main_builds_the_parser_once(capsys, monkeypatch):
    from txyrigid import cli

    builds = []

    def counting_build():
        builds.append(1)
        return build()

    build = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counting_build)
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
    assert len(builds) == 1


def test_usage_error_exits_two():
    proc = subprocess.run(
        [sys.executable, "-m", "txyrigid", "search", "--n", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
