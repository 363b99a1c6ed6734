"""CLI behavior: determinism, exit codes, formats, report verification."""

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from chargechain import (
    AnalysisRequest,
    ValidationError,
    birth_death,
    catalog,
    ergodic,
    invariant_basis,
    invariants,
    kernel_to_spec,
    kernels,
    report,
    run_analysis,
)
from chargechain.cli import _request_from_args, build_parser, main
from chargechain.catalog import names
from chargechain.conditions import MAX_ORDER
from chargechain.ergodic import MAX_HORIZON
from chargechain.report import applicable_tasks


def run_cli(args):
    return main(list(args))


def test_analyze_is_byte_identical(tmp_path: Path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run_cli(["analyze", "--catalog", "swap2", "--n-max", "60", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_analyze_report_contents(tmp_path: Path):
    out = tmp_path / "r.json"
    assert run_cli(["analyze", "--catalog", "drift_walk_N", "--n-max", "50", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["schema"] == 8
    assert rep["conditions"]["star"]["holds"] is False
    assert rep["conditions"]["quasicompact"]["status"] == "inconsistent"
    assert rep["invariants"]["kinds"] == ["pfa"]
    assert "escape" in rep and "ergodic" not in rep


def test_verify_report_round_trip(tmp_path: Path):
    out = tmp_path / "r.json"
    assert run_cli(["analyze", "--catalog", "two_absorbing", "--out", str(out)]) == 0
    assert run_cli(["verify-report", "--report", str(out)]) == 0


def test_verify_report_catches_tampering(tmp_path: Path):
    out = tmp_path / "r.json"
    assert run_cli(["analyze", "--catalog", "two_absorbing", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    rep["invariants"]["measures"][0]["atoms"] = {"1": 1.0}  # transient state
    out.write_text(json.dumps(rep))
    assert run_cli(["verify-report", "--report", str(out)]) == 1


def test_verify_report_fails_closed_on_claimed_tasks(tmp_path: Path, capsys):
    out = tmp_path / "r.json"
    assert run_cli(["analyze", "--catalog", "two_absorbing", "--out", str(out)]) == 0
    good = json.loads(out.read_text())
    schema1 = dict(good, schema=1, tasks=sorted(good["tasks"] + ["doeblin-search"]))
    schema1["doeblin_search"] = {"D": good["conditions"]["D"], "D_tilde": good["conditions"]["D_tilde"]}
    no_ergodic = {k: v for k, v in good.items() if k != "ergodic"}
    no_tasks = {k: v for k, v in good.items() if k != "tasks"}
    for rep, failed in (
        (no_ergodic, "task ergodic section (missing)"),
        (dict(good, tasks=[]), "claimed tasks"),
        (no_tasks, "claimed tasks"),
        (schema1, "task doeblin-search section (unknown task)"),
    ):
        out.write_text(json.dumps(rep))
        capsys.readouterr()
        assert run_cli(["verify-report", "--report", str(out)]) == 1
        assert f"FAILED: {failed}" in capsys.readouterr().out


def test_malformed_chain_exits_2(tmp_path: Path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "finite", "matrix": [[0.5, 0.4], [0.5, 0.5]]}))
    assert run_cli(["analyze", "--chain", str(bad), "--out", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize(
    "matrix, problem",
    [([[1.0], [0.5, 0.5]], "inhomogeneous shape"), ([["x", 1.0], [0.5, 0.5]], "could not convert string to float: 'x'")],
    ids=["ragged rows", "entry not a number"],
)
def test_malformed_dense_matrix_exits_2_with_a_named_error(tmp_path: Path, capsys, matrix, problem):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "finite", "matrix": matrix}))
    assert run_cli(["analyze", "--chain", str(bad), "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: transition matrix is not a square array of numbers: ") and problem in err
    out = tmp_path / "r.json"
    assert run_cli(["analyze", "--catalog", "swap2", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    rep["chain"]["spec"] = {"kind": "finite", "matrix": matrix}
    out.write_text(json.dumps(rep))
    capsys.readouterr()
    assert run_cli(["verify-report", "--report", str(out)]) == 2
    assert problem in capsys.readouterr().err


def test_non_finite_chain_exits_2(tmp_path: Path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "finite", "matrix": [[float("nan"), 1.0], [0.5, 0.5]]}))
    assert run_cli(["analyze", "--chain", str(bad), "--out", str(tmp_path / "x.json")]) == 2
    assert "row 0: non-finite" in capsys.readouterr().err
    walk = tmp_path / "walk.json"
    walk.write_text(json.dumps({
        "kind": "walk", "support": "N",
        "exceptions": {"0": {"0": 0.5, "1": float("inf")}},
        "tail_+inf": {"relative": {"-1": 0.5, "1": 0.5}},
    }))
    assert run_cli(["analyze", "--chain", str(walk), "--out", str(tmp_path / "y.json")]) == 2
    assert "exception row 0: non-finite" in capsys.readouterr().err


def test_eps_grid_outside_unit_interval_exits_2(tmp_path: Path, capsys):
    for grid in ("0.5,1.5", "1", "0", "-0.1", "nan"):
        argv = ["doeblin", "--catalog", "finite_uniform", "--eps-grid", grid]
        assert run_cli(argv + ["--out", str(tmp_path / "x.json")]) == 2
        assert "--eps-grid" in capsys.readouterr().err


def test_an_empty_eps_grid_is_refused():
    # with no grid point the search has no witness for (D) or (D~), and the report would fail its own verify
    with pytest.raises(ValidationError, match="--eps-grid"):
        run_analysis(AnalysisRequest(catalog="birth_death", eps_grid=()))


def test_repeated_escape_window_exits_2(tmp_path: Path, capsys):
    # a repeated size would get one series of 2 * n_max entries
    argv = ["escape", "--catalog", "drift_walk_N", "--n-max", "5", "--windows", "16,8,16"]
    assert run_cli(argv + ["--out", str(tmp_path / "x.json")]) == 2
    assert "window sizes must be positive and distinct, got [8, 16, 16]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, windows, named",
    [("drift_walk_N", "100000", "[100000]"), ("symmetric_walk_Z", "8,1025", "[8, 1025]")],
    ids=["N 100000", "Z 8,1025"],
)
def test_escape_window_past_the_cap_exits_2_before_its_matrix(tmp_path, capsys, monkeypatch, name, windows, named):
    # a window of 100000 on N asked numpy for a 74.5 GiB window matrix; the refusal comes before any is formed
    def formed(*args, **kwargs):
        raise AssertionError("the window matrix was formed")

    monkeypatch.setattr(invariants, "truncate", formed)
    argv = ["analyze", "--catalog", name, "--windows", windows]
    assert run_cli(argv + ["--out", str(tmp_path / "x.json")]) == 2
    assert f"error: window sizes must be at most 1024, got {named}" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_escape_window_past_the_cap_exits_2_before_the_basis(tmp_path, capsys, monkeypatch):
    # the windows are refused up front, before the basis and the conditions section are formed
    def formed(*args, **kwargs):
        raise AssertionError("the invariant basis was formed")

    monkeypatch.setattr(report, "invariant_basis", formed)
    argv = ["analyze", "--catalog", "symmetric_walk_Z", "--windows", "100000"]
    assert run_cli(argv + ["--out", str(tmp_path / "x.json")]) == 2
    assert "error: window sizes must be at most 1024, got [100000]" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_k_max_past_the_order_cap_exits_2(tmp_path, capsys):
    argv = ["analyze", "--catalog", "birth_death", "--k-max", str(MAX_ORDER + 1)]
    assert run_cli(argv + ["--out", str(tmp_path / "x.json")]) == 2
    assert "error: the step order (--k-max) must be at most 64, got 65" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_n_max_past_the_horizon_cap_exits_2_before_any_power(tmp_path, capsys, monkeypatch):
    # the horizon is refused up front, before the distance series forms its 10^8 products
    def formed(kernel):
        raise AssertionError("a power was formed")

    monkeypatch.setattr(kernels, "powers", formed)
    monkeypatch.setattr(ergodic, "powers", formed)
    argv = ["analyze", "--catalog", "birth_death", "--tasks", "ergodic", "--n-max", "100000000"]
    assert run_cli(argv + ["--out", str(tmp_path / "x.json")]) == 2
    assert "error: the ergodic horizon (--n-max) must be at most 100000, got 100000000" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("name, code", [("two_absorbing", 2), ("drift_walk_N", 0)])
def test_n_max_past_the_horizon_cap_exits_2_where_the_ergodic_task_applies(tmp_path, capsys, name, code):
    # a walk has no ergodic section, and its escape doubling takes any n_max
    argv = ["analyze", "--catalog", name, "--n-max", str(MAX_HORIZON + 1), "--out", str(tmp_path / "x.json")]
    assert run_cli(argv) == code
    assert ("error: the ergodic horizon (--n-max)" in capsys.readouterr().err) == (code == 2)
    assert (tmp_path / "x.json").exists() == (code == 0)


def test_a_chain_past_the_state_cap_exits_2_before_any_dense_matrix(tmp_path, capsys, monkeypatch):
    def formed(*args, **kwargs):
        raise AssertionError("a dense matrix was formed")

    monkeypatch.setattr(kernels.np, "zeros", formed)
    n = kernels.MAX_STATES + 1
    spec = tmp_path / "wide.json"
    spec.write_text(json.dumps({"kind": "finite", "rows": [{}] * n}), encoding="utf-8")
    assert run_cli(["analyze", "--chain", str(spec), "--out", str(tmp_path / "x.json")]) == 2
    assert f"error: 'rows' must hold at most {kernels.MAX_STATES} rows (states), got {n}" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()
    # verify-report reads a report's chain spec the same way
    tampered = {"schema": report.SCHEMA_VERSION, "tasks": ["invariants"], "invariants": {"dimension": 0}}
    tampered["chain"] = {"spec": json.loads(spec.read_text(encoding="utf-8"))}
    (tmp_path / "report.json").write_text(json.dumps(tampered), encoding="utf-8")
    assert run_cli(["verify-report", "--report", str(tmp_path / "report.json")]) == 2
    assert f"got {n}" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["", " "])
def test_an_empty_eps_grid_option_exits_2(tmp_path: Path, capsys, grid):
    # an empty value is no grid: it must not stand for the default one
    argv = ["doeblin", "--catalog", "finite_uniform", "--eps-grid", grid, "--out", str(tmp_path / "x.json")]
    assert run_cli(argv) == 2
    assert "--eps-grid" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("tasks", ["", " ", ",", "invariants,", "invariants, ,conditions"])
def test_an_empty_task_name_exits_2(tmp_path: Path, capsys, tasks):
    # an empty value would run every task, and an empty item would be dropped unseen
    argv = ["analyze", "--catalog", "two_absorbing", "--tasks", tasks, "--out", str(tmp_path / "x.json")]
    assert run_cli(argv) == 2
    assert "--tasks" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("labels", ["ab", [1, None], ["a"], ["a", "b", "c"], None, {"0": "a", "1": "b"}])
def test_finite_spec_labels_other_than_one_string_per_state_exit_2(tmp_path: Path, capsys, labels):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "finite", "matrix": [[0.5, 0.5], [0.25, 0.75]], "labels": labels}))
    assert run_cli(["analyze", "--chain", str(bad), "--out", str(tmp_path / "x.json")]) == 2
    assert "labels" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


WALK_TAIL = {"relative": {"1": 1.0}}


@pytest.mark.parametrize(
    "spec, named",
    [
        ({"tail_+inf": {"relative": {"1": 0.5, "01": 0.5, "2": 0.5}}}, "bad tail row 'tail_+inf': relative: key '01'"),
        ({"tail_+inf": {"relative": {"+1": 1.0}}}, "bad tail row 'tail_+inf': relative: key '+1'"),
        (
            {"tail_+inf": {"relative": {"1": 0.5}, "to_finite": {" 0": 0.5}}},
            "bad tail row 'tail_+inf': to_finite: key ' 0'",
        ),
        ({"exceptions": {"0": {"1": 1.0}, "00": {"0": 1.0}}, "tail_+inf": WALK_TAIL}, "bad exceptions table: state '00'"),
        ({"exceptions": {"0": {"1": 0.5, "01": 0.5}}, "tail_+inf": WALK_TAIL}, "bad exceptions table: row 0: target '01'"),
    ],
    ids=["offset 01", "offset +1", "to_finite target", "exception state", "exception target"],
)
def test_walk_spec_keys_spelled_two_ways_exit_2(tmp_path: Path, capsys, spec, named):
    # int() reads "01", "+1" and " 1" as 1, so a second spelling of a key would replace the first unseen
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "walk", "support": "N", **spec}))
    assert run_cli(["analyze", "--chain", str(bad), "--out", str(tmp_path / "x.json")]) == 2
    assert f"error: {named} is not an integer" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_horizon_options_default_to_the_request_defaults():
    args = build_parser().parse_args(["analyze", "--catalog", "swap2"])
    assert _request_from_args(args, ()) == AnalysisRequest(catalog="swap2")


def test_repeated_task_exits_2(tmp_path: Path, capsys):
    # the report would list the task twice, and verify-report would check its section twice
    argv = ["analyze", "--catalog", "two_absorbing", "--tasks", "invariants,conditions,invariants"]
    assert run_cli(argv + ["--out", str(tmp_path / "x.json")]) == 2
    assert "error: task 'invariants' is requested twice" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("text, kind", [("[]", "list"), ('"x"', "str"), ("3", "int"), ("null", "NoneType")])
def test_verify_report_on_a_report_that_is_no_object_exits_2(tmp_path: Path, capsys, text, kind):
    # exit 1 means a failed check, so a report of the wrong shape must not crash with it
    path = tmp_path / "r.json"
    path.write_text(text)
    assert run_cli(["verify-report", "--report", str(path)]) == 2
    assert capsys.readouterr().err == f"error: report must be a JSON object, got {kind}\n"


def test_capacity_exits_3(tmp_path: Path):
    big = tmp_path / "big.json"
    m = [[1.0 if i == j else 0.0 for j in range(25)] for i in range(25)]
    big.write_text(json.dumps({"kind": "finite", "matrix": m}))
    assert run_cli(["doeblin", "--chain", str(big), "--out", str(tmp_path / "x.json")]) == 3


def test_over_cap_analyze_reports_the_other_sections(tmp_path: Path, capsys):
    big = tmp_path / "big.json"
    big.write_text(json.dumps(kernel_to_spec(birth_death(23, 0.3, 0.2))))
    out = tmp_path / "r.json"
    assert run_cli(["analyze", "--chain", str(big), "--n-max", "30", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["schema"] == 8
    assert rep["tasks"] == ["conditions", "ergodic", "invariants"]
    assert rep["invariants"]["dimension"] == 1 and rep["ergodic"]["projector"]
    cond = rep["conditions"]
    assert sorted(cond) == [
        "D", "D_tilde", "alpha", "beta", "double_star", "quasicompact", "star", "tilde_star",
    ]
    over = {
        "kind": "capacity",
        "verdict": "capacity exceeded",
        "detail": "subset enumeration capped at 22 states, got 23",
    }
    assert cond["D"] == over and cond["D_tilde"] == over
    capsys.readouterr()
    assert run_cli(["verify-report", "--report", str(out)]) == 0
    assert "ok: D over capacity (23 states, cap 22)" in capsys.readouterr().out


def test_verify_report_rejects_a_false_capacity_claim(tmp_path: Path, capsys):
    out = tmp_path / "r.json"
    assert run_cli(["analyze", "--catalog", "two_absorbing", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    rep["conditions"]["D"] = {"kind": "capacity", "verdict": "capacity exceeded", "detail": ""}
    out.write_text(json.dumps(rep))
    capsys.readouterr()
    assert run_cli(["verify-report", "--report", str(out)]) == 1
    assert "FAILED: D over capacity (3 states, cap 22)" in capsys.readouterr().out


def test_tasks_subset(tmp_path: Path):
    out = tmp_path / "r.json"
    assert run_cli([
        "analyze", "--catalog", "swap2", "--tasks", "invariants,conditions",
        "--out", str(out),
    ]) == 0
    rep = json.loads(out.read_text())
    assert "invariants" in rep and "conditions" in rep
    assert "ergodic" not in rep
    assert run_cli(["analyze", "--catalog", "swap2", "--tasks", "bogus", "--out", str(out)]) == 2


def test_csv_formats(tmp_path: Path):
    erg = tmp_path / "erg.csv"
    assert run_cli(["ergodic", "--catalog", "swap2", "--n-max", "10",
                    "--format", "csv", "--out", str(erg)]) == 0
    lines = erg.read_text().splitlines()
    assert lines[0] == "n,cesaro_distance,raw_distance"
    assert len(lines) == 11

    esc = tmp_path / "esc.csv"
    assert run_cli(["escape", "--catalog", "drift_walk_N", "--n-max", "20",
                    "--windows", "2,4", "--format", "csv", "--out", str(esc)]) == 0
    lines = esc.read_text().splitlines()
    assert lines[0] == "n,window,mass"
    # one row per window and checkpoint: n = 1, 2, 4, 8, 16, then n_max
    checkpoints = (1, 2, 4, 8, 16, 20)
    assert [line.split(",")[:2] for line in lines[1:]] == [[str(n), str(m)] for m in (2, 4) for n in checkpoints]


def test_escape_csv_lists_the_checkpoints(tmp_path: Path):
    esc = tmp_path / "esc.csv"
    assert run_cli(["analyze", "--catalog", "drift_walk_N", "--tasks", "escape", "--n-max", "100",
                    "--format", "csv", "--out", str(esc)]) == 0
    rows = [line.split(",") for line in esc.read_text().splitlines()[1:]]
    checkpoints = [1, 2, 4, 8, 16, 32, 64, 100]
    assert [(int(n), int(m)) for n, m, _ in rows] == [(n, m) for m in (8, 16, 32) for n in checkpoints]
    # drift_walk_N steps right each time: step k sits at k, so window 8 holds steps 1..8 of the first n
    assert [float(v) for n, m, v in rows if m == "8"] == [min(n, 8) / n for n in checkpoints]


def test_doeblin_subcommand(tmp_path: Path):
    out = tmp_path / "d.json"
    assert run_cli(["doeblin", "--catalog", "finite_uniform", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["tasks"] == ["conditions"] and "conditions" in rep
    w = rep["conditions"]["D"]["witness"]
    assert w is not None and not w["vacuous"]


def test_escape_on_finite_chain_is_rejected(tmp_path: Path):
    assert run_cli(["escape", "--catalog", "swap2", "--out", str(tmp_path / "x.json")]) == 2


def test_catalog_list(capsys):
    assert run_cli(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    for name in names():
        assert name in out


def test_entry_point_subprocess(tmp_path: Path):
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "chargechain", "analyze", "--catalog", "finite_uniform",
         "--n-max", "30", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["schema"] == 8


@pytest.mark.parametrize("name", ["drift_walk_N", "two_absorbing"])
def test_only_tasks_that_read_the_basis_build_it(monkeypatch, name):
    calls = []

    def counted(kernel):
        calls.append(name)
        return invariant_basis(kernel)

    monkeypatch.setattr(report, "invariant_basis", counted)
    for task in applicable_tasks(catalog.build(name), ()):
        calls.clear()
        run_analysis(AnalysisRequest(catalog=name, tasks=(task,)))
        assert len(calls) == (task != "escape"), task
    calls.clear()
    run_analysis(AnalysisRequest(catalog=name))
    assert len(calls) == 1


def test_analyze_exits_2_on_a_non_finite_projector(tmp_path: Path, capsys):
    from test_kernels import table_matrices

    # 13 states; one transient set leaves only through a subnormal probability
    matrix = next(itertools.islice(table_matrices(29, 8), 3, None))
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"kind": "finite", "matrix": matrix.tolist()}))
    args = ["analyze", "--chain", str(chain), "--tasks", "invariants,ergodic"]
    assert run_cli(args + ["--out", str(tmp_path / "r.json")]) == 2
    assert "transient states" in capsys.readouterr().err


def test_walk_with_cross_end_tails_analyzes_and_verifies(tmp_path: Path, capsys):
    tail = {"relative": {"-1": 0.25, "1": 0.25}}
    chain = tmp_path / "cross.json"
    chain.write_text(json.dumps({
        "kind": "walk",
        "support": "Z",
        "tail_+inf": {**tail, "to_other_end": {"-inf": 0.5}},
        "tail_-inf": {**tail, "to_other_end": {"+inf": 0.5}},
    }))
    out = tmp_path / "r.json"
    assert run_cli(["analyze", "--chain", str(chain), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    charge = {"atoms": {}, "ends": {"+inf": 0.5, "-inf": 0.5}}
    assert rep["invariants"]["measures"] == [charge]
    assert rep["conditions"]["star"]["evidence"]["invariant_charges"] == [charge]
    assert rep["escape"]["per_end_split"] == {"+inf": 0.5, "-inf": 0.5}
    capsys.readouterr()
    assert run_cli(["verify-report", "--report", str(out)]) == 0


def test_matrix_and_rows_chain_files_give_byte_identical_reports(tmp_path: Path):
    k = birth_death(15, 0.3, 0.2)
    spec = kernel_to_spec(k)
    assert "rows" in spec and "matrix" not in spec
    texts = []
    for form, body in (("matrix", {"kind": "finite", "matrix": k.matrix.tolist()}), ("rows", spec)):
        (tmp_path / form).mkdir()
        chain = tmp_path / form / "chain.json"  # the same file name: the report records it
        chain.write_text(json.dumps(body))
        out = tmp_path / form / "r.json"
        assert run_cli(["analyze", "--chain", str(chain), "--n-max", "40", "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    assert json.loads(texts[0])["chain"]["spec"] == spec


def test_birth_death_400_report_stays_under_one_megabyte(tmp_path: Path):
    chain = tmp_path / "bd400.json"
    chain.write_text(json.dumps(kernel_to_spec(birth_death(400, 0.3, 0.2))))
    out = tmp_path / "r.json"
    assert run_cli(["analyze", "--chain", str(chain), "--tasks", "invariants,ergodic", "--out", str(out)]) == 0
    assert out.stat().st_size < 1_000_000
    assert run_cli(["verify-report", "--report", str(out)]) == 0
