"""CLI behavior: determinism, exit codes, formats, report verification."""

import itertools
import json
import subprocess
import sys
from pathlib import Path

from chargechain import birth_death, kernel_to_spec
from chargechain.cli import main
from chargechain.catalog import names


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
    assert rep["schema"] == 2
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


def test_non_finite_measure_in_report_exits_2(tmp_path: Path, capsys):
    out = tmp_path / "r.json"
    assert run_cli(["analyze", "--catalog", "two_absorbing", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    rep["invariants"]["measures"][0]["atoms"]["0"] = float("nan")
    out.write_text(json.dumps(rep))
    assert run_cli(["verify-report", "--report", str(out)]) == 2
    assert "non-finite weight" in capsys.readouterr().err


def test_eps_grid_outside_unit_interval_exits_2(tmp_path: Path, capsys):
    for grid in ("0.5,1.5", "1", "0", "-0.1", "nan"):
        argv = ["doeblin", "--catalog", "finite_uniform", "--eps-grid", grid]
        assert run_cli(argv + ["--out", str(tmp_path / "x.json")]) == 2
        assert "--eps-grid" in capsys.readouterr().err


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
    assert rep["schema"] == 2
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
    assert len(lines) == 41


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
    assert json.loads(out.read_text())["schema"] == 2


def test_threads_env_var_is_honored(tmp_path: Path, monkeypatch):
    monkeypatch.setenv("CHARGECHAIN_THREADS", "4")
    a = tmp_path / "a.json"
    assert run_cli(["analyze", "--catalog", "two_absorbing", "--out", str(a)]) == 0
    monkeypatch.setenv("CHARGECHAIN_THREADS", "1")
    b = tmp_path / "b.json"
    assert run_cli(["analyze", "--catalog", "two_absorbing", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    monkeypatch.setenv("CHARGECHAIN_THREADS", "zebra")
    assert run_cli(["analyze", "--catalog", "swap2", "--out", str(tmp_path / "c.json")]) == 2


def test_analyze_exits_2_on_a_non_finite_projector(tmp_path: Path, capsys):
    from test_kernels import table_matrices

    # 13 states; one transient set leaves only through a subnormal probability
    matrix = next(itertools.islice(table_matrices(29, 8), 3, None))
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"kind": "finite", "matrix": matrix.tolist()}))
    args = ["analyze", "--chain", str(chain), "--tasks", "invariants,ergodic"]
    assert run_cli(args + ["--out", str(tmp_path / "r.json")]) == 2
    assert "transient states" in capsys.readouterr().err
