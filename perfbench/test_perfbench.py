"""Self-tests of the benchmark: seeded inputs, metric names, a tiny smoke run.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import chargechain as cc  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _specs(workload: str, seed: int) -> str:
    wl = workloads.build(cc, workload, seed)
    return json.dumps([[c.name, c.spec, c.catalog] for c in wl.cases], sort_keys=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_specs_other_seed_other_specs(workload):
    assert _specs(workload, 3) == _specs(workload, 3)
    assert _specs(workload, 3) != _specs(workload, 4)


def test_metric_names_and_units_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layer == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    for name in [*e2e, *layer]:
        assert NAME.fullmatch(name), name


def test_tracer_restores_every_patched_function():
    import chargechain.conditions as conditions
    import chargechain.kernels as kernels

    before = (conditions.kernel_power, kernels.kernel_power, kernels.TransitionKernel.row)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert conditions.kernel_power is not before[0]
        cc.build_condition_report(cc.birth_death(6, 0.3, 0.2))
    finally:
        tracer.restore()
    assert (conditions.kernel_power, kernels.kernel_power, kernels.TransitionKernel.row) == before
    assert tracer.counts["conditions.small_set.checks"] > 0
    assert all(rec[4] >= rec[3] for rec in tracer.spans)


def test_compare_verdicts():
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    faster = [x * 0.8 for x in parent]
    slower = [x * 1.3 for x in parent]
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "better"
    assert compare.verdict(parent, slower, "lower", 0.1)[0] == "worse"
    assert compare.verdict(parent, parent, "lower", 0.1)[0] == "within_bound"
    assert compare.verdict(noisy, parent, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(parent, faster, "higher", 0.1)[0] == "worse"


def test_no_gain_counts_when_the_change_fails_more():
    def runs(failed, attempted, correct=True):
        return [{"failed": failed, "attempted": attempted, "correct": correct}]

    assert not compare.fails_more(runs(0, 100), runs(0, 50))
    assert not compare.fails_more(runs(2, 100), runs(1, 100))
    assert compare.fails_more(runs(1, 100), runs(2, 100))
    assert compare.fails_more(runs(0, 100), runs(0, 100, correct=False))


def test_timing_samples_are_one_per_case_whatever_the_passes():
    runner = run.Runner(cc, workloads.build(cc, "walks", 1, tiny=True), paths=[])
    for passes in (3, 9):
        runner.samples = {
            f"c{i}": [(i + 50.0, 0.1, i + 50.1)] + [(float(i), 0.1, i + 0.1)] * (passes - 1) for i in range(17)
        }
        assert runner.per_case(0) == [float(i) for i in range(17)]
        assert run.percentile(runner.per_case(0), run.TAIL_LEVEL) == pytest.approx(14.4)


def test_reference_speed_scale_is_the_calibration_ratio(monkeypatch):
    ticks = iter([0.0, 0.02, 1.02, 1.04])  # calibration 20 ms, work 1 s, calibration 20 ms
    monkeypatch.setattr(run, "clock", lambda: next(ticks))
    monkeypatch.setattr(run, "calibration_unit", lambda: None)
    result, scale = run.timed_at_reference_speed(lambda: "done")
    assert result == "done"
    assert scale == pytest.approx(run.CAL_REF_S / 0.02)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run_emits_every_metric(tmp_path, workload, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
        "--seconds", "1", "--trace", str(trace), "--tiny", "--out", str(tmp_path / "r.jsonl"),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCH["end_to_end"] if trace == 0 else BENCH["per_layer"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walks", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
