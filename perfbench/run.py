#!/usr/bin/env python3
"""chargechain benchmark: seeded workloads through analyze -> serialize -> verify.

Run from the repository root:

    python3 perfbench/run.py --workload walks --seed 1 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace 1``
reports the per-layer metrics of a traced run (see ``tracing.py``).
``--workload all`` runs every workload, each in its own process, and prints
one table.  The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record of the
run (machine, samples, probes, report hashes) is appended to
``.perfbench_out/results.jsonl``, which ``perfbench/compare.py`` reads.

The program is imported from ``src/`` of the checkout this file sits in and
runs single-threaded: ``CHARGECHAIN_THREADS=1`` and BLAS pinned to one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

PINNED_ENV = {
    "CHARGECHAIN_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "chains_per_s": "1/s",
    "analyze_p50_s": "s",
    "analyze_tail_s": "s",
    "verify_p50_s": "s",
    "cli_cold_s": "s",
    "peak_rss_mb": "MB",
}

CAL_REF_S = 0.010  # one calibration unit's time at the reference speed
START_REF_S = 0.125  # a bare interpreter start that imports numpy, at the reference speed
TAIL_LEVEL = 90.0
MIN_PASSES = 3
CLI_RUNS = 11
CLI_RUNS_PER_PASS = 2
SETUP_REPS = 5
IMPORT_REPS = 3
CLI_TIMEOUT_S = 120

clock = time.perf_counter


# -- machine-speed calibration ----------------------------------------------------------

_CAL_MATRIX = None


def calibration_unit() -> None:
    """A fixed mix of dict-heavy Python and small numpy matmuls, about 10 ms
    on a 2-vCPU Xeon VM.

    It does not touch chargechain, so no change to the program moves it.
    """
    global _CAL_MATRIX
    import numpy as np  # imported here: numpy must load after main() pins BLAS threads

    if _CAL_MATRIX is None:
        _CAL_MATRIX = np.random.default_rng(0).random((40, 40))
    d: dict[int, int] = {}
    s = 0
    for i in range(30000):
        d[i & 1023] = i
        s += d.get((i * 7) & 1023, 0)
    a = _CAL_MATRIX
    for _ in range(300):
        a = (a @ _CAL_MATRIX) * 0.02


def timed_at_reference_speed(fn):
    """Run ``fn`` between two calibration units; return its result and its scale.

    The scale turns the wall seconds of ``fn`` into seconds at the reference
    speed: ``CAL_REF_S`` over the geometric mean of the two calibration
    times.  On a shared 2-vCPU Xeon VM the speed of identical work moves by
    up to 1.7x between seconds and by 1.3-1.5x between stretches of
    minutes; the program's time and the calibration's time move together,
    so their ratio stays within a few per cent where the raw times do not.
    """
    t0 = clock()
    calibration_unit()
    t1 = clock()
    result = fn()
    t2 = clock()
    calibration_unit()
    t3 = clock()
    return result, CAL_REF_S / math.sqrt((t1 - t0) * (t3 - t2))


# -- statistics -------------------------------------------------------------------

def trimmed_mean(values) -> float:
    """Mean of the values left after dropping the lowest and highest quarter
    (at least one of each from three values on): robust to a sample that a
    speed change of the machine spoiled, steadier than a median of few."""
    s = sorted(values)
    k = max(1, len(s) // 4) if len(s) >= 3 else 0
    return statistics.fmean(s[k:len(s) - k])


def percentile(values, level: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    pos = (len(s) - 1) * level / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


# -- set-up -----------------------------------------------------------------------

def import_fresh():
    """Import chargechain from src/, dropping any copy imported before."""
    for name in [n for n in sys.modules if n == "chargechain" or n.startswith("chargechain.")]:
        del sys.modules[name]
    return importlib.import_module("chargechain")


def write_specs(workload, directory: Path) -> tuple[list[Path | None], dict[str, str]]:
    directory.mkdir(parents=True)
    paths, digests = [], {}
    for i, case in enumerate(workload.cases):
        if case.spec is None:
            paths.append(None)
            continue
        text = json.dumps(case.spec, sort_keys=True)
        path = directory / f"{i:02d}-{case.name}.json"
        path.write_text(text, encoding="utf-8")
        paths.append(path)
        digests[case.name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return paths, digests


def set_up(workloads, name: str, seed: int, tiny: bool, directory: Path):
    """Import chargechain afresh, generate the workload and write its specs.

    Returns the seconds this took at the reference speed, then the package,
    the workload, the spec paths and the spec digests.
    """

    def run():
        t0 = clock()
        cc = import_fresh()
        workload = workloads.build(cc, name, seed, tiny)
        paths, digests = write_specs(workload, directory)
        return clock() - t0, cc, workload, paths, digests

    (seconds, *rest), scale = timed_at_reference_speed(run)
    return (seconds * scale, *rest)


# -- one chain through the pipeline ---------------------------------------------------

def golden_mismatches(cc, name: str, report: dict) -> list[str]:
    """Compare a catalog entry's report with the entry's documented verdicts."""
    expected = cc.catalog.entry(name).expected
    inv = report.get("invariants", {})
    cond = report.get("conditions", {})
    observed = {
        "dimension": inv.get("dimension"),
        "kinds": inv.get("kinds"),
        "star": cond.get("star", {}).get("holds"),
        "beta": cond.get("beta", {}).get("holds"),
        "quasicompact": cond.get("quasicompact", {}).get("status"),
    }
    if "classification" in expected:
        kernel = cc.kernel_from_spec(report["chain"]["spec"])
        mu = cc.measure_from_json(kernel.space, inv["measures"][0])
        c = cc.classify_invariant(kernel, mu)
        observed["classification"] = [c.kind, c.period]
    return [
        f"golden {key}: expected {want['value']!r}, got {observed.get(key)!r}"
        for key, want in sorted(expected.items())
        if observed.get(key) != want["value"]
    ]


class Runner:
    """Takes a workload's cases through the pipeline and checks every output."""

    def __init__(self, cc, workload, paths):
        self.cc = cc
        self.report = sys.modules["chargechain.report"]
        self.workload = workload
        self.paths = paths
        self.reference: dict[str, str] = {}  # case -> sha256 of its first report
        # case -> (analyze, verify, pipeline) per pass, in seconds at the reference speed
        self.samples: dict[str, list[tuple[float, float, float]]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.tracer = None

    def request(self, case, path):
        wl = self.workload
        source = {"catalog": case.catalog} if path is None else {"chain_path": str(path)}
        return self.cc.AnalysisRequest(tasks=wl.tasks, n_max=wl.n_max, windows=wl.windows, **source)

    def pipeline(self, request) -> tuple[str, list[dict], float, float, float]:
        """Analyze, serialize, parse and verify one chain.

        Returns the report text, the verify items, and the analyze, verify
        and whole-pipeline times in seconds at the reference speed.  Analysis
        and the rest are calibrated apart, each between its own calibration
        units, so a speed change between the two does not smear across both.
        """
        # Module attributes are looked up per call, so tracing wrappers apply.
        report = self.report
        gc.collect()  # each sample starts from the same collector state, as a fresh CLI would

        def analyze():
            t0 = clock()
            analysis = report.run_analysis(request)
            return analysis, clock() - t0

        def serialize_and_verify():
            t0 = clock()
            text = report.report_json(analysis)
            parsed = json.loads(text)
            t1 = clock()
            items = report.verify_report(parsed)
            t2 = clock()
            return text, items, t2 - t1, t2 - t0

        (analysis, analyze_s), scale_a = timed_at_reference_speed(analyze)
        (text, items, verify_s, rest_s), scale_b = timed_at_reference_speed(serialize_and_verify)
        analyze_s *= scale_a
        return text, items, analyze_s, verify_s * scale_b, analyze_s + rest_s * scale_b

    def run_case(self, case, path, label: str) -> None:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.chain = label
        try:
            text, items, analyze, verify, total = self.pipeline(self.request(case, path))
        except Exception as exc:  # every exception is a failed operation, not a crash
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return
        self.samples.setdefault(case.name, []).append((analyze, verify, total))
        problems = [f"verify failed: {it['check']}" for it in items if not it["ok"]]
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if case.name not in self.reference:
            self.reference[case.name] = digest
            if case.catalog is not None:
                problems += golden_mismatches(self.cc, case.catalog, json.loads(text))
        elif self.reference[case.name] != digest:
            problems.append("report bytes differ from the first analysis of this chain")
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))

    def run_pass(self, index: int) -> None:
        for case, path in zip(self.workload.cases, self.paths):
            self.run_case(case, path, f"pass{index}/{case.name}")

    def run_for(self, seconds: float, min_passes: int, after_pass=None) -> int:
        """Whole passes until another would end past ``seconds``; at least ``min_passes``.

        ``after_pass`` runs after each pass, inside the time budget.
        """
        start = clock()
        passes, last = 0, 0.0
        while passes < min_passes or clock() - start + last <= seconds:
            t0 = clock()
            self.run_pass(passes)
            if after_pass is not None:
                after_pass()
            last = clock() - t0
            passes += 1
        return passes

    def per_case(self, field: int) -> list[float]:
        """Each case's typical time over the passes: field 0 analyze, 1 verify, 2 pipeline.

        Times are at the reference speed (see ``timed_at_reference_speed``).
        One value per case keeps the sample count, and with it the tail
        percentile, the same however many passes fit in the run.
        """
        return [trimmed_mean([s[field] for s in runs]) for runs in self.samples.values()]

    def pipeline_total(self) -> float:
        return sum(s[2] for runs in self.samples.values() for s in runs)


# -- subprocess measurements -------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class ColdCli:
    """Times fresh ``python -m chargechain analyze`` processes and checks their output.

    A cold run is mostly process start-up: interpreter, numpy and module
    loading, page faults.  The in-process calibration unit tracks that
    poorly, so each cold run is scaled instead by a bare start-up that
    imports numpy and nothing of chargechain, timed just before and just
    after it: ``START_REF_S`` over the geometric mean of the two.
    """

    def __init__(self, workload, expected: str, work: Path):
        self.out = work / "cli-report.json"
        self.cmd = [sys.executable, "-m", "chargechain", *workload.cli_args(), "--out", str(self.out)]
        self.expected = expected
        self.samples: list[float] = []
        self.failures: list[str] = []

    @staticmethod
    def start(cmd, check: bool = False) -> tuple[subprocess.CompletedProcess, float]:
        t0 = clock()
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, capture_output=True, timeout=CLI_TIMEOUT_S, check=check
        )
        return proc, clock() - t0

    def run(self) -> None:
        label = f"cli{len(self.samples)}"
        self.out.unlink(missing_ok=True)
        bare = [sys.executable, "-c", "import numpy"]
        before = self.start(bare, check=True)[1]
        proc, seconds = self.start(self.cmd)
        after = self.start(bare, check=True)[1]
        self.samples.append(seconds * START_REF_S / math.sqrt(before * after))
        if proc.returncode != 0:
            self.failures.append(f"{label}: exit {proc.returncode}: {proc.stderr.decode()[-200:]}")
        elif self.out.read_text(encoding="utf-8") != self.expected:
            self.failures.append(f"{label}: report differs from the in-process report")


def cli_import_s() -> float:
    code = "import time; t = time.perf_counter(); import chargechain.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), cwd=ROOT,
            capture_output=True, timeout=CLI_TIMEOUT_S, check=True,
        )
        samples.append(float(proc.stdout))
    return statistics.median(samples)


# -- known-defect probes ----------------------------------------------------------------

def probes(cc, work: Path) -> dict[str, str]:
    """Status of inputs the program handles wrongly today; never timed or counted."""
    cli = importlib.import_module("chargechain.cli")
    out = str(work / "probe-out.json")

    def status(argv) -> str:
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:  # a crash is a status to record
            return f"raised {type(exc).__name__}: {exc}"[:160]
        last = err.getvalue().strip().splitlines()
        return f"exit {code}" + (f": {last[-1][:140]}" if last else "")

    def spec_file(name: str, spec: dict) -> str:
        path = work / f"probe-{name}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return str(path)

    big = spec_file("big", cc.kernel_to_spec(cc.birth_death(23, 0.3, 0.2)))
    cross = spec_file("cross", {
        "kind": "walk",
        "support": "Z",
        "tail_+inf": {"relative": {"1": 0.5, "-1": 0.4}, "to_other_end": {"-inf": 0.1}},
        "tail_-inf": {"relative": {"1": 0.5, "-1": 0.5}},
    })
    nan = spec_file("nan", {"kind": "finite", "matrix": [[float("nan"), 1.0], [0.5, 0.5]]})
    return {
        "analyze_23_states": status(["analyze", "--chain", big, "--out", out]),
        "walk_cross_end_tail": status(["analyze", "--chain", cross, "--n-max", "50", "--out", out]),
        "nan_matrix_entry": status(["analyze", "--chain", nan, "--tasks", "invariants", "--out", out]),
        "eps_grid_ge_1": status(["doeblin", "--catalog", "finite_uniform", "--eps-grid", "1.5", "--out", out]),
    }


# -- run record ---------------------------------------------------------------------------

def machine_record(args) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        commit = proc.stdout.strip() or "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "CHARGECHAIN_THREADS": os.environ["CHARGECHAIN_THREADS"],
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# -- one workload ---------------------------------------------------------------------------

def run_workload(args) -> dict:
    import tracing
    import workloads

    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup_s, cc, workload, paths, spec_digests = set_up(
            workloads, args.workload, args.seed, args.tiny, work / "specs"
        )
        setup_samples = [setup_s]
        runner = Runner(cc, workload, paths)
        # Warm-up on the cold-CLI catalog entry: fills lazy state and gives
        # the bytes every cold CLI run must reproduce.
        warm = runner.request(workloads.Case(workload.cli_catalog, catalog=workload.cli_catalog), None)
        expected_cli = runner.pipeline(warm)[0]
        record = {"run": machine_record(args), "probes": probes(cc, work)}
        details: dict = {"cases": len(workload.cases)}
        if args.trace == 0:
            # Cold CLI runs and repeated set-ups interleave with the passes, so
            # they sample the machine over the whole run rather than in one
            # burst.  Their numbers are fixed, so they do not depend on the
            # passes.  The passes keep the modules of the first set-up.
            cli = ColdCli(workload, expected_cli, work)

            def set_up_again():
                target = work / f"specs{len(setup_samples)}"
                setup_samples.append(set_up(workloads, args.workload, args.seed, args.tiny, target)[0])
                shutil.rmtree(target)

            def after_pass():
                for _ in range(min(CLI_RUNS_PER_PASS, CLI_RUNS - len(cli.samples))):
                    cli.run()
                if len(setup_samples) < SETUP_REPS:
                    set_up_again()

            passes = runner.run_for(args.seconds, MIN_PASSES, after_pass=after_pass)
            while len(cli.samples) < CLI_RUNS:
                cli.run()
            while len(setup_samples) < SETUP_REPS:
                set_up_again()
            runner.attempted += len(cli.samples)
            runner.failures += cli.failures
            analyze, verify, pipeline = runner.per_case(0), runner.per_case(1), runner.per_case(2)
            metrics = {
                "setup_s": statistics.median(setup_samples),
                "chains_per_s": len(pipeline) / sum(pipeline),
                "analyze_p50_s": statistics.median(analyze),
                "analyze_tail_s": percentile(analyze, TAIL_LEVEL),
                "verify_p50_s": statistics.median(verify),
                "cli_cold_s": statistics.median(cli.samples),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
            details.update(
                passes=passes,
                case_samples=len(analyze),
                analyze_tail_percentile=TAIL_LEVEL,
                setup_samples=setup_samples,
                cli_samples=cli.samples,
            )
        else:
            passes = runner.run_for(args.seconds / 2.0, 1)
            untraced = runner.pipeline_total()
            runner.samples = {}
            tracer = tracing.Tracer()
            tracer.install()
            runner.tracer = tracer
            try:
                for i in range(passes):
                    runner.run_pass(passes + i)
            finally:
                tracer.restore()
                runner.tracer = None
            metrics = tracer.layer_metrics(passes)
            metrics["trace.overhead_ratio"] = runner.pipeline_total() / untraced
            metrics["cli.import_s"] = cli_import_s()
            units = tracing.PER_LAYER_UNITS
            details.update(passes=passes, spans=len(tracer.spans))
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps(tracer.span_json()), encoding="utf-8")
            details["spans_file"] = str(spans_path.relative_to(ROOT))
        failed = len(runner.failures)
        details["fail_ratio"] = failed / runner.attempted
        record.update(
            metrics={k: {"value": metrics[k], "unit": units[k]} for k in units},
            details=details,
            correct=failed == 0,
            attempted=runner.attempted,
            failed=failed,
            failures=runner.failures[:50],
            spec_sha256=spec_digests,
            report_sha256=dict(sorted(runner.reference.items())),
        )
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_summary(record: dict) -> None:
    run, d = record["run"], record["details"]
    print(f"workload {run['workload']} seed {run['seed']} trace {run['trace']}: "
          f"{d['cases']} cases x {d['passes']} passes")
    for name, m in record["metrics"].items():
        extra = ""
        if name in ("analyze_p50_s", "verify_p50_s"):
            extra = f"  (median of {d['case_samples']} per-case trimmed means)"
        elif name == "analyze_tail_s":
            extra = f"  (p{d['analyze_tail_percentile']:g} of {d['case_samples']} per-case trimmed means)"
        elif name == "chains_per_s":
            extra = f"  (over {d['case_samples']} per-case trimmed means)"
        elif name == "setup_s":
            extra = f"  (median of {len(d['setup_samples'])})"
        elif name == "cli_cold_s":
            extra = f"  (median of {len(d['cli_samples'])})"
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{extra}")
    print(f"  {'fail_ratio':40s} {d['fail_ratio']:.6g} 1  ({record['failed']}/{record['attempted']})")
    for probe, status in record["probes"].items():
        print(f"  probe {probe}: {status}")
    for failure in record["failures"][:10]:
        print(f"  FAILED {failure}")


def run_all(args) -> int:
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="doeblin_small, ergodic_large, walks or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0, help="length of the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-tests")
    parser.add_argument("--out", default=None, help="results file to append to")
    args = parser.parse_args(argv)
    if not (SRC / "chargechain" / "__init__.py").is_file():
        print(f"error: no chargechain sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)  # before numpy loads its BLAS
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in (*workloads.WORKLOADS, "all"):
        parser.error(f"unknown workload {args.workload!r}")
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args)
    out = Path(args.out) if args.out else OUT_DIR / "results.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print_summary(record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
