"""Batch analysis: run the solvers on a chain and emit deterministic reports.

Reports are plain dicts serialized with sorted keys and default float
formatting, so identical inputs produce byte-identical JSON.  Every
embedded witness carries enough data to be re-verified from the report
alone ("verify" mode re-runs the corresponding checker).
"""

from __future__ import annotations

import csv
import io
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import catalog
from .conditions import (
    DEFAULT_EPS_GRID,
    MAX_ENUM_STATES,
    ConditionReport,
    DoeblinWitness,
    build_condition_report,
    check_alpha,
    check_doeblin,
    check_doeblin_tilde,
)
from .errors import ValidationError
from .invariants import (
    INVARIANCE_TOL,
    InvariantBasis,
    escape_profile,
    invariance_residual,
    invariant_basis,
)
from .kernels import TransitionKernel, kernel_from_spec, kernel_to_spec
from .measures import dirac, evaluate, measurable, measure_from_json, set_from_json
from .ergodic import ErgodicRunResult, ergodic_run

SCHEMA_VERSION = 2
#: each task writes the report section of the same name
ALL_TASKS = ("invariants", "conditions", "ergodic", "escape")


def worker_count() -> int:
    raw = os.environ.get("CHARGECHAIN_THREADS", "1")
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValidationError(f"CHARGECHAIN_THREADS must be an integer, got {raw!r}") from exc
    return max(1, value)


@dataclass(frozen=True)
class AnalysisRequest:
    catalog: str | None = None
    chain_path: str | None = None
    tasks: tuple[str, ...] = ()
    n_max: int = 200
    k_max: int = 5
    eps_grid: tuple[float, ...] = DEFAULT_EPS_GRID
    windows: tuple[int, ...] = (8, 16, 32)

    def load(self) -> tuple[TransitionKernel, str]:
        if (self.catalog is None) == (self.chain_path is None):
            raise ValidationError("exactly one of catalog name or chain file is required")
        if self.catalog is not None:
            return catalog.build(self.catalog), f"catalog:{self.catalog}"
        path = Path(self.chain_path)
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ValidationError(f"cannot read chain file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"chain file is not valid JSON: {exc}") from exc
        return kernel_from_spec(obj), f"file:{path.name}"


def applicable_tasks(kernel: TransitionKernel, requested: tuple[str, ...]) -> list[str]:
    for t in requested:
        if t not in ALL_TASKS:
            raise ValidationError(f"unknown task {t!r}; available: {', '.join(ALL_TASKS)}")
    tasks = list(requested) if requested else list(ALL_TASKS)
    if kernel.space.is_finite:
        tasks = [t for t in tasks if t != "escape"]
    else:
        tasks = [t for t in tasks if t != "ergodic"]
    if not tasks:
        raise ValidationError("no applicable tasks for this chain")
    return tasks


def run_analysis(request: AnalysisRequest) -> dict:
    if request.n_max < 1 or request.k_max < 1:
        raise ValidationError("horizons must be positive")
    for eps in request.eps_grid:
        if not 0.0 < eps < 1.0:
            raise ValidationError(f"eps grid (--eps-grid) values must lie in (0, 1), got {eps}")
    kernel, source = request.load()
    tasks = applicable_tasks(kernel, request.tasks)
    basis = invariant_basis(kernel)
    jobs = {}
    if "invariants" in tasks:
        jobs["invariants"] = lambda: _invariants_section(kernel, basis)
    if "conditions" in tasks:
        jobs["conditions"] = lambda: _conditions_section(
            kernel, basis, build_condition_report(kernel, basis, request.k_max, request.eps_grid)
        )
    if "ergodic" in tasks:
        jobs["ergodic"] = lambda: _ergodic_section(kernel, request.n_max, basis)
    if "escape" in tasks:
        jobs["escape"] = lambda: _escape_section(kernel, request.n_max, request.windows)
    workers = worker_count()
    if workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {name: pool.submit(fn) for name, fn in sorted(jobs.items())}
            sections = {name: fut.result() for name, fut in futures.items()}
    else:
        sections = {name: fn() for name, fn in sorted(jobs.items())}
    report = {
        "schema": SCHEMA_VERSION,
        "chain": {"source": source, "spec": kernel_to_spec(kernel)},
        "tasks": sorted(tasks),
        "horizons": {
            "n_max": request.n_max,
            "k_max": request.k_max,
            "eps_grid": [float(e) for e in request.eps_grid],
            "windows": [int(w) for w in request.windows],
        },
    }
    report.update(sections)
    return report


# -- sections ---------------------------------------------------------------------

def _invariants_section(kernel: TransitionKernel, basis: InvariantBasis) -> dict:
    pairwise = []
    for cert in basis.pairwise:
        item = {
            "i": cert.i,
            "j": cert.j,
            "disjoint": cert.disjoint,
            "singular": cert.singular,
        }
        if cert.witnesses is not None:
            item["witnesses"] = [cert.witnesses[0].to_json(), cert.witnesses[1].to_json()]
        pairwise.append(item)
    return {
        "dimension": basis.dimension,
        "kinds": list(basis.kinds),
        "measures": [m.to_json() for m in basis.measures],
        "pairwise": pairwise,
        "scope": "exact" if kernel.space.is_finite else "representable",
        "residuals": [float(invariance_residual(kernel, m)) for m in basis.measures],
    }


def _verdict_json(v) -> dict:
    return {
        "condition": v.condition,
        "holds": v.holds,
        "scope": v.scope,
        "detail": v.detail,
        "evidence": v.evidence,
    }


def _witness_json(w: DoeblinWitness | None) -> dict | None:
    if w is None:
        return None
    return {
        "phi": w.phi.to_json(),
        "eps": float(w.eps),
        "k": int(w.k),
        "vacuous": w.vacuous,
        "phi_source": w.phi_source,
        "averaged": w.averaged,
    }


def _finding_json(f) -> dict:
    out = {"kind": f.kind, "verdict": f.verdict}
    if f.detail:
        out["detail"] = f.detail
    if f.witness is not None:
        out["witness"] = _witness_json(f.witness)
    if f.trend is not None:
        out["trend"] = [[int(w), float(v)] for w, v in f.trend]
    return out


def _conditions_section(
    kernel: TransitionKernel, basis: InvariantBasis, cond: ConditionReport
) -> dict:
    section = {
        "star": _verdict_json(cond.star),
        "tilde_star": _verdict_json(cond.tilde_star),
        "double_star": _verdict_json(cond.double_star),
        "D": _finding_json(cond.doeblin),
        "D_tilde": _finding_json(cond.doeblin_tilde),
        "quasicompact": {"status": cond.quasicompact, "reason": cond.quasicompact_reason},
        "beta": {
            "holds": cond.beta.holds,
            "witnesses": [
                {"i": i, "j": j, "d1": d1.to_json(), "d2": d2.to_json()}
                for i, j, d1, d2 in cond.beta.witnesses
            ],
        },
    }
    if kernel.space.is_finite:
        alphas = []
        for idx, mu in enumerate(basis.measures):
            support = measurable(kernel.space, atoms=sorted(mu.atoms))
            closed = check_alpha(kernel, mu, support)
            alphas.append(
                {
                    "index": idx,
                    "k_mu": support.to_json(),
                    "closed_set": None if closed is None else closed.to_json(),
                }
            )
        section["alpha"] = alphas
    return section


def _ergodic_section(kernel: TransitionKernel, n_max: int, basis: InvariantBasis) -> dict:
    projector, cesaro, raw = ergodic_run(kernel, n_max, basis)
    return {
        "n_max": n_max,
        "projector": projector.to_json(),
        "cesaro": _run_json(cesaro),
        "raw": _run_json(raw),
    }


def _run_json(run: ErgodicRunResult) -> dict:
    return {"distances": [float(d) for d in run.distances], "rate": run.rate.to_json()}


def _escape_section(kernel: TransitionKernel, n_max: int, windows) -> dict:
    profile = escape_profile(kernel, dirac(kernel.space, 0), n_max, tuple(windows))
    return {
        "n_max": n_max,
        "windows": [[int(m), [float(v) for v in seq]] for m, seq in profile.windows],
        "pfa_mass_estimate": float(profile.pfa_mass_estimate),
        "per_end_split": {e: float(v) for e, v in sorted(profile.per_end_split.items())},
    }


# -- serialization ------------------------------------------------------------------

def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def report_csv(report: dict) -> str:
    """Plot-ready delimited view of the series sections."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if "ergodic" in report:
        writer.writerow(["n", "cesaro_distance", "raw_distance"])
        ces = report["ergodic"]["cesaro"]["distances"]
        raw = report["ergodic"]["raw"]["distances"]
        for i in range(len(ces)):
            writer.writerow([i + 1, repr(ces[i]), repr(raw[i])])
    elif "escape" in report:
        writer.writerow(["n", "window", "mass"])
        for m, seq in report["escape"]["windows"]:
            for i, v in enumerate(seq):
                writer.writerow([i + 1, m, repr(v)])
    else:
        writer.writerow(["section", "key", "value"])
        if "invariants" in report:
            writer.writerow(["invariants", "dimension", report["invariants"]["dimension"]])
    return buf.getvalue()


def write_text_atomic(path: str | Path, text: str) -> None:
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


# -- report verification ---------------------------------------------------------------

def verify_report(report: dict) -> list[dict]:
    """Re-verify every witness embedded in a report; each item re-runs its checker.

    Fails closed: a report that lists no tasks, an unknown task, or a task
    without its section gets a failed item.
    """
    results: list[dict] = []

    def record(check: str, ok: bool, detail: str = "") -> None:
        results.append({"check": check, "ok": bool(ok), "detail": detail})

    try:
        kernel = kernel_from_spec(report["chain"]["spec"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"report lacks a chain spec: {exc}") from exc
    space = kernel.space

    tasks = report.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        record("claimed tasks", False, "the report lists no tasks")
    else:
        for task in tasks:
            known = task in ALL_TASKS
            ok = known and bool(report.get(task))
            record(f"task {task} section", ok, "" if ok else "missing" if known else "unknown task")

    inv = report.get("invariants")
    if inv:
        measures = [measure_from_json(space, m) for m in inv["measures"]]
        for idx, mu in enumerate(measures):
            res = invariance_residual(kernel, mu)
            record(
                f"invariant[{idx}] residual",
                res <= INVARIANCE_TOL,
                f"residual {res:.3e}",
            )
            record(f"invariant[{idx}] probability", mu.is_probability())
        for cert in inv.get("pairwise", []):
            if "witnesses" not in cert:
                continue
            i, j = cert["i"], cert["j"]
            d1 = set_from_json(space, cert["witnesses"][0])
            d2 = set_from_json(space, cert["witnesses"][1])
            full1 = abs(evaluate(measures[i], d1) - measures[i].total()) <= 1e-9
            full2 = abs(evaluate(measures[j], d2) - measures[j].total()) <= 1e-9
            sep = _sets_disjoint(space, d1, d2)
            record(f"singularity witness ({i},{j})", full1 and full2 and sep)

    cond = report.get("conditions")
    if cond:
        for key, strict in (("D", False), ("D_tilde", True)):
            finding = cond.get(key)
            if finding and finding.get("kind") == "capacity":
                over = space.is_finite and kernel.size > MAX_ENUM_STATES
                record(f"{key} over capacity", over, f"{space.size} states, cap {MAX_ENUM_STATES}")
                continue
            if not finding or finding.get("kind") != "witness" or not finding.get("witness"):
                continue
            w = finding["witness"]
            phi = measure_from_json(space, w["phi"])
            if strict:
                out = check_doeblin_tilde(kernel, phi, w["eps"], w["k"])
            else:
                out = check_doeblin(kernel, phi, w["eps"], w["k"])
            record(
                f"{key} witness",
                out.holds and out.vacuous == w["vacuous"],
                f"max small-set value {out.max_value:.6f}",
            )
        for item in cond.get("alpha", []):
            if item.get("closed_set") is None:
                continue
            closed = set_from_json(space, item["closed_set"])
            members = [x for x in range(kernel.size) if closed.covers_state(x)]
            ok = all(kernel.prob(x, closed) >= 1.0 - 1e-12 for x in members)
            record(f"alpha closed set [{item['index']}]", ok and bool(members))
        for w in cond.get("beta", {}).get("witnesses", []):
            d1 = set_from_json(space, w["d1"])
            d2 = set_from_json(space, w["d2"])
            record(f"beta witness ({w['i']},{w['j']})", _sets_disjoint(space, d1, d2))
        for charge_json in cond.get("star", {}).get("evidence", {}).get("invariant_charges", []):
            charge = measure_from_json(space, charge_json)
            res = invariance_residual(kernel, charge)
            record("invariant charge residual", res <= INVARIANCE_TOL, f"residual {res:.3e}")

    erg = report.get("ergodic")
    if erg:
        rows = erg["projector"]["rows"]
        ok = True
        worst = 0.0
        for x_str, row_json in rows.items():
            row = measure_from_json(space, row_json)
            res = invariance_residual(kernel, row)
            worst = max(worst, res)
            ok = ok and row.is_probability() and res <= INVARIANCE_TOL
        record("projector rows invariant", ok, f"worst residual {worst:.3e}")

    return results


def _sets_disjoint(space, a, b) -> bool:
    """Disjointness inside the finite/co-tail algebra (no complements expected)."""
    if a.complemented or b.complemented:
        return False
    if a.atoms & b.atoms:
        return False
    ends_a = {e for e, _ in a.tails}
    ends_b = {e for e, _ in b.tails}
    if ends_a & ends_b:
        return False
    for atoms, other in ((a.atoms, b), (b.atoms, a)):
        for x in atoms:
            if any(other._tail_has(e, m, x) for e, m in other.tails):
                return False
    for e1, m1 in a.tails:
        for e2, m2 in b.tails:
            d1 = space.end(e1).direction
            d2 = space.end(e2).direction
            if d1 == d2:
                return False
            hi, lo = (m1, m2) if d1 > 0 else (m2, m1)
            if lo > hi + 1:
                return False
    return True
