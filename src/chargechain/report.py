"""Batch analysis: run the solvers on a chain and emit deterministic reports.

Reports are plain dicts serialized with sorted keys and default float
formatting, so identical inputs produce byte-identical JSON.  Every
embedded witness carries enough data to be re-verified from the report
alone ("verify" mode re-runs the corresponding checker).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import operator
import os
from dataclasses import dataclass
from pathlib import Path

from . import catalog
from .conditions import (
    DEFAULT_EPS_GRID,
    MAX_ENUM_STATES,
    MAX_ORDER,
    build_condition_report,
    check_alpha,
    check_doeblin,
    check_doeblin_tilde,
    limit_verdict,
    quasicompact_diagnostic,
)
from .errors import ChargeChainError, ValidationError
from .invariants import (
    INVARIANCE_TOL,
    InvariantBasis,
    escape_checkpoints,
    escape_profile,
    escape_windows,
    invariance_residual,
    invariant_basis,
    measure_kind,
    recurrent_classes,
    states_outside,
    stationary_of_class,
)
from .kernels import TransitionKernel, kernel_from_spec, kernel_to_spec
from .measures import end_direction, evaluate, is_disjoint, measurable, measure_from_json, set_from_json, to_vector
from .ergodic import MAX_HORIZON, ergodic_run, fitted_rate

SCHEMA_VERSION = 8
#: tolerance of the absorption rows' sums, and of the certified error max |H - H*| of the rows
ABSORPTION_TOL = 1e-9
#: tolerance of the certified error |Π_i - Π_i*|₁ of each stationary law
STATIONARY_TOL = 1e-9
#: relative tolerance of a re-fitted rate ratio against the stored one
RATE_TOL = 1e-9
#: the largest residual δ = max |t − Q·t − 1| of stored expected times, each then exact to relative δ
TIME_TOL = 1e-6
#: what reading or checking a report section of the wrong shape or out of its domain raises; verify fails an item on it
MALFORMED = (KeyError, TypeError, ValueError, IndexError, AttributeError, OverflowError, ChargeChainError)
#: each task writes the report section of the same name
ALL_TASKS = ("invariants", "conditions", "ergodic", "escape")


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
    for i, t in enumerate(requested):
        if t not in ALL_TASKS:
            raise ValidationError(f"unknown task {t!r}; available: {', '.join(ALL_TASKS)}")
        if t in requested[:i]:
            raise ValidationError(f"task {t!r} is requested twice")
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
    if request.k_max > MAX_ORDER:
        raise ValidationError(f"the step order (--k-max) must be at most {MAX_ORDER}, got {request.k_max}")
    if not request.eps_grid:  # no grid point to search, so (D) and (D~) would get no witness to verify
        raise ValidationError("the eps grid (--eps-grid) must hold at least one value")
    for eps in request.eps_grid:
        if not 0.0 < eps < 1.0:
            raise ValidationError(f"eps grid (--eps-grid) values must lie in (0, 1), got {eps}")
    kernel, source = request.load()
    tasks = applicable_tasks(kernel, request.tasks)
    if "escape" in tasks:
        escape_windows(request.windows)  # refused before the basis and the other sections are formed
    if "ergodic" in tasks and request.n_max > MAX_HORIZON:  # the escape doubling takes any n_max
        raise ValidationError(f"the ergodic horizon (--n-max) must be at most {MAX_HORIZON}, got {request.n_max}")
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
    # the escape profile is the one section that does not read the invariant basis
    basis = invariant_basis(kernel) if set(tasks) - {"escape"} else None
    if "invariants" in tasks:
        report["invariants"] = _invariants_section(kernel, basis)
    if "conditions" in tasks:
        report["conditions"] = build_condition_report(kernel, basis, request.k_max, request.eps_grid)
    if "ergodic" in tasks:
        report["ergodic"] = ergodic_run(kernel, request.n_max, basis)
    if "escape" in tasks:
        report["escape"] = escape_profile(kernel, request.n_max, request.windows)
    return report


# -- sections ---------------------------------------------------------------------

def _invariants_section(kernel: TransitionKernel, basis: InvariantBasis) -> dict:
    return {
        "dimension": basis.dimension,
        "kinds": list(basis.kinds),
        "measures": [m.to_json() for m in basis.measures],
        "scope": "exact" if kernel.space.is_finite else "representable",
        "residuals": [float(invariance_residual(kernel, m)) for m in basis.measures],
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
            for n, v in zip(report["escape"]["checkpoints"], seq):
                writer.writerow([n, m, repr(v)])
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

    Fails closed: a report of another schema, one that lists no tasks, an
    unknown task, or a task without its section gets a failed item.  The
    sections of another schema are not read.  A report that is not a JSON
    object raises ValidationError.
    """
    if not isinstance(report, dict):
        raise ValidationError(f"report must be a JSON object, got {type(report).__name__}")
    results: list[dict] = []

    def record(check: str, ok: bool, detail: str = "") -> None:
        results.append({"check": check, "ok": bool(ok), "detail": detail})

    found = report.get("schema")
    current = found == SCHEMA_VERSION
    record("schema", current, f"schema {found}" + ("" if current else f", expected {SCHEMA_VERSION}"))

    tasks = report.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        record("claimed tasks", False, "the report lists no tasks")
    else:
        for task in tasks:
            known = task in ALL_TASKS
            ok = known and bool(report.get(task))
            record(f"task {task} section", ok, "" if ok else "missing" if known else "unknown task")
    if not current:
        return results

    try:
        kernel = kernel_from_spec(report["chain"]["spec"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"report lacks a chain spec: {exc}") from exc

    classes = recurrent_classes(kernel) if kernel.space.is_finite else None
    basis = _read_basis(kernel, report)
    projector = _read_projector(kernel, report)
    laws = _class_laws(kernel, classes, projector, report)
    sections = {
        "invariants": lambda inv: _verify_invariants(kernel, classes, laws, basis, inv, record),
        "conditions": lambda cond: _verify_conditions(kernel, classes, laws, basis, cond, record),
        "ergodic": lambda erg: _verify_ergodic(kernel, classes, laws, projector, erg, record),
        "escape": lambda esc: _verify_escape(kernel, report["horizons"], esc, record),
    }
    for name, check in sections.items():
        if report.get(name):
            try:
                check(report[name])
            except MALFORMED as exc:
                record(f"{name} format", False, f"{type(exc).__name__}: {exc}")
    return results


def _read_basis(kernel: TransitionKernel, report: dict) -> list | Exception | None:
    """The ``invariants`` section's measures, parsed once; or what parsing raised; None without the section."""
    if not report.get("invariants"):
        return None
    try:
        return [measure_from_json(kernel.space, m) for m in report["invariants"]["measures"]]
    except MALFORMED as exc:
        return exc


def _verify_invariants(kernel: TransitionKernel, classes, laws, measures, inv: dict, record) -> None:
    """Check the invariance of each of ``measures`` (``_read_basis``), that its stored residual is the
    recomputed one, and that ``dimension``, ``kinds`` and ``scope`` describe them.  On a finite chain,
    also check that the basis is one "ca" measure per class of ``classes``, in class order, each its
    class's law in ``laws``."""
    if isinstance(measures, Exception):
        raise measures
    residuals, scope = inv["residuals"], inv["scope"]
    if len(residuals) != len(measures):
        raise ValidationError(f"{len(residuals)} residuals for {len(measures)} measures")
    for idx, (mu, stored) in enumerate(zip(measures, residuals)):
        res = invariance_residual(kernel, mu)
        record(
            f"invariant[{idx}] residual",
            res <= INVARIANCE_TOL and stored == res,
            f"residual {res:.3e}" + ("" if stored == res else f", stored {stored!r}"),
        )
        record(f"invariant[{idx}] probability", mu.is_probability())
    dimension, kinds = inv["dimension"], inv["kinds"]
    scoped = scope == ("exact" if classes is not None else "representable")
    misscoped = "" if scoped else f"; scope {scope!r}"
    if classes is None:
        read = [measure_kind(mu) for mu in measures]  # as the analysis reads its basis
        empty = "" if measures else "; but every Markov operator has an invariant FA probability (Markov-Kakutani)"
        record(
            "invariant basis kinds",
            scoped and bool(measures) and len(measures) == dimension and None not in read and kinds == read,
            f"{len(measures)} measures, dimension {dimension}, kinds {kinds}; the measures read as {read}{misscoped}"
            + empty,
        )
        return
    ok = (
        scoped
        and len(measures) == len(classes) == dimension
        and kinds == ["ca"] * len(classes)
        and all(not mu.ends and set(mu.atoms) <= set(c) for mu, c in zip(measures, classes))
    )
    record(
        "invariant basis complete",
        ok,
        f"{len(measures)} measures, dimension {dimension}, kinds {kinds}; the kernel has {len(classes)} classes"
        + misscoped,
    )
    # bounds on the l1 distances to the exact laws; a measure on a finite space has atoms only
    gaps = [math.fsum(map(abs, (to_vector(mu) - to_vector(pi)).tolist())) + e for mu, (pi, e) in zip(measures, laws)]
    worst = max(gaps, default=0.0)
    record("invariant class laws", worst <= STATIONARY_TOL, f"l1 distance to the exact class laws <= {worst:.3e}")


def _read_projector(kernel: TransitionKernel, report: dict) -> tuple | Exception:
    """The projector's rank, classes, laws, hitting times, absorption rows and times, parsed once; or what it raised."""
    try:
        proj = report["ergodic"]["projector"]
        return (
            proj["rank"],
            [list(c) for c in proj["classes"]],
            [measure_from_json(kernel.space, m) for m in proj["stationary"]],
            [_times_from_json(times) for times in proj["hitting_times"]],
            {int(x): [float(h) for h in row] for x, row in proj["absorption"].items()},
            _times_from_json(proj["absorption_times"]),
        )
    except MALFORMED as exc:
        return exc


def _class_laws(kernel: TransitionKernel, classes, projector, report: dict) -> list | None:
    """Each class's stationary law with a bound on its l1 distance to the exact law.

    The laws are the projector's when the report holds one on ``classes``, each
    bounded through its hitting times (``_stationary_error``); else, when the
    ``invariants`` or ``conditions`` section needs them, solved afresh, with
    bound 0.  None on a countable chain, and when nothing reads them.
    """
    if classes is None:
        return None
    if not isinstance(projector, Exception):
        _, proj_classes, laws, hitting, _, _ = projector
        if proj_classes == [list(c) for c in classes] and len(laws) == len(hitting) == len(classes):
            return [(pi, _stationary_error(kernel, c, pi, t)) for c, pi, t in zip(classes, laws, hitting)]
    if not (report.get("invariants") or report.get("conditions")):
        return None
    return [(stationary_of_class(kernel, c), 0.0) for c in classes]


def _verify_conditions(kernel: TransitionKernel, classes, laws, parsed, cond: dict, record) -> None:
    """Check the conditions section.  On a finite chain each of (D) and (D~) must be a "capacity" finding
    over the cap or a witness of order at most ``MAX_ORDER`` that holds and re-verifies, and each class
    law in ``laws`` must have its (alpha) entry: its class as K_mu, and ``check_alpha``'s closed set in it.  A
    walk's (D) and (D~) are "limit" findings, checked with the verdicts."""
    space = kernel.space
    for key, strict in (("D", False), ("D_tilde", True)):
        finding = cond.get(key) or {}
        kind, verdict, w = finding.get("kind"), finding.get("verdict"), finding.get("witness")
        if kind == "capacity":
            over = space.is_finite and kernel.size > MAX_ENUM_STATES
            record(f"{key} over capacity", over, f"{space.size} states, cap {MAX_ENUM_STATES}")
            continue
        if kind != "witness" or verdict != "holds" or not w:
            if classes is not None:
                record(f"{key} witness", False, f"a {kind!r} finding reading {verdict!r}, with no witness that holds")
            continue
        if w["k"] > MAX_ORDER:  # refused before any product is formed; the checkers refuse a k below 1
            record(f"{key} witness", False, f"order {w['k']!r} is past the cap {MAX_ORDER}")
            continue
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
    if classes is not None:  # a finite chain's basis is its class laws, in class order
        class_laws = [pi for pi, _ in laws]
        alpha = cond.get("alpha") or []
        for i, (mu, members) in enumerate(zip(class_laws, classes, strict=True)):
            k_mu = measurable(space, atoms=members)
            item = alpha[i] if len(alpha) == len(class_laws) else {}
            read = [None if item.get(k) is None else set_from_json(space, item[k]) for k in ("k_mu", "closed_set")]
            ok = item.get("index") == i and read == [k_mu, check_alpha(kernel, mu, k_mu)]
            record(f"alpha closed set [{i}]", ok)
        parsed = class_laws if parsed is None else parsed
    _verify_beta(space, parsed, cond["beta"], cond["double_star"]["evidence"]["dimension"], record)
    for charge_json in cond.get("star", {}).get("evidence", {}).get("invariant_charges", []):
        charge = measure_from_json(space, charge_json)
        res = invariance_residual(kernel, charge)
        record("invariant charge residual", res <= INVARIANCE_TOL, f"residual {res:.3e}")
    _verify_verdicts(classes, cond, record)


def _verify_verdicts(classes, cond: dict, record) -> None:
    """Check that the verdicts agree with each other and with the listed evidence.

    A walk's (*) is taken from its listed charges, not re-derived from the spec.
    """
    star = cond["star"]
    holds = star["holds"]
    free = not star["evidence"].get("invariant_charges")
    d = cond["double_star"]["evidence"]["dimension"]
    qc_status, _ = quasicompact_diagnostic(star)
    limits = classes is not None or all(
        cond[key]["kind"] == "limit" and cond[key]["verdict"] == limit_verdict(free) for key in ("D", "D_tilde")
    )
    wrong = [
        name
        for name, ok in (
            ("(*) against its charges", holds == free),
            ("(*) on a finite chain", classes is None or holds),
            ("(~*) against (*)", cond["tilde_star"]["holds"] == holds),
            ("quasicompact against (*)", cond["quasicompact"]["status"] == qc_status),
            ("(**) dimension against the classes", classes is None or d == len(classes)),
            ("(D) and (D~) on a walk against the charges", limits),
        )
        if not ok
    ]
    record("condition verdicts consistent", not wrong, "; ".join(f"{w} fails" for w in wrong))


def _verify_beta(space, parsed, beta: dict, d: int, record) -> None:
    """Check each (beta) pair's sets, then the pairs against the (**) dimension ``d``.

    The sets must be disjoint and, when the basis is known (``_read_basis``, or on a finite chain the
    class laws), hold their measures' full mass.  The pairs must be some of (i, j) with i < j < d, in
    order: all of them when (beta) holds, and a pair left out must have measures that are not disjoint.
    A known basis must have d measures.  The pairs are counted, not listed, as a report may claim any d.
    """
    measures = parsed if isinstance(parsed, list) else None
    unread = "the measures are not in the report" if parsed is None else "the measures do not parse"
    pairs = []
    for w in beta["witnesses"]:
        i, j = w["i"], w["j"]
        sets = set_from_json(space, w["d1"]), set_from_json(space, w["d2"])
        held = [] if measures is None else [(measures[k], s) for k, s in zip((i, j), sets)]
        full = all(abs(evaluate(mu, s) - mu.total()) <= 1e-9 for mu, s in held)
        record(f"beta witness ({i},{j})", full and _sets_disjoint(*sets), "" if measures is not None else unread)
        pairs.append((i, j))
    n, listed = max(operator.index(d), 0), set(pairs)  # fails on a d that is no integer; d may be any size
    missing = n * (n - 1) // 2 - len(listed)

    def left_out():  # lazily, in order: d may be far past the basis
        return ((i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in listed)

    sized = measures is None or d == len(measures)
    apart = missing > 0  # without the measures, no pair left out can be shown not disjoint
    if measures is not None:
        apart = sized and any(is_disjoint(measures[i], measures[j]) for i, j in left_out())
    shown = list(itertools.islice(left_out(), 10))
    more = f" and {missing - len(shown)} more" if missing > len(shown) else ""
    record(
        "beta pairs",
        sized and pairs == sorted(listed) and all(0 <= i < j < d for i, j in pairs)
        and beta["holds"] == (not missing) and not apart,
        f"{len(pairs)} of the {n * (n - 1) // 2} pairs i < j < {d} listed, holds {beta['holds']}"
        + (f"; left out {shown}{more}" if shown else "")
        + ("" if sized else f"; d is not the basis length {len(measures)}")
        + ("" if measures is not None else f"; {unread}"),
    )


def _verify_ergodic(kernel: TransitionKernel, classes, laws, projector, erg: dict, record) -> None:
    runs = [(mode, erg.get(mode)) for mode in ("cesaro", "raw")]  # first: a section that is no object fails alone
    _verify_projector(kernel, classes, laws, projector, record)
    for mode, run in runs:
        _verify_rate(run, mode, record)


def _verify_projector(kernel: TransitionKernel, expected, laws, projector, record) -> None:
    """Check the factors of P = H·Π against the kernel's rows, in O(nnz·r).

    The classes must be ``expected``, the kernel's closed communicating classes.  The
    stored expected times bound ‖(I − Q)⁻¹‖∞ (``_time_factor``), which turns
    the residuals of Π_i(I − P) = 0 and (I − Q)·H = B into bounds on the
    distance to the exact factors; those bounds are what is checked (with one
    class every exact absorption row is [1]: the distance is read off the rows).
    Once the format and the classes pass, ``laws`` hold this projector's laws with
    their bounds, as ``_class_laws`` reads them from the same ``projector``.
    """
    if not kernel.space.is_finite:
        record("projector on a finite chain", False, "the chain is countable")
        return
    if isinstance(projector, Exception):
        record("projector format", False, f"{type(projector).__name__}: {projector}")
        return
    rank, classes, stationary, hitting, absorption, absorption_times = projector
    ok = rank == len(expected) == len(stationary) == len(hitting) and classes == [list(c) for c in expected]
    record(
        "projector classes",
        ok,
        f"rank {rank}, {len(classes)} classes, {len(stationary)} stationary laws; the kernel has {len(expected)}",
    )
    if not ok:
        return

    for i, (_, bound) in enumerate(laws):
        record(f"projector stationary[{i}]", bound <= STATIONARY_TOL, f"l1 distance to the exact law <= {bound:.3e}")

    transient = set(states_outside(expected, kernel.size))
    record(
        "projector transient states",
        set(absorption) == transient == set(absorption_times),
        f"{len(transient)} transient, {len(absorption)} absorption rows, {len(absorption_times)} absorption times",
    )
    rows_ok = all(
        len(h) == rank and all(v >= -ABSORPTION_TOL for v in h) and abs(math.fsum(h) - 1.0) <= ABSORPTION_TOL
        for h in absorption.values()
    )
    record(
        "projector absorption rows",
        rows_ok,
        f"{len(absorption)} rows of {rank} nonnegative entries summing to 1 (tolerance {ABSORPTION_TOL:g})",
    )
    if not rows_ok or not set(absorption) == transient == set(absorption_times):
        return  # already failed, and the equation needs every row and time
    class_of = {s: i for i, c in enumerate(classes) for s in c}
    worst = 0.0
    for x, h in absorption.items():
        row = {y: p for y, p in kernel.row(x).items() if y != x}  # 1 - p(x, x) is its mass: no cancellation
        lhs = [math.fsum(row.values()) * v for v in h]  # row x of (I - Q)·H - B
        for y, p in row.items():
            if y in class_of:
                lhs[class_of[y]] -= p
            else:
                for i, hy in enumerate(absorption[y]):
                    lhs[i] -= p * hy
        worst = max(worst, max(map(abs, lhs), default=0.0))
    factor = _time_factor(kernel, absorption_times)
    bound = worst * max(absorption_times.values(), default=0.0) * factor if factor < math.inf else math.inf
    if rank == 1 and factor < math.inf:  # every exact row is [1]: the distance is read off the stored rows
        bound = max((abs(h[0] - 1.0) for h in absorption.values()), default=0.0)
    record(
        "projector absorption equation",
        bound <= ABSORPTION_TOL,
        f"max |(I - Q)H - B| {worst:.3e}, max distance to the exact rows <= {bound:.3e}",
    )


def _verify_escape(kernel: TransitionKernel, horizons: dict, esc: dict, record) -> None:
    """Check the escape profile's checkpoints and windows against the horizons, its masses against [0, 1]
    and the nesting of the windows, its estimate against its largest window, and its split over the
    chain's ends; the window masses are not re-derived (that is the analysis)."""
    n_max, checkpoints, windows, split = esc["n_max"], esc["checkpoints"], esc["windows"], esc["per_end_split"]
    sizes = [m for m, _ in windows]
    shaped = n_max == horizons["n_max"] and sizes == sorted(horizons["windows"])
    shaped = shaped and checkpoints == escape_checkpoints(n_max)
    shaped = shaped and all(len(seq) == len(checkpoints) for _, seq in windows)
    masses = list(zip(*(seq for _, seq in windows))) if shaped else []  # each checkpoint's masses, by window size
    bounded = all(0.0 <= v <= 1.0 + 1e-12 for at_n in masses for v in at_n)
    nested = all(list(at_n) == sorted(at_n) for at_n in masses)
    estimate = bool(windows) and esc["pfa_mass_estimate"] == 1.0 - windows[-1][1][-1]
    ends = not split or (set(split) <= set(kernel.space.end_ids()) and abs(math.fsum(split.values()) - 1.0) <= 1e-9)
    record(
        "escape profile",
        not kernel.space.is_finite and shaped and bounded and nested and estimate and ends,
        f"windows {sizes} at {len(checkpoints)} checkpoints to n = {n_max}, masses in [0, 1]: {bounded}, "
        f"growing with the window: {nested}, estimate {esc['pfa_mass_estimate']}, split over {sorted(split)}; "
        "the window masses are not re-derived",
    )


def _times_from_json(times) -> dict[int, float]:
    return {int(x): float(t) for x, t in times.items()}


def _time_factor(kernel: TransitionKernel, times: dict[int, float]) -> float:
    """How far stored expected times may undershoot the exact ones: t* <= t · factor.

    Q is the kernel restricted to the states of ``times`` and t* = (I − Q)⁻¹·1,
    so max t* = ‖(I − Q)⁻¹‖∞.  With δ = max |t − Q·t − 1|, t = (I − Q)⁻¹(1 + e)
    with |e| <= δ, and as (I − Q)⁻¹ >= 0 this gives t / (1 + δ) <= t* <= t / (1 − δ):
    each stored time is certified to relative δ.  The factor is 1 / (1 − δ),
    infinite when δ > TIME_TOL or a time is not finite.
    """
    delta = 0.0
    for x, t in times.items():
        row = {y: p for y, p in kernel.row(x).items() if y != x}
        res = math.fsum(row.values()) * t - 1.0
        for y, p in row.items():
            res -= p * times.get(y, 0.0)
        if not abs(res) <= TIME_TOL:
            return math.inf
        delta = max(delta, abs(res))
    return 1.0 / (1.0 - delta)


def _stationary_error(kernel: TransitionKernel, states: list[int], pi, times: dict[int, float]) -> float:
    """A bound on |Π − Π*|₁ for a law Π on a closed class from its residual r = Π(I − P).

    ``times`` hold the expected steps to the class's anchor s from every
    other class state.  Π − Π* = p + cΠ* with p = r'(I − Q_s)⁻¹ on the class
    minus s and c = Π·1 − 1 − p·1, so |Π − Π*|₁ <= 2 Σ_j |r_j| t*_j + |Π·1 − 1|.
    A law with mass off the class, or whose sums leave the float range, gets no bound (inf).
    """
    on_class = not pi.ends and set(pi.atoms) <= set(states)
    if not on_class or len(set(states) - set(times)) != 1 or not set(times) <= set(states):
        return math.inf
    factor = _time_factor(kernel, times)
    if factor == math.inf:
        return math.inf
    r = dict.fromkeys(states, 0.0)  # Π(I − P); the class is closed
    for x in states:
        row = {y: p for y, p in kernel.row(x).items() if y != x}
        r[x] += pi.atoms.get(x, 0.0) * math.fsum(row.values())
        for y, p in row.items():
            r[y] -= pi.atoms.get(x, 0.0) * p
    try:
        weighted = math.fsum(abs(r[j]) * t for j, t in times.items())
        return 2.0 * weighted * factor + abs(pi.total() - 1.0)
    except OverflowError:  # sums past the float range
        return math.inf


def _verify_rate(run, mode: str, record) -> None:
    """Re-fit the rate from the stored distances and compare it with the stored fit."""
    try:
        refit = fitted_rate(run["distances"])
        stored = run["rate"]
        same = set(stored) == set(refit) and all(
            math.isclose(stored[k], v, rel_tol=RATE_TOL, abs_tol=0.0) if k == "ratio" else stored[k] == v
            for k, v in refit.items()
        )
    except MALFORMED as exc:
        record(f"{mode} rate fit", False, f"{type(exc).__name__}: {exc}")
        return
    record(f"{mode} rate fit", same, f"refit {json.dumps(refit, sort_keys=True)}")


def _sets_disjoint(a, b) -> bool:
    """Disjointness inside the finite/co-tail algebra (no complements expected)."""
    if a.complemented or b.complemented:
        return False
    if any(b.covers_state(x) for x in a.atoms) or any(a.covers_state(x) for x in b.atoms):
        return False
    for e1, m1 in a.tails:
        for e2, m2 in b.tails:
            d1 = end_direction(e1)
            if d1 == end_direction(e2):  # two tails toward one end meet past both thresholds
                return False
            hi, lo = (m1, m2) if d1 > 0 else (m2, m1)
            if lo > hi + 1:
                return False
    return True
