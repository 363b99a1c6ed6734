"""Exact checkers and searchers for the named ergodicity conditions.

Verdicts are certificates: every small-set maximization is an exact
enumeration over each row's support under the phi-admissible states (capped
at MAX_ENUM_STATES states, no heuristic fallback), and every returned
witness or counterexample re-verifies under the same checker.
Quasicompactness is never tested by constructing a compact comparison
operator; it is reported only through its proven implications from the
invariant-charge analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DomainError, PreconditionError, ValidationError
from .invariants import (
    INVARIANCE_TOL,
    InvariantBasis,
    detect_pfa_ends,
    invariance_residual,
    invariant_basis,
    invariant_basis_finite,
)
from .kernels import TransitionKernel, cesaro_kernel, kernel_power, truncate_reflecting
from .measures import (
    FAMeasure,
    MeasurableSet,
    _subset_sums,
    measurable,
    singularity_witness,
    to_vector,
)

MAX_ENUM_STATES = 22
DEFAULT_EPS_GRID = (0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1, 0.05, 0.02, 0.01)


@dataclass(frozen=True)
class DoeblinWitness:
    """A (phi, eps, k) triple under which the small-set bound holds.

    ``vacuous`` flags that no nonempty set passes the phi-smallness
    admission, which makes the bound hold trivially.
    """

    phi: FAMeasure
    eps: float
    k: int
    vacuous: bool
    phi_source: str = ""
    averaged: bool = False


@dataclass(frozen=True)
class DoeblinOutcome:
    holds: bool
    vacuous: bool
    max_value: float
    counterexample: tuple[MeasurableSet, int, float] | None = None


def _weights(kernel: TransitionKernel, phi: FAMeasure, *eps: float) -> np.ndarray:
    """phi as a vector, once the cap, phi and every eps are valid; runs before any power is formed."""
    if kernel.size > MAX_ENUM_STATES:
        raise CapacityError(f"subset enumeration capped at {MAX_ENUM_STATES} states, got {kernel.size}")
    if phi.ends:
        raise PreconditionError("phi must be countably additive (atoms only)")
    if not phi.is_nonnegative():
        raise PreconditionError("phi must be nonnegative")
    for e in eps:
        if not 0.0 < e < 1.0:
            raise ValidationError(f"eps must lie in (0, 1), got {e}")
    return to_vector(phi)


def _admits(values: np.ndarray, eps: float, strict: bool) -> np.ndarray:
    """phi values that pass admission: <= eps, or < eps when strict (on the weights: the states that fit)."""
    return (np.less if strict else np.less_equal)(values, eps)


def _small_set_max(
    kernel: TransitionKernel, matrix: np.ndarray, weights: np.ndarray, eps: float, *, strict: bool
) -> DoeblinOutcome:
    """Exact max of matrix[x, E] over x and phi-admissible E, for a stepped matrix of kernel.

    ``matrix`` is p^k or q_m of ``kernel``, and ``weights`` a phi that
    ``_weights`` accepted.  The enumeration runs over each row's support
    under the phi-admissible states: states j with matrix[x, j] > 0 and
    phi_j <= eps (< eps when strict).  Since phi >= 0, float subset sums of
    phi only grow as states join, so a set holding any other state is
    inadmissible or no larger than the same set without it.  The kept states
    are enumerated in increasing order by the doubling construction, so every
    set is summed exactly as a full 2^n enumeration sums it, and the maximum,
    the row and the counterexample set come out bit for bit the same.  When
    no state fits, only the empty set is left and the outcome is vacuous.
    """
    fits = _admits(weights, eps, strict)
    worst_val = -math.inf
    worst: tuple[np.ndarray, int, int] | None = None
    for x in range(kernel.size):
        items = np.flatnonzero(fits & (matrix[x] > 0.0))
        adm = _admits(_subset_sums(weights[items]), eps, strict)
        vals = np.where(adm, _subset_sums(matrix[x, items]), -np.inf)
        i = int(np.argmax(vals))
        if vals[i] > worst_val:
            worst_val = float(vals[i])
            worst = (items, i, x)
    holds = worst_val <= 1.0 - eps
    counter = None
    if not holds:
        items, mask, x = worst
        members = [int(j) for b, j in enumerate(items) if mask >> b & 1]
        counter = (measurable(kernel.space, atoms=members), x, worst_val)
    return DoeblinOutcome(holds, not fits.any(), worst_val, counter)


def check_doeblin(kernel: TransitionKernel, phi: FAMeasure, eps: float, k: int) -> DoeblinOutcome:
    """Condition (D): phi(E) <= eps must force p^k(x, E) <= 1 - eps for every x."""
    weights = _weights(kernel, phi, eps)
    if not _admits(weights, eps, False).any():  # decided before p^k is formed
        return DoeblinOutcome(True, True, 0.0)
    return _small_set_max(kernel, kernel_power(kernel, k).matrix, weights, eps, strict=False)


def check_doeblin_tilde(kernel: TransitionKernel, phi: FAMeasure, eps: float, m: int) -> DoeblinOutcome:
    """Condition (D~): strict admission phi(E) < eps against the averaged kernel q_m."""
    weights = _weights(kernel, phi, eps)
    if not _admits(weights, eps, True).any():  # decided before q_m is formed
        return DoeblinOutcome(True, True, 0.0)
    return _small_set_max(kernel, cesaro_kernel(kernel, m).matrix, weights, eps, strict=True)


def search_doeblin(
    kernel: TransitionKernel,
    k_max: int = 5,
    eps_grid: tuple[float, ...] = DEFAULT_EPS_GRID,
    basis: InvariantBasis | None = None,
    averaged: bool = False,
) -> DoeblinWitness | None:
    """Scan (eps, k) for a verified witness, with phi the sum of the invariant basis.

    The grid is scanned by descending eps and ascending k.  phi and the whole
    grid are validated before the first product, and each stepped kernel
    (p^k, or q_k when averaged) is formed once and shared across the grid.
    A non-vacuous witness wins over a vacuous one.  The last resort is the
    counting measure, which admits no nonempty set at any eps < 1 on a
    finite space, so it is returned without a scan.
    """
    if basis is None:
        basis = invariant_basis_finite(kernel)
    grid = tuple(sorted(set(float(e) for e in eps_grid), reverse=True))
    counting = FAMeasure(kernel.space, atoms=dict.fromkeys(range(kernel.size), 1.0))
    phi = sum(basis.measures[1:], basis.measures[0]) if basis.measures else counting
    source = "basis-sum" if basis.measures else "counting"
    weights = _weights(kernel, phi, *grid)
    step = cesaro_kernel if averaged else kernel_power
    stepped: dict[int, np.ndarray] = {}
    fallback = None
    for eps in grid:
        if not _admits(weights, eps, averaged).any():
            fallback = fallback or DoeblinWitness(phi, eps, 1, True, source, averaged)
            continue
        for k in range(1, k_max + 1):
            if k not in stepped:
                stepped[k] = step(kernel, k).matrix
            if _small_set_max(kernel, stepped[k], weights, eps, strict=averaged).holds:
                return DoeblinWitness(phi, eps, k, False, source, averaged)
    if fallback is None and grid:
        fallback = DoeblinWitness(counting, grid[0], 1, True, "counting", averaged)
    return fallback


# -- qualitative conditions ------------------------------------------------------

@dataclass(frozen=True)
class ConditionVerdict:
    condition: str
    holds: bool
    scope: str  # "exact" | "representable"
    detail: str = ""
    evidence: dict = field(default_factory=dict)


def check_star(kernel: TransitionKernel, basis: InvariantBasis | None = None) -> ConditionVerdict:
    """(*): every invariant measure is countably additive (no invariant charges).

    On a countable chain the invariant charges are the basis's "pfa"
    measures when a basis is given, and are detected afresh otherwise.
    """
    if kernel.space.is_finite:
        return ConditionVerdict(
            condition="*",
            holds=True,
            scope="exact",
            detail="finite spaces carry no pure charges",
        )
    if basis is None:
        charges = detect_pfa_ends(kernel)
    else:
        charges = [m for m, kind in zip(basis.measures, basis.kinds) if kind == "pfa"]
    return ConditionVerdict(
        condition="*",
        holds=not charges,
        scope="representable",
        detail="within the representable class of end charges",
        evidence={"invariant_charges": [c.to_json() for c in charges]},
    )


def check_tilde_star(
    kernel: TransitionKernel, star: ConditionVerdict | None = None
) -> ConditionVerdict:
    """(~*): the invariant pure-charge set is empty; equivalent to (*), so it restates ``star``."""
    base = check_star(kernel) if star is None else star
    return ConditionVerdict("~*", base.holds, base.scope, base.detail, base.evidence)


def check_double_star(basis: InvariantBasis) -> ConditionVerdict:
    """(**): the invariant space has finite dimension (reported within representation)."""
    return ConditionVerdict(
        condition="**",
        holds=True,
        scope="representable",
        detail="dimension counted over the representable basis",
        evidence={"dimension": basis.dimension},
    )


def quasicompact_diagnostic(star: ConditionVerdict) -> tuple[str, str]:
    """Report quasicompactness through its implications from the (*) verdict, never directly."""
    if star.scope == "exact":
        return "consistent", "(*) holds, which implies quasicompactness"
    if not star.holds:
        return (
            "inconsistent",
            "an invariant end charge exists, which rules out quasicompactness",
        )
    return "consistent", "(*) holds within the representable class"


def limit_verdict(star_holds: bool) -> str:
    """The verdict of a walk's (D) and (D~) "limit" findings, read off (*): they fail with it."""
    return "undecided on infinite spaces" if star_holds else "fails in the limit"


def check_alpha(
    kernel: TransitionKernel, mu: FAMeasure, k_mu: MeasurableSet
) -> MeasurableSet | None:
    """Greatest stochastically closed K inside K_mu with mu(K) = 1, if any.

    Fixpoint deletion: repeatedly drop every x with p(x, K) < 1.
    """
    if not kernel.space.is_finite:
        raise DomainError("closed-set search needs a finite chain")
    res = invariance_residual(kernel, mu)
    if res > INVARIANCE_TOL:
        raise PreconditionError(f"measure is not invariant (residual {res:.3e})")
    current = {x for x in range(kernel.size) if k_mu.covers_state(x)}
    while current:
        inside = np.zeros(kernel.size)
        for x in current:
            inside[x] = 1.0
        bad = {x for x in current if float(kernel.matrix[x] @ inside) < 1.0 - 1e-12}
        if not bad:
            break
        current -= bad
    if not current:
        return None
    mass = math.fsum(mu.atoms.get(x, 0.0) for x in sorted(current))
    if abs(mass - 1.0) > 1e-9:
        return None
    return measurable(kernel.space, atoms=current)


@dataclass(frozen=True)
class BetaOutcome:
    holds: bool
    witnesses: list[tuple[int, int, MeasurableSet, MeasurableSet]]


def check_beta(basis: InvariantBasis) -> BetaOutcome:
    """(beta): the basis measures are pairwise singular; witness sets of each singular pair i < j, in order."""
    ms = basis.measures
    pairs = [(i, j, singularity_witness(ms[i], ms[j])) for i in range(len(ms)) for j in range(i + 1, len(ms))]
    witnesses = [(i, j, *wit) for i, j, wit in pairs if wit is not None]  # the basis measures are nonnegative
    return BetaOutcome(len(witnesses) == len(pairs), witnesses)


# -- countable-chain surrogate ---------------------------------------------------

def doeblin_truncation_trend(kernel: TransitionKernel) -> list[tuple[int, float]]:
    """(D) maxima at eps = 0.25, k = 1 of reflecting truncations to 0..w-1 (N) or -w..w (Z), phi the truncated
    stationary mass.

    When the chain carries an invariant end charge these maxima sit against
    1 across growing windows; the report phrases that as the condition
    failing in the limit.
    """
    out = []
    half_line = kernel.space.support == "N"
    for w in (4, 8, 16) if half_line else (2, 4, 8):
        trunc = truncate_reflecting(kernel, 0 if half_line else -w, w - 1 if half_line else w)
        basis = invariant_basis_finite(trunc)
        phi = sum(basis.measures[1:], basis.measures[0])
        out.append((w, check_doeblin(trunc, phi, 0.25, 1).max_value))
    return out


# -- aggregate report -------------------------------------------------------------

@dataclass(frozen=True)
class DoeblinFinding:
    kind: str  # "witness" | "limit" | "capacity"
    witness: DoeblinWitness | None = None
    trend: list[tuple[int, float]] | None = None
    verdict: str = ""
    detail: str = ""  # the CapacityError message of a "capacity" finding


@dataclass(frozen=True)
class ConditionReport:
    star: ConditionVerdict
    tilde_star: ConditionVerdict
    double_star: ConditionVerdict
    doeblin: DoeblinFinding
    doeblin_tilde: DoeblinFinding
    quasicompact: str
    quasicompact_reason: str
    beta: BetaOutcome


def build_condition_report(
    kernel: TransitionKernel,
    basis: InvariantBasis | None = None,
    k_max: int = 5,
    eps_grid: tuple[float, ...] = DEFAULT_EPS_GRID,
) -> ConditionReport:
    if basis is None:
        basis = invariant_basis(kernel)
    star = check_star(kernel, basis)
    tilde = check_tilde_star(kernel, star)
    double = check_double_star(basis)
    qc, qc_reason = quasicompact_diagnostic(star)
    if kernel.space.is_finite:
        try:
            wit = search_doeblin(kernel, k_max, eps_grid, basis=basis)
            wit_avg = search_doeblin(kernel, k_max, eps_grid, basis=basis, averaged=True)
        except CapacityError as exc:
            # the exact search is out of reach; the other conditions are still reported
            doeblin = doeblin_tilde = DoeblinFinding(
                kind="capacity", verdict="capacity exceeded", detail=str(exc)
            )
        else:
            doeblin = DoeblinFinding(
                kind="witness",
                witness=wit,
                verdict="holds" if wit is not None else "no witness found",
            )
            doeblin_tilde = DoeblinFinding(
                kind="witness",
                witness=wit_avg,
                verdict="holds" if wit_avg is not None else "no witness found",
            )
    else:
        trend = doeblin_truncation_trend(kernel)
        doeblin = doeblin_tilde = DoeblinFinding(kind="limit", trend=trend, verdict=limit_verdict(star.holds))
    return ConditionReport(
        star=star,
        tilde_star=tilde,
        double_star=double,
        doeblin=doeblin,
        doeblin_tilde=doeblin_tilde,
        quasicompact=qc,
        quasicompact_reason=qc_reason,
        beta=check_beta(basis),
    )
