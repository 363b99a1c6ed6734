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
from .kernels import TransitionKernel, cesaro_kernel, kernel_power, window_table
from .measures import (
    FAMeasure,
    MeasurableSet,
    _subset_sums,
    measurable,
    to_vector,
)

MAX_ENUM_STATES = 22
#: negative stationary weights down to this size are round-off in the truncation trend
ROUNDOFF_WEIGHT = 1e-12
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


def _small_set_max(
    kernel: TransitionKernel,
    phi: FAMeasure,
    eps: float,
    order: int,
    *,
    averaged: bool,
    strict: bool,
    stepped: dict[int, TransitionKernel] | None = None,
) -> DoeblinOutcome:
    """Exact max of p^order(x, E) (or q_order) over x and phi-admissible E.

    The enumeration runs over each row's support under the phi-admissible
    states: states j with p^order(x, j) > 0 and phi_j <= eps (< eps when
    strict).  Since phi >= 0, float subset sums of phi only grow as states
    join, so a set holding any other state is inadmissible or no larger than
    the same set without it.  The kept states are enumerated in increasing
    order by the doubling construction, so every set is summed exactly as a
    full 2^n enumeration sums it, and the maximum, the row and the
    counterexample set come out bit for bit the same.

    ``stepped`` caches the stepped kernels by order across calls that share
    one kernel and one ``averaged`` flag.
    """
    if not kernel.space.is_finite:
        raise DomainError("small-set enumeration needs a finite chain")
    n = kernel.size
    if n > MAX_ENUM_STATES:
        raise CapacityError(f"subset enumeration capped at {MAX_ENUM_STATES} states, got {n}")
    if phi.ends:
        raise PreconditionError("phi must be countably additive (atoms only)")
    if not phi.is_nonnegative():
        raise PreconditionError("phi must be nonnegative")
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"eps must lie in (0, 1), got {eps}")
    if order < 1:
        raise ValidationError(f"step order must be >= 1, got {order}")
    admits = np.less if strict else np.less_equal
    weights = to_vector(phi)
    fits = admits(weights, eps)
    if not fits.any():
        # no single state fits, so only the empty set is admissible
        return DoeblinOutcome(True, True, 0.0)
    if stepped is None:
        stepped = {}
    if order not in stepped:
        stepped[order] = cesaro_kernel(kernel, order) if averaged else kernel_power(kernel, order)
    matrix = stepped[order].matrix
    worst_val = -math.inf
    worst: tuple[np.ndarray, int, int] | None = None
    for x in range(n):
        items = np.flatnonzero(fits & (matrix[x] > 0.0))
        adm = admits(_subset_sums(weights[items]), eps)
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
    return DoeblinOutcome(holds, False, worst_val, counter)


def check_doeblin(kernel: TransitionKernel, phi: FAMeasure, eps: float, k: int) -> DoeblinOutcome:
    """Condition (D): phi(E) <= eps must force p^k(x, E) <= 1 - eps for every x."""
    return _small_set_max(kernel, phi, eps, k, averaged=False, strict=False)


def check_doeblin_tilde(kernel: TransitionKernel, phi: FAMeasure, eps: float, m: int) -> DoeblinOutcome:
    """Condition (D~): strict admission phi(E) < eps against the averaged kernel q_m."""
    return _small_set_max(kernel, phi, eps, m, averaged=True, strict=True)


def _phi_candidates(kernel: TransitionKernel, basis: InvariantBasis | None):
    if basis is None:
        basis = invariant_basis_finite(kernel)
    if basis.measures:
        yield "basis-sum", sum(basis.measures[1:], basis.measures[0])
    yield "counting", FAMeasure(kernel.space, atoms={x: 1.0 for x in range(kernel.size)})


def search_doeblin(
    kernel: TransitionKernel,
    k_max: int = 5,
    eps_grid: tuple[float, ...] = DEFAULT_EPS_GRID,
    basis: InvariantBasis | None = None,
    averaged: bool = False,
) -> DoeblinWitness | None:
    """Scan (phi, eps, k) for a verified witness.

    phi follows the constructive route (sum of the invariant basis) before
    the counting fallback; the grid is scanned by descending eps and
    ascending k.  A non-vacuous witness always wins over a vacuous one.
    Each stepped kernel is computed once and shared across the whole grid.
    """
    grid = tuple(sorted(set(float(e) for e in eps_grid), reverse=True))
    strict = averaged
    stepped: dict[int, TransitionKernel] = {}
    vac_fallback: DoeblinWitness | None = None
    for source, phi in _phi_candidates(kernel, basis):
        for eps in grid:
            for k in range(1, k_max + 1):
                out = _small_set_max(
                    kernel, phi, eps, k, averaged=averaged, strict=strict, stepped=stepped
                )
                if out.holds and not out.vacuous:
                    return DoeblinWitness(phi, eps, k, False, source, averaged)
                if out.holds and vac_fallback is None:
                    vac_fallback = DoeblinWitness(phi, eps, k, True, source, averaged)
                if out.vacuous:
                    break  # admissibility does not depend on k
    return vac_fallback


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
    """(beta): the basis measures are pairwise singular, with witness sets."""
    witnesses = []
    holds = True
    for cert in basis.pairwise:
        if cert.singular and cert.witnesses is not None:
            witnesses.append((cert.i, cert.j, cert.witnesses[0], cert.witnesses[1]))
        else:
            holds = False
    return BetaOutcome(holds, witnesses)


def lemma_sup_dirac_residual(
    kernel: TransitionKernel,
    region: MeasurableSet,
    m: int,
    trials: list[FAMeasure],
) -> tuple[float, float]:
    """(sup over Dirac starts of p^m(x, G), max over trial mixtures of A^m eta (G)).

    The first value dominates the second for every probability mixture, and
    the Dirac at the argmax attains it.
    """
    if not kernel.space.is_finite:
        raise DomainError("needs a finite chain")
    stepped = kernel_power(kernel, m)
    indicator = np.array(
        [1.0 if region.covers_state(x) else 0.0 for x in range(kernel.size)]
    )
    col = stepped.matrix @ indicator
    sup_dirac = float(col.max())
    best_mix = -math.inf
    for eta in trials:
        if not eta.is_probability():
            raise PreconditionError("trial measures must be probabilities")
        best_mix = max(best_mix, float(to_vector(eta) @ col))
    return sup_dirac, best_mix


# -- countable-chain surrogate ---------------------------------------------------

def truncate_reflecting(kernel: TransitionKernel, width: int) -> TransitionKernel:
    """Finite restriction of a countable walk; outbound mass is clipped to the boundary."""
    if kernel.space.is_finite:
        raise DomainError("truncation applies to countable chains")
    lo, hi = (0, width - 1) if kernel.space.support == "N" else (-width, width)
    sources, targets, probs = window_table(kernel, lo, hi)
    mat = np.zeros((hi - lo + 1, hi - lo + 1))
    # unbuffered, in table order: the same sums as adding the entries one by one
    np.add.at(mat, (sources - lo, np.clip(targets, lo, hi) - lo), probs)
    return TransitionKernel.finite(mat)


def doeblin_truncation_trend(
    kernel: TransitionKernel,
    widths: tuple[int, ...] | None = None,
    eps: float = 0.25,
    k: int = 1,
) -> list[tuple[int, float]]:
    """Small-set maxima of reflecting truncations, with phi the truncated stationary mass.

    When the chain carries an invariant end charge these maxima sit against
    1 across growing windows; the report phrases that as the condition
    failing in the limit.
    """
    if widths is None:
        widths = (4, 8, 16) if kernel.space.support == "N" else (2, 4, 8)
    out = []
    for w in widths:
        trunc = truncate_reflecting(kernel, w)
        basis = invariant_basis_finite(trunc)
        phi = sum(basis.measures[1:], basis.measures[0])
        # a stationary solve can leave round-off weights like -2e-18 on
        # states the truncation barely reaches; they carry no mass
        phi = FAMeasure(
            trunc.space,
            {x: 0.0 if -ROUNDOFF_WEIGHT <= v < 0.0 else v for x, v in phi.atoms.items()},
        )
        res = _small_set_max(trunc, phi, eps, k, averaged=False, strict=False)
        out.append((int(w), res.max_value))
    return out


# -- aggregate report -------------------------------------------------------------

@dataclass(frozen=True)
class DoeblinFinding:
    kind: str  # "witness" | "limit" | "capacity"
    witness: DoeblinWitness | None = None
    counterexample_demo: DoeblinOutcome | None = None
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
        verdict = "fails in the limit" if not star.holds else "undecided on infinite spaces"
        doeblin = DoeblinFinding(kind="limit", trend=trend, verdict=verdict)
        doeblin_tilde = DoeblinFinding(kind="limit", trend=trend, verdict=verdict)
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
