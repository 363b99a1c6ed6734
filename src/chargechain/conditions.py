"""Exact checkers and searchers for the named ergodicity conditions.

Verdicts are certificates: every small-set maximization is an exact
enumeration over each row's support under the phi-admissible states (capped
at MAX_ENUM_STATES states, no heuristic fallback), and every returned
witness re-verifies under the same checker, whose exact maximum is the only
value it computes.  The witness search decides a check that fails at its
first row past 1 - eps; a check that holds, and every ``check_doeblin*``
call, reads every row.  Within one search each row of p^k (or q_k) is
enumerated at its first read only; a read at a smaller eps of the
descending grid filters the admissible sets that the first read kept, which
by monotonicity hold every set admissible there, with the same bits.
Quasicompactness is never tested by constructing a compact comparison
operator; it is reported only through its proven implications from the
invariant-charge analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, PreconditionError, ValidationError
from .invariants import InvariantBasis, invariant_basis, invariant_basis_finite
from .kernels import TransitionKernel, cesaro_kernel, edges, kernel_power, truncate_reflecting
from .measures import (
    FAMeasure,
    MeasurableSet,
    _subset_sums,
    measurable,
    singularity_witness,
    to_vector,
)

MAX_ENUM_STATES = 22
#: a row keeps its admissible sets for later reads when it has at most this many (16 bytes each: phi and row sums)
MAX_KEPT_SETS = 4096
#: the largest step order k (or m) that the analysis scans and that a report's witness may carry
MAX_ORDER = 64
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

    def to_json(self) -> dict:
        return {
            "phi": self.phi.to_json(),
            "eps": float(self.eps),
            "k": int(self.k),
            "vacuous": self.vacuous,
            "phi_source": self.phi_source,
            "averaged": self.averaged,
        }


@dataclass(frozen=True)
class DoeblinOutcome:
    """A small-set check's verdict, whether no nonempty set was admitted, and its exact maximum."""

    holds: bool
    vacuous: bool
    max_value: float


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


def _row_maxima(matrix: np.ndarray, kept: dict, weights: np.ndarray, eps: float, strict: bool):
    """Each row's exact max of matrix[x, E] over phi-admissible E, in row order.

    A row's first read enumerates its support under the phi-admissible
    states: states j with matrix[x, j] > 0 and phi_j <= eps (< eps when
    strict).  Since phi >= 0, float subset sums of phi only grow as states
    join, so a set holding any other state is inadmissible or no larger than
    the same set without it.  The kept states are enumerated in increasing
    order by the doubling construction, so every set is summed exactly as a
    full 2^n enumeration sums it.  Rows are enumerated only as they are read.
    phi's sums and then the row's are written to one scratch array, grown to
    the largest row read, so a first read allocates only the admissible sets
    it keeps.

    Those sets' phi sums and row sums go into ``kept`` under x when there are
    at most MAX_KEPT_SETS of them.  A later read at an eps no larger filters
    them again instead of enumerating the row: by the same growth, every set
    admissible there is among them, with the same bits.
    """
    fits = _admits(weights, eps, strict)
    scratch = np.empty(0)
    for x, row in enumerate(matrix):
        if x in kept:
            phis, sums = kept[x]
            sums = sums[_admits(phis, eps, strict)]
        else:
            items = np.flatnonzero(fits & (row > 0.0))
            if scratch.size < 1 << items.size:
                scratch = np.empty(1 << items.size)
            phis = _subset_sums(weights[items], scratch)
            admitted = _admits(phis, eps, strict)
            phis = phis[admitted]
            sums = _subset_sums(row[items], scratch)[admitted]
            if sums.size <= MAX_KEPT_SETS:
                kept[x] = phis, sums
        yield float(sums.max())  # the empty set is always admitted


def _small_set_max(kernel: TransitionKernel, phi: FAMeasure, eps: float, order: int, *, strict: bool) -> DoeblinOutcome:
    """Exact max of p^order[x, E] (q_order when strict) over x and phi-admissible E.

    Every row of ``_row_maxima`` is read, once, so the maximum comes out bit
    for bit as a full 2^n enumeration of every row gives it.  When no state
    fits, only the empty set is left: the outcome is vacuous, decided before
    the stepped kernel is formed.
    """
    weights = _weights(kernel, phi, eps)
    if not _admits(weights, eps, strict).any():
        return DoeblinOutcome(True, True, 0.0)
    stepped = (cesaro_kernel if strict else kernel_power)(kernel, order).matrix
    worst = max(_row_maxima(stepped, {}, weights, eps, strict))
    return DoeblinOutcome(worst <= 1.0 - eps, False, worst)


def check_doeblin(kernel: TransitionKernel, phi: FAMeasure, eps: float, k: int) -> DoeblinOutcome:
    """Condition (D): phi(E) <= eps must force p^k(x, E) <= 1 - eps for every x."""
    return _small_set_max(kernel, phi, eps, k, strict=False)


def check_doeblin_tilde(kernel: TransitionKernel, phi: FAMeasure, eps: float, m: int) -> DoeblinOutcome:
    """Condition (D~): strict admission phi(E) < eps against the averaged kernel q_m."""
    return _small_set_max(kernel, phi, eps, m, strict=True)


def search_doeblin(
    kernel: TransitionKernel,
    basis: InvariantBasis,
    k_max: int = 5,
    eps_grid: tuple[float, ...] = DEFAULT_EPS_GRID,
    averaged: bool = False,
) -> DoeblinWitness | None:
    """Scan (eps, k) for a verified witness, with phi the sum of the invariant basis.

    The grid is scanned by descending eps and ascending k.  phi and the whole
    grid are validated before the first product, and each stepped kernel
    (p^k, or q_k when averaged) is formed once and shared across the grid,
    with the admissible sets its rows kept at their first read, so each
    (k, row) is enumerated at most once per call.  Only a check's verdict is
    read, so a check that fails stops at its first row past 1 - eps.
    A non-vacuous witness wins over a vacuous one.  The last resort is the
    counting measure, which admits no nonempty set at any eps < 1 on a
    finite space, so it is returned without a scan.
    """
    grid = tuple(sorted(set(float(e) for e in eps_grid), reverse=True))
    counting = FAMeasure(kernel.space, atoms=dict.fromkeys(range(kernel.size), 1.0))
    phi = sum(basis.measures[1:], basis.measures[0]) if basis.measures else counting
    source = "basis-sum" if basis.measures else "counting"
    weights = _weights(kernel, phi, *grid)
    step = cesaro_kernel if averaged else kernel_power
    stepped: dict[int, tuple[np.ndarray, dict]] = {}  # k -> (p^k or q_k, its rows' kept sets)
    fallback = None
    for eps in grid:
        if not _admits(weights, eps, averaged).any():
            fallback = fallback or DoeblinWitness(phi, eps, 1, True, source, averaged)
            continue
        for k in range(1, k_max + 1):
            if k not in stepped:
                stepped[k] = step(kernel, k).matrix, {}
            if all(v <= 1.0 - eps for v in _row_maxima(*stepped[k], weights, eps, averaged)):
                return DoeblinWitness(phi, eps, k, False, source, averaged)
    if fallback is None and grid:
        fallback = DoeblinWitness(counting, grid[0], 1, True, "counting", averaged)
    return fallback


# -- qualitative conditions ------------------------------------------------------

def check_star(kernel: TransitionKernel, basis: InvariantBasis) -> dict:
    """(*): every invariant measure is countably additive (no invariant charges).

    On a countable chain the invariant charges are the basis's "pfa" measures.
    """
    if kernel.space.is_finite:
        return _verdict("*", True, "exact", "finite spaces carry no pure charges")
    charges = [m for m, kind in zip(basis.measures, basis.kinds) if kind == "pfa"]
    return _verdict(
        "*",
        not charges,
        "representable",
        "within the representable class of end charges",
        {"invariant_charges": [c.to_json() for c in charges]},
    )


def check_tilde_star(star: dict) -> dict:
    """(~*): the invariant pure-charge set is empty; equivalent to (*), so it restates ``star``."""
    return {**star, "condition": "~*"}


def check_double_star(basis: InvariantBasis) -> dict:
    """(**): the invariant space has finite dimension (reported within representation)."""
    return _verdict(
        "**", True, "representable", "dimension counted over the representable basis", {"dimension": basis.dimension}
    )


def _verdict(condition: str, holds: bool, scope: str, detail: str, evidence: dict | None = None) -> dict:
    """A verdict as the report writes it; ``scope`` is "exact" or "representable"."""
    return {"condition": condition, "holds": holds, "scope": scope, "detail": detail, "evidence": evidence or {}}


def quasicompact_diagnostic(star: dict) -> tuple[str, str]:
    """Report quasicompactness through its implications from the (*) verdict, never directly."""
    if star["scope"] == "exact":
        return "consistent", "(*) holds, which implies quasicompactness"
    if not star["holds"]:
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

    A state leaves K while one of its ``edges`` leads out of K, as ``recurrent_classes`` reads closedness.
    mu is read only through its mass on K, so its invariance is not checked here: every caller hands in a
    law that is certified elsewhere.
    """
    if not kernel.space.is_finite:
        raise DomainError("closed-set search needs a finite chain")
    xs, ys = edges(kernel)
    inside = np.array([k_mu.covers_state(x) for x in range(kernel.size)])
    while (leaving := xs[inside[xs] & ~inside[ys]]).size:  # one pass when K is a closed class
        inside[leaving] = False
    current = np.flatnonzero(inside).tolist()
    if abs(math.fsum(mu.atoms.get(x, 0.0) for x in current) - 1.0) > 1e-9:  # an empty K has mass 0
        return None
    return measurable(kernel.space, atoms=current)


def check_beta(basis: InvariantBasis) -> dict:
    """(beta): the basis measures are pairwise singular; witness sets of each singular pair i < j, in order."""
    ms = basis.measures
    pairs = [(i, j, singularity_witness(ms[i], ms[j])) for i in range(len(ms)) for j in range(i + 1, len(ms))]
    witnesses = [  # the basis measures are nonnegative
        {"i": i, "j": j, "d1": wit[0].to_json(), "d2": wit[1].to_json()} for i, j, wit in pairs if wit is not None
    ]
    return {"holds": len(witnesses) == len(pairs), "witnesses": witnesses}


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


# -- the report section -------------------------------------------------------------

def build_condition_report(
    kernel: TransitionKernel,
    basis: InvariantBasis | None = None,
    k_max: int = 5,
    eps_grid: tuple[float, ...] = DEFAULT_EPS_GRID,
) -> dict:
    """The report's ``conditions`` section.

    (D) and (D~) are "witness" findings of the exact search on a finite
    chain, or one "capacity" finding each when the chain is over the cap, and
    "limit" findings read off the truncation trend on a walk.  (alpha) is
    reported on a finite chain, for each class law with its class as K_mu.
    ``basis`` defaults to ``invariant_basis(kernel)``, as ``perfbench/test_perfbench.py`` passes a kernel alone.
    """
    if basis is None:
        basis = invariant_basis(kernel)
    star = check_star(kernel, basis)
    qc, qc_reason = quasicompact_diagnostic(star)
    section = {
        "star": star,
        "tilde_star": check_tilde_star(star),
        "double_star": check_double_star(basis),
        "quasicompact": {"status": qc, "reason": qc_reason},
        "beta": check_beta(basis),
    }
    if not kernel.space.is_finite:
        trend = doeblin_truncation_trend(kernel)
        findings = [
            {"kind": "limit", "verdict": limit_verdict(star["holds"]), "trend": [[int(w), float(v)] for w, v in trend]}
            for _ in range(2)
        ]
    else:
        try:
            found = [search_doeblin(kernel, basis, k_max, eps_grid, averaged=a) for a in (False, True)]
        except CapacityError as exc:
            # the exact search is out of reach; the other conditions are still reported
            findings = [{"kind": "capacity", "verdict": "capacity exceeded", "detail": str(exc)} for _ in range(2)]
        else:
            findings = [
                {"kind": "witness", "verdict": "no witness found"}
                if w is None
                else {"kind": "witness", "verdict": "holds", "witness": w.to_json()}
                for w in found
            ]
        section["alpha"] = []
        for idx, (mu, members) in enumerate(zip(basis.measures, basis.classes, strict=True)):
            k_mu = measurable(kernel.space, atoms=members)  # a class law is positive on its whole class
            closed = check_alpha(kernel, mu, k_mu)
            section["alpha"].append(
                {"index": idx, "k_mu": k_mu.to_json(), "closed_set": None if closed is None else closed.to_json()}
            )
    section["D"], section["D_tilde"] = findings
    return section
