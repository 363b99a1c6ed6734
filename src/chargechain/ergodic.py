"""Numeric verification of the ergodic limit theorems on finite chains.

The limit of the averaged operator iterates is a finite-rank projector
whose row at x mixes the class-stationary distributions with the
absorption probabilities of x.  Operator distances are realized as the
max-row total-variation distance, the induced norm on the measure side
where the transition operator has norm one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, PreconditionError
from .invariants import recurrent_classes, states_outside, stationary_of_class
from .kernels import TransitionKernel
from .measures import FAMeasure


@dataclass(frozen=True)
class Projector:
    """Finite-rank limit of the averaged operator iterates."""

    rows: dict[int, FAMeasure]
    rank: int
    matrix: np.ndarray

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "rows": {str(x): self.rows[x].to_json() for x in sorted(self.rows)},
        }


def projector_finite(kernel: TransitionKernel) -> Projector:
    """Row at x = sum over classes of (absorption probability of x) * (class stationary)."""
    if not kernel.space.is_finite:
        raise DomainError("projector construction needs a finite chain")
    n = kernel.size
    classes = recurrent_classes(kernel)
    pis = [stationary_of_class(kernel, c.states) for c in classes]
    trans = list(states_outside(classes, n))
    absorb = np.zeros((n, len(classes)))
    for ci, c in enumerate(classes):
        for s in c.states:
            absorb[s, ci] = 1.0
    if trans:
        q = kernel.matrix[np.ix_(trans, trans)]
        lhs = np.eye(len(trans)) - q
        for ci, c in enumerate(classes):
            b = kernel.matrix[np.ix_(trans, list(c.states))].sum(axis=1)
            absorb[trans, ci] = np.linalg.solve(lhs, b)
    mat = np.zeros((n, n))
    for ci, pi in enumerate(pis):
        vec = np.zeros(n)
        for s, w in pi.atoms.items():
            vec[s] = w
        mat += np.outer(absorb[:, ci], vec)
    rows = {
        x: FAMeasure(kernel.space, {j: float(mat[x, j]) for j in range(n)})
        for x in range(n)
    }
    return Projector(rows=rows, rank=len(classes), matrix=mat)


def _max_row_tv(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).sum(axis=1).max())


def distance_series(
    kernel: TransitionKernel, n_max: int, projector: Projector
) -> tuple[list[float], list[float]]:
    """Averaged and raw distances to ``projector`` for n = 1..n_max, in one pass over the powers.

    Returns ``(cesaro, raw)``; index i of each list holds the distance at n = i + 1.
    """
    if not kernel.space.is_finite:
        raise DomainError("operator distances need a finite chain")
    pi_mat = projector.matrix
    cesaro, raw = [], []
    cur = np.eye(kernel.size)
    acc = np.zeros_like(pi_mat)
    for n in range(1, n_max + 1):
        cur = cur @ kernel.matrix
        raw.append(_max_row_tv(cur, pi_mat))
        acc += cur
        cesaro.append(_max_row_tv(acc / n, pi_mat))
    return cesaro, raw


@dataclass(frozen=True)
class RateFit:
    kind: str  # "geometric" | "subgeometric" | "finite_exact"
    ratio: float | None = None
    n_zero: int | None = None

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.ratio is not None:
            out["ratio"] = float(self.ratio)
        if self.n_zero is not None:
            out["n_zero"] = int(self.n_zero)
        return out


@dataclass(frozen=True)
class ErgodicRunResult:
    mode: str
    distances: list[float]  # index i holds the distance at n = i + 1
    rate: RateFit
    uniform: bool = True  # max over starting states

    def series(self) -> list[tuple[int, float]]:
        return [(i + 1, d) for i, d in enumerate(self.distances)]


def ergodic_run(
    kernel: TransitionKernel, n_max: int
) -> tuple[Projector, ErgodicRunResult, ErgodicRunResult]:
    """The limit projector and the averaged and raw runs measured against it."""
    projector = projector_finite(kernel)
    cesaro, raw = distance_series(kernel, n_max, projector)
    return projector, _fitted_run("cesaro", cesaro), _fitted_run("raw", raw)


def _fitted_run(mode: str, distances: list[float]) -> ErgodicRunResult:
    try:
        rate = rate_fit(distances)
    except PreconditionError:
        rate = RateFit("undetermined")  # horizon too short for a fit
    return ErgodicRunResult(mode=mode, distances=distances, rate=rate)


def rate_fit(distances) -> RateFit:
    """Classify a decay sequence: clean geometric ratio, subgeometric, or exactly zero.

    The fit uses only the tail half of the positive entries; a leading zero
    stretch is tolerated.  A sequence that reaches zero and stays there (a
    trailing zero run of at least a quarter of the data) is reported as
    finite_exact with the first index of that run (1-based).
    """
    d = [float(x) for x in distances]
    if not d:
        raise PreconditionError("empty distance sequence")
    if max(d) <= 0.0:
        return RateFit("finite_exact", n_zero=1)
    last_pos = max(i for i, x in enumerate(d) if x > 0.0)
    trailing = len(d) - 1 - last_pos
    if trailing >= max(3, len(d) // 4):
        return RateFit("finite_exact", n_zero=last_pos + 2)
    pairs = [(i + 1, x) for i, x in enumerate(d) if x > 0.0]
    if len(pairs) < 8:
        raise PreconditionError("need at least 8 positive entries for a fit")
    tail = pairs[len(pairs) // 2 :]
    ns = np.array([n for n, _ in tail], dtype=float)
    logs = np.array([math.log(x) for _, x in tail])
    slope, intercept = np.polyfit(ns, logs, 1)
    resid_geo = float(np.sum((logs - (slope * ns + intercept)) ** 2))
    slope_pow, icept_pow = np.polyfit(np.log(ns), logs, 1)
    resid_pow = float(np.sum((logs - (slope_pow * np.log(ns) + icept_pow)) ** 2))
    dof = max(len(tail) - 2, 1)
    sxx = float(np.sum((ns - ns.mean()) ** 2))
    se = math.sqrt(max(resid_geo, 0.0) / dof / sxx) if sxx > 0 else math.inf
    if resid_geo <= resid_pow and slope < 0.0 and slope + 2.0 * se < 0.0:
        return RateFit("geometric", ratio=math.exp(slope))
    return RateFit("subgeometric")


def char_poly_second_modulus(matrix) -> float:
    """Second-largest eigenvalue modulus via explicit characteristic polynomial.

    Independent of the iteration/regression path being checked; the
    coefficients come from a permutation expansion of det(tI - P), so this
    stays exact-by-construction up to root finding.  Capped at 4 states.
    """
    p = np.asarray(matrix, dtype=float)
    n = p.shape[0]
    if n > 4:
        raise CapacityError("characteristic-polynomial route capped at 4 states")
    coeffs = np.zeros(n + 1)
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        poly = np.array([1.0])
        for i in range(n):
            j = perm[i]
            entry = np.array([-p[i, j], 1.0]) if i == j else np.array([-p[i, j]])
            poly = np.convolve(poly, entry)
        coeffs[: poly.size] += sign * poly
    roots = np.roots(coeffs[::-1])
    mods = sorted((abs(complex(r)) for r in roots), reverse=True)
    return float(mods[1]) if len(mods) > 1 else 0.0


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign
