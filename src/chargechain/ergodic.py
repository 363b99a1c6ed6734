"""Numeric verification of the ergodic limit theorems on finite chains.

The limit of the averaged operator iterates is a finite-rank projector
P = H·Π whose row at x mixes the class-stationary distributions Π with the
absorption probabilities H of x.  Reports carry the factors and expected
times that bound their errors, which re-verify in time linear in the
nonzero entries of the kernel; distances are measured against the dense P.  Operator distances are realized as the
max-row total-variation distance, the induced norm on the measure side
where the transition operator has norm one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, PreconditionError
from .invariants import ChainClass, InvariantBasis, eliminate, recurrent_classes, states_outside, stationary_of_class
from .kernels import TransitionKernel, powers
from .measures import FAMeasure, to_vector

#: distances at or below this are round-off and stay out of a rate fit
RATE_FLOOR = 1e-12
#: a fit whose total log decay is at most this many times its largest residual has seen no decay
RATE_DECAY_RESIDUALS = 2.0


@dataclass(frozen=True)
class Projector:
    """Finite-rank limit P = H·Π of the averaged operator iterates.

    Π holds one stationary law per recurrent class.  H is 1 on a class
    state's own class and 0 on the others; ``absorption`` holds its rows
    at the transient states, the probabilities of ending in each class.
    ``matrix`` is P itself, dense.  Two sets of expected times ride along
    so that a verifier can bound the error of the factors, not only their
    residuals: ``absorption_times`` (steps until a transient state enters
    a class) and ``hitting_times`` (per class, steps until each state
    reaches the class's heaviest state, which has no entry).
    """

    classes: list[ChainClass]
    stationary: list[FAMeasure]  # one per class
    absorption: dict[int, list[float]]  # transient state -> one probability per class
    absorption_times: dict[int, float]  # transient state -> expected steps to enter a class
    hitting_times: list[dict[int, float]]  # per class: state -> expected steps to its anchor
    matrix: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.classes)

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "classes": [list(c.states) for c in self.classes],
            "stationary": [pi.to_json() for pi in self.stationary],
            "hitting_times": [_times_json(times) for times in self.hitting_times],
            "absorption": {str(x): [float(h) for h in row] for x, row in sorted(self.absorption.items())},
            "absorption_times": _times_json(self.absorption_times),
        }


def _times_json(times: dict[int, float]) -> dict[str, float]:
    return {str(x): float(t) for x, t in sorted(times.items())}


def projector_finite(kernel: TransitionKernel, basis: InvariantBasis | None = None) -> Projector:
    """P = H·Π: row x mixes the class stationary laws by x's absorption probabilities.

    The classes and their stationary distributions come from ``basis`` (an
    ``invariant_basis_finite`` of this kernel) when given, else are solved here.
    """
    if not kernel.space.is_finite:
        raise DomainError("projector construction needs a finite chain")
    n = kernel.size
    classes = recurrent_classes(kernel) if basis is None else basis.classes
    pis = [stationary_of_class(kernel, c.states) for c in classes] if basis is None else basis.measures
    trans = list(states_outside(classes, n))
    absorb = np.zeros((n, len(classes)))
    for ci, c in enumerate(classes):
        absorb[list(c.states), ci] = 1.0
    enter = [kernel.matrix[np.ix_(trans, c.states)].sum(axis=1) for c in classes]
    rhs = [*enter, np.ones(len(trans))]  # one column per class, then the times
    solved = _solve_transient(kernel, trans, rhs, "absorption rows or times at transient states")
    absorb[trans] = solved[:, :-1]
    times = dict(zip(trans, solved[:, -1].tolist()))
    absorption = {x: absorb[x].tolist() for x in trans}
    hitting = [_hitting_times(kernel, c.states, pi) for c, pi in zip(classes, pis)]
    # each law lives on its own class, so each entry of H·Π is a single product h·w
    mat = absorb @ np.array([to_vector(pi) for pi in pis])
    return Projector(list(classes), list(pis), absorption, times, hitting, mat)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # a zero pivot leaves non-finite rows
def _solve_transient(kernel: TransitionKernel, states: list[int], rhs: list[np.ndarray], what: str) -> np.ndarray:
    """Solutions x of (I − Q)x = b, one column per b of ``rhs``; Q is the kernel on ``states``.

    One elimination serves every column, then x is substituted back from the first state up.
    Non-finite rows raise NumericalError, naming ``what`` and their states.
    """
    if not states:
        return np.zeros((0, len(rhs)))
    outside = np.ones(kernel.size, dtype=bool)  # a mask, as np.setdiff1d imports numpy.ma on first use
    outside[states] = False
    a = kernel.matrix[np.ix_(states, states)]
    x = np.column_stack(rhs)
    pivots = eliminate(a, kernel.matrix[np.ix_(states, np.flatnonzero(outside))].sum(axis=1), x, 0)
    for k in range(len(states)):  # x[k] is complete: pass its flow on to the later states
        x[k] /= pivots[k]
        x[k + 1 :] += a[k + 1 :, k, None] * x[k]
    bad = [states[i] for i in np.flatnonzero(~np.isfinite(x).all(axis=1)).tolist()]
    if bad:
        raise NumericalError(f"I - Q is singular in floating point: non-finite {what} {bad}")
    return x


def _hitting_times(kernel: TransitionKernel, states: tuple[int, ...], pi: FAMeasure) -> dict[int, float]:
    """Expected steps from each state of a class to its anchor, the least state of largest weight.

    The heaviest state keeps these times small (about its return time) where
    the least state of a birth-death class can be 1e16 steps away.
    """
    anchor = max(states, key=lambda s: pi.atoms.get(s, 0.0))  # the first maximum: states ascend
    rest = [s for s in states if s != anchor]
    steps = _solve_transient(kernel, rest, [np.ones(len(rest))], f"hitting times of state {anchor} from states")
    return dict(zip(rest, steps[:, 0].tolist()))


def _max_row_tv(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> float:
    """max_x |a(x, ·) − b(x, ·)|₁, formed in ``out`` (which may be ``a``)."""
    np.subtract(a, b, out=out)
    np.abs(out, out=out)
    return float(out.sum(axis=1).max())


def distance_series(
    kernel: TransitionKernel, n_max: int, projector: Projector
) -> tuple[list[float], list[float]]:
    """Averaged and raw distances to ``projector`` for n = 1..n_max, in one pass over the powers.

    Returns ``(cesaro, raw)``; index i of each list holds the distance at n = i + 1.
    """
    if not kernel.space.is_finite:
        raise DomainError("operator distances need a finite chain")
    pi_mat = projector.matrix
    buf = np.empty(pi_mat.shape)  # one scratch array for both reductions, C-ordered like the temporaries it replaces
    cesaro, raw = [], []
    for n, (cur, acc) in enumerate(itertools.islice(powers(kernel), n_max), start=1):
        raw.append(_max_row_tv(cur, pi_mat, buf))
        cesaro.append(_max_row_tv(np.divide(acc, n, out=buf), pi_mat, buf))
    return cesaro, raw


def ergodic_run(kernel: TransitionKernel, n_max: int, basis: InvariantBasis | None = None) -> dict:
    """The report's ``ergodic`` section: the limit projector, and the averaged and raw distances to it
    with their fitted rates."""
    projector = projector_finite(kernel, basis)
    cesaro, raw = distance_series(kernel, n_max, projector)
    return {
        "n_max": n_max,
        "projector": projector.to_json(),
        "cesaro": {"distances": cesaro, "rate": fitted_rate(cesaro)},
        "raw": {"distances": raw, "rate": fitted_rate(raw)},
    }


def fitted_rate(distances) -> dict:
    """``rate_fit``, or the ``undetermined`` kind when the horizon is too short for a fit."""
    try:
        return rate_fit(distances)
    except PreconditionError:
        return {"kind": "undetermined"}


def rate_fit(distances) -> dict:
    """Classify a decay sequence: clean geometric ratio, subgeometric, or exactly zero.

    The fit uses only the tail half of the entries above ``RATE_FLOOR`` (the
    rest is round-off); a leading zero stretch is tolerated.  A sequence that
    reaches zero and stays there (a trailing zero run of at least a quarter of
    the data) is finite_exact, with the first (1-based) index of that run.
    A tail that has not moved, its fitted log decay |slope|·(n_last − n_first)
    at most ``RATE_DECAY_RESIDUALS`` times the fit's largest residual, has no
    rate: PreconditionError.
    """
    d = [float(x) for x in distances]
    if not d:
        raise PreconditionError("empty distance sequence")
    if max(d) <= 0.0:
        return {"kind": "finite_exact", "n_zero": 1}
    last_pos = max(i for i, x in enumerate(d) if x > 0.0)
    trailing = len(d) - 1 - last_pos
    if trailing >= max(3, len(d) // 4):
        return {"kind": "finite_exact", "n_zero": last_pos + 2}
    pairs = [(i + 1, x) for i, x in enumerate(d) if x > RATE_FLOOR]
    if len(pairs) < 8:
        raise PreconditionError(f"need at least 8 entries above {RATE_FLOOR:g} for a fit")
    tail = pairs[len(pairs) // 2 :]
    ns = np.array([n for n, _ in tail], dtype=float)
    logs = np.array([math.log(x) for _, x in tail])
    slope, intercept = np.polyfit(ns, logs, 1)
    misfit = logs - (slope * ns + intercept)
    if abs(slope) * (ns[-1] - ns[0]) <= RATE_DECAY_RESIDUALS * float(np.max(np.abs(misfit))):
        raise PreconditionError("the tail has not moved beyond the misfit of its fit")
    resid_geo = float(np.sum(misfit**2))
    slope_pow, icept_pow = np.polyfit(np.log(ns), logs, 1)
    resid_pow = float(np.sum((logs - (slope_pow * np.log(ns) + icept_pow)) ** 2))
    dof = max(len(tail) - 2, 1)
    sxx = float(np.sum((ns - ns.mean()) ** 2))
    se = math.sqrt(max(resid_geo, 0.0) / dof / sxx) if sxx > 0 else math.inf
    if resid_geo <= resid_pow and slope < 0.0 and slope + 2.0 * se < 0.0:
        return {"kind": "geometric", "ratio": math.exp(slope)}
    return {"kind": "subgeometric"}
