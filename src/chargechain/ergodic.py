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

import numpy as np

from .errors import DomainError, NumericalError
from .invariants import InvariantBasis, eliminate, states_outside
from .kernels import TransitionKernel, powers
from .measures import FAMeasure, to_vector

#: distances at or below this are round-off and stay out of a rate fit
RATE_FLOOR = 1e-12
#: a fit whose total log decay is at most this many times its largest residual has seen no decay
RATE_DECAY_RESIDUALS = 2.0
#: entries in each scratch stack of ``distance_series`` (512 KB of float64)
STACK_ENTRIES = 2**16
#: the largest ergodic horizon n_max: the distance series forms one product per step
MAX_HORIZON = 10**5


def projector_finite(kernel: TransitionKernel, basis: InvariantBasis) -> tuple[dict, np.ndarray]:
    """The finite-rank limit P = H·Π of the averaged iterates: the report's ``projector`` section, and P dense.

    Π holds one stationary law per closed class, those of ``basis``, the
    ``invariant_basis_finite`` of this kernel.  H is 1 on a class state's own
    class and 0 on the others; the section's ``absorption`` holds its rows at
    the transient states, the probabilities of ending in each class, and row x
    of P mixes the class laws by them.  Two sets of expected times ride along
    so that a verifier can bound the error of the factors, not only their
    residuals: ``absorption_times`` (steps until a transient state enters a
    class) and ``hitting_times`` (per class, steps until each state reaches the
    class's heaviest state, which has no entry).
    """
    if not kernel.space.is_finite:
        raise DomainError("projector construction needs a finite chain")
    n = kernel.size
    classes, pis = basis.classes, basis.measures
    trans = list(states_outside(classes, n))
    absorb = np.zeros((n, len(classes)))
    for ci, c in enumerate(classes):
        absorb[list(c), ci] = 1.0
    enter = [kernel.matrix[np.ix_(trans, c)].sum(axis=1) for c in classes]
    rhs = [*enter, np.ones(len(trans))]  # one column per class, then the times
    solved = _solve_transient(kernel, trans, rhs, "absorption rows or times at transient states")
    absorb[trans] = solved[:, :-1]
    section = {
        "rank": len(classes),
        "classes": [list(c) for c in classes],
        "stationary": [pi.to_json() for pi in pis],
        "hitting_times": [_hitting_times(kernel, c, pi) for c, pi in zip(classes, pis)],
        "absorption": {str(x): absorb[x].tolist() for x in trans},
        "absorption_times": dict(zip(map(str, trans), solved[:, -1].tolist())),
    }
    # each law lives on its own class, so each entry of H·Π is a single product h·w
    return section, absorb @ np.array([to_vector(pi) for pi in pis])


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


def _hitting_times(kernel: TransitionKernel, states: tuple[int, ...], pi: FAMeasure) -> dict[str, float]:
    """Expected steps from each other state of a class to its anchor, the least state of largest weight,
    keyed as in a report.

    The heaviest state keeps these times small (about its return time) where
    the least state of a birth-death class can be 1e16 steps away.
    """
    anchor = max(states, key=lambda s: pi.atoms.get(s, 0.0))  # the first maximum: states ascend
    rest = [s for s in states if s != anchor]
    steps = _solve_transient(kernel, rest, [np.ones(len(rest))], f"hitting times of state {anchor} from states")
    return dict(zip(map(str, rest), steps[:, 0].tolist()))


def distance_series(kernel: TransitionKernel, n_max: int, projector: np.ndarray) -> tuple[list[float], list[float]]:
    """Averaged and raw distances to the dense limit ``projector`` for n = 1..n_max, in one pass over the powers.

    Returns ``(cesaro, raw)``; index i of each list holds the distance at n = i + 1.  Each step
    writes p^n − P and (p^1 + ... + p^n)/n into its slot of two scratch stacks of
    ``STACK_ENTRIES`` entries at most; a full stack (or the last step) is reduced with one
    abs, row sum and max per series.  These are the element operations of a step-by-step
    reduction, and the row sums still run along the contiguous last axis, so every
    distance keeps its bits.  From 182 states on, a stack holds one step.
    """
    if not kernel.space.is_finite:
        raise DomainError("operator distances need a finite chain")
    chunk = max(1, min(n_max, STACK_ENTRIES // projector.size))
    raw_stack = np.empty((chunk, *projector.shape))
    avg_stack = np.empty_like(raw_stack)
    cesaro, raw = [], []
    for n, (cur, acc) in enumerate(itertools.islice(powers(kernel), n_max), start=1):
        m = (n - 1) % chunk
        np.subtract(cur, projector, out=raw_stack[m])
        np.divide(acc, n, out=avg_stack[m])
        if m + 1 == chunk or n == n_max:
            raw += _max_row_l1(raw_stack[: m + 1])
            cesaro += _max_row_l1(np.subtract(avg_stack[: m + 1], projector, out=avg_stack[: m + 1]))
    return cesaro, raw


def _max_row_l1(stack: np.ndarray) -> list[float]:
    """max_x |d(x, ·)|₁ for each matrix d of ``stack``, taking absolute values in place."""
    return np.abs(stack, out=stack).sum(axis=2).max(axis=1).tolist()


def ergodic_run(kernel: TransitionKernel, n_max: int, basis: InvariantBasis) -> dict:
    """The report's ``ergodic`` section: the limit projector, and the averaged and raw distances to it
    with their fitted rates."""
    projector, matrix = projector_finite(kernel, basis)
    cesaro, raw = distance_series(kernel, n_max, matrix)
    return {
        "n_max": n_max,
        "projector": projector,
        "cesaro": {"distances": cesaro, "rate": rate_fit(cesaro)},
        "raw": {"distances": raw, "rate": rate_fit(raw)},
    }


def rate_fit(distances) -> dict:
    """Classify a decay sequence: clean geometric ratio, subgeometric, exactly zero, or undetermined.

    The fit uses only the tail half of the entries above ``RATE_FLOOR`` (the
    rest is round-off); a leading zero stretch is tolerated.  A sequence that
    reaches zero and stays there (a trailing zero run of at least a quarter of
    the data) is finite_exact, with the first (1-based) index of that run.
    The rate is undetermined for an empty sequence, for fewer than 8 entries
    above the floor, and for a tail that has not moved: its fitted log decay
    |slope|·(n_last − n_first) at most ``RATE_DECAY_RESIDUALS`` times the
    fit's largest residual.
    """
    undetermined = {"kind": "undetermined"}
    d = [float(x) for x in distances]
    if not d:
        return undetermined
    if max(d) <= 0.0:
        return {"kind": "finite_exact", "n_zero": 1}
    last_pos = max(i for i, x in enumerate(d) if x > 0.0)
    trailing = len(d) - 1 - last_pos
    if trailing >= max(3, len(d) // 4):
        return {"kind": "finite_exact", "n_zero": last_pos + 2}
    pairs = [(i + 1, x) for i, x in enumerate(d) if x > RATE_FLOOR]
    if len(pairs) < 8:
        return undetermined
    tail = pairs[len(pairs) // 2 :]
    ns = np.array([n for n, _ in tail], dtype=float)
    logs = np.array([math.log(x) for _, x in tail])
    slope, intercept = np.polyfit(ns, logs, 1)
    misfit = logs - (slope * ns + intercept)
    if abs(slope) * (ns[-1] - ns[0]) <= RATE_DECAY_RESIDUALS * float(np.max(np.abs(misfit))):
        return undetermined
    resid_geo = float(np.sum(misfit**2))
    slope_pow, icept_pow = np.polyfit(np.log(ns), logs, 1)
    resid_pow = float(np.sum((logs - (slope_pow * np.log(ns) + icept_pow)) ** 2))
    dof = max(len(tail) - 2, 1)
    sxx = float(np.sum((ns - ns.mean()) ** 2))
    se = math.sqrt(max(resid_geo, 0.0) / dof / sxx) if sxx > 0 else math.inf
    if resid_geo <= resid_pow and slope < 0.0 and slope + 2.0 * se < 0.0:
        return {"kind": "geometric", "ratio": math.exp(slope)}
    return {"kind": "subgeometric"}
