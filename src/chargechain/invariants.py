"""Invariant measures: bases, end-charge detection, classification, escape.

Finite chains get an exact treatment: one extreme invariant distribution
per recurrent class, by subtraction-free state reduction (GTH).  Countable walks are
handled within the representable class: invariant end charges come from
the tail rows' action on them, and countably additive invariants (those
with effectively finite support) are the GTH laws of the walk's reflecting
truncation that its invariance residual certifies.  Escape profiles, the
window masses of the averaged sequence of A, double the powers of one
window matrix, whose end buckets act as end charges (``truncate``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PreconditionError, StructureError, ValidationError
from .kernels import TransitionKernel, apply_A, successors, truncate, truncate_reflecting
from .measures import FAMeasure, end_direction

INVARIANCE_TOL = 1e-10
#: the largest escape window: its matrix on Z is (2·1024 + 3)² floats, 33.6 MB
MAX_ESCAPE_WINDOW = 1024


@dataclass(frozen=True)
class ChainClass:
    """A closed communicating class of a finite chain."""

    states: tuple[int, ...]
    period: int


@dataclass(frozen=True)
class InvariantBasis:
    measures: list[FAMeasure]
    kinds: list[str]  # "ca" | "pfa", parallel to measures
    classes: list[ChainClass] = field(default_factory=list)  # finite: one per measure

    @property
    def dimension(self) -> int:
        return len(self.measures)


def invariance_residual(kernel: TransitionKernel, mu: FAMeasure) -> float:
    """Total variation of A(mu) - mu."""
    return (apply_A(kernel, mu) - mu).total_variation()


# -- finite-chain structure -----------------------------------------------------

def recurrent_classes(kernel: TransitionKernel) -> list[ChainClass]:
    """Closed communicating classes with their periods, ordered by least state.

    The communicating classes are the strongly connected components of the
    positive entries of the row table (one Tarjan pass); a class is closed
    when no edge leaves it.
    """
    if not kernel.space.is_finite:
        raise DomainError("recurrent_classes needs a finite chain")
    succ = successors(kernel)
    comp = _strong_components(succ)
    left = {comp[x] for x, ys in enumerate(succ) if any(comp[y] != comp[x] for y in ys)}
    members: dict[int, list[int]] = {}
    for x, c in enumerate(comp):  # ascending states, so classes come by least state
        if c not in left:
            members.setdefault(c, []).append(x)
    return [ChainClass(states=tuple(s), period=_class_period(succ, s)) for s in members.values()]


def _strong_components(succ: list[list[int]]) -> list[int]:
    """Component id of each state: Tarjan's algorithm with an explicit stack."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = n_comps = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0:  # w is still on the stack
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = n_comps
                        if w == v:
                            break
                    n_comps += 1
    return comp


def transient_states(kernel: TransitionKernel) -> tuple[int, ...]:
    return states_outside(recurrent_classes(kernel), kernel.size)


def states_outside(classes: list[ChainClass], size: int) -> tuple[int, ...]:
    """The states of 0..size-1 in none of ``classes``: the transient states."""
    covered = {s for c in classes for s in c.states}
    return tuple(x for x in range(size) if x not in covered)


def _class_period(succ: list[list[int]], members) -> int:
    """gcd of level[u] + 1 - level[v] over the edges of a closed class, BFS levels from its least state."""
    root = members[0]
    level = {root: 0}
    queue = deque([root])
    g = 0
    while queue:
        u = queue.popleft()
        for v in succ[u]:
            if v not in level:
                level[v] = level[u] + 1
                queue.append(v)
            g = math.gcd(g, level[u] + 1 - level[v])
    return g or 1


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # a zero pivot shows as inf or nan
def eliminate(a: np.ndarray, leave: np.ndarray, rhs: np.ndarray | None, last: int) -> np.ndarray:
    """Grassmann–Taksar–Heyman reduction of states n-1 down to ``last``, in place; returns the pivots.

    A pivot is the state's mass to the states below it plus its ``leave`` mass, never 1 − a_kk.  Column
    k over it times row k updates the box that can hold their nonzeros, ``leave`` and ``rhs``.
    """
    nz = (a != 0.0) | np.eye(len(a), dtype=bool)  # r0[k], c0[k]: where column and row k can start, fill-in included
    r0, c0 = (np.minimum.accumulate(m.argmax(axis=0)[::-1])[::-1].tolist() for m in (nz, nz.T))
    pivots = np.zeros(len(a))
    for k in range(len(a) - 1, last - 1, -1):
        row, col = a[k, c0[k] : k], a[r0[k] : k, k]
        s = leave[k] + row.sum()
        col /= s
        if s < 1e-200 and not (col <= 1e100).all():
            break  # the states below weigh under 1e-100 of k: they drop out, and every weight stays finite
        pivots[k] = s
        a[r0[k] : k, c0[k] : k] += col[:, None] * row
        if leave[k]:
            leave[r0[k] : k] += col * leave[k]
        if rhs is not None:
            rhs[r0[k] : k] += col[:, None] * rhs[k]
    return pivots


def stationary_of_class(kernel: TransitionKernel, members: tuple[int, ...]) -> FAMeasure:
    """Extreme invariant distribution of one recurrent class: GTH, so no weight is negative."""
    idx = list(members)
    a = kernel.matrix[np.ix_(idx, idx)]
    pivots = eliminate(a, np.zeros(len(idx)), None, 1)
    pi = np.zeros(len(idx))
    start = int(np.flatnonzero(pivots == 0.0)[-1])  # a state that never moves down outweighs those below
    pi[start] = 1.0
    for k in range(start, len(idx)):  # pi[k] is complete: pass its flow on to the later states
        if pi[k] > 1e100:  # keep the unnormalized weights finite
            pi /= pi[k]
        pi[k + 1 :] += pi[k] * a[k, k + 1 :]
    pi /= math.fsum(pi.tolist())
    return FAMeasure(kernel.space, atoms=dict(zip(idx, pi.tolist())))


def invariant_basis_finite(kernel: TransitionKernel) -> InvariantBasis:
    """One extreme invariant distribution per recurrent class; all countably additive."""
    classes = recurrent_classes(kernel)
    measures = [stationary_of_class(kernel, c.states) for c in classes]
    return InvariantBasis(measures, ["ca"] * len(measures), classes)


# -- countable chains -------------------------------------------------------------

def detect_pfa_ends(kernel: TransitionKernel) -> list[FAMeasure]:
    """Invariant unit charges supported on ends, from the end system of the tail rows.

    The ends, plus one absorbing state for their leak into finite states, form a finite chain; each of
    its closed classes of ends carries one charge, the class's stationary split.  Soundness: with bounded
    offsets and no finite leak, mass beyond every threshold can never re-enter a fixed finite set.
    """
    if kernel.space.is_finite:
        raise StructureError("end detection needs a countable chain")
    ends = sorted(kernel.space.end_ids())
    sink = len(ends)
    system = np.eye(sink + 1)
    for i, e in enumerate(ends):
        tail = kernel.tails[e]
        system[i, i] = tail.preserved_mass()
        system[i, [ends.index(e2) for e2 in tail.to_other_end]] += list(tail.to_other_end.values())
        system[i, sink] = math.fsum(tail.to_finite.values())
    chain = TransitionKernel.finite(system)
    laws = [stationary_of_class(chain, c.states) for c in recurrent_classes(chain) if sink not in c.states]
    return [FAMeasure(kernel.space, ends={ends[x]: w for x, w in pi.atoms.items()}) for pi in laws]


def detect_ca_countable(kernel: TransitionKernel, window: int = 256, steps: int | None = None) -> list[FAMeasure]:
    """Numerically certified countably additive invariants of a countable walk.

    ``window`` sizes the reflecting truncation: the window + 1 states 0..window
    on N, -window/2..window/2 on Z.  Each recurrent class of the truncation
    gets its GTH law, cut at weights <= 1e-14 and renormalized; a law is kept
    when its invariance residual on the walk itself meets ``INVARIANCE_TOL``,
    so the list holds one measure per certified class.  An empty list means
    no invariant with effectively finite support was certified.  ``steps`` is
    ignored; it stays because perfbench's ``_observe_ca`` binds it.
    """
    if kernel.space.is_finite:
        raise DomainError("use invariant_basis_finite on finite chains")
    lo, hi = (0, window) if kernel.space.support == "N" else (-(window // 2), window // 2)
    trunc = truncate_reflecting(kernel, lo, hi)
    laws = (stationary_of_class(trunc, c.states) for c in recurrent_classes(trunc))
    cut = (FAMeasure(kernel.space, {lo + i: w for i, w in pi.atoms.items() if w > 1e-14}).normalized() for pi in laws)
    return [mu for mu in cut if invariance_residual(kernel, mu) <= INVARIANCE_TOL]


def invariant_basis(kernel: TransitionKernel) -> InvariantBasis:
    """Invariant basis of a chain within the representable class."""
    if kernel.space.is_finite:
        return invariant_basis_finite(kernel)
    ca = detect_ca_countable(kernel)
    pfa = detect_pfa_ends(kernel)
    return InvariantBasis(ca + pfa, ["ca"] * len(ca) + ["pfa"] * len(pfa))


# -- classification and escape --------------------------------------------------

@dataclass(frozen=True)
class Classification:
    kind: str  # "simple" | "composite"
    period: int | None = None


def classify_invariant(kernel: TransitionKernel, mu: FAMeasure) -> Classification:
    """Composite (a cyclic mixture with the class period) or simple (aperiodic)."""
    if not kernel.space.is_finite:
        raise DomainError("classification needs a finite chain")
    res = invariance_residual(kernel, mu)
    if res > INVARIANCE_TOL:
        raise PreconditionError(f"measure is not invariant (residual {res:.3e})")
    support = {x for x, w in mu.atoms.items() if abs(w) > 1e-12}
    d = 1
    for c in recurrent_classes(kernel):
        if support & set(c.states):
            d = d * c.period // math.gcd(d, c.period)
    if d >= 2:
        return Classification("composite", d)
    return Classification("simple")


def escape_checkpoints(n_max: int) -> list[int]:
    """Where an escape profile reads its windows: n = 1, 2, 4, ..., 2^J <= n_max, then n_max unless it is 2^J."""
    powers = [1 << j for j in range(n_max.bit_length())]
    return powers if n_max & (n_max - 1) == 0 else powers + [n_max]


def escape_profile(kernel: TransitionKernel, n_max: int, windows: tuple[int, ...] = (8, 16, 32)) -> dict:
    """The report's ``escape`` section: lambda_n(K_m) for windows K_m = {|x| <= m} from delta_0, at
    ``escape_checkpoints(n_max)``, with the escaped mass and its split over the ends.

    The evolution is the window matrix W of the largest window m, 0..m on N and -m..m on Z, with end buckets
    (``truncate``): mass past it sits in its end's bucket and acts as that end's charge, so a tail's
    ``to_finite`` part brings it back.  With T_m = W + ... + W^m the sums double, T_2m = T_m + W^m T_m and
    W^2m = (W^m)^2, and n_max is composed from the binary pieces, T_(a+b) = T_a + W^a T_b.  The estimate of
    invariant charge mass is the largest window's complement at n_max; smaller windows are diagnostics.
    A window over ``MAX_ESCAPE_WINDOW`` is refused before the window matrix is formed.
    """
    if kernel.space.is_finite:
        raise DomainError("escape analysis needs a countable chain")
    ws = sorted(int(m) for m in windows)
    if not ws or ws[0] < 1 or len(set(ws)) < len(ws):
        raise ValidationError(f"window sizes must be positive and distinct, got {ws}")
    if ws[-1] > MAX_ESCAPE_WINDOW:
        raise ValidationError(f"window sizes must be at most {MAX_ESCAPE_WINDOW}, got {ws}")
    n_max = int(n_max)
    if n_max < 1:
        raise ValidationError(f"need n_max >= 1, got {n_max}")
    hi = ws[-1]
    lo = 0 if kernel.space.support == "N" else -hi
    start = np.zeros(hi - lo + 3)
    start[1 - lo] = 1.0  # delta_0
    power = truncate(kernel, lo, hi, ends=True)  # W^m and T_m at m = 2^j
    total = power.copy()
    sums, s, v = [], np.zeros_like(start), start  # start·T_n at each checkpoint; s and v compose n_max
    for j in range(n_max.bit_length()):
        if j:
            total = total + power @ total
            power = power @ power
        sums.append(start @ total)
        if n_max >> j & 1:
            s += v @ total
            v = v @ power
    if n_max & (n_max - 1):
        sums.append(s)
    checkpoints = escape_checkpoints(n_max)
    radius = np.abs(np.arange(lo, hi + 1))
    series: dict[int, list[float]] = {m: [] for m in ws}
    for n, s in zip(checkpoints, sums):
        # the mass at each distance from 0, summed outward, so a larger window never holds less
        inside = np.cumsum(np.bincount(radius, weights=s[1:-1])) / n
        for m in ws:
            series[m].append(float(inside[m]))
    escaped = {e: float(sums[-1][0 if end_direction(e) < 0 else -1]) / n_max for e in kernel.space.end_ids()}
    total_escaped = math.fsum(escaped.values())
    split = (
        {e: escaped[e] / total_escaped for e in sorted(escaped)}
        if total_escaped > 1e-15
        else {}
    )
    return {
        "n_max": n_max,
        "checkpoints": checkpoints,
        "windows": [[m, series[m]] for m in ws],
        "pfa_mass_estimate": 1.0 - series[hi][-1],
        "per_end_split": split,
    }
