"""Invariant measures: bases, end-charge detection, averaged sequences, escape.

Finite chains get an exact treatment: one extreme invariant distribution
per recurrent class, found by a direct linear solve.  Countable walks are
handled within the representable class: invariant end charges come from
the coarse end actions, and a countably additive invariant (when one
exists with effectively finite support) is certified numerically by its
invariance residual.  CA detection, averaged sequences and escape profiles
evolve atomic mass on a truncation window, one step being a ``bincount``
over the kernel's window table, with the overflow in end buckets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PreconditionError, StructureError, ValidationError
from .kernels import TransitionKernel, apply_A, end_action, window_table
from .measures import (
    END_NEG,
    END_POS,
    FAMeasure,
    MeasurableSet,
    is_disjoint,
    singularity_witness,
    yosida_hewitt,
)

INVARIANCE_TOL = 1e-10


@dataclass(frozen=True)
class ChainClass:
    """A closed communicating class of a finite chain."""

    states: tuple[int, ...]
    period: int


@dataclass(frozen=True)
class PairCertificate:
    i: int
    j: int
    disjoint: bool
    singular: bool
    witnesses: tuple[MeasurableSet, MeasurableSet] | None


@dataclass(frozen=True)
class InvariantBasis:
    measures: list[FAMeasure]
    kinds: list[str]  # "ca" | "pfa", parallel to measures
    dimension: int
    pairwise: list[PairCertificate] = field(default_factory=list)
    classes: list[ChainClass] = field(default_factory=list)  # finite: one per measure

    def ca_count(self) -> int:
        return sum(1 for k in self.kinds if k == "ca")

    def pfa_count(self) -> int:
        return sum(1 for k in self.kinds if k == "pfa")


def invariance_residual(kernel: TransitionKernel, mu: FAMeasure) -> float:
    """Total variation of A(mu) - mu."""
    return (apply_A(kernel, mu) - mu).total_variation()


# -- finite-chain structure -----------------------------------------------------

def recurrent_classes(kernel: TransitionKernel) -> list[ChainClass]:
    """Closed communicating classes with their periods, ordered by least state."""
    if not kernel.space.is_finite:
        raise DomainError("recurrent_classes needs a finite chain")
    p = kernel.matrix
    n = kernel.size
    edge = p > 0.0
    reach = edge | np.eye(n, dtype=bool)
    for _ in range(max(1, int(math.ceil(math.log2(max(n, 2)))))):
        reach = reach | (reach @ reach)
    comm = reach & reach.T
    seen: set[int] = set()
    classes = []
    for x in range(n):
        if x in seen:
            continue
        inside = comm[x]
        members = tuple(int(y) for y in np.flatnonzero(inside))
        seen.update(members)
        if not edge[inside][:, ~inside].any():  # closed: no edge leaves the class
            classes.append(ChainClass(states=members, period=_class_period(edge, members)))
    return classes


def transient_states(kernel: TransitionKernel) -> tuple[int, ...]:
    return states_outside(recurrent_classes(kernel), kernel.size)


def states_outside(classes: list[ChainClass], size: int) -> tuple[int, ...]:
    """The states of 0..size-1 in none of ``classes``: the transient states."""
    covered = {s for c in classes for s in c.states}
    return tuple(x for x in range(size) if x not in covered)


def _class_period(edge: np.ndarray, members: tuple[int, ...]) -> int:
    root = members[0]
    level = {root: 0}
    queue = [root]
    while queue:
        u = queue.pop(0)
        for v in members:
            if edge[u, v] and v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    g = 0
    for u in members:
        for v in members:
            if edge[u, v]:
                g = math.gcd(g, level[u] + 1 - level[v])
    return abs(g) or 1


def stationary_of_class(kernel: TransitionKernel, members: tuple[int, ...]) -> FAMeasure:
    """Extreme invariant distribution of one recurrent class (direct linear solve)."""
    idx = list(members)
    sub = kernel.matrix[np.ix_(idx, idx)]
    m = len(idx)
    a = sub.T - np.eye(m)
    a[-1, :] = 1.0
    b = np.zeros(m)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    return FAMeasure(kernel.space, atoms={idx[i]: float(pi[i]) for i in range(m)})


def invariant_basis_finite(kernel: TransitionKernel) -> InvariantBasis:
    """One extreme invariant distribution per recurrent class; all countably additive."""
    classes = recurrent_classes(kernel)
    measures = [stationary_of_class(kernel, c.states) for c in classes]
    return _assemble_basis(measures, ["ca"] * len(measures), classes)


def _assemble_basis(measures: list[FAMeasure], kinds: list[str], classes=()) -> InvariantBasis:
    pairwise = []
    for i in range(len(measures)):
        for j in range(i + 1, len(measures)):
            disjoint = is_disjoint(measures[i], measures[j])
            wit = singularity_witness(measures[i], measures[j]) if disjoint else None
            pairwise.append(
                PairCertificate(i, j, disjoint, wit is not None, wit)
            )
    return InvariantBasis(measures, kinds, len(measures), pairwise, list(classes))


# -- countable chains -------------------------------------------------------------

def detect_pfa_ends(kernel: TransitionKernel) -> list[FAMeasure]:
    """Invariant unit charges supported on ends, from the coarse end system.

    An end (or a closed communicating set of ends) carries an invariant
    charge exactly when its actions leak no mass into finite states; the
    charge is the stationary split of the end-level chain.  Soundness: with
    bounded offsets and no finite leak, mass beyond every threshold can
    never re-enter a fixed finite set.
    """
    if kernel.space.is_finite:
        raise StructureError("end detection needs a countable chain")
    acts = {e: end_action(kernel, e) for e in sorted(kernel.space.end_ids())}
    leak_free = {
        e: math.fsum(a.leak_atoms.values()) <= 1e-12 for e, a in acts.items()
    }
    charges: list[FAMeasure] = []
    absorbed: set[str] = set()
    for e, act in acts.items():
        cross = math.fsum(act.leak_ends.values())
        if leak_free[e] and cross <= 1e-12:
            charges.append(FAMeasure(kernel.space, ends={e: 1.0}))
            absorbed.add(e)
    remaining = [e for e in acts if e not in absorbed]
    if len(remaining) == 2:
        e1, e2 = remaining
        a12 = acts[e1].leak_ends.get(e2, 0.0)
        a21 = acts[e2].leak_ends.get(e1, 0.0)
        if leak_free[e1] and leak_free[e2] and a12 > 1e-12 and a21 > 1e-12:
            w1 = a21 / (a12 + a21)
            charges.append(FAMeasure(kernel.space, ends={e1: w1, e2: 1.0 - w1}))
    return charges


def detect_ca_countable(
    kernel: TransitionKernel,
    window: int = 256,
    steps: int | None = None,
    tol: float = INVARIANCE_TOL,
) -> list[FAMeasure]:
    """Numerically certified countably additive invariant of a countable walk.

    Power-iterates a truncated window (overflow set aside), averages the
    last two iterates against period-2 cycling, renormalizes the retained
    atomic mass, and accepts only when the invariance residual meets the
    contract.  Returns at most one measure; an empty list means no
    invariant with effectively finite support was certified.
    """
    if kernel.space.is_finite:
        raise DomainError("use invariant_basis_finite on finite chains")
    if steps is None:
        steps = 8 * window + 400  # mass seeded at the window edge must drift home
    engine = _WindowEngine(kernel, window)
    v = np.zeros(engine.length + 2)
    v[1:-1] = 1.0 / engine.length
    prev = v
    for _ in range(steps):
        prev, v = v, engine.step(v)
    cand = 0.5 * (prev + v)
    mass = float(cand[1:-1].sum())
    if mass <= 1e-9:
        return []
    atoms = engine.atoms(cand / mass, floor=1e-14)
    mu = FAMeasure(kernel.space, atoms=atoms).normalized()
    if invariance_residual(kernel, mu) <= tol:
        return [mu]
    return []


def invariant_basis(kernel: TransitionKernel, **ca_options) -> InvariantBasis:
    """Invariant basis of a chain within the representable class."""
    if kernel.space.is_finite:
        return invariant_basis_finite(kernel)
    ca = detect_ca_countable(kernel, **ca_options)
    pfa = detect_pfa_ends(kernel)
    return _assemble_basis(ca + pfa, ["ca"] * len(ca) + ["pfa"] * len(pfa))


def split_parts_invariant(
    kernel: TransitionKernel, mu: FAMeasure, tol: float = INVARIANCE_TOL
) -> tuple[float, float]:
    """Invariance residuals of the two decomposition parts of a measure."""
    ca, pfa = yosida_hewitt(mu)
    return invariance_residual(kernel, ca), invariance_residual(kernel, pfa)


# -- averaged sequences and escape -------------------------------------------------

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


def cesaro_sequence(
    kernel: TransitionKernel,
    mu0: FAMeasure,
    n: int,
    window: int | None = None,
) -> list[FAMeasure]:
    """Running averages (A mu0 + ... + A^k mu0) / k for k = 1..n.

    On countable chains the atomic part evolves on a window; when no window
    is given one wide enough to be exact for n steps is chosen (offsets are
    bounded; it covers every start atom, exception row and fixed target).
    Giving a window engages truncation: overflow, end leaks included, is
    routed irreversibly to the adjacent end bucket.
    """
    if not mu0.is_probability():
        raise PreconditionError("averaging starts from a probability measure")
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    if kernel.space.is_finite:
        out = []
        cur = mu0
        acc = FAMeasure(kernel.space)
        for k in range(1, n + 1):
            cur = apply_A(kernel, cur)
            acc = acc + cur
            out.append(acc * (1.0 / k))
        return out
    if window is None:
        keys = [*mu0.atoms, *kernel.exceptions]
        keys += [y for row in kernel.exceptions.values() for y in row]
        keys += [y for tail in kernel.tails.values() for y in tail.to_finite]
        window = max((abs(x) for x in keys), default=0) + kernel.reach() * n + 1
    engine = _WindowEngine(kernel, window)
    v = engine.load_atoms(mu0)
    ends = mu0.ends
    acc_v = np.zeros_like(v)
    acc_ends = {e: 0.0 for e in kernel.space.end_ids()}
    out = []
    for k in range(1, n + 1):
        moved = apply_A(kernel, FAMeasure(kernel.space, ends=ends))  # end mass and its leaks
        v = engine.step(v)
        for y, w in moved.atoms.items():
            v[engine.cell(y)] += w
        ends = moved.ends
        acc_v += v
        for e in acc_ends:
            acc_ends[e] += ends.get(e, 0.0) + float(v[engine.bucket[e]])
        out.append(
            FAMeasure(kernel.space, engine.atoms(acc_v / k), {e: w / k for e, w in acc_ends.items()})
        )
    return out


@dataclass(frozen=True)
class EscapeProfile:
    """Window-mass trajectories of the averaged sequence plus escape accounting."""

    windows: list[tuple[int, list[float]]]
    pfa_mass_estimate: float
    per_end_split: dict[str, float]


def escape_profile(
    kernel: TransitionKernel,
    mu0: FAMeasure,
    n_max: int,
    windows: tuple[int, ...] = (8, 16, 32),
) -> EscapeProfile:
    """Track lambda_n(K_m) for windows K_m = {|x| <= m} from an atomic start.

    The evolution is truncated at the largest window; overflow is routed
    irreversibly to the adjacent end bucket, so escaped mass is accounted
    once and never re-enters.  The estimate of invariant charge mass uses
    the largest window only; smaller windows are diagnostics.
    """
    if kernel.space.is_finite:
        raise DomainError("escape analysis needs a countable chain")
    if mu0.ends:
        raise PreconditionError("escape analysis starts from an atomic measure")
    if not mu0.is_probability():
        raise PreconditionError("escape analysis starts from a probability measure")
    ws = sorted(int(m) for m in windows)
    if not ws or ws[0] < 1:
        raise ValidationError("window sizes must be positive")
    engine = _WindowEngine(kernel, ws[-1])
    v = engine.load_atoms(mu0)
    acc = np.zeros_like(v)
    series: dict[int, list[float]] = {m: [] for m in ws}
    slices = {m: slice(engine.cell(max(engine.lo, -m)), engine.cell(m) + 1) for m in ws}
    for k in range(1, n_max + 1):
        v = engine.step(v)
        acc += v
        for m in ws:
            series[m].append(float(acc[slices[m]].sum() / k))
    escaped = {e: float(acc[c]) / n_max for e, c in engine.bucket.items()}
    total_escaped = math.fsum(escaped.values())
    split = (
        {e: escaped[e] / total_escaped for e in sorted(escaped)}
        if total_escaped > 1e-15
        else {}
    )
    return EscapeProfile(
        windows=[(m, series[m]) for m in ws],
        pfa_mass_estimate=1.0 - series[ws[-1]][-1],
        per_end_split=split,
    )


# -- truncated window engine --------------------------------------------------------

class _WindowEngine:
    """Atomic mass on the window lo..hi, stepped with the kernel's window table.

    A vector has length + 2 cells: state x sits in cell x - lo + 1, and cells
    0 and length + 1 are the end buckets of -inf and +inf.  A step clips each
    target onto lo-1..hi+1, so mass leaving the window lands in the bucket
    on its side, and the buckets keep what they hold.
    """

    def __init__(self, kernel: TransitionKernel, half_width: int):
        if kernel.space.is_finite:
            raise DomainError("window engine needs a countable chain")
        self.hi = int(half_width)
        self.lo = 0 if kernel.space.support == "N" else -self.hi
        self.length = self.hi - self.lo + 1
        sources, targets, self._probs = window_table(kernel, self.lo, self.hi)
        self._sources = self.cell(sources)
        self._cells = self.cell(targets)
        self.bucket = {e: 0 if e == END_NEG else self.length + 1 for e in kernel.space.end_ids()}

    def cell(self, x):
        """Cell of a state (or an array of states); states past the window map to a bucket."""
        return np.clip(x, self.lo - 1, self.hi + 1) - self.lo + 1

    def atoms(self, v: np.ndarray, floor: float = 0.0) -> dict[int, float]:
        """The window cells of v above ``floor`` in absolute value, by state."""
        inner = v[1:-1]
        return {self.lo + i: float(inner[i]) for i in np.flatnonzero(abs(inner) > floor).tolist()}

    def load_atoms(self, mu: FAMeasure) -> np.ndarray:
        v = np.zeros(self.length + 2)
        for x, w in mu.atoms.items():
            if not self.lo <= x <= self.hi:
                raise PreconditionError(f"atom at {x} lies outside the window")
            v[self.cell(x)] = w
        return v

    def step(self, v: np.ndarray) -> np.ndarray:
        """One step of A on the window cells of v; the overflow adds to the buckets."""
        new = np.bincount(self._cells, v[self._sources] * self._probs, self.length + 2)
        new[[0, -1]] += v[[0, -1]]
        return new
