"""Invariant measures: bases, end-charge detection, averaged sequences, escape.

Finite chains get an exact treatment: one extreme invariant distribution
per recurrent class, found by a direct linear solve.  Countable walks are
handled within the representable class: invariant end charges come from
the coarse end actions, and a countably additive invariant (when one
exists with effectively finite support) is certified numerically by its
invariance residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PreconditionError, StructureError, ValidationError
from .kernels import TransitionKernel, apply_A, end_action
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
    measures = [stationary_of_class(kernel, c.states) for c in recurrent_classes(kernel)]
    return _assemble_basis(measures, ["ca"] * len(measures))


def _assemble_basis(measures: list[FAMeasure], kinds: list[str]) -> InvariantBasis:
    pairwise = []
    for i in range(len(measures)):
        for j in range(i + 1, len(measures)):
            disjoint = is_disjoint(measures[i], measures[j])
            wit = singularity_witness(measures[i], measures[j]) if disjoint else None
            pairwise.append(
                PairCertificate(i, j, disjoint, wit is not None, wit)
            )
    return InvariantBasis(
        measures=measures, kinds=kinds, dimension=len(measures), pairwise=pairwise
    )


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

    Power-iterates a truncated window (overflow discarded), averages the
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
    v = np.full(engine.length, 1.0 / engine.length)
    prev = v
    for _ in range(steps):
        prev = v
        v, _ = engine.step(v)
    cand = 0.5 * (prev + v)
    mass = float(cand.sum())
    if mass <= 1e-9:
        return []
    cand = cand / mass
    atoms = {
        engine.state_of(i): float(cand[i])
        for i in range(engine.length)
        if cand[i] > 1e-14
    }
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
    bounded).  Giving a window engages truncation: overflow is routed
    irreversibly to the adjacent end bucket.
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
        extent = max((abs(x) for x in mu0.atoms), default=0)
        window = extent + kernel.reach() * n + 1
    engine = _WindowEngine(kernel, window)
    v = engine.load_atoms(mu0)
    ends = {e: mu0.ends.get(e, 0.0) for e in kernel.space.end_ids()}
    escaped = {e: 0.0 for e in kernel.space.end_ids()}
    acc_v = np.zeros_like(v)
    acc_ends = {e: 0.0 for e in ends}
    out = []
    for k in range(1, n + 1):
        v, over = engine.step(v)
        v, ends = engine.evolve_ends(v, ends)
        for e, w in over.items():
            escaped[e] += w
        acc_v += v
        for e in ends:
            acc_ends[e] += ends[e] + escaped[e]
        atoms = {
            engine.state_of(i): float(acc_v[i] / k)
            for i in range(engine.length)
            if acc_v[i] != 0.0
        }
        out.append(
            FAMeasure(kernel.space, atoms, {e: w / k for e, w in acc_ends.items()})
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
    cap = ws[-1]
    engine = _WindowEngine(kernel, cap)
    v = engine.load_atoms(mu0)
    bucket = {e: 0.0 for e in kernel.space.end_ids()}
    acc_v = np.zeros_like(v)
    acc_bucket = {e: 0.0 for e in bucket}
    series: dict[int, list[float]] = {m: [] for m in ws}
    slices = {m: engine.window_slice(m) for m in ws}
    for k in range(1, n_max + 1):
        v, over = engine.step(v)
        for e, w in over.items():
            bucket[e] += w
        acc_v += v
        for e in bucket:
            acc_bucket[e] += bucket[e]
        for m in ws:
            series[m].append(float(acc_v[slices[m]].sum() / k))
    escaped = {e: acc_bucket[e] / n_max for e in acc_bucket}
    total_escaped = math.fsum(escaped.values())
    split = (
        {e: escaped[e] / total_escaped for e in sorted(escaped)}
        if total_escaped > 1e-15
        else {}
    )
    return EscapeProfile(
        windows=[(m, series[m]) for m in ws],
        pfa_mass_estimate=1.0 - series[cap][-1],
        per_end_split=split,
    )


# -- truncated window engine --------------------------------------------------------

class _WindowEngine:
    """Vectorized one-step evolution of atomic mass on a truncation window.

    States lo..hi map to array cells; mass stepping past a boundary is
    reported per end.  Exception rows are applied per state; every other
    cell follows the tail row of the end governing its region.
    """

    def __init__(self, kernel: TransitionKernel, half_width: int):
        if kernel.space.is_finite:
            raise DomainError("window engine needs a countable chain")
        self.kernel = kernel
        if kernel.space.support == "N":
            self.lo, self.hi = 0, int(half_width)
        else:
            self.lo, self.hi = -int(half_width), int(half_width)
        self.length = self.hi - self.lo + 1
        for e, tail in kernel.tails.items():
            if any(p != 0.0 for p in tail.to_other_end.values()):
                raise StructureError(
                    "tail row with cross-end mass has no pointwise realization"
                )
        self._exc = {
            x: kernel.exceptions[x]
            for x in kernel.exceptions
            if self.lo <= x <= self.hi
        }
        self._regions = []
        if kernel.space.support == "N":
            self._regions.append((0, self.length, kernel.tails[END_POS]))
        else:
            zero = -self.lo
            self._regions.append((zero, self.length, kernel.tails[END_POS]))
            self._regions.append((0, zero, kernel.tails[END_NEG]))

    def idx(self, x: int) -> int:
        return x - self.lo

    def state_of(self, i: int) -> int:
        return i + self.lo

    def window_slice(self, m: int):
        a = max(self.lo, -m)
        b = min(self.hi, m)
        return slice(self.idx(a), self.idx(b) + 1)

    def load_atoms(self, mu: FAMeasure) -> np.ndarray:
        v = np.zeros(self.length)
        for x, w in mu.atoms.items():
            if not self.lo <= x <= self.hi:
                raise PreconditionError(f"atom at {x} lies outside the window")
            v[self.idx(x)] = w
        return v

    def step(self, v: np.ndarray) -> tuple[np.ndarray, dict[str, float]]:
        new = np.zeros_like(v)
        over = {e: 0.0 for e in self.kernel.space.end_ids()}
        masked = v.copy()
        for x in self._exc:
            masked[self.idx(x)] = 0.0
        for start, stop, tail in self._regions:
            if start >= stop:
                continue
            u = np.zeros_like(v)
            u[start:stop] = masked[start:stop]
            region_mass = float(u.sum())
            if region_mass == 0.0:
                continue
            for off, p in sorted(tail.relative.items()):
                if p == 0.0:
                    continue
                if off == 0:
                    new += p * u
                elif off > 0:
                    new[off:] += p * u[:-off]
                    spill = float(u[self.length - off :].sum())
                    if spill:
                        over[END_POS] += p * spill
                else:
                    new[:off] += p * u[-off:]
                    spill = float(u[:-off].sum())
                    if spill:
                        over[END_NEG] += p * spill
            for y, p in sorted(tail.to_finite.items()):
                self._deposit(new, over, y, p * region_mass)
        for x, row in sorted(self._exc.items()):
            w = v[self.idx(x)]
            if w == 0.0:
                continue
            for y, p in sorted(row.items()):
                self._deposit(new, over, y, w * p)
        return new, over

    def _deposit(self, new, over, y: int, mass: float) -> None:
        if mass == 0.0:
            return
        if self.lo <= y <= self.hi:
            new[self.idx(y)] += mass
        else:
            over[END_POS if y > self.hi else END_NEG] += mass

    def evolve_ends(
        self, v: np.ndarray, ends: dict[str, float]
    ) -> tuple[np.ndarray, dict[str, float]]:
        """Faithful one-step action on genuine end mass (leaks re-enter atoms)."""
        new_ends = {e: 0.0 for e in ends}
        for e in sorted(ends):
            w = ends[e]
            if w == 0.0:
                continue
            act = end_action(self.kernel, e)
            new_ends[e] += w * act.preserved_mass
            for e2, p in sorted(act.leak_ends.items()):
                new_ends[e2] += w * p
            for y, p in sorted(act.leak_atoms.items()):
                if self.lo <= y <= self.hi:
                    v[self.idx(y)] += w * p
        return v, new_ends
