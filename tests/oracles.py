"""Oracles that the tests compare the package against, and the test-only constructors they share.

The brute-force oracles each take an independent route to a value the
package computes in closed form or by iteration, and are capped at a size
where their enumeration stays cheap.

The duality oracle is the function side of the paper's operator pair.  A
(``apply_A``) pushes a finitely additive measure forward one step; its
adjoint T (``apply_T``) averages a bounded function over one step, and
<A mu, f> = <mu, Tf> (``duality_residual``) checks each against the other.
The program runs only A: the conditions it checks are statements about
A's invariant measures.

The row-by-row oracles (``truncate_by_rows``, ``successors_by_rows``,
``recurrent_classes_by_rows``, ``eliminate_by_loop``) are the package's
earlier per-row and per-pivot code, kept as it was, so that the array paths
that replaced it can be compared with it byte for byte.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from chargechain import (
    END_NEG,
    END_POS,
    CapacityError,
    DomainError,
    FAMeasure,
    MeasurableSet,
    StateSpace,
    TransitionKernel,
    ValidationError,
    apply_A,
)
from chargechain.invariants import _strong_components
from chargechain.measures import _check_states, _same_space, _subset_sums

#: exact subset enumeration is capped at this many states
ORACLE_STATE_CAP = 20


def lattice_inf_oracle(mu1: FAMeasure, mu2: FAMeasure, ev_set: MeasurableSet) -> float:
    """Brute-force value of the infimum on a set: min over C of mu1(C) + mu2(E \\ C).

    Exact enumeration over every subset C of E; independent of the closed
    form of ``lattice_inf``.  Finite spaces only, capped at ORACLE_STATE_CAP states.
    """
    if mu1.space != mu2.space:
        raise DomainError("objects live on different state spaces")
    if not mu1.space.is_finite:
        raise CapacityError("subset oracle needs a finite space")
    n = mu1.space.size
    if n > ORACLE_STATE_CAP:
        raise CapacityError(f"subset oracle capped at {ORACLE_STATE_CAP} states, got {n}")
    members = [x for x in range(n) if ev_set.covers_state(x)]
    k = len(members)
    w1 = np.array([mu1.atoms.get(x, 0.0) for x in members])
    w2 = np.array([mu2.atoms.get(x, 0.0) for x in members])
    s1 = _subset_sums(w1)
    s2 = _subset_sums(w2)
    # complement of submask i within E sits at index (2^k - 1) - i
    return float(np.min(s1 + s2[::-1])) if k else 0.0


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


# -- test-only constructors -------------------------------------------------------------

def dirac(space: StateSpace, x: int) -> FAMeasure:
    return FAMeasure(space, atoms={int(x): 1.0})


def end_charge(space: StateSpace, ident: str, weight: float = 1.0) -> FAMeasure:
    if not space.has_end(ident):
        raise DomainError(f"unknown end {ident!r}")
    return FAMeasure(space, ends={ident: float(weight)})


def from_vector(space: StateSpace, vec) -> FAMeasure:
    if not space.is_finite:
        raise DomainError("from_vector needs a finite space")
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (space.size,):
        raise ValidationError(f"vector length {vec.size} != space size {space.size}")
    return FAMeasure(space, atoms={i: float(vec[i]) for i in range(space.size)})


def prob(kernel: TransitionKernel, x: int, ev_set: MeasurableSet) -> float:
    """One-step transition probability p(x, E)."""
    return math.fsum(p for y, p in sorted(kernel.row(x).items()) if ev_set.covers_state(y))


def closed_part_by_rows(kernel: TransitionKernel, k_states) -> set[int]:
    """K less every state with a path out of K: the greatest closed set inside K, by its definition.

    A depth-first search from each state of K over the positive entries of ``kernel.row``, with no edge
    table and no float row sum.
    """
    inside = set(k_states)

    def leaks(x):
        seen, stack = {x}, [x]
        while stack:
            for y, p in kernel.row(stack.pop()).items():
                if p > 0.0 and y not in seen:
                    if y not in inside:
                        return True
                    seen.add(y)
                    stack.append(y)
        return False

    return {x for x in inside if not leaks(x)}


def sets_meet_by_states(a: MeasurableSet, b: MeasurableSet) -> bool:
    """Whether two sets of N or Z share a state or an end, read state by state over a window two past every
    threshold and atom: past it, each set is constant toward each end, so a shared end stands for the rest."""
    marks = [*a.atoms, *b.atoms, *(m for _, m in a.tails | b.tails), 0]
    lo = 0 if a.space.support == "N" else min(marks) - 2
    shared = any(a.covers_state(x) and b.covers_state(x) for x in range(lo, max(marks) + 3))
    return shared or any(a.covers_end(e) and b.covers_end(e) for e in a.space.end_ids())


# -- the duality oracle: T on bounded functions -------------------------------------------

@dataclass(frozen=True)
class BoundedFunction:
    """Bounded function with finitely many explicit values and end limits.

    The value at a state x is: ``window[x]`` when listed; the limit of the
    end whose region x lies in when x is beyond the window's extent in that
    direction; ``default`` on unlisted states inside the window's hull.  On
    a finite space there are no ends and ``default`` fills every gap.  A
    function on a countable space must declare a limit for every end so
    that pairing with end charges is defined.
    """

    space: StateSpace
    window: dict[int, float] = field(default_factory=dict)
    default: float = 0.0
    end_limits: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        _check_states(self.space, self.window, "function window")
        for e in self.end_limits:
            if not self.space.has_end(e):
                raise DomainError(f"function references unknown end {e!r}")
        for e in self.space.end_ids():
            if e not in self.end_limits:
                raise DomainError(f"function must declare a limit at end {e!r}")
        object.__setattr__(
            self, "window", {int(k): float(v) for k, v in self.window.items()}
        )

    def value(self, x: int) -> float:
        if x in self.window:
            return self.window[x]
        if self.space.is_finite:
            return self.default
        hi = max(self.window) if self.window else None
        lo = min(self.window) if self.window else None
        if self.space.support == "N":
            if hi is None or x > hi:
                return self.end_limits[END_POS]
            return self.default
        if hi is None:  # empty window on Z: split regions at the origin
            return self.end_limits[END_POS if x >= 0 else END_NEG]
        if x > hi:
            return self.end_limits[END_POS]
        if x < lo:
            return self.end_limits[END_NEG]
        return self.default

    def sup_norm(self) -> float:
        vals = [abs(v) for v in self.window.values()]
        vals.append(abs(self.default))
        vals += [abs(v) for v in self.end_limits.values()]
        return max(vals)


def pair(mu: FAMeasure, f: BoundedFunction) -> float:
    """Integral pairing <mu, f>: atoms against values, end charges against limits."""
    _same_space(mu, f)
    parts = [w * f.value(x) for x, w in sorted(mu.atoms.items())]
    for e in sorted(mu.ends):
        if e not in f.end_limits:
            raise DomainError(f"function has no limit at end {e!r}")
        parts.append(mu.ends[e] * f.end_limits[e])
    return math.fsum(parts)


def reach(kernel: TransitionKernel) -> int:
    """The longest jump of a walk's tail rows."""
    return max((t.reach() for t in kernel.tails.values()), default=0)


def radius(kernel: TransitionKernel) -> int:
    """Least r >= 0 with every exception row, exception target and ``to_finite`` target in -r..r.

    Past r, every row is its end's tail row moved to x (``TransitionKernel.row``).
    """
    tails = kernel.tails.values()
    fixed = itertools.chain(kernel.exceptions, *kernel.exceptions.values(), *(t.to_finite for t in tails))
    return max(map(abs, fixed), default=0)


def apply_T(kernel: TransitionKernel, f: BoundedFunction) -> BoundedFunction:
    """(Tf)(x) = sum_y p(x, y) f(y), with end limits transported coarsely."""
    if kernel.space != f.space:
        raise DomainError("kernel and function live on different spaces")
    if kernel.space.is_finite:
        vals = np.array([f.value(x) for x in range(kernel.size)])
        out = kernel.matrix @ vals
        return BoundedFunction(kernel.space, {x: float(out[x]) for x in range(kernel.size)})
    limits = {}
    for e, tail in kernel.tails.items():
        acc = tail.preserved_mass() * f.end_limits[e]
        acc += math.fsum(p * f.value(y) for y, p in sorted(tail.to_finite.items()))
        acc += math.fsum(p * f.end_limits[e2] for e2, p in sorted(tail.to_other_end.items()))
        limits[e] = acc
    # explicit values wherever Tf can differ from its end-region constant; on Z
    # the window is symmetric, so it also holds where a mirror jump lands
    hi = max([radius(kernel), *map(abs, f.window)]) + reach(kernel)
    lo = 0 if kernel.space.support == "N" else -hi
    window = {}
    for x in range(lo, hi + 1):
        row = kernel.row(x)
        window[x] = math.fsum(p * f.value(y) for y, p in sorted(row.items()))
    return BoundedFunction(kernel.space, window, default=0.0, end_limits=limits)


def duality_residual(kernel: TransitionKernel, f: BoundedFunction, mu: FAMeasure) -> float:
    """|<A mu, f> - <mu, Tf>|; both sides computed independently."""
    return abs(pair(apply_A(kernel, mu), f) - pair(mu, apply_T(kernel, f)))


# -- the row-by-row oracles ----------------------------------------------------------

def truncate_by_rows(kernel: TransitionKernel, lo: int, hi: int, ends: bool = False) -> np.ndarray:
    """``truncate`` as every row read from ``kernel.row``, its entries added in row order."""
    edge = int(ends)

    def cell(x):
        return np.clip(x, lo - edge, hi + edge) - lo + edge

    xs, ys, ps = zip(*((x, y, p) for x in range(lo, hi + 1) for y, p in kernel.row(x).items()))
    w = np.zeros((hi - lo + 1 + 2 * edge,) * 2)
    np.add.at(w, (cell(np.array(xs)), cell(np.array(ys))), ps)
    if ends:
        bucket = {END_NEG: 0, END_POS: hi - lo + 2}
        for e, tail in sorted(kernel.tails.items()):
            w[bucket[e], bucket[e]] += tail.preserved_mass()
            for y, p in sorted(tail.to_finite.items()):
                w[bucket[e], cell(y)] += p
            for e2, p in sorted(tail.to_other_end.items()):
                w[bucket[e], bucket[e2]] += p
    return w


def successors_by_rows(kernel: TransitionKernel) -> list[list[int]]:
    """The positive entries of each row of a finite kernel's row table."""
    return [[y for y, p in kernel.row(x).items() if p > 0.0] for x in range(kernel.size)]


def recurrent_classes_by_rows(kernel: TransitionKernel) -> list[tuple[int, ...]]:
    """The closed classes of the row table's positive entries, closedness tested edge by edge."""
    succ = successors_by_rows(kernel)
    comp = _strong_components(succ)
    left = {comp[x] for x, ys in enumerate(succ) if any(comp[y] != comp[x] for y in ys)}
    members: dict[int, list[int]] = {}
    for x, c in enumerate(comp):
        if c not in left:
            members.setdefault(c, []).append(x)
    return [tuple(s) for s in members.values()]


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def eliminate_by_loop(a: np.ndarray, leave: np.ndarray, rhs: np.ndarray | None, last: int) -> np.ndarray:
    """``eliminate`` with one outer-product update of the box per pivot."""
    nz = (a != 0.0) | np.eye(len(a), dtype=bool)
    r0, c0 = (np.minimum.accumulate(m.argmax(axis=0)[::-1])[::-1].tolist() for m in (nz, nz.T))
    pivots = np.zeros(len(a))
    for k in range(len(a) - 1, last - 1, -1):
        row, col = a[k, c0[k] : k], a[r0[k] : k, k]
        s = leave[k] + row.sum()
        col /= s
        if s < 1e-200 and not (col <= 1e100).all():
            break
        pivots[k] = s
        a[r0[k] : k, c0[k] : k] += col[:, None] * row
        if leave[k]:
            leave[r0[k] : k] += col * leave[k]
        if rhs is not None:
            rhs[r0[k] : k] += col[:, None] * rhs[k]
    return pivots
