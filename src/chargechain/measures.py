"""Finitely additive signed measures over finite or countable state spaces.

States are integers.  A finite space is ``{0, ..., n-1}``; a countable space
is the half-line ``N = {0, 1, 2, ...}`` or the integer line ``Z``, whose
support gives one *end* per unbounded direction.  A measure carries a
sparse atomic part (state -> weight) plus one bucket weight per end; an end
bucket stands for a purely finitely additive unit charge concentrated along
that direction, coarsened to a single degree of freedom.

Measurable sets are drawn from the finite/co-tail algebra: finite sets of
atoms, end tails ``{x beyond m}``, unions of both, and complements.  Within
this algebra the (atoms, ends) split of a measure is exactly its
Yosida–Hewitt decomposition into a countably additive part (``atoms``) and
a pure-charge part (``ends``), the signs of the weights give its Jordan
parts, and the lattice infimum has the closed form of ``lattice_inf``, so
none of these needs a function of its own.  Bounded functions, the other
side of the pairing, live with the test oracles (``tests/oracles.py``):
the program only runs measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PreconditionError, ValidationError

END_POS = "+inf"
END_NEG = "-inf"
#: the mass a pair's lattice infimum, or a negative weight, may carry for the pair to read as disjoint and nonnegative
SINGULAR_TOL = 1e-12

_ENDS = {None: (), "N": (END_POS,), "Z": (END_POS, END_NEG)}


@dataclass(frozen=True)
class StateSpace:
    """The finite space 0..size-1 (no ``support``), or N or Z with the ends their support gives."""

    size: int = 0
    labels: tuple[str, ...] | None = None
    support: str | None = None  # "N" | "Z"

    @staticmethod
    def finite(size: int, labels=None) -> "StateSpace":
        if size < 1:
            raise ValidationError(f"finite space needs size >= 1, got {size}")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != size:
                raise ValidationError(f"{len(labels)} labels for {size} states")
        return StateSpace(size=size, labels=labels)

    @staticmethod
    def half_line() -> "StateSpace":
        return StateSpace(support="N")

    @staticmethod
    def integer_line() -> "StateSpace":
        return StateSpace(support="Z")

    @property
    def is_finite(self) -> bool:
        return self.support is None

    def end_ids(self) -> tuple[str, ...]:
        """``("+inf",)`` on N, ``("+inf", "-inf")`` on Z, none on a finite space."""
        return _ENDS[self.support]

    def has_end(self, ident: str) -> bool:
        return ident in self.end_ids()

    def contains_state(self, x: int) -> bool:
        if self.is_finite:
            return 0 <= x < self.size
        if self.support == "N":
            return x >= 0
        return True


def end_direction(ident: str) -> int:
    """+1 for the end +inf, -1 for -inf."""
    if ident == END_POS:
        return 1
    if ident == END_NEG:
        return -1
    raise DomainError(f"unknown end {ident!r}")


def _check_states(space: StateSpace, states, what: str) -> None:
    if space.is_finite:  # the bounds test of contains_state, without a call per state
        n = space.size
        for x in states:
            if not 0 <= int(x) < n:
                raise DomainError(f"{what}: state {x} not in space")
        return
    for x in states:
        if not space.contains_state(int(x)):
            raise DomainError(f"{what}: state {x} not in space")


@dataclass(frozen=True)
class MeasurableSet:
    """Finite atoms plus end tails, optionally complemented.

    A tail ``(e, m)`` is the set of states strictly beyond ``m`` in the
    direction of end ``e``.  Canonical form keeps at most one (widest) tail
    per end and no atom that a kept tail already covers.
    """

    space: StateSpace
    atoms: frozenset[int]
    tails: frozenset[tuple[str, int]]
    complemented: bool = False

    def covers_state(self, x: int) -> bool:
        inner = x in self.atoms or any(self._tail_has(e, m, x) for e, m in self.tails)
        return inner != self.complemented

    def covers_end(self, ident: str) -> bool:
        inner = any(e == ident for e, _ in self.tails)
        return inner != self.complemented

    def _tail_has(self, ident: str, m: int, x: int) -> bool:
        return x > m if end_direction(ident) > 0 else x < m

    def complement(self) -> "MeasurableSet":
        return MeasurableSet(self.space, self.atoms, self.tails, not self.complemented)

    def to_json(self) -> dict:
        return {
            "atoms": sorted(self.atoms),
            "tails": [
                {"end": e, "after": m} for e, m in sorted(self.tails)
            ],
            "complement": self.complemented,
        }


def measurable(space: StateSpace, atoms=(), tails=(), complement: bool = False) -> MeasurableSet:
    """Build a canonical MeasurableSet from atoms and (end, threshold) tails."""
    atoms = {int(a) for a in atoms}
    _check_states(space, atoms, "measurable set")
    best: dict[str, int] = {}
    for e, m in tails:
        if not space.has_end(e):
            raise DomainError(f"measurable set references unknown end {e!r}")
        d = end_direction(e)
        m = int(m)
        if e not in best:
            best[e] = m
        else:
            # widest tail wins: lowest threshold toward +inf, highest toward -inf
            best[e] = min(best[e], m) if d > 0 else max(best[e], m)
    kept = frozenset(best.items())
    for e, m in kept:
        d = end_direction(e)
        atoms = {a for a in atoms if not (a > m if d > 0 else a < m)}
    return MeasurableSet(space, frozenset(atoms), kept, complement)


def set_from_json(space: StateSpace, obj: dict) -> MeasurableSet:
    """Read a set literal; a field or entry of the wrong shape raises ValidationError naming it."""
    atoms = _entries("set literal", obj, "atoms", list, lambda i, a: json_number(a, int))
    tails = _entries("set literal", obj, "tails", list, lambda i, t: (t["end"], json_number(t["after"], int)))
    return measurable(space, atoms, tails, bool(obj.get("complement", False)))


def json_number(value, kind: type | tuple[type, ...] = (int, float)):
    """``value`` when JSON wrote it as a number of ``kind``, an int or a float by default; else TypeError.

    A bool, which Python counts as an int, and a numeric string are no numbers.
    """
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{value!r} is not {'an integer' if kind is int else 'a number'}")
    return value


def _entries(what: str, obj: dict, name: str, kind: type, read) -> list:
    """``read(key, entry)`` of each entry of the JSON array or object ``obj[name]``; a wrong shape raises, named."""
    value = obj.get(name, kind())
    if not isinstance(value, kind):
        raise ValidationError(f"{what}: {name} = {value!r} is not a JSON {'array' if kind is list else 'object'}")
    out = []
    for key, entry in value.items() if kind is dict else enumerate(value):
        try:
            out.append(read(key, entry))
        except (TypeError, ValueError, KeyError, OverflowError) as exc:  # OverflowError: int() of inf, read from 1e309
            raise ValidationError(f"{what}: bad entry {name}[{key!r}] = {entry!r}") from exc
    return out


@dataclass(frozen=True)
class FAMeasure:
    """Signed finitely additive measure: sparse atoms + per-end charge weights.

    Instances are treated as immutable values; all operations return new
    measures.  Exact zero weights are dropped at construction.
    """

    space: StateSpace
    atoms: dict[int, float] = field(default_factory=dict)
    ends: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        _check_states(self.space, self.atoms, "measure atoms")
        for e in self.ends:
            if not self.space.has_end(e):
                raise DomainError(f"measure references unknown end {e!r}")
        object.__setattr__(
            self, "atoms", {int(k): float(v) for k, v in self.atoms.items() if v != 0.0}
        )
        object.__setattr__(
            self, "ends", {k: float(v) for k, v in self.ends.items() if v != 0.0}
        )

    # -- norms and membership -------------------------------------------------

    def total(self) -> float:
        """Value on the whole space."""
        return math.fsum(self.atoms.values()) + math.fsum(self.ends.values())

    def total_variation(self) -> float:
        return math.fsum(abs(v) for v in self.atoms.values()) + math.fsum(
            abs(v) for v in self.ends.values()
        )

    def is_nonnegative(self, tol: float = 0.0) -> bool:
        return all(v >= -tol for v in self.atoms.values()) and all(
            v >= -tol for v in self.ends.values()
        )

    def is_probability(self, tol: float = 1e-9) -> bool:
        return self.is_nonnegative(tol) and abs(self.total() - 1.0) <= tol

    # -- linear structure -----------------------------------------------------

    def __add__(self, other: "FAMeasure") -> "FAMeasure":
        _same_space(self, other)
        atoms = dict(self.atoms)
        for k, v in other.atoms.items():
            atoms[k] = atoms.get(k, 0.0) + v
        ends = dict(self.ends)
        for k, v in other.ends.items():
            ends[k] = ends.get(k, 0.0) + v
        return FAMeasure(self.space, atoms, ends)

    def __sub__(self, other: "FAMeasure") -> "FAMeasure":
        return self + (other * -1.0)

    def __mul__(self, c: float) -> "FAMeasure":
        return FAMeasure(
            self.space,
            {k: v * c for k, v in self.atoms.items()},
            {k: v * c for k, v in self.ends.items()},
        )

    __rmul__ = __mul__

    def normalized(self) -> "FAMeasure":
        t = self.total()
        if t == 0.0:
            raise PreconditionError("cannot normalize the zero measure")
        return self * (1.0 / t)

    def to_json(self) -> dict:
        return {
            "atoms": {str(k): float(self.atoms[k]) for k in sorted(self.atoms)},
            "ends": {k: float(self.ends[k]) for k in sorted(self.ends)},
        }


def _same_space(a, b) -> None:
    if a.space != b.space:
        raise DomainError("objects live on different state spaces")


def to_vector(mu: FAMeasure) -> np.ndarray:
    if not mu.space.is_finite:
        raise DomainError("to_vector needs a finite space")
    v = np.zeros(mu.space.size)
    for k, w in mu.atoms.items():
        v[k] = w
    return v


def measure_from_json(space: StateSpace, obj: dict) -> FAMeasure:
    """Read a measure literal; a wrong shape or a non-finite weight raises ValidationError naming the entry."""
    atoms = dict(_entries("measure literal", obj, "atoms", dict, lambda k, w: (int(k), float(json_number(w)))))
    ends = dict(_entries("measure literal", obj, "ends", dict, lambda k, w: (str(k), float(json_number(w)))))
    for field_name, weights in (("atoms", atoms), ("ends", ends)):
        for k, v in weights.items():
            if not math.isfinite(v):
                raise ValidationError(f"measure literal: non-finite weight {v!r} at {field_name}[{k!r}]")
    return FAMeasure(space, atoms, ends)


# -- evaluation ---------------------------------------------------------------

def evaluate(mu: FAMeasure, ev_set: MeasurableSet) -> float:
    """mu(E): atom weights inside E plus end weights whose tail E includes."""
    _same_space(mu, ev_set)
    if ev_set.complemented:
        return mu.total() - evaluate(mu, ev_set.complement())
    parts = [w for x, w in sorted(mu.atoms.items()) if ev_set.covers_state(x)]
    parts += [mu.ends[e] for e in sorted(mu.ends) if ev_set.covers_end(e)]
    return math.fsum(parts)


# -- lattice structure --------------------------------------------------------

def lattice_inf(mu1: FAMeasure, mu2: FAMeasure) -> FAMeasure:
    """Lattice infimum of two nonnegative measures.

    Closed form in this representation: pointwise min on atoms and on end
    buckets.  Atomic mass and charge mass never overlap, so cross terms
    contribute nothing.  Signed inputs are refused.
    """
    _same_space(mu1, mu2)
    if not (mu1.is_nonnegative() and mu2.is_nonnegative()):
        raise PreconditionError("lattice_inf needs nonnegative measures")
    atoms = {
        k: min(mu1.atoms[k], mu2.atoms[k]) for k in mu1.atoms.keys() & mu2.atoms.keys()
    }
    ends = {k: min(mu1.ends[k], mu2.ends[k]) for k in mu1.ends.keys() & mu2.ends.keys()}
    return FAMeasure(mu1.space, atoms, ends)


def _subset_sums(weights: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sums over all subsets, indexed by bitmask (doubling construction), written to the head of ``out`` when given."""
    n = weights.size
    sums = np.zeros(1 << n) if out is None else out[: 1 << n]
    sums[0] = 0.0
    for b in range(n):
        step = 1 << b
        sums[step : 2 * step] = sums[:step] + weights[b]
    return sums


def is_disjoint(mu1: FAMeasure, mu2: FAMeasure) -> bool:
    """Lattice infimum vanishes."""
    return lattice_inf(mu1, mu2).total() <= SINGULAR_TOL


def singularity_witness(mu1: FAMeasure, mu2: FAMeasure) -> tuple[MeasurableSet, MeasurableSet] | None:
    """Disjoint full-measure sets (D1, D2) for a singular pair, if they exist.

    Within the finite/co-tail algebra a disjoint nonnegative pair always
    has such a witness: the supports are separated state sets and, for end
    mass, tails chosen beyond every atom of either measure.
    """
    if not (mu1.is_nonnegative(SINGULAR_TOL) and mu2.is_nonnegative(SINGULAR_TOL)):
        raise PreconditionError("singularity needs nonnegative measures")
    if not is_disjoint(mu1, mu2):
        return None
    space = mu1.space
    all_atoms = set(mu1.atoms) | set(mu2.atoms)
    hi = max(all_atoms, default=0)
    lo = min(all_atoms, default=0)

    def support(mu: FAMeasure) -> MeasurableSet:
        tails = [(e, hi if end_direction(e) > 0 else lo) for e in mu.ends]
        return measurable(space, atoms=set(mu.atoms), tails=tails)

    return support(mu1), support(mu2)
