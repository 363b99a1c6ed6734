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
import reprlib
import sys
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
    """The bounds test of ``contains_state``, without a call per state."""
    if space.support == "Z":
        return
    n = space.size if space.is_finite else math.inf
    for x in states:
        if not 0 <= int(x) < n:
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


def tv_distance(mu: FAMeasure, nu: FAMeasure) -> float:
    """The total variation of mu - nu, without forming the difference; inf past the float range."""
    _same_space(mu, nu)
    try:
        return math.fsum(
            abs(mu.atoms.get(x, 0.0) - nu.atoms.get(x, 0.0)) for x in mu.atoms.keys() | nu.atoms.keys()
        ) + math.fsum(abs(mu.ends.get(e, 0.0) - nu.ends.get(e, 0.0)) for e in mu.ends.keys() | nu.ends.keys())
    except OverflowError:
        return math.inf


def to_vector(mu: FAMeasure) -> np.ndarray:
    if not mu.space.is_finite:
        raise DomainError("to_vector needs a finite space")
    v = np.zeros(mu.space.size)
    for k, w in mu.atoms.items():
        v[k] = w
    return v


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


# -- JSON reading ---------------------------------------------------------------

def json_number(value, kind: type | tuple[type, ...] = (int, float)):
    """``value`` when JSON wrote it as a number of ``kind``, an int or a float by default; else TypeError.

    A bool, which Python counts as an int, and a numeric string are no numbers.
    """
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{value!r} is not {'an integer' if kind is int else 'a number'}")
    return value


def int_keyed(table: dict, what: str) -> dict:
    """``table`` keyed by ints, each spelled one way (an int or its decimal string): "07", "+7" or " 7" would
    alias "7", and the last would win silently, so each raises, named by ``what``."""
    out = {}
    for key, value in table.items():
        try:
            y = int(key)
        except (TypeError, ValueError):
            y = None
        if y is None or str(y) != str(key):
            raise ValidationError(f"{what} {key!r} is not an integer")
        out[y] = value
    return out


class ShapeError(ValidationError):
    """A JSON value that does not read by its shape (``reader``); the message names the path to it."""

    def __init__(self, what: str):
        super().__init__(what)
        self.what, self.keys = what, []  # the keys from the value outward

    def __str__(self) -> str:
        path = "".join(f".{k}" if str(k).isidentifier() else f"[{k!r}]" for k in reversed(self.keys))
        return f"{path.lstrip('.')}: {self.what}" if path else self.what


#: the leaf shapes whose values, when JSON wrote them as that type, read as they are
_LEAVES = (int, float, bool, str)


def reader(shape):
    """The function of (value, space) that reads a JSON value by ``shape`` into plain typed values.

    A shape is a leaf: ``int``, a JSON integer (``json_number``); ``float``, a finite JSON number, read as a
    float; ``bool``, a JSON boolean; ``str``; ``FAMeasure`` or ``MeasurableSet``, a measure or set literal on
    ``space``.  Or ``[shape]``, a JSON array of entries of that shape; a tuple of shapes, an array of one entry
    per shape; ``{int: shape}``, a JSON object keyed by states (``int_keyed``), read with int keys;
    ``{str: shape}``, an object of any keys; or a dict of fields, an object read into a dict of those fields,
    where a field named with a trailing "?" may be absent or null.  Fields not named are not read.  A value
    that does not read raises ShapeError naming its path; a literal's DomainError, such as an atom outside
    ``space``, passes as it is.  A value that reads as it is (a leaf of its own JSON type, or a container of
    such values) is returned as it is, without a call or a copy.
    """
    if type(shape) is type:
        return lambda value, space: _leaf(shape, value, space)
    if type(shape) is list or len(shape) == 1 and next(iter(shape)) in (int, str):
        return _entries_reader(shape)
    return _fields_reader(shape)


def _entries_reader(shape):
    """The reader of an array of any length, or of a table of any keys: every entry has one shape."""
    keys, entry_shape = (None, shape[0]) if type(shape) is list else next(iter(shape.items()))
    entry, exact = reader(entry_shape), entry_shape if entry_shape in _LEAVES else None

    def read(value, space):
        if type(value) is not (list if keys is None else dict):
            raise ShapeError(f"{reprlib.repr(value)} is not a JSON {'array' if keys is None else 'object'}")
        out = int_keyed(value, "key") if keys is int else value
        for key, item in enumerate(out) if keys is None else out.items():
            if type(item) is exact and (exact is not float or math.isfinite(item)):
                continue  # a leaf, read as it is
            try:
                typed = entry(item, space)
            except (TypeError, ValidationError) as exc:
                raise _at(exc, key) from None
            if typed is not item:  # copied once, on the first entry that reads as another value
                out = (list(out) if keys is None else dict(out)) if out is value else out
                out[key] = typed
        return out

    return read


def _fields_reader(shape):
    """The reader of an object of named fields (a dict shape), or of an array of one entry per shape (a tuple)."""
    named = type(shape) is dict
    fields = [
        (name.rstrip("?") if named else name, named and name.endswith("?"), s if s in _LEAVES else None, reader(s))
        for name, s in (shape.items() if named else enumerate(shape))
    ]

    def read(value, space):
        if type(value) is not (dict if named else list) or not named and len(value) != len(fields):
            what = "object" if named else f"array of {len(fields)} entries"
            raise ShapeError(f"{reprlib.repr(value)} is not a JSON {what}")
        out = value
        for key, optional, exact, read_field in fields:
            item = value.get(key) if named else value[key]
            if type(item) is exact and (exact is not float or math.isfinite(item)) or item is None and optional:
                continue  # a leaf read as it is, or an optional field that is absent or null
            try:
                if named and item is None and key not in value:
                    raise ShapeError("missing")
                typed = read_field(item, space)
            except (TypeError, ValidationError) as exc:
                raise _at(exc, key) from None
            if typed is not item:  # copied once, on the first field that reads as another value
                out = (dict(out) if named else list(out)) if out is value else out
                out[key] = typed
        return out

    return read


def _at(exc: Exception, key) -> ShapeError:
    """``exc``, raised reading the entry ``key``, as a ShapeError whose path ends there."""
    exc = exc if isinstance(exc, ShapeError) else ShapeError(str(exc))
    exc.keys.append(key)
    return exc


def _leaf(shape: type, value, space: StateSpace | None):
    """``value`` read by the leaf ``shape``; a value of another JSON type raises TypeError."""
    if shape is FAMeasure or shape is MeasurableSet:
        return (measure_from_json if shape is FAMeasure else set_from_json)(space, value)
    if shape in (bool, str):
        if type(value) is not shape:  # 0 and 1 are no booleans
            raise TypeError(f"{value!r} is not a {'boolean' if shape is bool else 'string'}")
        return value
    if shape is int or abs(json_number(value)) <= sys.float_info.max:  # not nan or inf, nor an int past the floats
        return json_number(value, int) if shape is int else float(value)
    raise TypeError(f"{value!r} is not a finite number")


#: the JSON shape of a measure literal and of a set literal
MEASURE_LITERAL = {"atoms?": {int: float}, "ends?": {str: float}}
SET_LITERAL = {"atoms?": [int], "tails?": [{"end": str, "after": int}], "complement?": bool}
_READ_MEASURE, _READ_SET = reader(MEASURE_LITERAL), reader(SET_LITERAL)


def measure_from_json(space: StateSpace, obj: dict) -> FAMeasure:
    """Read a measure literal (``MEASURE_LITERAL``); what does not read raises ShapeError naming its path, and
    so do weights whose absolute values sum past the float range: every sum of the measure stays in range."""
    literal = _READ_MEASURE(obj, space)
    atoms, ends = literal.get("atoms") or {}, literal.get("ends") or {}
    try:
        math.fsum(map(abs, [*atoms.values(), *ends.values()]))
    except OverflowError:
        raise ShapeError("its weights sum past the float range") from None
    return FAMeasure(space, atoms, ends)


def set_from_json(space: StateSpace, obj: dict) -> MeasurableSet:
    """Read a set literal (``SET_LITERAL``); what does not read raises ShapeError naming its path."""
    literal = _READ_SET(obj, space)
    tails = [(t["end"], t["after"]) for t in literal.get("tails") or ()]
    return measurable(space, literal.get("atoms") or (), tails, bool(literal.get("complement")))
