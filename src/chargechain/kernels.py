"""Transition kernels and the adjoint operator pair (T on functions, A on measures).

Finite kernels are dense row-stochastic matrices, read-only once a kernel
holds them; their sparse rows are materialized once per kernel, on first
use, and ``row`` hands out copies.  Countable kernels are
"walks": finitely many exception rows plus one eventually-constant tail row
per end, with bounded relative offsets.  That structure keeps the action of
A on end charges exact: an end charge keeps ``preserved_mass`` at its end,
leaks ``to_finite`` into fixed states, and leaks ``to_other_end`` across.

Rows are countably additive by construction.  A tail row with cross-end
mass has a well defined coarse action but no pointwise realization, so
materializing a concrete row of such a kernel raises StructureError.
``window_table`` flattens the rows of a window of states into arrays; every
walk evolution on a window (escape, averaging, CA detection) and the
reflecting truncation read their one-step law from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, StructureError, ValidationError
from .measures import (
    END_NEG,
    END_POS,
    BoundedFunction,
    FAMeasure,
    MeasurableSet,
    StateSpace,
    pair,
)

ROW_SUM_TOL = 1e-9
MAX_OFFSET = 64


@dataclass(frozen=True)
class TailRow:
    """Row shared by all states deep enough toward one end.

    relative: jump offsets (state x -> x + offset), staying in the tail;
    to_finite: jumps into fixed finite states; to_other_end: coarse mass
    sent across to another end.
    """

    relative: dict[int, float] = field(default_factory=dict)
    to_finite: dict[int, float] = field(default_factory=dict)
    to_other_end: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "relative", {int(k): float(v) for k, v in self.relative.items()})
        object.__setattr__(self, "to_finite", {int(k): float(v) for k, v in self.to_finite.items()})
        object.__setattr__(self, "to_other_end", {str(k): float(v) for k, v in self.to_other_end.items()})

    def mass(self) -> float:
        return (
            math.fsum(self.relative.values())
            + math.fsum(self.to_finite.values())
            + math.fsum(self.to_other_end.values())
        )

    def preserved_mass(self) -> float:
        return math.fsum(self.relative.values())

    def reach(self) -> int:
        return max((abs(o) for o in self.relative), default=0)


@dataclass(frozen=True)
class EndAction:
    """Coarse image of a unit charge at one end under a single step of A."""

    end: str
    preserved_mass: float
    leak_atoms: dict[int, float]
    leak_ends: dict[str, float]


@dataclass(frozen=True)
class TransitionKernel:
    space: StateSpace
    matrix: np.ndarray | None = None
    exceptions: dict[int, dict[int, float]] = field(default_factory=dict)
    tails: dict[str, TailRow] = field(default_factory=dict)

    @staticmethod
    def finite(matrix, labels=None) -> "TransitionKernel":
        m = np.array(matrix, dtype=float)  # a copy: the caller's array stays theirs
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"transition matrix must be square, got shape {m.shape}")
        n = m.shape[0]
        if not np.isfinite(m).all():
            i, j = (int(v) for v in np.argwhere(~np.isfinite(m))[0])
            raise ValidationError(f"row {i}: non-finite probability at column {j}")
        for i in range(n):
            if (m[i] < -ROW_SUM_TOL).any():
                j = int(np.argmin(m[i]))
                raise ValidationError(f"row {i}: negative probability at column {j}")
            s = float(m[i].sum())
            if abs(s - 1.0) > ROW_SUM_TOL:
                raise ValidationError(f"row {i} sums to {s!r}, expected 1")
        return TransitionKernel(StateSpace.finite(n, labels), matrix=_read_only(m))

    @staticmethod
    def walk(support: str, exceptions=None, tails=None) -> "TransitionKernel":
        if support == "N":
            space = StateSpace.half_line()
        elif support == "Z":
            space = StateSpace.integer_line()
        else:
            raise ValidationError(f"support must be 'N' or 'Z', got {support!r}")
        exceptions = {
            int(x): {int(y): float(p) for y, p in row.items()}
            for x, row in (exceptions or {}).items()
        }
        tails = dict(tails or {})
        for e in space.end_ids():
            if e not in tails:
                raise ValidationError(f"missing tail row for end {e!r}")
        for e in tails:
            if not space.has_end(e):
                raise ValidationError(f"tail row for unknown end {e!r}")
        kernel = TransitionKernel(space, exceptions=exceptions, tails=tails)
        _validate_walk(kernel)
        return kernel

    # -- structure ------------------------------------------------------------

    @property
    def size(self) -> int:
        if not self.space.is_finite:
            raise DomainError("countable kernel has no size")
        return self.space.size

    def reach(self) -> int:
        return max((t.reach() for t in self.tails.values()), default=0)

    def governing_end(self, x: int) -> str:
        """End whose tail row rules a non-exception state x."""
        if self.space.support == "N":
            return END_POS
        return END_POS if x >= 0 else END_NEG

    @cached_property
    def _finite_rows(self) -> list[dict[int, float]]:
        """Nonzero entries of each matrix row, in column order, as Python floats."""
        rows: list[dict[int, float]] = [{} for _ in range(self.size)]
        xs, ys = np.nonzero(self.matrix)
        for x, y, p in zip(xs.tolist(), ys.tolist(), self.matrix[xs, ys].tolist()):
            rows[x][y] = p
        return rows

    def row(self, x: int) -> dict[int, float]:
        """Materialize the one-step distribution from state x."""
        if self.space.is_finite:
            return dict(self._finite_rows[x])
        if not self.space.contains_state(x):
            raise DomainError(f"state {x} not in space")
        if x in self.exceptions:
            return dict(self.exceptions[x])
        tail = self.tails[self.governing_end(x)]
        if any(v != 0.0 for v in tail.to_other_end.values()):
            raise StructureError(
                "tail row with cross-end mass has no pointwise realization"
            )
        out: dict[int, float] = {}
        for off, p in tail.relative.items():
            out[x + off] = out.get(x + off, 0.0) + p
        for y, p in tail.to_finite.items():
            out[y] = out.get(y, 0.0) + p
        return out

    def prob(self, x: int, ev_set: MeasurableSet) -> float:
        """One-step transition probability p(x, E)."""
        row = self.row(x)
        return math.fsum(p for y, p in sorted(row.items()) if ev_set.covers_state(y))


def _read_only(matrix: np.ndarray) -> np.ndarray:
    """Freeze a matrix a kernel owns, so its row table can never go stale."""
    matrix.flags.writeable = False
    return matrix


def _validate_walk(kernel: TransitionKernel) -> None:
    space = kernel.space
    for x, row in kernel.exceptions.items():
        if not space.contains_state(x):
            raise ValidationError(f"exception row for state {x} outside support")
        for y, p in row.items():
            if not math.isfinite(p):
                raise ValidationError(f"exception row {x}: non-finite probability at {y}")
        s = math.fsum(row.values())
        if abs(s - 1.0) > ROW_SUM_TOL:
            raise ValidationError(f"exception row {x} sums to {s!r}, expected 1")
        for y, p in row.items():
            if p < -ROW_SUM_TOL:
                raise ValidationError(f"exception row {x}: negative probability at {y}")
            if not space.contains_state(y):
                raise ValidationError(f"exception row {x}: target {y} outside support")
    for e, tail in kernel.tails.items():
        for part in (tail.relative, tail.to_finite, tail.to_other_end):
            for k, p in part.items():
                if not math.isfinite(p):
                    raise ValidationError(f"tail row {e}: non-finite probability at {k}")
        s = tail.mass()
        if abs(s - 1.0) > ROW_SUM_TOL:
            raise ValidationError(f"tail row {e}: mass sums to {s!r}, expected 1")
        for part in (tail.relative, tail.to_finite, tail.to_other_end):
            for k, p in part.items():
                if p < -ROW_SUM_TOL:
                    raise ValidationError(f"tail row {e}: negative probability at {k}")
        if tail.reach() > MAX_OFFSET:
            raise ValidationError(f"tail row {e}: offsets beyond +-{MAX_OFFSET}")
        for e2 in tail.to_other_end:
            if not space.has_end(e2) or e2 == e:
                raise ValidationError(f"tail row {e}: bad cross-end target {e2!r}")
        for y in tail.to_finite:
            if not space.contains_state(y):
                raise ValidationError(f"tail row {e}: target {y} outside support")
    if space.support == "N":
        tail = kernel.tails[END_POS]
        min_off = min(tail.relative, default=0)
        if min_off < 0:
            first_tail_state = 0
            while first_tail_state in kernel.exceptions:
                first_tail_state += 1
            if first_tail_state + min_off < 0:
                raise ValidationError(
                    f"tail row {END_POS}: offset {min_off} jumps below state 0 "
                    f"from state {first_tail_state}"
                )


# -- operator actions ----------------------------------------------------------

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
    # explicit values wherever Tf can differ from its end-region constant
    keys = set(f.window) | set(kernel.exceptions) | {0}
    for tail in kernel.tails.values():
        keys |= set(tail.to_finite)
    reach = kernel.reach()
    hi = max(keys) + reach
    lo = 0 if kernel.space.support == "N" else min(keys) - reach
    window = {}
    for x in range(lo, hi + 1):
        row = kernel.row(x)
        window[x] = math.fsum(p * f.value(y) for y, p in sorted(row.items()))
    return BoundedFunction(kernel.space, window, default=0.0, end_limits=limits)


def apply_A(kernel: TransitionKernel, mu: FAMeasure) -> FAMeasure:
    """Push a measure forward one step: atoms through rows, ends through end actions."""
    if kernel.space != mu.space:
        raise DomainError("kernel and measure live on different spaces")
    atoms: dict[int, float] = {}
    ends: dict[str, float] = {}
    for x, w in sorted(mu.atoms.items()):
        for y, p in sorted(kernel.row(x).items()):
            atoms[y] = atoms.get(y, 0.0) + w * p
    for e in sorted(mu.ends):
        w = mu.ends[e]
        act = end_action(kernel, e)
        ends[e] = ends.get(e, 0.0) + w * act.preserved_mass
        for y, p in sorted(act.leak_atoms.items()):
            atoms[y] = atoms.get(y, 0.0) + w * p
        for e2, p in sorted(act.leak_ends.items()):
            ends[e2] = ends.get(e2, 0.0) + w * p
    return FAMeasure(kernel.space, atoms, ends)


def window_table(
    kernel: TransitionKernel, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of states lo..hi flattened to ``(sources, targets, probs)``.

    Sources ascend and each row keeps the order of ``kernel.row``.  Targets
    are states and may lie outside lo..hi, so a boundary policy is a clip of
    ``targets``: onto lo..hi to reflect, onto lo-1..hi+1 to send overflow to
    the end buckets.
    """
    table = np.array([(x, y, p) for x in range(lo, hi + 1) for y, p in kernel.row(x).items()])
    table = table.reshape(-1, 3)  # states are small integers, exact as floats
    return table[:, 0].astype(np.int64), table[:, 1].astype(np.int64), table[:, 2]


def end_action(kernel: TransitionKernel, ident: str) -> EndAction:
    """Coarse action of A on the unit charge at one end, read off the tail row."""
    if kernel.space.is_finite:
        raise StructureError("finite kernels have no ends")
    if ident not in kernel.tails:
        raise StructureError(f"no tail row declared for end {ident!r}")
    tail = kernel.tails[ident]
    return EndAction(
        end=ident,
        preserved_mass=tail.preserved_mass(),
        leak_atoms=dict(tail.to_finite),
        leak_ends=dict(tail.to_other_end),
    )


def kernel_power(kernel: TransitionKernel, k: int) -> TransitionKernel:
    """Exact k-step kernel (matrix power); finite spaces only."""
    if not kernel.space.is_finite:
        raise StructureError("powers of countable kernels are not materialized; iterate apply_A")
    if k < 1:
        raise ValidationError(f"power needs k >= 1, got {k}")
    return TransitionKernel(kernel.space, matrix=_read_only(np.linalg.matrix_power(kernel.matrix, k)))


def cesaro_kernel(kernel: TransitionKernel, m: int) -> TransitionKernel:
    """Averaged kernel q_m = (p^1 + ... + p^m) / m; finite spaces only."""
    if not kernel.space.is_finite:
        raise StructureError("averaged kernels of countable chains are not materialized")
    if m < 1:
        raise ValidationError(f"average needs m >= 1, got {m}")
    acc = np.zeros_like(kernel.matrix)
    cur = np.eye(kernel.size)
    for _ in range(m):
        cur = cur @ kernel.matrix
        acc += cur
    return TransitionKernel(kernel.space, matrix=_read_only(acc / m))


def duality_residual(kernel: TransitionKernel, f: BoundedFunction, mu: FAMeasure) -> float:
    """|<A mu, f> - <mu, Tf>|; both sides computed independently."""
    return abs(pair(apply_A(kernel, mu), f) - pair(mu, apply_T(kernel, f)))


# -- chain-spec JSON ------------------------------------------------------------

def kernel_from_spec(obj: dict) -> TransitionKernel:
    """Parse the chain-spec JSON format (kinds: "finite", "walk")."""
    if not isinstance(obj, dict):
        raise ValidationError("chain spec must be a JSON object")
    kind = obj.get("kind")
    if kind == "finite":
        if "matrix" not in obj:
            raise ValidationError("finite chain spec needs a 'matrix' field")
        return TransitionKernel.finite(obj["matrix"], labels=obj.get("labels"))
    if kind == "walk":
        support = obj.get("support")
        tails = {}
        for key, val in obj.items():
            if key.startswith("tail_"):
                ident = key[len("tail_"):]
                try:
                    tails[ident] = TailRow(
                        relative={int(k): v for k, v in val.get("relative", {}).items()},
                        to_finite={int(k): v for k, v in val.get("to_finite", {}).items()},
                        to_other_end=val.get("to_other_end", {}),
                    )
                except (TypeError, ValueError, AttributeError) as exc:
                    raise ValidationError(f"bad tail row {key!r}: {exc}") from exc
        try:
            exceptions = {
                int(x): {int(y): float(p) for y, p in row.items()}
                for x, row in obj.get("exceptions", {}).items()
            }
        except (TypeError, ValueError, AttributeError) as exc:
            raise ValidationError(f"bad exceptions table: {exc}") from exc
        return TransitionKernel.walk(support, exceptions, tails)
    raise ValidationError(f"unknown chain kind {kind!r}")


def kernel_to_spec(kernel: TransitionKernel) -> dict:
    if kernel.space.is_finite:
        out = {"kind": "finite", "matrix": [[float(v) for v in row] for row in kernel.matrix]}
        if kernel.space.labels is not None:
            out["labels"] = list(kernel.space.labels)
        return out
    out = {
        "kind": "walk",
        "support": kernel.space.support,
        "exceptions": {
            str(x): {str(y): float(p) for y, p in sorted(row.items())}
            for x, row in sorted(kernel.exceptions.items())
        },
    }
    for e in sorted(kernel.tails):
        tail = kernel.tails[e]
        out[f"tail_{e}"] = {
            "relative": {str(k): float(v) for k, v in sorted(tail.relative.items())},
            "to_finite": {str(k): float(v) for k, v in sorted(tail.to_finite.items())},
            "to_other_end": {k: float(v) for k, v in sorted(tail.to_other_end.items())},
        }
    return out
