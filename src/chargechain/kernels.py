"""Transition kernels and the Markov operator A on measures.

Finite kernels are dense row-stochastic matrices, read-only once a kernel
holds them; their sparse rows are materialized once per kernel, on first
use, and ``row`` hands out copies (``kernel_to_spec`` writes them as the
chain spec's ``rows``).  A finite kernel's graph, its positive entries, is
read in one nonzero pass over the matrix (``edges``, ``successors``).
``powers`` is the one product of a finite matrix: it multiplies by p in
column panels of ``PANEL``, each over only the rows nonzero in its columns,
when that skips at least half of the multiply-adds, and by the one dense
product cur @ p otherwise.  Countable kernels are
"walks": finitely many exception rows plus one eventually-constant tail row
per end, with bounded relative offsets.  Past the fixed states (the
exception rows and every exception and ``to_finite`` target), every row is
its end's tail row moved to x.  That structure keeps the action of A on end
charges exact: an end charge keeps ``preserved_mass`` at its end, leaks
``to_finite`` into fixed states, and leaks ``to_other_end`` across.  A's
adjoint T on bounded functions is the tests' duality oracle
(``tests/oracles.py``).

Rows are countably additive by construction.  A tail row realizes its
cross-end mass as the mirror jump x -> -x, which carries mass deep toward
one end as deep toward the other, as A does on end charges, and keeps a
symmetric window closed under it.
``truncate`` is the one finite window of a walk, and its boundary is its one
choice: mass leaving the window is clipped onto its edges, or sent to one
bucket per end that acts as that end's charge.  It reads ``row`` only within
a walk's ``radius + reach`` of 0, and writes each end's farther rows at once.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, StructureError, ValidationError
from .measures import END_NEG, END_POS, FAMeasure, StateSpace, int_keyed, json_number

ROW_SUM_TOL = 1e-9
MAX_OFFSET = 64
#: the most states a finite chain spec may have: a dense copy of its matrix is 2048² floats, 32 MB
MAX_STATES = 2048
#: columns per panel of a ``powers`` step
PANEL = 32
#: the fewest far rows toward one end that ``truncate`` writes at once: below it, reading each row is cheaper
BULK_ROWS = 16


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
        tables = {name: int_keyed(getattr(self, name), f"{name}: key") for name in ("relative", "to_finite")}
        tables["to_other_end"] = {str(k): v for k, v in self.to_other_end.items()}
        for name, table in tables.items():
            object.__setattr__(self, name, {k: _probability(v, f"{name}[{k!r}]") for k, v in table.items()})

    def preserved_mass(self) -> float:
        return math.fsum(self.relative.values())

    def reach(self) -> int:
        return max((abs(o) for o in self.relative), default=0)


@dataclass(frozen=True)
class TransitionKernel:
    space: StateSpace
    matrix: np.ndarray | None = None
    exceptions: dict[int, dict[int, float]] = field(default_factory=dict)
    tails: dict[str, TailRow] = field(default_factory=dict)

    @staticmethod
    def finite(matrix, labels=None) -> "TransitionKernel":
        try:
            m = np.array(matrix, dtype=float)  # a copy: the caller's array stays theirs
        except (TypeError, ValueError, OverflowError) as exc:  # ragged rows, an entry that is no number or past floats
            raise ValidationError(f"transition matrix is not a square array of numbers: {exc}") from None
        m += 0.0  # -0.0 -> 0.0: the row table leaves zeros out, so a spec of its rows rebuilds m bit for bit
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"transition matrix must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            i, j = (int(v) for v in np.argwhere(~np.isfinite(m))[0])
            raise ValidationError(f"row {i}: non-finite probability at column {j}")
        negative = (m < -ROW_SUM_TOL).any(axis=1)
        sums = np.ascontiguousarray(m).sum(axis=1)  # each row summed along its contiguous axis, as m[i].sum()
        bad = np.flatnonzero(negative | (np.abs(sums - 1.0) > ROW_SUM_TOL))
        if bad.size:  # the first bad row; within it, a negative entry before the sum
            i = int(bad[0])
            if negative[i]:
                raise ValidationError(f"row {i}: negative probability at column {int(np.argmin(m[i]))}")
            raise ValidationError(f"row {i} sums to {float(sums[i])!r}, expected 1")
        return TransitionKernel(StateSpace.finite(m.shape[0], labels), matrix=_read_only(m))

    @staticmethod
    def walk(support: str, exceptions=None, tails=None) -> "TransitionKernel":
        if support == "N":
            space = StateSpace.half_line()
        elif support == "Z":
            space = StateSpace.integer_line()
        else:
            raise ValidationError(f"support must be 'N' or 'Z', got {support!r}")
        try:
            exceptions = {
                x: {y: _probability(p, f"row {x}: target {y}") for y, p in int_keyed(row, f"row {x}: target").items()}
                for x, row in int_keyed(exceptions or {}, "state").items()
            }
        except (TypeError, ValueError, AttributeError, ValidationError) as exc:
            raise ValidationError(f"bad exceptions table: {exc}") from exc
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

    @cached_property
    def reach(self) -> int:
        """The longest jump of a walk's tail rows."""
        return max((t.reach() for t in self.tails.values()), default=0)

    @cached_property
    def radius(self) -> int:
        """Least r >= 0 with every exception row, exception target and ``to_finite`` target in -r..r.

        Past r every row is its end's tail row moved to x, and past r + reach no two of its targets meet.
        """
        fixed = [*self.exceptions, *(y for row in self.exceptions.values() for y in row)]
        fixed += [y for t in self.tails.values() for y in t.to_finite]
        return max(map(abs, fixed), default=0)

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
        tail = self.tails[END_NEG if x < 0 else END_POS]  # N holds no state below 0
        out: dict[int, float] = {}
        for off, p in tail.relative.items():
            out[x + off] = out.get(x + off, 0.0) + p
        for y, p in tail.to_finite.items():
            out[y] = out.get(y, 0.0) + p
        for p in tail.to_other_end.values():  # the mirror jump x -> -x (only Z has two ends)
            out[-x] = out.get(-x, 0.0) + p
        return out


def edges(kernel: TransitionKernel) -> tuple[np.ndarray, np.ndarray]:
    """The graph of a finite kernel, its positive entries x -> y, as (xs, ys) by x and then y ascending."""
    # the flat indices, split: np.nonzero of the 2-d mask took eight times as long on a 257-state window
    return np.divmod(np.flatnonzero(kernel.matrix > 0.0), kernel.size)


def successors(kernel: TransitionKernel, graph: tuple[np.ndarray, np.ndarray] | None = None) -> list[list[int]]:
    """The states each state of a finite kernel reaches with positive probability, ascending, from its
    ``edges`` (``graph``, when the caller has read them)."""
    xs, ys = edges(kernel) if graph is None else graph
    ends = np.bincount(xs, minlength=kernel.size).cumsum().tolist()
    targets = ys.tolist()
    return [targets[a:b] for a, b in zip([0, *ends], ends)]


def _read_only(matrix: np.ndarray) -> np.ndarray:
    """Freeze a matrix a kernel owns, so its row table can never go stale."""
    matrix.flags.writeable = False
    return matrix


def _validate_walk(kernel: TransitionKernel) -> None:
    """Each row, an exception row or an end's tail row, is one probability measure on the support."""
    space = kernel.space
    rows = []  # (label, entries, targets): the targets are the row's states, which must lie in the support
    for x, row in kernel.exceptions.items():
        if not space.contains_state(x):
            raise ValidationError(f"exception row for state {x} outside support")
        rows.append((f"exception row {x}", row.items(), row))
    for e, t in kernel.tails.items():
        entries = [*t.relative.items(), *t.to_finite.items(), *t.to_other_end.items()]
        rows.append((f"tail row {e}", entries, t.to_finite))
    for label, entries, targets in rows:
        for k, p in entries:
            if not math.isfinite(p):
                raise ValidationError(f"{label}: non-finite probability at {k}")
        s = math.fsum(p for _, p in entries)
        if abs(s - 1.0) > ROW_SUM_TOL:
            raise ValidationError(f"{label}: mass sums to {s!r}, expected 1")
        for k, p in entries:
            if p < -ROW_SUM_TOL:
                raise ValidationError(f"{label}: negative probability at {k}")
        for y in targets:
            if not space.contains_state(y):
                raise ValidationError(f"{label}: target {y} outside support")
    for e, tail in kernel.tails.items():
        if tail.reach() > MAX_OFFSET:
            raise ValidationError(f"tail row {e}: offsets beyond +-{MAX_OFFSET}")
        for e2 in tail.to_other_end:
            if not space.has_end(e2) or e2 == e:
                raise ValidationError(f"tail row {e}: bad cross-end target {e2!r}")
    if space.support == "N":
        tail = kernel.tails[END_POS]
        min_off = min(tail.relative, default=0)
        if min_off < 0:
            first = next(x for x in itertools.count() if x not in kernel.exceptions)  # the first tail state
            if first + min_off < 0:
                raise ValidationError(f"tail row {END_POS}: offset {min_off} jumps below state 0 from state {first}")


# -- operator actions ----------------------------------------------------------

def apply_A(kernel: TransitionKernel, mu: FAMeasure) -> FAMeasure:
    """Push a measure forward one step: atoms through rows, end charges through their tail rows."""
    if kernel.space != mu.space:
        raise DomainError("kernel and measure live on different spaces")
    atoms: dict[int, float] = {}
    ends: dict[str, float] = {}
    for x, w in sorted(mu.atoms.items()):
        for y, p in sorted(kernel.row(x).items()):
            atoms[y] = atoms.get(y, 0.0) + w * p
    for e in sorted(mu.ends):
        w, tail = mu.ends[e], kernel.tails[e]
        ends[e] = ends.get(e, 0.0) + w * tail.preserved_mass()
        for y, p in sorted(tail.to_finite.items()):
            atoms[y] = atoms.get(y, 0.0) + w * p
        for e2, p in sorted(tail.to_other_end.items()):
            ends[e2] = ends.get(e2, 0.0) + w * p
    return FAMeasure(kernel.space, atoms, ends)


def truncate(kernel: TransitionKernel, lo: int, hi: int, ends: bool = False) -> np.ndarray:
    """The window matrix of a walk on the states lo..hi.

    State x sits in cell x - lo, and a target past an edge is clipped onto it.  With ``ends`` there is one
    more cell per side: state x sits in cell x - lo + 1, a target past an edge lands in the bucket on its
    side (cell 0 for -inf, empty on N, and the last cell for +inf), and a bucket's row is its end's tail row
    acting on the end charge, as in ``apply_A``: the ``relative`` mass stays in the bucket, the ``to_finite``
    mass goes to its atoms (clipped like any target) and the ``to_other_end`` mass to the other bucket.  So a
    row vector of cell masses times the matrix is one step of A on atoms in the window plus charges at the
    ends, with the atoms past the window summed into their end's cell.  The entries are added in the order
    of ``kernel.row``: the rows within ``radius + reach`` of 0 are read from it, and the farther rows toward an
    end, when there are at least ``BULK_ROWS`` of them, are written at once as the end's tail row moved to x
    (``_moved_tail_rows``).
    """
    if kernel.space.is_finite:
        raise DomainError("truncation applies to countable chains")
    if not kernel.space.contains_state(lo):
        raise DomainError(f"state {lo} not in space")
    edge = int(ends)
    size = hi - lo + 1 + 2 * edge

    def cell(x):  # np.clip's wrapper takes several times as long on a small window
        return np.minimum(np.maximum(x, lo - edge), hi + edge) - lo + edge

    band = kernel.radius + kernel.reach
    neg, pos = (n if n >= BULK_ROWS else 0 for n in (min(hi + 1, -band) - lo, hi - max(lo - 1, band)))
    xs, ys, ps = [], [], []
    for x in range(lo + neg, hi - pos + 1):
        row = kernel.row(x)
        xs += [x] * len(row)
        ys += row
        ps += row.values()
    cells = [(np.array(xs, dtype=int) - lo + edge) * size + cell(np.array(ys, dtype=int))]
    probs = [np.array(ps)]
    for e, far in ((END_NEG, range(lo, lo + neg)), (END_POS, range(hi - pos + 1, hi + 1))):
        if far:
            far = np.arange(far.start, far.stop)
            targets, p = _moved_tail_rows(kernel.tails[e], far)
            cells.append(((far - lo + edge) * size + cell(targets)).ravel())  # entry by entry, each for every row
            probs.append(np.repeat(p, far.size))
    w = np.zeros((size, size))
    # unbuffered: the same sums as adding the entries one by one, and as a row's entries meet only within its
    # own row of cells, only their order within a row counts; on the flat cells, numpy's faster path
    np.add.at(w.reshape(-1), np.concatenate(cells), np.concatenate(probs))
    if ends:
        bucket = {END_NEG: 0, END_POS: hi - lo + 2}
        for e, tail in sorted(kernel.tails.items()):
            w[bucket[e], bucket[e]] += tail.preserved_mass()
            for y, p in sorted(tail.to_finite.items()):
                w[bucket[e], cell(y)] += p
            for e2, p in sorted(tail.to_other_end.items()):
                w[bucket[e], bucket[e2]] += p
    return w


def _moved_tail_rows(tail: TailRow, far: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """The rows of the states ``far``, past ``radius + reach`` toward the end of ``tail``: the targets of each
    entry for every row, one line per entry, and the entries' probabilities.

    Each row is the tail row moved to x, with its entries in the order ``TransitionKernel.row`` adds them:
    ``relative`` at x + offset, ``to_finite`` at its fixed targets, then the mirror target -x.  That far
    out no two of them meet (a moved target lies past ``radius`` and short of -x), so ``row`` merges none.
    """
    ys = [far + off for off in tail.relative] + [np.full(far.size, y) for y in tail.to_finite]
    ys += [-far] * len(tail.to_other_end)
    return np.array(ys), [*tail.relative.values(), *tail.to_finite.values(), *tail.to_other_end.values()]


def truncate_reflecting(kernel: TransitionKernel, lo: int, hi: int) -> TransitionKernel:
    """``truncate`` without end buckets, as a finite kernel on 0..hi-lo."""
    return TransitionKernel.finite(truncate(kernel, lo, hi))


def powers(kernel: TransitionKernel) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(p^n, p^1 + ... + p^n) for n = 1, 2, ..., by sequential products; finite spaces only.

    The package's only product of a finite transition matrix, so p^k has the
    same bits in the search, ``verify-report`` and the distance series.  A
    sparse enough p is multiplied in the column panels of ``_panels``, each
    step's panels written into one fresh array; any other p by the one dense
    product cur @ p.  The sum is one array updated in place (a fresh array
    per step slowed the distance series of 150 states by a third); copy it to
    keep it past a step, as the distance series does into its stacks of steps.
    """
    if not kernel.space.is_finite:
        raise StructureError("powers of countable kernels are not materialized; iterate apply_A")
    panels = _panels(kernel.matrix)
    cur = np.eye(kernel.size)
    acc = np.zeros_like(kernel.matrix)
    while True:
        if panels is None:
            cur = cur @ kernel.matrix
        else:
            cur, prev = np.empty(cur.shape), cur
            for rows, cols, block in panels:
                np.matmul(prev[:, rows], block, out=cur[:, cols])
        acc += cur
        yield cur, acc


def _panels(matrix: np.ndarray) -> list[tuple[slice | np.ndarray, slice, np.ndarray]] | None:
    """The column panels of a step of ``powers``, ``(rows, cols, matrix[rows, cols])`` each, or None for
    the one dense product.

    The columns are cut into panels of ``PANEL``, and a panel's rows are the
    ones nonzero in its columns, ascending (a slice when contiguous), so a
    panel of cur·p is cur[:, rows] @ p[rows, cols], a sum of the same nonzero
    terms in BLAS's order for that shape.  A matrix takes panels only when
    they skip at least half of the dense product's multiply-adds,
    Σ |rows|·|cols| ≤ n²/2, which no matrix of at most ``PANEL`` states does:
    its one panel holds every row, as every row of a kernel has mass.  The
    dense fork stays: panels for every matrix kept every report's bytes but
    slowed a doeblin_small seed-11 analysis pass from 70–72 to 75–80 ms.
    """
    n = len(matrix)
    if n <= PANEL:
        return None
    nonzero = matrix != 0.0
    panels = []
    for lo in range(0, n, PANEL):
        cols = slice(lo, min(lo + PANEL, n))
        rows = np.flatnonzero(nonzero[:, cols].any(axis=1))
        if rows.size and rows[-1] - rows[0] + 1 == rows.size:
            rows = slice(int(rows[0]), int(rows[-1]) + 1)
        panels.append((rows, cols, matrix[rows, cols]))
    return panels if 2 * sum(block.size for _, _, block in panels) <= n * n else None


def _nth_power(kernel: TransitionKernel, n: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    if n < 1:
        raise ValidationError(f"{what} needs an order >= 1, got {n}")
    return next(itertools.islice(powers(kernel), n - 1, None))


def kernel_power(kernel: TransitionKernel, k: int) -> TransitionKernel:
    """Exact k-step kernel p^k; finite spaces only."""
    return TransitionKernel(kernel.space, matrix=_read_only(_nth_power(kernel, k, "power")[0]))


def cesaro_kernel(kernel: TransitionKernel, m: int) -> TransitionKernel:
    """Averaged kernel q_m = (p^1 + ... + p^m) / m; finite spaces only."""
    return TransitionKernel(kernel.space, matrix=_read_only(_nth_power(kernel, m, "average")[1] / m))


# -- chain-spec JSON ------------------------------------------------------------

def kernel_from_spec(obj: dict) -> TransitionKernel:
    """Parse the chain-spec JSON format (kinds: "finite", "walk")."""
    if not isinstance(obj, dict):
        raise ValidationError("chain spec must be a JSON object")
    kind = obj.get("kind")
    if kind == "finite":
        if ("rows" in obj) == ("matrix" in obj):
            raise ValidationError("finite chain spec needs exactly one of a 'rows' and a 'matrix' field")
        name = "rows" if "rows" in obj else "matrix"
        if isinstance(obj[name], list) and len(obj[name]) > MAX_STATES:  # before any n×n array is formed
            raise ValidationError(f"'{name}' must hold at most {MAX_STATES} rows (states), got {len(obj[name])}")
        labels = obj.get("labels")
        if "labels" in obj and not (isinstance(labels, list) and all(isinstance(v, str) for v in labels)):
            raise ValidationError(f"'labels' must be an array of strings, one per state, got {labels!r}")
        matrix = _matrix_from_rows(obj["rows"]) if name == "rows" else _matrix_of_numbers(obj["matrix"])
        return TransitionKernel.finite(matrix, labels=labels)
    if kind == "walk":
        tails = {}
        for key, val in obj.items():
            if key.startswith("tail_"):
                try:
                    tails[key[len("tail_"):]] = TailRow(
                        val.get("relative", {}), val.get("to_finite", {}), val.get("to_other_end", {})
                    )
                except (TypeError, ValueError, AttributeError, ValidationError) as exc:
                    raise ValidationError(f"bad tail row {key!r}: {exc}") from exc
        return TransitionKernel.walk(obj.get("support"), obj.get("exceptions", {}), tails)
    raise ValidationError(f"unknown chain kind {kind!r}")


def _matrix_from_rows(rows) -> np.ndarray:
    """The dense matrix of a "rows" spec: row x maps each column "y" to p(x, y); absent entries are 0."""
    if not isinstance(rows, list):
        raise ValidationError(f"rows = {rows!r} is not a JSON array")
    n = len(rows)
    m = np.zeros((n, n))
    columns = {str(y): y for y in range(n)}  # each column's one spelling: one lookup, not int() and str() per entry
    for x, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValidationError(f"rows[{x}] = {row!r} is not a JSON object")
        for key, p in row.items():
            y = columns.get(key)
            if y is None:  # spelled another way, or outside the columns
                (y,) = int_keyed({key: p}, f"rows[{x}]: column")
                if not 0 <= y < n:
                    raise ValidationError(f"rows[{x}]: column {str(y)!r} outside 0..{n - 1}")
            try:
                m[x, y] = json_number(p)
            except (TypeError, OverflowError):  # OverflowError: an int past the float range
                raise ValidationError(f"rows[{x}]: column {str(y)!r} = {p!r} is not a number") from None
    return m


def _matrix_of_numbers(matrix):
    """A "matrix" spec, once each entry of each row that is an array is a JSON number; ``TransitionKernel.finite``
    refuses any other shape."""
    for x, row in enumerate(matrix if isinstance(matrix, list) else ()):
        for y, p in enumerate(row if isinstance(row, list) else ()):
            try:
                json_number(p)
            except TypeError:
                what = "transition matrix is not a square array of numbers"
                raise ValidationError(f"{what}: matrix[{x}][{y}] = {p!r} is not a number") from None
    return matrix


def _probability(p, what: str) -> float:
    """A spec's entry ``p`` as a float when it is a JSON number; else ValidationError naming it by ``what``."""
    try:
        return float(json_number(p))
    except (TypeError, OverflowError):  # OverflowError: an int past the float range
        raise ValidationError(f"{what} = {p!r} is not a number") from None


def kernel_to_spec(kernel: TransitionKernel) -> dict:
    """The chain-spec JSON of a kernel; a finite one as its rows' nonzero entries."""
    if kernel.space.is_finite:
        out = {"kind": "finite", "rows": [{str(y): p for y, p in row.items()} for row in kernel._finite_rows]}
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
