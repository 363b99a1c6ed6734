"""Named chain constructors with documented expected analysis verdicts.

Every entry builds deterministically from its default parameters; the
``expected`` map records the verdicts the analysis pipeline must
reproduce (golden checks), each tagged with how the value was fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ValidationError
from .kernels import TailRow, TransitionKernel
from .measures import END_NEG, END_POS


def finite_uniform(n: int = 4) -> TransitionKernel:
    """Every row uniform; mixes in one step."""
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    return TransitionKernel.finite(np.full((n, n), 1.0 / n))


def swap2() -> TransitionKernel:
    """Two states trading places deterministically; period 2."""
    return TransitionKernel.finite([[0.0, 1.0], [1.0, 0.0]])


def cycle(d: int = 3) -> TransitionKernel:
    """Deterministic d-cycle; period d."""
    if d < 1:
        raise ValidationError(f"need d >= 1, got {d}")
    m = np.zeros((d, d))
    for i in range(d):
        m[i, (i + 1) % d] = 1.0
    return TransitionKernel.finite(m)


def birth_death(n: int = 5, p: float = 0.3, q: float = 0.2) -> TransitionKernel:
    """Nearest-neighbour chain on {0..n-1}: up p, down q, lazy otherwise."""
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    if p < 0 or q < 0 or p + q > 1:
        raise ValidationError(f"need p, q >= 0 with p + q <= 1, got p={p}, q={q}")
    m = np.zeros((n, n))
    for i in range(n):
        if i + 1 < n:
            m[i, i + 1] = p
        if i - 1 >= 0:
            m[i, i - 1] = q
        m[i, i] = 1.0 - m[i].sum()
    return TransitionKernel.finite(m)


def two_absorbing() -> TransitionKernel:
    """Two absorbing states with one transient state split between them."""
    return TransitionKernel.finite([[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]])


def symmetric_walk_Z() -> TransitionKernel:
    """Nearest-neighbour symmetric walk on the integer line."""
    tail = TailRow(relative={-1: 0.5, +1: 0.5})
    return TransitionKernel.walk("Z", tails={END_POS: tail, END_NEG: tail})


def drift_walk_N(p_right: float = 1.0) -> TransitionKernel:
    """Walk on the half-line drifting right with probability p_right, reflecting at 0."""
    if not 0.0 < p_right <= 1.0:
        raise ValidationError(f"need 0 < p_right <= 1, got {p_right}")
    if p_right == 1.0:
        return TransitionKernel.walk("N", tails={END_POS: TailRow(relative={+1: 1.0})})
    tail = TailRow(relative={+1: p_right, -1: 1.0 - p_right})
    exceptions = {0: {0: 1.0 - p_right, 1: p_right}}
    return TransitionKernel.walk("N", exceptions=exceptions, tails={END_POS: tail})


def restart_walk(alpha: float = 0.1) -> TransitionKernel:
    """Walk on the half-line stepping right but restarting at 0 with probability alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"need 0 < alpha < 1, got {alpha}")
    tail = TailRow(relative={+1: 1.0 - alpha}, to_finite={0: alpha})
    return TransitionKernel.walk("N", tails={END_POS: tail})


def grid_unit_interval(n: int = 8, p_toward_zero: float = 0.7) -> TransitionKernel:
    """Two-transition chain on a grid of the unit interval accumulating at zero.

    State k stands for the grid point reached after k refinement steps from
    the coarsest point 1/n, each step moving closer to 0; the grid never
    contains 0 itself.  From each interior point the chain moves one grid
    point toward 0 with probability p_toward_zero, else one point away;
    the coarsest point reflects.  Mass drifting toward 0 in value space is
    mass drifting to the end of the index space, which is where an
    invariant pure charge "just right of zero" lives.  In index space this is
    ``drift_walk_N(p_toward_zero)``; ``n`` is validated but does not change
    the kernel.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    if not 0.0 < p_toward_zero < 1.0:
        raise ValidationError(f"need 0 < p_toward_zero < 1, got {p_toward_zero}")
    return drift_walk_N(p_toward_zero)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    params: dict
    builder: Callable[..., TransitionKernel]
    expected: dict = field(default_factory=dict)
    notes: str = ""


_ENTRIES: list[CatalogEntry] = [
    CatalogEntry(
        name="finite_uniform",
        params={"n": 4},
        builder=finite_uniform,
        expected={
            "dimension": {"value": 1, "provenance": "derived"},
            "star": {"value": True, "provenance": "derived"},
            "kinds": {"value": ["ca"], "provenance": "derived"},
            "classification": {"value": ["simple", None], "provenance": "derived"},
            "quasicompact": {"value": "consistent", "provenance": "derived"},
        },
        notes="rank-one chain; averaged and raw iterates coincide after one step",
    ),
    CatalogEntry(
        name="swap2",
        params={},
        builder=swap2,
        expected={
            "dimension": {"value": 1, "provenance": "derived"},
            "star": {"value": True, "provenance": "derived"},
            "kinds": {"value": ["ca"], "provenance": "derived"},
            "classification": {"value": ["composite", 2], "provenance": "derived"},
            "quasicompact": {"value": "consistent", "provenance": "derived"},
        },
        notes="period-2 chain: averaged iterates converge, raw iterates never do",
    ),
    CatalogEntry(
        name="cycle3",
        params={"d": 3},
        builder=cycle,
        expected={
            "dimension": {"value": 1, "provenance": "derived"},
            "star": {"value": True, "provenance": "derived"},
            "kinds": {"value": ["ca"], "provenance": "derived"},
            "classification": {"value": ["composite", 3], "provenance": "derived"},
            "quasicompact": {"value": "consistent", "provenance": "derived"},
        },
    ),
    CatalogEntry(
        name="birth_death",
        params={"n": 5, "p": 0.3, "q": 0.2},
        builder=birth_death,
        expected={
            "dimension": {"value": 1, "provenance": "derived"},
            "star": {"value": True, "provenance": "derived"},
            "kinds": {"value": ["ca"], "provenance": "derived"},
            "classification": {"value": ["simple", None], "provenance": "derived"},
            "quasicompact": {"value": "consistent", "provenance": "derived"},
        },
    ),
    CatalogEntry(
        name="two_absorbing",
        params={},
        builder=two_absorbing,
        expected={
            "dimension": {"value": 2, "provenance": "derived"},
            "star": {"value": True, "provenance": "derived"},
            "kinds": {"value": ["ca", "ca"], "provenance": "derived"},
            "beta": {"value": True, "provenance": "derived"},
            "quasicompact": {"value": "consistent", "provenance": "derived"},
        },
        notes="projector row of the transient state splits (0.5, 0, 0.5)",
    ),
    CatalogEntry(
        name="symmetric_walk_Z",
        params={},
        builder=symmetric_walk_Z,
        expected={
            "dimension": {"value": 2, "provenance": "derived"},
            "star": {"value": False, "provenance": "literature"},
            "kinds": {"value": ["pfa", "pfa"], "provenance": "derived"},
            "quasicompact": {"value": "inconsistent", "provenance": "derived"},
        },
        notes="no countably additive invariant; both end charges are invariant",
    ),
    CatalogEntry(
        name="drift_walk_N",
        params={"p_right": 1.0},
        builder=drift_walk_N,
        expected={
            "dimension": {"value": 1, "provenance": "derived"},
            "star": {"value": False, "provenance": "derived"},
            "kinds": {"value": ["pfa"], "provenance": "derived"},
            "quasicompact": {"value": "inconsistent", "provenance": "derived"},
        },
        notes="every unit of mass marches right forever",
    ),
    CatalogEntry(
        name="restart_walk",
        params={"alpha": 0.1},
        builder=restart_walk,
        expected={
            "dimension": {"value": 1, "provenance": "derived"},
            "star": {"value": True, "provenance": "derived"},
            "kinds": {"value": ["ca"], "provenance": "derived"},
            "quasicompact": {"value": "consistent", "provenance": "derived"},
        },
        notes="geometric return to 0 recycles all escaping mass",
    ),
    CatalogEntry(
        name="grid_unit_interval",
        params={"n": 8, "p_toward_zero": 0.7},
        builder=grid_unit_interval,
        expected={
            "dimension": {"value": 1, "provenance": "derived"},
            "star": {"value": False, "provenance": "derived"},
            "kinds": {"value": ["pfa"], "provenance": "derived"},
            "quasicompact": {"value": "inconsistent", "provenance": "derived"},
        },
        notes="grid analogue of a unit charge parked just right of zero",
    ),
]

REGISTRY: dict[str, CatalogEntry] = {e.name: e for e in _ENTRIES}


def names() -> list[str]:
    return [e.name for e in _ENTRIES]


def entry(name: str) -> CatalogEntry:
    if name not in REGISTRY:
        raise ValidationError(
            f"unknown catalog entry {name!r}; available: {', '.join(names())}"
        )
    return REGISTRY[name]


def build(name: str, **overrides) -> TransitionKernel:
    e = entry(name)
    params = dict(e.params)
    params.update(overrides)
    return e.builder(**params)
