"""Seeded workload generators.

Each workload is a fixed list of cases whose sizes and kinds do not depend
on the seed; the seed draws only the probabilities and structure inside each
case.  That keeps the cost of a pass steady across seeds while the inputs
change.  The program under test receives only chain-spec files written from
these cases, or catalog names.

A case list has an odd length (17 for the two small workloads) so that the
median of the per-case timings falls inside one case's samples rather than
between two cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("doeblin_small", "ergodic_large", "walks")

FINITE_CATALOG = ("finite_uniform", "swap2", "cycle3", "birth_death", "two_absorbing")
WALK_CATALOG = ("symmetric_walk_Z", "drift_walk_N", "restart_walk", "grid_unit_interval")


@dataclass(frozen=True)
class Case:
    """One chain of a workload: a generated spec, or a catalog entry by name."""

    name: str
    spec: dict | None = None
    catalog: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    cases: list[Case]
    tasks: tuple[str, ...]  # empty means every applicable task
    n_max: int
    cli_catalog: str  # catalog entry of this workload's kind for the cold CLI run
    windows: tuple[int, ...] = (8, 16, 32)

    def cli_args(self) -> list[str]:
        """``chargechain`` arguments that analyze ``cli_catalog`` like the cases."""
        args = ["analyze", "--catalog", self.cli_catalog, "--n-max", str(self.n_max)]
        args += ["--windows", ",".join(str(w) for w in self.windows)]
        return args + (["--tasks", ",".join(self.tasks)] if self.tasks else [])


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _block_chain(cc, rng, n: int, n_classes: int, n_transient: int, fanout: int | None):
    """Equal closed classes plus transient states that leak into them.

    fanout None gives dense rows inside each class, drawn near uniform so the
    witness search stops at the same grid point on every seed (at a
    concentration of 100 one n = 16 chain stopped later on some seeds, at
    1.5x the cost).
    Otherwise each state reaches a self-loop, its cycle successor and
    ``fanout`` random members, which keeps every class irreducible and
    aperiodic.  Class sizes are fixed by n, so only the wiring and the
    probabilities depend on the seed.
    """
    n_rec = n - n_transient
    bounds = np.linspace(0, n_rec, n_classes + 1).round().astype(int)
    conc = 1000.0 if fanout is None else 1.0
    m = np.zeros((n, n))
    for a, b in zip(bounds[:-1], bounds[1:]):
        members = np.arange(a, b)
        for i, x in enumerate(members):
            if fanout is None:
                targets = members
            else:
                extra = rng.choice(members, size=min(fanout, members.size), replace=False)
                targets = np.unique([x, members[(i + 1) % members.size], *extra])
            m[x, targets] = rng.dirichlet(np.full(targets.size, conc))
    leak = 0.85  # share of a transient state's row that enters the classes
    for x in range(n_rec, n):
        if fanout is None:
            rec = np.arange(n_rec)
        else:
            # One target in every class, so every transient row of the limit
            # projector spans all recurrent states on every seed.
            rec = np.unique([rng.integers(a, b) for a, b in zip(bounds[:-1], bounds[1:])])
        m[x, rec] = leak * rng.dirichlet(np.full(rec.size, conc))
        trans = np.arange(n_rec, n)
        m[x, trans] += (1.0 - leak) * rng.dirichlet(np.full(trans.size, conc))
    return cc.TransitionKernel.finite(m)


def _z_walk(cc, rng, reach: int, drift_pos: int, drift_neg: int):
    """Walk on Z with offsets up to ``reach`` and exception rows around 0.

    ``drift_pos`` and ``drift_neg`` (+1 or -1) give the sign of the mean jump
    in the +inf and -inf tails.  Tail weights are drawn close to a fixed
    tilted profile, so the sign, and with it the invariant basis, is the same
    on every seed.  Exception rows are drawn close to uniform too.  The
    window engine skips rows and regions whose mass is exactly zero, so where
    the mass goes sets the work per step: with flat Dirichlet weights one
    case's call count varied 1.25x, and its time about 1.7x, between seeds.
    """
    offsets = np.arange(-reach, reach + 1)
    tails = {}
    for end, sign in (("+inf", drift_pos), ("-inf", drift_neg)):
        weights = rng.dirichlet(np.full(offsets.size, 400.0)) * np.exp(2.0 * sign * offsets / reach)
        probs = weights / weights.sum()
        tails[end] = cc.TailRow(relative={int(o): float(p) for o, p in zip(offsets, probs)})
    exceptions = {}
    for x in (-1, 0, 1):
        targets = range(x - 2, x + 3)
        probs = rng.dirichlet(np.full(len(targets), 400.0))
        exceptions[x] = {y: float(p) for y, p in zip(targets, probs)}
    return cc.TransitionKernel.walk("Z", exceptions=exceptions, tails=tails)


def _doeblin_small(cc, rng, tiny: bool) -> Workload:
    sizes = (8, 9) if tiny else tuple(range(12, 18))
    cases = []
    for n in sizes:
        # Lazy moves with one direction at least 2.5 times likelier mix too
        # slowly for any (phi, eps, k) on the grid, so the witness search
        # scans all of it (checked on 60 draws of this rule, n = 12..15).
        small = float(rng.uniform(0.03, 0.08))
        large = small * float(rng.uniform(2.5, 4.0))
        p, q = (small, large) if rng.random() < 0.5 else (large, small)
        cases.append(Case(f"bd{n}", cc.kernel_to_spec(cc.birth_death(n, p, q))))
    for n in sizes:
        kernel = _block_chain(cc, rng, n, 2 + n % 2, 1 + n % 3, fanout=None)
        cases.append(Case(f"dense{n}", cc.kernel_to_spec(kernel)))
    cases += [Case(name, catalog=name) for name in FINITE_CATALOG]
    return Workload(
        "doeblin_small",
        cases,
        tasks=(),
        n_max=200,
        cli_catalog="birth_death",
    )


def _ergodic_large(cc, rng, tiny: bool) -> Workload:
    sizes = (12, 16, 20) if tiny else (150, 175, 200)
    kinds = ("bd", "block", "bd")
    cases = []
    for n, kind in zip(sizes, kinds):
        if kind == "bd":
            p, q = rng.uniform(0.2, 0.45, size=2)
            kernel = cc.birth_death(n, float(p), float(q))
        else:
            kernel = _block_chain(cc, rng, n, 3, n // 8, fanout=4)
        cases.append(Case(f"{kind}{n}", cc.kernel_to_spec(kernel)))
    return Workload(
        "ergodic_large",
        cases,
        tasks=("invariants", "ergodic"),
        n_max=200,
        cli_catalog="two_absorbing",
    )


def _walks(cc, rng, tiny: bool) -> Workload:
    cases = []
    # Drift ladder across (0, 1]: left-drifting (positive recurrent), near the
    # null-recurrent point 0.5 from both sides, right-drifting, deterministic.
    bands = ((0.1, 0.25), (0.25, 0.4), (0.47, 0.495), (0.505, 0.53), (0.6, 0.9))
    for i, (lo, hi) in enumerate(bands):
        p = float(rng.uniform(lo, hi))
        cases.append(Case(f"drift{i}", cc.kernel_to_spec(cc.drift_walk_N(p))))
    cases.append(Case("drift_det", cc.kernel_to_spec(cc.drift_walk_N(1.0))))
    for i in range(2):
        alpha = float(rng.uniform(0.15, 0.5))
        cases.append(Case(f"restart{i}", cc.kernel_to_spec(cc.restart_walk(alpha))))
    for i, (lo, hi) in enumerate(((0.55, 0.9), (0.1, 0.4))):
        p = float(rng.uniform(lo, hi))
        cases.append(Case(f"grid{i}", cc.kernel_to_spec(cc.grid_unit_interval(8, p))))
    # Both tails outward (two end charges), both inward (a certified CA
    # invariant too), and mixed.  Reach 1 is left out: with exception rows
    # its truncation trend can fail on tiny negative stationary weights.
    for name, reach, pos, neg in (("zout", 2, +1, -1), ("zin", 3, -1, +1), ("zmix", 3, +1, +1)):
        cases.append(Case(name, cc.kernel_to_spec(_z_walk(cc, rng, reach, pos, neg))))
    cases += [Case(name, catalog=name) for name in WALK_CATALOG]
    return Workload(
        "walks",
        cases,
        tasks=(),
        n_max=200 if tiny else 2000,
        cli_catalog="symmetric_walk_Z",
    )


_BUILDERS = {
    "doeblin_small": _doeblin_small,
    "ergodic_large": _ergodic_large,
    "walks": _walks,
}


def build(cc, workload: str, seed: int, tiny: bool = False) -> Workload:
    """Generate a workload's cases from its seed; ``cc`` is the imported package."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[workload](cc, _rng(seed, workload), tiny)
