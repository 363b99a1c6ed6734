"""Walk windows: the window table, its reflecting and escape policies, and window evolution."""

import math

import numpy as np
import pytest

from chargechain import (
    END_NEG,
    END_POS,
    FAMeasure,
    TailRow,
    TransitionKernel,
    apply_A,
    dirac,
    escape_profile,
    truncate_reflecting,
)
from chargechain.catalog import REGISTRY
from chargechain.invariants import _WindowEngine
from chargechain.kernels import window_table

CATALOG_WALKS = [name for name in sorted(REGISTRY) if not REGISTRY[name].build().space.is_finite]


def seeded_walks(seed, count):
    """Walks on N and Z with reach 1..3, exception rows and fixed targets in -8..8."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        support = "N" if rng.random() < 0.5 else "Z"
        reach = int(rng.integers(1, 4))
        low = 0 if support == "N" else -8
        tails = {}
        for end in (END_POS,) if support == "N" else (END_POS, END_NEG):
            offsets = [o for o in range(-reach, reach + 1) if rng.random() < 0.8] or [reach]
            weights = rng.random(len(offsets) + 2)
            weights[-2:] *= rng.random() < 0.6  # fixed targets on about half the tails
            weights /= weights.sum()
            fixed = rng.integers(low, 9, size=2)
            to_finite = {}
            for y, p in zip(fixed.tolist(), weights[-2:].tolist()):
                if p:
                    to_finite[y] = to_finite.get(y, 0.0) + p
            relative = dict(zip(offsets, weights[:-2].tolist()))
            tails[end] = TailRow(relative=relative, to_finite=to_finite)
        # on N the exceptions cover 0..reach-1, so no tail jump leaves the support
        states = range(reach) if support == "N" else rng.choice(range(-3, 4), 3, replace=False).tolist()
        exceptions = {}
        for x in states:
            targets = sorted({max(y, low) for y in range(x - 2, x + 3)} | {int(rng.integers(low, 9))})
            probs = rng.dirichlet(np.ones(len(targets)))
            exceptions[x] = dict(zip(targets, probs.tolist()))
        yield TransitionKernel.walk(support, exceptions=exceptions, tails=tails)


def all_walks():
    return [REGISTRY[name].build() for name in CATALOG_WALKS] + list(seeded_walks(5, 24))


def reflecting_oracle(kernel, width):
    """The per-row clip loop that built reflecting truncations before the window table."""
    states = list(range(width)) if kernel.space.support == "N" else list(range(-width, width + 1))
    lo, hi = states[0], states[-1]
    index = {x: i for i, x in enumerate(states)}
    mat = np.zeros((len(states), len(states)))
    for x in states:
        for y, p in kernel.row(x).items():
            mat[index[x], index[min(max(y, lo), hi)]] += p
    return mat


def hex_entries(matrix):
    return [float.hex(v) for v in np.asarray(matrix).ravel().tolist()]


def test_seeded_walks_cover_the_cases():
    walks = list(seeded_walks(5, 24))
    assert {k.space.support for k in walks} == {"N", "Z"}
    assert {k.reach() for k in walks} == {1, 2, 3}
    assert any(t.to_finite for k in walks for t in k.tails.values())
    assert all(k.exceptions for k in walks)


def test_truncate_reflecting_matches_the_row_loop_bit_for_bit():
    checked = 0
    for kernel in all_walks():
        for width in range(1, 21):
            got = truncate_reflecting(kernel, width).matrix
            assert hex_entries(got) == hex_entries(reflecting_oracle(kernel, width))
            checked += 1
    assert checked == 20 * (len(CATALOG_WALKS) + 24)


def test_window_table_flattens_rows_in_order():
    for kernel in all_walks():
        lo = 0 if kernel.space.support == "N" else -5
        sources, targets, probs = window_table(kernel, lo, 5)
        expected = [(x, y, p) for x in range(lo, 6) for y, p in kernel.row(x).items()]
        assert list(zip(sources.tolist(), targets.tolist(), probs.tolist())) == expected


@pytest.mark.parametrize("half_width", [1, 2, 3, 5, 7])
def test_window_step_is_apply_A_with_overflow_per_end(half_width):
    rng = np.random.default_rng(half_width)
    past = 0
    for kernel in all_walks():
        engine = _WindowEngine(kernel, half_width)
        lo, hi = engine.lo, engine.hi
        xs = rng.choice(np.arange(lo, hi + 1), size=min(4, hi - lo + 1), replace=False)
        mu = FAMeasure(kernel.space, atoms=dict(zip(xs.tolist(), rng.random(xs.size).tolist())))
        stepped = engine.step(engine.load_atoms(mu))
        exact = apply_A(kernel, mu).atoms
        for x in range(lo, hi + 1):
            assert stepped[engine.cell(x)] == pytest.approx(exact.get(x, 0.0), abs=1e-15)
        above = math.fsum(w for y, w in exact.items() if y > hi)
        below = math.fsum(w for y, w in exact.items() if y < lo)
        assert stepped[engine.bucket[END_POS]] == pytest.approx(above, abs=1e-15)
        assert stepped[0] == pytest.approx(below, abs=1e-15)  # the -inf bucket; empty on N
        past += above > 0.0 or below > 0.0
    assert past > 0


def test_window_step_sends_fixed_targets_past_the_window_to_their_end():
    tail = TailRow(relative={1: 0.3, -1: 0.3}, to_finite={-7: 0.1, 9: 0.3})
    k = TransitionKernel.walk("Z", tails={END_POS: tail, END_NEG: tail})
    engine = _WindowEngine(k, 2)
    stepped = engine.step(engine.load_atoms(dirac(k.space, 0)))
    assert stepped[engine.bucket[END_NEG]] == 0.1
    assert stepped[engine.bucket[END_POS]] == 0.3
    assert stepped.sum() == pytest.approx(1.0, abs=1e-15)


def test_escape_profile_matches_apply_A_while_the_window_holds_the_walk():
    n_max = 12
    for kernel in all_walks():
        cap = 8 + 2 + kernel.reach() * n_max + 1  # past every fixed target and exception jump
        windows = (2, 5, cap)
        prof = escape_profile(kernel, dirac(kernel.space, 0), n_max, windows)
        mu = dirac(kernel.space, 0)
        acc = {m: 0.0 for m in windows}
        for n in range(1, n_max + 1):
            mu = apply_A(kernel, mu)
            for m, seq in prof.windows:
                acc[m] += math.fsum(w for x, w in mu.atoms.items() if abs(x) <= m)
                assert seq[n - 1] == pytest.approx(acc[m] / n, abs=1e-13)
        assert prof.pfa_mass_estimate == pytest.approx(0.0, abs=1e-13)
        assert prof.per_end_split == {}
