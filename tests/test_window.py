"""Walk windows: the one truncation with its two boundaries, and the escape profile."""

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
    escape_checkpoints,
    escape_profile,
    truncate,
    truncate_reflecting,
)
from chargechain.catalog import REGISTRY, build
from chargechain.kernels import BULK_ROWS
from oracles import dirac, radius, reach, truncate_by_rows

CATALOG_WALKS = [name for name in sorted(REGISTRY) if not build(name).space.is_finite]


def seeded_walks(seed, count):
    """Walks on N and Z with reach 1..3, exception rows, fixed targets in -8..8 and, on Z, mass across the ends."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        support = "N" if rng.random() < 0.5 else "Z"
        reach = int(rng.integers(1, 4))
        low = 0 if support == "N" else -8
        tails = {}
        for end in (END_POS,) if support == "N" else (END_POS, END_NEG):
            offsets = [o for o in range(-reach, reach + 1) if rng.random() < 0.8] or [reach]
            weights = rng.random(len(offsets) + 3)
            weights[-3:-1] *= rng.random() < 0.6  # fixed targets on about half the tails
            weights[-1] *= support == "Z" and rng.random() < 0.5  # mass across on about half the tails on Z
            weights /= weights.sum()
            fixed = rng.integers(low, 9, size=2)
            to_finite = {}
            for y, p in zip(fixed.tolist(), weights[-3:-1].tolist()):
                if p:
                    to_finite[y] = to_finite.get(y, 0.0) + p
            relative = dict(zip(offsets, weights[:-3].tolist()))
            across = {other: weights[-1] for other in (END_POS, END_NEG) if other != end and weights[-1]}
            tails[end] = TailRow(relative=relative, to_finite=to_finite, to_other_end=across)
        # on N the exceptions cover 0..reach-1, so no tail jump leaves the support
        states = range(reach) if support == "N" else rng.choice(range(-3, 4), 3, replace=False).tolist()
        exceptions = {}
        for x in states:
            targets = sorted({max(y, low) for y in range(x - 2, x + 3)} | {int(rng.integers(low, 9))})
            probs = rng.dirichlet(np.ones(len(targets)))
            exceptions[x] = dict(zip(targets, probs.tolist()))
        yield TransitionKernel.walk(support, exceptions=exceptions, tails=tails)


def all_walks():
    return [build(name) for name in CATALOG_WALKS] + list(seeded_walks(5, 24))


def reflecting_oracle(kernel, lo, hi):
    """The per-row clip loop that built reflecting truncations before the window table."""
    states = list(range(lo, hi + 1))
    index = {x: i for i, x in enumerate(states)}
    mat = np.zeros((len(states), len(states)))
    for x in states:
        for y, p in kernel.row(x).items():
            mat[index[x], index[min(max(y, lo), hi)]] += p
    return mat


def ends_oracle(kernel, lo, hi):
    """The per-row loop of the window with end buckets: each row clipped onto lo-1..hi+1, then the bucket rows."""
    size = hi - lo + 3
    mat = np.zeros((size, size))
    bucket = {END_NEG: 0, END_POS: size - 1}

    def cell(x):
        return min(max(x, lo - 1), hi + 1) - lo + 1

    for x in range(lo, hi + 1):
        for y, p in kernel.row(x).items():
            mat[cell(x), cell(y)] += p
    for e in sorted(kernel.tails):
        tail = kernel.tails[e]
        mat[bucket[e], bucket[e]] += math.fsum(tail.relative.values())
        for y, p in sorted(tail.to_finite.items()):
            mat[bucket[e], cell(y)] += p
        for e2, p in sorted(tail.to_other_end.items()):
            mat[bucket[e], bucket[e2]] += p
    return mat


def window(kernel, m):
    """The window of half-width m: 0..m on N, -m..m on Z."""
    return (0 if kernel.space.support == "N" else -m), m


def hex_entries(matrix):
    return [float.hex(v) for v in np.asarray(matrix).ravel().tolist()]


def test_seeded_walks_cover_the_cases():
    walks = list(seeded_walks(5, 24))
    assert {k.space.support for k in walks} == {"N", "Z"}
    assert {reach(k) for k in walks} == {1, 2, 3}
    assert any(t.to_finite for k in walks for t in k.tails.values())
    assert any(t.to_other_end for k in walks for t in k.tails.values())
    assert all(k.exceptions for k in walks)


def test_rows_past_the_radius_are_tail_rows_moved():
    for kernel in all_walks():
        r, jump = radius(kernel), reach(kernel)
        for x in range(-r - 2 * jump, r + 2 * jump + 1):
            if abs(x) <= r or not kernel.space.contains_state(x):
                continue
            tail = kernel.tails[END_POS if x > 0 else END_NEG]
            moved = [(x + off, p) for off, p in tail.relative.items()]
            mirror = [(-x, p) for p in tail.to_other_end.values()]
            expected = {}
            for y, p in [*moved, *tail.to_finite.items(), *mirror]:
                expected[y] = expected.get(y, 0.0) + p
            assert kernel.row(x) == expected


def test_truncate_reflecting_matches_the_row_loop_bit_for_bit():
    checked = 0
    for kernel in all_walks():
        for width in range(1, 21):
            lo, hi = (0, width - 1) if kernel.space.support == "N" else (-width, width)
            got = truncate_reflecting(kernel, lo, hi).matrix
            assert hex_entries(got) == hex_entries(reflecting_oracle(kernel, lo, hi))
            checked += 1
    assert checked == 20 * (len(CATALOG_WALKS) + 24)


@pytest.mark.parametrize("half_width", [1, 2, 3, 5, 8, 16, 32])
def test_truncate_with_ends_matches_the_row_loop_bit_for_bit(half_width):
    for kernel in [*all_walks(), cross_end_walk(), far_target_walk()]:
        lo, hi = window(kernel, half_width)
        got = truncate(kernel, lo, hi, ends=True)
        assert hex_entries(got) == hex_entries(ends_oracle(kernel, lo, hi))


def fuzz_walk(rng):
    """A walk on N or Z with reach up to 3, shuffled offsets, exception rows and fixed targets in -12..12, mass
    across the ends, and zero entries; on about a third of the Z walks the rows of 1 and -1 jump 2 toward 0,
    onto their mirror target, so that ``row`` merges the two."""
    support = "N" if rng.random() < 0.4 else "Z"
    reach = int(rng.integers(1, 4))
    low = 0 if support == "N" else -12
    merge = support == "Z" and reach >= 2 and rng.random() < 0.35
    tails = {}
    for end in (END_POS,) if support == "N" else (END_POS, END_NEG):
        toward_0 = -2 if end == END_POS else 2
        offsets = [o for o in range(-reach, reach + 1) if rng.random() < 0.7] or [reach]
        if merge and toward_0 not in offsets:
            offsets.append(toward_0)
        rng.shuffle(offsets)
        fixed = sorted(set(rng.integers(low, 13, size=int(rng.integers(0, 3))).tolist()), key=lambda _: rng.random())
        across = support == "Z" and (merge or rng.random() < 0.5)
        weights = rng.random(len(offsets) + len(fixed) + across) * (rng.random(len(offsets) + len(fixed) + across) > 0.1)
        weights[0] += 0.05
        weights /= weights.sum()
        parts = np.split(weights, [len(offsets), len(offsets) + len(fixed)])
        tails[end] = TailRow(
            relative=dict(zip(offsets, parts[0].tolist())),
            to_finite=dict(zip(fixed, parts[1].tolist())),
            to_other_end={END_NEG if end == END_POS else END_POS: float(parts[2][0])} if across else {},
        )
    states = set(range(reach)) if support == "N" else set()  # on N no tail jump may leave the support
    states |= set(rng.choice(range(low, 13), int(rng.integers(0, 4)), replace=False).tolist())
    if merge:
        states -= {1, -1}
    exceptions = {}
    for x in sorted(states, key=lambda _: rng.random()):
        targets = sorted({max(y, low) for y in range(x - 3, x + 4)} | {int(rng.integers(low, 13))}, key=lambda _: rng.random())
        exceptions[x] = dict(zip(targets, rng.dirichlet(np.ones(len(targets))).tolist()))
    return TransitionKernel.walk(support, exceptions=exceptions, tails=tails)


def fuzz_windows(rng, kernel):
    """Windows lo..hi of a walk: tiny ones, ones whose edge is within 2 of ``radius + reach``, and random ones
    anywhere from the least fixed state to past the band, so some hold no state of the band."""
    band = radius(kernel) + reach(kernel)
    least = 0 if kernel.space.support == "N" else -14
    for hi in range(max(band - 2, 0), band + 3):  # the edge straddles the band
        yield (0, hi) if kernel.space.support == "N" else (-hi, hi)
    for _ in range(6):
        lo = int(rng.integers(least, band + 6))
        yield lo, lo + int(rng.integers(0, 4))  # tiny
        yield lo, lo + int(rng.integers(4, 40))


def test_truncate_matches_the_row_by_row_builder_bit_for_bit():
    rng = np.random.default_rng(2026)
    seen = {"windows": 0, "merged": 0, "far rows read": 0, "far rows at once": 0, "tiny": 0, "straddle": 0}
    for _ in range(220):
        kernel = fuzz_walk(rng)
        band = radius(kernel) + reach(kernel)
        for lo, hi in fuzz_windows(rng, kernel):
            for ends in (False, True):
                got = truncate(kernel, lo, hi, ends)
                assert got.tobytes() == truncate_by_rows(kernel, lo, hi, ends).tobytes(), (kernel, lo, hi, ends)
                seen["windows"] += 1
            far = max(min(hi + 1, -band) - lo, hi - max(lo - 1, band))  # the most rows past the band on one side
            seen["far rows read"] += 0 < far < BULK_ROWS
            seen["far rows at once"] += far >= BULK_ROWS
            seen["tiny"] += hi - lo < 4
            seen["straddle"] += lo <= band < hi
        mirror_rows = [x for x in (1, -1) if kernel.space.contains_state(x) and x not in kernel.exceptions]
        tail_parts = [kernel.tails[END_POS if x > 0 else END_NEG] for x in mirror_rows]
        seen["merged"] += any(
            len(kernel.row(x)) < len(t.relative) + len(t.to_finite) + len(t.to_other_end)
            for x, t in zip(mirror_rows, tail_parts)
        )
    assert seen["windows"] > 5000
    assert min(seen.values()) > 20, seen


def test_kernel_radius_and_reach_are_the_oracles():
    rng = np.random.default_rng(7)
    for kernel in [*all_walks(), cross_end_walk(), far_target_walk(), *(fuzz_walk(rng) for _ in range(200))]:
        assert (kernel.radius, kernel.reach) == (radius(kernel), reach(kernel))


def test_truncate_adds_rows_in_order():
    # the row of 0 lands whole on one cell; added in its own order it sums to 1 - 2^-53, in sorted order to 1
    row = {-1: 0.7, -2: 0.2, -3: 0.1}
    tail = TailRow(relative={1: 0.5, -1: 0.5})
    k = TransitionKernel.walk("Z", exceptions={0: row}, tails={END_POS: tail, END_NEG: tail})
    assert (0.7 + 0.2) + 0.1 == 1.0 - 2.0**-53 and (0.1 + 0.2) + 0.7 == 1.0
    clipped = truncate(k, 0, 3)  # state x in cell x, and the targets below 0 clipped onto it
    assert clipped[0, 0] == 1.0 - 2.0**-53 and not clipped[0, 1:].any()
    buckets = truncate(k, 0, 3, ends=True)  # state x in cell x + 1, and the targets below 0 in the -inf bucket
    assert buckets[1, 0] == 1.0 - 2.0**-53 and not buckets[1, 1:].any()
    for lo, hi in ((0, 3), (-2, 5)):  # a row inside the window is the kernel's row, moved to its cells
        assert list(truncate(k, lo, hi)[2 - lo, 1 - lo : 4 - lo]) == [0.5, 0.0, 0.5]
        assert list(truncate(k, lo, hi, ends=True)[3 - lo, 2 - lo : 5 - lo]) == [0.5, 0.0, 0.5]


def window_layout(kernel, half_width):
    """lo, hi and the cell of a state in ``truncate`` with ends: x in cell x - lo + 1, past the window in a bucket."""
    lo, hi = window(kernel, half_width)
    return lo, hi, lambda x: min(max(x, lo - 1), hi + 1) - lo + 1


def collapse(kernel, mu, half_width):
    """The cell masses of a measure: its atoms in the window, and past it, with its end charges, in their end's cell."""
    lo, hi, cell = window_layout(kernel, half_width)
    v = np.zeros(hi - lo + 3)
    for x, w in mu.atoms.items():
        v[cell(x)] += w
    for e, w in mu.ends.items():
        v[0 if e == END_NEG else -1] += w
    return v


def cross_end_walk():
    """A Z walk whose tails send mass across the ends both ways, with an exception row."""
    return TransitionKernel.walk(
        "Z",
        exceptions={0: {-2: 0.5, 2: 0.5}},
        tails={
            END_POS: TailRow(relative={-1: 0.25, 1: 0.5}, to_other_end={END_NEG: 0.25}),
            END_NEG: TailRow(relative={1: 0.2, -1: 0.3}, to_other_end={END_POS: 0.5}),
        },
    )


def far_target_walk():
    """A walk on N whose tail sends mass to a fixed target past every window below 40."""
    tail = TailRow(relative={1: 0.8, -1: 0.1}, to_finite={40: 0.1})
    return TransitionKernel.walk("N", exceptions={0: {1: 1.0}}, tails={END_POS: tail})


@pytest.mark.parametrize("half_width", [1, 2, 3, 5, 7])
def test_window_step_is_apply_A_with_overflow_per_end(half_width):
    # random atoms on the window plus charges at the ends: W moves them as apply_A does
    rng = np.random.default_rng(half_width)
    past = returned = 0
    for kernel in [*all_walks(), cross_end_walk(), far_target_walk()]:
        lo, hi, _ = window_layout(kernel, half_width)
        xs = rng.choice(np.arange(lo, hi + 1), size=min(4, hi - lo + 1), replace=False)
        ends = {e: float(rng.random()) for e in kernel.space.end_ids()}
        mu = FAMeasure(kernel.space, atoms=dict(zip(xs.tolist(), rng.random(xs.size).tolist())), ends=ends)
        w = truncate(kernel, lo, hi, ends=True)
        assert w.shape == (hi - lo + 3, hi - lo + 3)
        stepped = collapse(kernel, mu, half_width) @ w
        exact = collapse(kernel, apply_A(kernel, mu), half_width)
        np.testing.assert_allclose(stepped, exact, rtol=0.0, atol=1e-15)
        if kernel.space.support == "N":
            assert not w[0].any() and not w[:, 0].any()  # no -inf bucket on N
        past += any(y < lo or y > hi for y in apply_A(kernel, FAMeasure(kernel.space, atoms=mu.atoms)).atoms)
        returned += w[[0, -1], 1:-1].any()
    assert past > 0 and returned > 0


def test_window_step_sends_fixed_targets_past_the_window_to_their_end():
    tail = TailRow(relative={1: 0.3, -1: 0.3}, to_finite={-7: 0.1, 9: 0.3})
    k = TransitionKernel.walk("Z", tails={END_POS: tail, END_NEG: tail})
    w = truncate(k, -2, 2, ends=True)
    stepped = collapse(k, dirac(k.space, 0), 2) @ w
    assert stepped[0] == 0.1 and stepped[-1] == 0.3
    assert stepped.sum() == pytest.approx(1.0, abs=1e-15)
    # a bucket is its end's charge: the relative mass stays, and a fixed target past the window lands in a bucket
    assert w[-1, -1] == pytest.approx(0.6 + 0.3, abs=1e-15) and w[-1, 0] == 0.1 and not w[-1, 1:-1].any()
    assert w[0, 0] == pytest.approx(0.6 + 0.1, abs=1e-15) and w[0, -1] == 0.3 and not w[0, 1:-1].any()
    far = far_target_walk()
    w = truncate(far, 0, 32, ends=True)
    # the tail keeps 0.9 at +inf, and its target 40 lies past the window of 32, so the bucket keeps all
    assert w[-1, -1] == pytest.approx(1.0, abs=1e-15) and not w[-1, 1:-1].any()


def collapsed_cesaro(kernel, half_width, n_max):
    """The Cesàro means of apply_A from δ_0 with the atoms past the window moved to their end each step, as atoms."""
    lo, hi, _ = window_layout(kernel, half_width)
    mu, acc, out = dirac(kernel.space, 0), FAMeasure(kernel.space), []
    for n in range(1, n_max + 1):
        mu = apply_A(kernel, mu)
        v = collapse(kernel, mu, half_width)
        ends = {e: float(v[0 if e == END_NEG else -1]) for e in kernel.space.end_ids()}
        mu = FAMeasure(kernel.space, atoms={x: w for x, w in mu.atoms.items() if lo <= x <= hi}, ends=ends)
        acc = acc + mu
        out.append({x: w / n for x, w in acc.atoms.items()})
    return out


def test_escape_profile_matches_apply_A_while_the_window_holds_the_walk():
    # every n_max in 1..40 ends on the sequential apply_A Cesàro mean.  The windows 2 and 5 hold the walk in
    # part; the largest holds all of it in the first run, and in the second its buckets act as end charges
    n_max = 40
    for kernel in [*all_walks()[: len(CATALOG_WALKS) + 8], cross_end_walk(), far_target_walk()]:
        def holding(n):  # past 5, every fixed target and every jump from one
            return radius(kernel) + reach(kernel) * n + 6

        def fixed(n):
            return 6

        for top in (holding, fixed):
            means = collapsed_cesaro(kernel, top(n_max), n_max)
            for n in range(1, n_max + 1):
                prof = escape_profile(kernel, n, (2, 5, top(n)))
                assert prof["checkpoints"] == escape_checkpoints(n) and prof["checkpoints"][-1] == n
                for m, seq in prof["windows"]:
                    inside = math.fsum(w for x, w in means[n - 1].items() if abs(x) <= m)
                    assert len(seq) == len(prof["checkpoints"])
                    assert seq[-1] == pytest.approx(inside, abs=1e-13)
                if top is holding:
                    assert prof["pfa_mass_estimate"] == pytest.approx(0.0, abs=1e-13)
                    assert prof["per_end_split"] == {}
