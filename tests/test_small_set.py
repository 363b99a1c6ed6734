"""Small-set maximization and the witness search against brute-force oracles, the search's
first-violating-row exit, the per-search kernel and row caches, the eps range checked before any
power, and the truncation trend on round-off stationary weights."""

import math

import numpy as np
import pytest

from chargechain import (
    FAMeasure,
    PreconditionError,
    TransitionKernel,
    ValidationError,
    birth_death,
    check_doeblin,
    check_doeblin_tilde,
    doeblin_truncation_trend,
    kernel_from_spec,
    measurable,
    search_doeblin,
)
from chargechain import conditions
from chargechain.conditions import DoeblinOutcome, DoeblinWitness, _small_set_max
from chargechain.invariants import InvariantBasis, invariant_basis_finite
from chargechain.kernels import cesaro_kernel, kernel_power
from chargechain.measures import _subset_sums, to_vector
from oracles import from_vector


def brute_row_maxima(matrix, weights, eps, strict):
    """Full 2^n enumeration of every subset of each row of a stepped matrix, in row order, as the
    (value, items, mask) of ``conditions._row_maxima``: the reference."""
    phis = _subset_sums(np.asarray(weights, dtype=float))
    adm = phis < eps if strict else phis <= eps
    for row in matrix:
        vals = np.where(adm, _subset_sums(row), -np.inf)
        i = int(np.argmax(vals))
        yield float(vals[i]), np.arange(len(row)), i


def brute_small_set_max(kernel, matrix, phi, eps, *, strict):
    """The maximum over every row of ``brute_row_maxima``, with its first row and set."""
    weights = to_vector(phi)
    phis = _subset_sums(weights)
    vacuous = not bool((phis[1:] < eps if strict else phis[1:] <= eps).any())
    worst_val = -math.inf
    worst = None
    for x, (val, _, mask) in enumerate(brute_row_maxima(matrix, weights, eps, strict)):
        if val > worst_val:
            worst_val = val
            worst = (mask, x)
    holds = worst_val <= 1.0 - eps
    counter = None
    if not holds:
        mask, x = worst
        members = [j for j in range(kernel.size) if mask >> j & 1]
        counter = (measurable(kernel.space, atoms=members), x, worst_val)
    return DoeblinOutcome(holds, vacuous, worst_val, counter)


def brute_search(kernel, basis, k_max=5, eps_grid=conditions.DEFAULT_EPS_GRID, averaged=False):
    """The witness search with every check a full ``brute_small_set_max``, by descending eps and
    ascending k: the reference, which calls no function of ``conditions``."""
    grid = sorted(set(float(e) for e in eps_grid), reverse=True)
    counting = FAMeasure(kernel.space, atoms=dict.fromkeys(range(kernel.size), 1.0))
    phi = sum(basis.measures[1:], basis.measures[0]) if basis.measures else counting
    source = "basis-sum" if basis.measures else "counting"
    step = cesaro_kernel if averaged else kernel_power
    fallback = None
    for eps in grid:
        for k in range(1, k_max + 1):
            out = brute_small_set_max(kernel, step(kernel, k).matrix, phi, eps, strict=averaged)
            if out.vacuous:  # no nonempty set is admitted, whatever k
                fallback = fallback or DoeblinWitness(phi, eps, 1, True, source, averaged)
                break
            if out.holds:
                return DoeblinWitness(phi, eps, k, False, source, averaged)
    if fallback is None and grid:
        fallback = DoeblinWitness(counting, grid[0], 1, True, "counting", averaged)
    return fallback


def recorded(rows_read, enumerate_rows):
    """``enumerate_rows`` (a ``_row_maxima``), appending to ``rows_read`` the values of each call's rows as
    they are read."""

    def rows(*args):
        rows_read.append([])
        for row in enumerate_rows(*args):
            rows_read[-1].append(row[0])
            yield row

    return rows


def _random_matrix(rng, n):
    kind = int(rng.integers(4))
    if kind == 0:  # quarter grid: equal entries, so subset sums tie
        rows = [rng.multinomial(4, np.full(n, 1.0 / n)) / 4.0 for _ in range(n)]
        return np.array(rows)
    m = rng.random((n, n))
    if kind == 1:  # sparse rows
        m *= rng.random((n, n)) < 0.3
    if kind == 2:  # some absorbing states, whose rows are zero off the diagonal
        for x in np.flatnonzero(rng.random(n) < 0.4):
            m[x] = 0.0
            m[x, x] = 1.0
    for x in range(n):
        if m[x].sum() == 0.0:
            m[x, int(rng.integers(n))] = 1.0
    return m / m.sum(axis=1, keepdims=True)


def _random_phi(rng, space, n):
    kind = int(rng.integers(3))
    if kind == 0:  # quarter grid: subset sums land exactly on eps
        w = rng.integers(0, 4, n) / 4.0
    elif kind == 1:
        w = rng.random(n) / n
    else:
        w = rng.random(n) * (rng.random(n) < 0.5)
    w[rng.random(n) < 0.25] = 0.0  # zero-phi states
    return from_vector(space, w)


def test_row_support_enumeration_matches_brute_force():
    rng = np.random.default_rng(2024)
    eps_choices = (0.25, 0.5, 0.75, 0.1, 0.3, 0.01)
    compared = holds = counter = vacuous = 0
    for _ in range(150):
        n = int(rng.integers(1, 11))
        kernel = TransitionKernel.finite(_random_matrix(rng, n))
        phi = _random_phi(rng, kernel.space, n)
        if rng.random() < 0.7:
            eps = float(rng.choice(eps_choices))
        else:
            eps = float(rng.uniform(0.01, 0.99))
        order = int(rng.integers(1, 4))
        for step in (kernel_power, cesaro_kernel):
            matrix = step(kernel, order).matrix
            for strict in (False, True):
                got = _small_set_max(kernel, matrix, to_vector(phi), eps, strict=strict)
                want = brute_small_set_max(kernel, matrix, phi, eps, strict=strict)
                assert got.holds == want.holds
                assert got.vacuous == want.vacuous
                assert got.max_value == want.max_value
                assert got.counterexample == want.counterexample
                assert got == want
                compared += 1
                holds += got.holds
                counter += got.counterexample is not None
                vacuous += got.vacuous
    # the draw covers every kind of outcome
    assert compared == 600 and holds > 50 and counter > 50 and vacuous > 10


def test_public_checkers_match_brute_force_on_ties():
    # uniform rows and a uniform phi make every set of a given size tie
    k = TransitionKernel.finite(np.full((4, 4), 0.25))
    phi = from_vector(k.space, [0.25] * 4)
    for eps in (0.25, 0.5, 0.75):
        assert check_doeblin(k, phi, eps, 1) == brute_small_set_max(k, k.matrix, phi, eps, strict=False)
        assert check_doeblin_tilde(k, phi, eps, 2) == brute_small_set_max(
            k, cesaro_kernel(k, 2).matrix, phi, eps, strict=True
        )


def test_search_matches_brute_force_search():
    chains = [birth_death(9, 0.05, 0.15), birth_death(6, 0.3, 0.2)]
    rng = np.random.default_rng(5)
    for _ in range(6):
        chains.append(TransitionKernel.finite(_random_matrix(rng, int(rng.integers(2, 8)))))
    for averaged in (False, True):
        got = [search_doeblin(k, invariant_basis_finite(k), averaged=averaged) for k in chains]
        want = [brute_search(k, invariant_basis_finite(k), averaged=averaged) for k in chains]
        assert got == want
        assert sum(not w.vacuous for w in want) >= 4


def test_multi_eps_search_matches_the_oracle_search(monkeypatch):
    # random chains, phi and grids, with quarter-grid ties where sums land exactly on eps and zero-phi
    # states: a row read again at a smaller eps filters the sets its first read kept, and a row over
    # the kept-set cap (patched to 1, which keeps only rows whose one admissible set is empty) is
    # enumerated again, and both give the oracle's witness
    rng = np.random.default_rng(2107)
    quarters, others = (0.75, 0.5, 0.25), (0.6, 0.4, 0.3, 0.2, 0.125, 0.1, 0.05)
    compared = found = later = fallback = 0
    for _ in range(120):
        n = int(rng.integers(1, 9))
        kernel = TransitionKernel.finite(_random_matrix(rng, n))
        basis = InvariantBasis(measures=[_random_phi(rng, kernel.space, n)])
        grid = tuple(float(e) for e in rng.choice(quarters if rng.random() < 0.5 else quarters + others, size=3))
        k_max = int(rng.integers(1, 4))
        for averaged in (False, True):
            want = brute_search(kernel, basis, k_max, grid, averaged)
            assert search_doeblin(kernel, basis, k_max, grid, averaged) == want
            with monkeypatch.context() as m:
                m.setattr(conditions, "MAX_KEPT_SETS", 1)
                assert search_doeblin(kernel, basis, k_max, grid, averaged) == want
            compared += 1
            found += not want.vacuous
            later += not want.vacuous and want.eps < max(grid)
            fallback += want.phi_source == "counting"
    # the draw covers witnesses at the first and at later grid points, and the counting fallback
    assert compared == 240 and found > 40 and later > 20 and fallback > 20


def test_early_exit_verdict_matches_the_full_maximum_and_brute_force():
    # a one-eps search with phi as its basis holds at the first order whose check holds; a
    # check that fails stops at its first row past 1 - eps, and so must agree with the full scans
    rng = np.random.default_rng(2031)
    eps_choices = (0.25, 0.5, 0.75, 0.1, 0.3)
    compared = held = failed = 0
    for _ in range(120):
        n = int(rng.integers(1, 11))
        kernel = TransitionKernel.finite(_random_matrix(rng, n))
        phi = _random_phi(rng, kernel.space, n)
        eps = float(rng.choice(eps_choices))
        basis = InvariantBasis(measures=[phi])
        for averaged, step in ((False, kernel_power), (True, cesaro_kernel)):
            w = search_doeblin(kernel, basis, k_max=3, eps_grid=(eps,), averaged=averaged)
            if not (to_vector(phi) < eps if averaged else to_vector(phi) <= eps).any():
                assert w.vacuous  # no state fits: decided before any row is read
                continue
            verdicts = []
            for k in (1, 2, 3):
                matrix = step(kernel, k).matrix
                full = _small_set_max(kernel, matrix, to_vector(phi), eps, strict=averaged).holds
                assert full == brute_small_set_max(kernel, matrix, phi, eps, strict=averaged).holds
                verdicts.append(full)
            first = verdicts.index(True) + 1 if True in verdicts else None
            assert (None if w.vacuous else w.k) == first
            assert w.vacuous or w.eps == eps
            compared += 1
            held += sum(verdicts)
            failed += len(verdicts) - sum(verdicts)
    assert compared > 100 and held > 50 and failed > 50


def counted_sums(sums):
    """``_subset_sums``, appending to ``sums`` the number of states of each enumeration."""

    def counted(values, *out):
        sums.append(len(values))
        return _subset_sums(values, *out)

    return counted


def test_failing_check_enumerates_rows_up_to_its_first_violating_row(monkeypatch):
    # birth_death(12, 0.05, 0.15) has no witness under its basis sum: its one check at eps = 0.5, k = 1
    # fails, and the search is decided at the first row whose maximum exceeds 1 - eps
    kernel = birth_death(12, 0.05, 0.15)
    basis = invariant_basis_finite(kernel)
    phi = basis.measures[0]
    rows = brute_row_maxima(kernel.matrix, to_vector(phi), 0.5, False)
    first = next(x for x, (v, _, _) in enumerate(rows) if v > 0.5)
    assert first == 1
    sums = []
    monkeypatch.setattr(conditions, "_subset_sums", counted_sums(sums))
    w = search_doeblin(kernel, basis, k_max=1, eps_grid=(0.5,))
    assert w.phi_source == "counting"  # the check failed
    assert len(sums) == 2 * (first + 1)  # phi's and the row's subset sums of rows 0..first, and no more


def test_each_stepped_row_is_enumerated_once_per_search(monkeypatch):
    # birth_death(12, 0.05, 0.15) scans the whole grid, and every check fails: each (k, row) the checks
    # read, rows 0 up to each check's first violating row, is enumerated at its first read only, once
    # for phi's subset sums and once for the row's
    kernel = birth_death(12, 0.05, 0.15)
    basis = invariant_basis_finite(kernel)
    weights = to_vector(basis.measures[0])
    sums = []
    monkeypatch.setattr(conditions, "_subset_sums", counted_sums(sums))
    for averaged, step in ((False, kernel_power), (True, cesaro_kernel)):
        stepped = {k: step(kernel, k).matrix for k in range(1, 6)}
        for grid in ((0.5,), conditions.DEFAULT_EPS_GRID):
            read, reads = set(), 0
            for eps in grid:
                if not (weights < eps if averaged else weights <= eps).any():
                    continue  # no state fits: decided before any row is read
                for k, matrix in stepped.items():
                    rows = brute_row_maxima(matrix, weights, eps, averaged)
                    first = next(x for x, (v, _, _) in enumerate(rows) if v > 1.0 - eps)
                    read |= {(k, x) for x in range(first + 1)}
                    reads += first + 1
            sums.clear()
            w = search_doeblin(kernel, basis, k_max=5, eps_grid=grid, averaged=averaged)
            assert w.phi_source == "counting"  # every check failed
            assert len(sums) == 2 * len(read)
            assert reads == len(read) if len(grid) == 1 else reads > 2 * len(read)  # the longer grid rereads rows


def test_search_computes_each_stepped_kernel_once(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(kernel, order):
            calls.append(order)
            return fn(kernel, order)

        return wrapper

    monkeypatch.setattr(conditions, "kernel_power", counted(kernel_power))
    monkeypatch.setattr(conditions, "cesaro_kernel", counted(cesaro_kernel))
    # a slowly mixing chain has no witness under the basis sum, so the search
    # scans the whole grid and falls back to the vacuous counting witness
    kernel = birth_death(12, 0.05, 0.15)
    for averaged in (False, True):
        for k_max in (1, 5):
            calls.clear()
            w = search_doeblin(kernel, invariant_basis_finite(kernel), k_max=k_max, averaged=averaged)
            assert w.vacuous and w.phi_source == "counting"
            assert sorted(calls) == list(range(1, k_max + 1))
    # a basis without measures leaves only the counting witness, which needs no stepped kernel
    calls.clear()
    w = search_doeblin(kernel, InvariantBasis(measures=[]))
    assert (w.phi_source, w.eps, w.k, w.vacuous) == ("counting", 0.5, 1, True)
    assert calls == []


def test_search_witness_rechecks_to_the_same_max(monkeypatch):
    # the search's holding check reads every row, partly from the sets that rows kept at larger eps; their
    # maximum is what the public checker and the brute-force enumeration find for the witness, which is
    # the oracle search's
    rows_read = []
    # witnesses at k = 4 and 5, where p^k is four and five products
    chains = [birth_death(6, 0.3, 0.2), birth_death(9, 0.3, 0.2), birth_death(12, 0.45, 0.45)]
    orders = set()
    for kernel in chains:
        step = {False: kernel_power, True: cesaro_kernel}
        for averaged, check in ((False, check_doeblin), (True, check_doeblin_tilde)):
            with monkeypatch.context() as m:
                m.setattr(conditions, "_row_maxima", recorded(rows_read, conditions._row_maxima))
                w = search_doeblin(kernel, invariant_basis_finite(kernel), averaged=averaged)
            assert not w.vacuous
            assert w == brute_search(kernel, invariant_basis_finite(kernel), averaged=averaged)
            searched = rows_read[-1]
            assert len(searched) == kernel.size
            brute = brute_small_set_max(kernel, step[averaged](kernel, w.k).matrix, w.phi, w.eps, strict=averaged)
            assert check(kernel, w.phi, w.eps, w.k).max_value == max(searched) == brute.max_value
            orders.add(w.k)
    assert orders >= {4, 5}


def test_only_rows_within_the_kept_set_cap_are_kept():
    # phi of 1/32 per state admits every subset at eps = 0.5: 2^12 sets per row fit MAX_KEPT_SETS, 2^13 do not
    assert conditions.MAX_KEPT_SETS == 1 << 12
    for n, kept_rows in ((12, 12), (13, 0)):
        matrix, weights = np.full((n, n), 1.0 / n), np.full(n, 1.0 / 32)
        kept = {}
        got = list(conditions._row_maxima(matrix, kept, weights, 0.5, False))
        assert [v for v, _, _ in got] == [v for v, _, _ in brute_row_maxima(matrix, weights, 0.5, False)]
        assert len(kept) == kept_rows


def test_vacuous_means_no_single_state_fits():
    k = TransitionKernel.finite(np.full((3, 3), 1 / 3))
    phi = from_vector(k.space, [0.5, 0.25, 0.25])
    assert not check_doeblin(k, phi, 0.25, 1).vacuous  # phi_1 = eps is admitted
    assert check_doeblin_tilde(k, phi, 0.25, 1).vacuous  # strict admission admits none
    assert check_doeblin_tilde(k, phi, 0.25, 1) == DoeblinOutcome(True, True, 0.0)


@pytest.mark.parametrize("eps", [0.0, -0.1, 1.0, 1.5, math.nan, math.inf])
def test_eps_outside_unit_interval_rejected(power_steps, eps):
    k = TransitionKernel.finite([[0.5, 0.5], [0.5, 0.5]])
    phi = from_vector(k.space, [0.5, 0.5])
    with pytest.raises(ValidationError, match="eps"):
        check_doeblin(k, phi, eps, 1)
    with pytest.raises(ValidationError, match="eps"):
        check_doeblin_tilde(k, phi, eps, 1)
    # eps = 0.5 alone gives a witness at k = 1; beside a bad eps the search forms no power
    assert not search_doeblin(k, invariant_basis_finite(k), eps_grid=(0.5,)).vacuous
    power_steps.clear()
    for averaged in (False, True):
        with pytest.raises(ValidationError, match="eps"):
            search_doeblin(k, invariant_basis_finite(k), eps_grid=(0.5, eps), averaged=averaged)
    assert power_steps == []


# A reach-1 walk on Z with exception rows: the stationary solve on its width-8
# truncation leaves weights like -7e-18, which the trend used to reject.
ROUNDOFF_WALK = {
    "kind": "walk",
    "support": "Z",
    "exceptions": {
        "-1": {"-3": 0.18, "-2": 0.2, "-1": 0.2, "0": 0.21, "1": 0.21},
        "0": {"-2": 0.2, "-1": 0.21, "0": 0.2, "1": 0.2, "2": 0.19},
        "1": {"-1": 0.2, "0": 0.2, "1": 0.2, "2": 0.21, "3": 0.19},
    },
    "tail_+inf": {"relative": {"-1": 0.02, "0": 0.12, "1": 0.86}},
    "tail_-inf": {"relative": {"-1": 0.02, "0": 0.12, "1": 0.86}},
}


def test_truncation_trend_tolerates_roundoff_weights():
    trend = doeblin_truncation_trend(kernel_from_spec(ROUNDOFF_WALK))
    assert trend == [(2, 1.0), (4, 1.0), (8, 1.0)]


def test_small_set_max_still_rejects_any_negative_phi():
    k = TransitionKernel.finite([[0.5, 0.5], [0.5, 0.5]])
    phi = FAMeasure(k.space, atoms={0: 0.5, 1: -1e-18})
    with pytest.raises(PreconditionError, match="nonnegative"):
        check_doeblin(k, phi, 0.5, 1)
