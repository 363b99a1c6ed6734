"""Projector construction, operator-distance decay, rate fitting."""

import json

import numpy as np
import pytest

import chargechain.ergodic as ergodic
import chargechain.invariants as invariants
from chargechain import (
    AnalysisRequest,
    CapacityError,
    NumericalError,
    PreconditionError,
    TransitionKernel,
    birth_death,
    cesaro_kernel,
    cycle,
    distance_series,
    ergodic_run,
    finite_uniform,
    invariant_basis_finite,
    kernel_power,
    projector_finite,
    rate_fit,
    run_analysis,
    swap2,
    two_absorbing,
)
from oracles import char_poly_second_modulus, from_vector

TOL = 1e-12
RES_TOL = 1e-10


def random_kernel(rng, n):
    m = rng.random((n, n)) + 1e-3
    return TransitionKernel.finite(m / m.sum(axis=1, keepdims=True))


def series(kernel, n_max):
    """(cesaro, raw) distance series against the kernel's own projector."""
    return distance_series(kernel, n_max, projector_finite(kernel))


def test_projector_absorption_example():
    k = two_absorbing()
    pj = projector_finite(k)
    assert pj.rank == 2
    assert from_vector(k.space, pj.matrix[1]).atoms == pytest.approx({0: 0.5, 2: 0.5}, abs=RES_TOL)
    assert from_vector(k.space, pj.matrix[0]).atoms == {0: 1.0}
    assert from_vector(k.space, pj.matrix[2]).atoms == {2: 1.0}


def test_projector_irreducible_rows_equal_stationary():
    k = birth_death(4, 0.4, 0.3)
    pi = invariant_basis_finite(k).measures[0]
    pj = projector_finite(k)
    assert pj.rank == 1
    for x in range(4):
        assert (from_vector(k.space, pj.matrix[x]) - pi).total_variation() <= RES_TOL


def test_projector_identity():
    k = TransitionKernel.finite(np.eye(3))
    pj = projector_finite(k)
    assert pj.rank == 3
    for x in range(3):
        assert from_vector(k.space, pj.matrix[x]).atoms == {x: 1.0}


def test_projector_idempotent_and_intertwining():
    rng = np.random.default_rng(12)
    for _ in range(20):
        k = random_kernel(rng, int(rng.integers(2, 7)))
        pj = projector_finite(k)
        m, p = pj.matrix, k.matrix
        for other in (m @ m, m @ p, p @ m):
            assert np.abs(other - m).sum(axis=1).max() <= RES_TOL


def test_cesaro_distance_swap_pattern():
    sw = swap2()
    cesaro, _ = series(sw, 40)
    for i, d in enumerate(cesaro):
        n = i + 1
        expected = 1.0 / n if n % 2 else 0.0
        assert d == pytest.approx(expected, abs=TOL)


def test_cesaro_distance_trivial_chains():
    ident = TransitionKernel.finite(np.eye(3))
    assert all(d == 0.0 for d in series(ident, 10)[0])
    u = finite_uniform(2)
    assert all(d <= TOL for d in series(u, 10)[0])


def test_raw_distance_examples():
    u = finite_uniform(2)
    assert all(d <= TOL for d in series(u, 10)[1])

    sw = swap2()
    _, raw = series(sw, 50)
    assert all(d == pytest.approx(1.0, abs=TOL) for d in raw)

    k = TransitionKernel.finite([[0.9, 0.1], [0.2, 0.8]])
    _, raw = series(k, 30)
    for i, d in enumerate(raw):
        assert d <= 2.0 * 0.7 ** (i + 1) + TOL


def test_single_point_distances_match_series():
    # the last element of each series is the n-step distance, computed apart
    k = TransitionKernel.finite([[0.9, 0.1], [0.2, 0.8]])
    pi = projector_finite(k).matrix
    cesaro, raw = series(k, 7)
    assert len(cesaro) == len(raw) == 7
    assert cesaro[-1] == pytest.approx(np.abs(cesaro_kernel(k, 7).matrix - pi).sum(axis=1).max(), abs=TOL)
    assert raw[-1] == pytest.approx(np.abs(kernel_power(k, 7).matrix - pi).sum(axis=1).max(), abs=TOL)


def test_cesaro_envelope_c_over_n():
    for k in (swap2(), cycle(3), finite_uniform(3), birth_death(4, 0.3, 0.2), two_absorbing()):
        cesaro, _ = series(k, 400)
        c = max((i + 1) * d for i, d in enumerate(cesaro[:200]))
        bound = max(c, 1e-9)
        for i, d in enumerate(cesaro[200:], start=201):
            assert d <= bound / i + TOL


def test_rate_fit_examples():
    geo = rate_fit([0.5 ** n for n in range(1, 21)])
    assert geo["kind"] == "geometric"
    assert geo["ratio"] == pytest.approx(0.5, abs=1e-6)

    assert rate_fit([1.0 / n for n in range(1, 41)])["kind"] == "subgeometric"

    zero = rate_fit([0.0] * 12)
    assert zero["kind"] == "finite_exact" and zero["n_zero"] == 1


def test_rate_fit_trailing_zeros():
    seq = [0.5, 0.25, 0.125] + [0.0] * 9
    out = rate_fit(seq)
    assert out["kind"] == "finite_exact" and out["n_zero"] == 4


def test_rate_fit_needs_enough_positives():
    with pytest.raises(PreconditionError):
        rate_fit([0.5, 0.4, 0.3, 0.2])


def test_rate_fit_leaves_the_roundoff_floor_out():
    # a fast geometric decay, then round-off noise between 5e-16 and 2e-15, as dense chains give
    rng = np.random.default_rng(3)
    seq = [0.15**n for n in range(1, 15)] + list(rng.uniform(5e-16, 2e-15, size=186))
    fit = rate_fit(seq)
    assert fit["kind"] == "geometric" and fit["ratio"] == pytest.approx(0.15, rel=1e-9)
    assert rate_fit(seq[:14] + [0.0] * 186)["kind"] == "finite_exact"  # exact zeros still end a decay
    with pytest.raises(PreconditionError):
        rate_fit(seq[:7] + seq[14:])  # 7 entries above the floor are too few


def test_rate_fit_has_no_rate_for_a_tail_that_has_not_moved():
    # a drift of 1e-12 a step under a wobble of 1e-10: the fit's decay is within its misfit (it read geometric)
    flat = [2.0 - 1e-12 * n + 1e-10 * (n % 2) for n in range(1, 201)]
    # constant at 2, as an irreducible periodic chain's raw distances: no decay at all
    for seq in (flat, [2.0] * 40):
        with pytest.raises(PreconditionError, match="has not moved"):
            rate_fit(seq)
        assert ergodic.fitted_rate(seq)["kind"] == "undetermined"


def test_rate_fit_keeps_a_slow_clean_decay():
    # two states that swap with probability 2^-40: the raw distances are (1 - 2^-39)^n exactly
    eps = 2.0**-40
    rate = ergodic_run(TransitionKernel.finite([[1.0 - eps, eps], [eps, 1.0 - eps]]), 200)["raw"]["rate"]
    assert rate["kind"] == "geometric"
    assert (1.0 - rate["ratio"]) / (2.0 * eps) == pytest.approx(1.0, rel=1e-3)


def test_fitted_rate_matches_second_eigenvalue():
    # reversible chains keep the spectrum real, so raw decay is cleanly geometric
    cases = [
        TransitionKernel.finite([[0.9, 0.1], [0.2, 0.8]]),
        birth_death(3, 0.3, 0.2),
        birth_death(4, 0.25, 0.35),
    ]
    for k in cases:
        lam2 = char_poly_second_modulus(k.matrix)
        rate = ergodic_run(k, 48)["raw"]["rate"]
        assert rate["kind"] == "geometric"
        assert abs(rate["ratio"] - lam2) <= 0.05 * lam2


def test_char_poly_oracle_values():
    assert char_poly_second_modulus([[0.9, 0.1], [0.2, 0.8]]) == pytest.approx(0.7, abs=1e-9)
    assert char_poly_second_modulus(swap2().matrix) == pytest.approx(1.0, abs=1e-9)
    # a fourfold eigenvalue is ill-conditioned for root finding; modest accuracy only
    assert char_poly_second_modulus(np.eye(4)) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(CapacityError):
        char_poly_second_modulus(np.eye(5))


def test_ergodic_run_series_shape():
    section = ergodic_run(swap2(), 20)
    assert section["projector"]["rank"] == projector_finite(swap2()).rank
    assert len(section["cesaro"]["distances"]) == len(section["raw"]["distances"]) == 20


def test_projector_rank_equals_basis_dimension():
    from chargechain import invariant_basis_finite

    for k in (two_absorbing(), TransitionKernel.finite(np.eye(3)), birth_death(4, 0.3, 0.3)):
        assert projector_finite(k).rank == invariant_basis_finite(k).dimension


def test_analysis_builds_one_projector_and_two_class_decompositions(monkeypatch):
    calls = {"projector_finite": 0, "recurrent_classes": 0}

    def counted(name, fn):
        def wrapper(kernel, *rest):
            calls[name] += 1
            return fn(kernel, *rest)

        return wrapper

    monkeypatch.setattr(ergodic, "projector_finite", counted("projector_finite", projector_finite))
    rc = counted("recurrent_classes", invariants.recurrent_classes)
    monkeypatch.setattr(invariants, "recurrent_classes", rc)
    monkeypatch.setattr(ergodic, "recurrent_classes", rc)
    run_analysis(AnalysisRequest(catalog="two_absorbing", tasks=("invariants", "ergodic"), n_max=30))
    assert calls["projector_finite"] == 1
    assert 1 <= calls["recurrent_classes"] <= 2


def test_analysis_solves_each_recurrent_class_once(monkeypatch):
    calls = {"recurrent_classes": 0, "stationary_of_class": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    rc = counted("recurrent_classes", invariants.recurrent_classes)
    sc = counted("stationary_of_class", invariants.stationary_of_class)
    for module in (invariants, ergodic):
        monkeypatch.setattr(module, "recurrent_classes", rc)
        monkeypatch.setattr(module, "stationary_of_class", sc)
    run_analysis(AnalysisRequest(catalog="two_absorbing", tasks=("invariants", "ergodic"), n_max=30))
    assert calls == {"recurrent_classes": 1, "stationary_of_class": 2}


def test_projector_from_the_basis_is_the_same_solve():
    for k in (two_absorbing(), swap2(), birth_death(6, 0.3, 0.2), TransitionKernel.finite(np.eye(3))):
        basis = invariant_basis_finite(k)
        assert [c.states for c in basis.classes] == [c.states for c in invariants.recurrent_classes(k)]
        assert projector_finite(k, basis).matrix.tobytes() == projector_finite(k).matrix.tobytes()


def test_projector_rejects_non_finite_absorption():
    # transient states 0 and 1 leave only through a subnormal probability
    m = np.array([[0.5, 0.5 - 1e-310, 1e-310], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    k = TransitionKernel.finite(m)
    assert invariants.states_outside(invariants.recurrent_classes(k), 3) == (0, 1)
    with pytest.raises(NumericalError, match=r"transient states \[0, 1\]"):
        projector_finite(k)


def test_projector_factors_rebuild_the_matrix():
    chains = (two_absorbing(), swap2(), birth_death(6, 0.3, 0.2), TransitionKernel.finite(np.eye(3)))
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = rng.random((7, 7)) * (rng.random((7, 7)) < 0.4)
        m[[0, 3], :] = 0.0
        m[0, 0] = m[3, 3] = 1.0  # two absorbing states; the rest may be transient
        m[m.sum(axis=1) == 0.0, 0] = 1.0
        chains += (TransitionKernel.finite(m / m.sum(axis=1, keepdims=True)),)
    for k in chains:
        pj = projector_finite(k)
        data = json.loads(json.dumps(pj.to_json()))
        h = np.zeros((k.size, pj.rank))
        pi = np.zeros((pj.rank, k.size))
        for i, (states, law) in enumerate(zip(data["classes"], data["stationary"])):
            h[states, i] = 1.0
            for x, w in law["atoms"].items():
                pi[i, int(x)] = w
        for x, row in data["absorption"].items():
            h[int(x)] = row
        assert sorted(int(x) for x in data["absorption"]) == list(invariants.transient_states(k))
        assert np.abs(h @ pi - pj.matrix).max() <= 1e-15


def test_projector_times_solve_their_equations():
    rng = np.random.default_rng(8)
    chains = [two_absorbing(), birth_death(30, 0.3, 0.2), cycle(4), TransitionKernel.finite(np.eye(2))]
    for _ in range(10):
        m = rng.random((8, 8)) * (rng.random((8, 8)) < 0.4)
        m[[0, 3], 4:] = 0.0  # {0..3} may hold closed classes fed by the rest
        m[m.sum(axis=1) == 0.0, 0] = 1.0
        chains.append(TransitionKernel.finite(m / m.sum(axis=1, keepdims=True)))
    for k in chains:
        pj = projector_finite(k)
        p = k.matrix
        trans = sorted(pj.absorption_times)
        assert trans == sorted(pj.absorption) == list(invariants.transient_states(k))
        t = np.array([pj.absorption_times[x] for x in trans])
        assert np.abs(t - p[np.ix_(trans, trans)] @ t - 1.0).max(initial=0.0) <= 1e-12 * t.max(initial=1.0)
        for c, pi, times in zip(pj.classes, pj.stationary, pj.hitting_times):
            (anchor,) = set(c.states) - set(times)
            assert pi.atoms[anchor] == max(pi.atoms.values())
            rest = sorted(times)
            h = np.array([times[x] for x in rest])
            assert np.abs(h - p[np.ix_(rest, rest)] @ h - 1.0).max(initial=0.0) <= 1e-12 * h.max(initial=1.0)


def test_distance_series_is_the_sequential_loop():
    from test_kernels import sequential_powers, table_matrices

    chains = [two_absorbing(), swap2(), birth_death(30, 0.3, 0.2)]
    chains += [TransitionKernel.finite(m) for m in table_matrices(29, 8, subnormals=False)]
    for k in chains:
        pj = projector_finite(k)
        cesaro, raw = distance_series(k, 40, pj)
        ref = sequential_powers(k.matrix, 40)
        assert raw == [float(np.abs(cur - pj.matrix).sum(axis=1).max()) for cur, _ in ref]
        assert cesaro == [float(np.abs(acc / n - pj.matrix).sum(axis=1).max()) for n, (_, acc) in enumerate(ref, 1)]


def test_distance_series_keeps_the_bits_of_the_textbook_reduction():
    from test_kernels import sequential_powers

    rng = np.random.default_rng(41)
    chains = [random_kernel(rng, n) for n in (1, 2, 7, 33, 90)]
    chains += [birth_death(60, 0.3, 0.2), TransitionKernel.finite(np.asfortranarray(random_kernel(rng, 12).matrix))]
    for k in chains:
        pj = projector_finite(k)
        cesaro, raw = distance_series(k, 50, pj)
        ref = sequential_powers(k.matrix, 50)
        assert [d.hex() for d in raw] == [float(np.abs(cur - pj.matrix).sum(axis=1).max()).hex() for cur, _ in ref]
        assert [d.hex() for d in cesaro] == [
            float(np.abs(acc / n - pj.matrix).sum(axis=1).max()).hex() for n, (_, acc) in enumerate(ref, 1)
        ]


def test_hitting_time_solve_rejects_a_singular_class():
    # the two states of one class swap only with a subnormal probability
    k = TransitionKernel.finite([[1.0, 1e-310], [1e-310, 1.0]])
    with pytest.raises(NumericalError, match=r"hitting times of state 0 from states \[1\]"):
        projector_finite(k)
