"""Projector construction, operator-distance decay, rate fitting."""

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
    char_poly_second_modulus,
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

TOL = 1e-12
RES_TOL = 1e-10


def random_kernel(rng, n):
    m = rng.random((n, n)) + 1e-3
    return TransitionKernel.finite(m / m.sum(axis=1, keepdims=True))


def series(kernel, n_max):
    """(cesaro, raw) distance series against the kernel's own projector."""
    return distance_series(kernel, n_max, projector_finite(kernel))


def test_projector_absorption_example():
    pj = projector_finite(two_absorbing())
    assert pj.rank == 2
    assert pj.rows[1].atoms == pytest.approx({0: 0.5, 2: 0.5}, abs=RES_TOL)
    assert pj.rows[0].atoms == {0: 1.0}
    assert pj.rows[2].atoms == {2: 1.0}


def test_projector_irreducible_rows_equal_stationary():
    k = birth_death(4, 0.4, 0.3)
    pi = invariant_basis_finite(k).measures[0]
    pj = projector_finite(k)
    assert pj.rank == 1
    for x in range(4):
        assert (pj.rows[x] - pi).total_variation() <= RES_TOL


def test_projector_identity():
    pj = projector_finite(TransitionKernel.finite(np.eye(3)))
    assert pj.rank == 3
    for x in range(3):
        assert pj.rows[x].atoms == {x: 1.0}


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
    assert geo.kind == "geometric"
    assert geo.ratio == pytest.approx(0.5, abs=1e-6)

    assert rate_fit([1.0 / n for n in range(1, 41)]).kind == "subgeometric"

    zero = rate_fit([0.0] * 12)
    assert zero.kind == "finite_exact" and zero.n_zero == 1


def test_rate_fit_trailing_zeros():
    seq = [0.5, 0.25, 0.125] + [0.0] * 9
    out = rate_fit(seq)
    assert out.kind == "finite_exact" and out.n_zero == 4


def test_rate_fit_needs_enough_positives():
    with pytest.raises(PreconditionError):
        rate_fit([0.5, 0.4, 0.3, 0.2])


def test_fitted_rate_matches_second_eigenvalue():
    # reversible chains keep the spectrum real, so raw decay is cleanly geometric
    cases = [
        TransitionKernel.finite([[0.9, 0.1], [0.2, 0.8]]),
        birth_death(3, 0.3, 0.2),
        birth_death(4, 0.25, 0.35),
    ]
    for k in cases:
        lam2 = char_poly_second_modulus(k.matrix)
        _, _, run = ergodic_run(k, 48)
        assert run.rate.kind == "geometric"
        assert abs(run.rate.ratio - lam2) <= 0.05 * lam2


def test_char_poly_oracle_values():
    assert char_poly_second_modulus([[0.9, 0.1], [0.2, 0.8]]) == pytest.approx(0.7, abs=1e-9)
    assert char_poly_second_modulus(swap2().matrix) == pytest.approx(1.0, abs=1e-9)
    # a fourfold eigenvalue is ill-conditioned for root finding; modest accuracy only
    assert char_poly_second_modulus(np.eye(4)) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(CapacityError):
        char_poly_second_modulus(np.eye(5))


def test_ergodic_run_series_shape():
    projector, run, raw = ergodic_run(swap2(), 20)
    assert projector.rank == projector_finite(swap2()).rank
    assert run.uniform and run.mode == "cesaro" and raw.mode == "raw"
    assert run.series()[0] == (1, run.distances[0])
    assert len(run.series()) == len(raw.series()) == 20


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
