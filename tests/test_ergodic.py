"""Projector construction, operator-distance decay, rate fitting."""

import itertools
import json

import numpy as np
import pytest

import chargechain.ergodic as ergodic
import chargechain.invariants as invariants
import chargechain.kernels as kernels
from chargechain import (
    AnalysisRequest,
    CapacityError,
    NumericalError,
    TransitionKernel,
    birth_death,
    cesaro_kernel,
    cycle,
    distance_series,
    ergodic_run,
    finite_uniform,
    invariant_basis_finite,
    kernel_power,
    kernel_to_spec,
    projector_finite,
    rate_fit,
    report_json,
    run_analysis,
    swap2,
    two_absorbing,
)
from chargechain.measures import tv_distance
from oracles import char_poly_second_modulus, from_vector

TOL = 1e-12
RES_TOL = 1e-10


def random_kernel(rng, n):
    m = rng.random((n, n)) + 1e-3
    return TransitionKernel.finite(m / m.sum(axis=1, keepdims=True))


def series(kernel, n_max):
    """(cesaro, raw) distance series against the kernel's own projector."""
    return distance_series(kernel, n_max, limit(kernel))


def limit(kernel):
    """The kernel's dense limit projector P."""
    return projector_finite(kernel, invariant_basis_finite(kernel))[1]


def test_projector_absorption_example():
    k = two_absorbing()
    section, p = projector_finite(k, invariant_basis_finite(k))
    assert section["rank"] == 2
    assert from_vector(k.space, p[1]).atoms == pytest.approx({0: 0.5, 2: 0.5}, abs=RES_TOL)
    assert from_vector(k.space, p[0]).atoms == {0: 1.0}
    assert from_vector(k.space, p[2]).atoms == {2: 1.0}


def test_projector_irreducible_rows_equal_stationary():
    k = birth_death(4, 0.4, 0.3)
    pi = invariant_basis_finite(k).measures[0]
    section, p = projector_finite(k, invariant_basis_finite(k))
    assert section["rank"] == 1
    for x in range(4):
        assert tv_distance(from_vector(k.space, p[x]), pi) <= RES_TOL


def test_projector_identity():
    k = TransitionKernel.finite(np.eye(3))
    section, p = projector_finite(k, invariant_basis_finite(k))
    assert section["rank"] == 3
    for x in range(3):
        assert from_vector(k.space, p[x]).atoms == {x: 1.0}


def test_projector_idempotent_and_intertwining():
    rng = np.random.default_rng(12)
    for _ in range(20):
        k = random_kernel(rng, int(rng.integers(2, 7)))
        m, p = limit(k), k.matrix
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
    pi = limit(k)
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
    assert rate_fit([0.5, 0.4, 0.3, 0.2]) == {"kind": "undetermined"}
    assert rate_fit([]) == {"kind": "undetermined"}


def test_rate_fit_leaves_the_roundoff_floor_out():
    # a fast geometric decay, then round-off noise between 5e-16 and 2e-15, as dense chains give
    rng = np.random.default_rng(3)
    seq = [0.15**n for n in range(1, 15)] + list(rng.uniform(5e-16, 2e-15, size=186))
    fit = rate_fit(seq)
    assert fit["kind"] == "geometric" and fit["ratio"] == pytest.approx(0.15, rel=1e-9)
    assert rate_fit(seq[:14] + [0.0] * 186)["kind"] == "finite_exact"  # exact zeros still end a decay
    assert rate_fit(seq[:7] + seq[14:]) == {"kind": "undetermined"}  # 7 entries above the floor are too few


def test_rate_fit_has_no_rate_for_a_tail_that_has_not_moved():
    # a drift of 1e-12 a step under a wobble of 1e-10: the fit's decay is within its misfit (it read geometric)
    flat = [2.0 - 1e-12 * n + 1e-10 * (n % 2) for n in range(1, 201)]
    # constant at 2, as an irreducible periodic chain's raw distances: no decay at all
    for seq in (flat, [2.0] * 40):
        assert rate_fit(seq) == {"kind": "undetermined"}


def test_rate_fit_keeps_a_slow_clean_decay():
    # two states that swap with probability 2^-40: the raw distances are (1 - 2^-39)^n exactly
    eps = 2.0**-40
    k = TransitionKernel.finite([[1.0 - eps, eps], [eps, 1.0 - eps]])
    rate = ergodic_run(k, 200, invariant_basis_finite(k))["raw"]["rate"]
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
        rate = ergodic_run(k, 48, invariant_basis_finite(k))["raw"]["rate"]
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
    sw = swap2()
    section = ergodic_run(sw, 20, invariant_basis_finite(sw))
    assert section["projector"] == projector_finite(sw, invariant_basis_finite(sw))[0]
    assert len(section["cesaro"]["distances"]) == len(section["raw"]["distances"]) == 20


def test_projector_rank_equals_basis_dimension():
    # the projector's classes are the chain's closed classes, one rank per class
    for k in (two_absorbing(), TransitionKernel.finite(np.eye(3)), birth_death(4, 0.3, 0.3)):
        section, _ = projector_finite(k, invariant_basis_finite(k))
        classes = invariants.recurrent_classes(k)
        assert section["classes"] == [list(c) for c in classes]
        assert section["rank"] == len(classes)


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
    monkeypatch.setattr(invariants, "recurrent_classes", rc)
    monkeypatch.setattr(invariants, "stationary_of_class", sc)
    run_analysis(AnalysisRequest(catalog="two_absorbing", tasks=("invariants", "ergodic"), n_max=30))
    assert calls == {"recurrent_classes": 1, "stationary_of_class": 2}


def test_projector_rejects_non_finite_absorption():
    # transient states 0 and 1 leave only through a subnormal probability
    m = np.array([[0.5, 0.5 - 1e-310, 1e-310], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    k = TransitionKernel.finite(m)
    assert invariants.states_outside(invariants.recurrent_classes(k), 3) == (0, 1)
    with pytest.raises(NumericalError, match=r"transient states \[0, 1\]"):
        projector_finite(k, invariant_basis_finite(k))


def test_projector_factors_rebuild_the_matrix(tmp_path):
    # the section is the report's ergodic.projector, byte for byte, and H·Π rebuilt from it is P
    chains = (two_absorbing(), swap2(), birth_death(6, 0.3, 0.2), TransitionKernel.finite(np.eye(3)))
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = rng.random((7, 7)) * (rng.random((7, 7)) < 0.4)
        m[[0, 3], :] = 0.0
        m[0, 0] = m[3, 3] = 1.0  # two absorbing states; the rest may be transient
        m[m.sum(axis=1) == 0.0, 0] = 1.0
        chains += (TransitionKernel.finite(m / m.sum(axis=1, keepdims=True)),)
    for idx, k in enumerate(chains):
        section, p = projector_finite(k, invariant_basis_finite(k))
        spec = tmp_path / f"chain{idx}.json"
        spec.write_text(json.dumps(kernel_to_spec(k)), encoding="utf-8")
        report = report_json(run_analysis(AnalysisRequest(chain_path=str(spec), tasks=("ergodic",), n_max=8)))
        data = json.loads(report)["ergodic"]["projector"]
        assert json.dumps(section, sort_keys=True) == json.dumps(data, sort_keys=True)
        h = np.zeros((k.size, data["rank"]))
        pi = np.zeros((data["rank"], k.size))
        for i, (states, law) in enumerate(zip(data["classes"], data["stationary"])):
            h[states, i] = 1.0
            for x, w in law["atoms"].items():
                pi[i, int(x)] = w
        for x, row in data["absorption"].items():
            h[int(x)] = row
        assert sorted(int(x) for x in data["absorption"]) == list(invariants.transient_states(k))
        assert np.abs(h @ pi - p).max() <= 1e-15


def test_projector_times_solve_their_equations():
    rng = np.random.default_rng(8)
    chains = [two_absorbing(), birth_death(30, 0.3, 0.2), cycle(4), TransitionKernel.finite(np.eye(2))]
    for _ in range(10):
        m = rng.random((8, 8)) * (rng.random((8, 8)) < 0.4)
        m[[0, 3], 4:] = 0.0  # {0..3} may hold closed classes fed by the rest
        m[m.sum(axis=1) == 0.0, 0] = 1.0
        chains.append(TransitionKernel.finite(m / m.sum(axis=1, keepdims=True)))
    for k in chains:
        section, _ = projector_finite(k, invariant_basis_finite(k))
        p = k.matrix
        absorption_times = {int(x): t for x, t in section["absorption_times"].items()}
        trans = sorted(absorption_times)
        assert trans == sorted(map(int, section["absorption"])) == list(invariants.transient_states(k))
        t = np.array([absorption_times[x] for x in trans])
        assert np.abs(t - p[np.ix_(trans, trans)] @ t - 1.0).max(initial=0.0) <= 1e-12 * t.max(initial=1.0)
        for c, law, hitting in zip(section["classes"], section["stationary"], section["hitting_times"]):
            times = {int(x): t for x, t in hitting.items()}
            (anchor,) = set(c) - set(times)
            assert law["atoms"][str(anchor)] == max(law["atoms"].values())
            rest = sorted(times)
            h = np.array([times[x] for x in rest])
            assert np.abs(h - p[np.ix_(rest, rest)] @ h - 1.0).max(initial=0.0) <= 1e-12 * h.max(initial=1.0)


def test_distance_series_is_the_sequential_loop():
    from test_kernels import sequential_powers, table_matrices

    chains = [two_absorbing(), swap2(), birth_death(30, 0.3, 0.2)]
    chains += [TransitionKernel.finite(m) for m in table_matrices(29, 8, subnormals=False)]
    for k in chains:
        p = limit(k)
        cesaro, raw = distance_series(k, 40, p)
        ref = sequential_powers(k.matrix, 40)
        assert raw == [float(np.abs(cur - p).sum(axis=1).max()) for cur, _ in ref]
        assert cesaro == [float(np.abs(acc / n - p).sum(axis=1).max()) for n, (_, acc) in enumerate(ref, 1)]


def test_distance_series_keeps_the_bits_of_the_textbook_reduction():
    from test_kernels import sequential_powers

    # a stack holds STACK_ENTRIES // n² steps: one from 182 states on, two at 181
    entries = ergodic.STACK_ENTRIES
    assert entries // 182**2 == 1 and entries // 181**2 == 2 and entries // 90**2 == 8
    rng = np.random.default_rng(41)
    fortran = lambda n: TransitionKernel.finite(np.asfortranarray(random_kernel(rng, n).matrix))
    cases = [(random_kernel(rng, n), 50) for n in (1, 2, 7, 33)]  # n_max below one stack
    cases += [(random_kernel(rng, 90), 50), (fortran(90), 50)]  # stacks of 8, the last one of 2
    cases += [(random_kernel(rng, 33), 130), (birth_death(60, 0.3, 0.2), 50), (fortran(12), 50)]
    cases += [(random_kernel(rng, 181), 5), (random_kernel(rng, 182), 3), (random_kernel(rng, 257), 2)]
    cases += [(random_kernel(rng, n), 1) for n in (1, 12, 182)]
    for k, n_max in cases:
        p = limit(k)
        cesaro, raw = distance_series(k, n_max, p)
        ref = sequential_powers(k.matrix, n_max)
        assert [d.hex() for d in raw] == [float(np.abs(cur - p).sum(axis=1).max()).hex() for cur, _ in ref]
        assert [d.hex() for d in cesaro] == [
            float(np.abs(acc / n - p).sum(axis=1).max()).hex() for n, (_, acc) in enumerate(ref, 1)
        ]


def test_distance_series_keeps_the_bits_of_the_textbook_reduction_on_paneled_chains():
    from test_kernels import banded_matrix

    # a stack of two steps at 150 and 181 states, of one at 182; the reference reads the paneled powers
    assert [ergodic.STACK_ENTRIES // n**2 for n in (150, 181, 182)] == [2, 2, 1]
    rng = np.random.default_rng(47)
    cases = [(birth_death(150, 0.3, 0.2), 41), (TransitionKernel.finite(banded_matrix(rng, 181, 2)), 5)]
    cases += [(TransitionKernel.finite(banded_matrix(rng, 182, 3)), 3)]
    for k, n_max in cases:
        assert kernels._panels(k.matrix) is not None
        p = limit(k)
        cesaro, raw = distance_series(k, n_max, p)
        ref = [(cur, acc.copy()) for cur, acc in itertools.islice(kernels.powers(k), n_max)]
        assert [d.hex() for d in raw] == [float(np.abs(cur - p).sum(axis=1).max()).hex() for cur, _ in ref]
        assert [d.hex() for d in cesaro] == [
            float(np.abs(acc / n - p).sum(axis=1).max()).hex() for n, (_, acc) in enumerate(ref, 1)
        ]


@pytest.mark.parametrize("n_max", [1, 7, 200])
def test_distance_series_reads_n_max_steps_of_the_powers(power_steps, n_max):
    k = birth_death(15, 0.3, 0.2)
    p = limit(k)
    power_steps.clear()
    cesaro, raw = distance_series(k, n_max, p)
    assert power_steps == [15] * n_max
    assert len(cesaro) == len(raw) == n_max


def test_hitting_time_solve_rejects_a_singular_class():
    # the two states of one class swap only with a subnormal probability
    k = TransitionKernel.finite([[1.0, 1e-310], [1e-310, 1.0]])
    with pytest.raises(NumericalError, match=r"hitting times of state 0 from states \[1\]"):
        projector_finite(k, invariant_basis_finite(k))
