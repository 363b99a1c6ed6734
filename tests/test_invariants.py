"""Invariant bases, end-charge detection, averaged sequences, escape profiles."""

import math

import numpy as np
import pytest

from chargechain import (
    AnalysisRequest,
    END_NEG,
    END_POS,
    FAMeasure,
    apply_A,
    PreconditionError,
    TailRow,
    TransitionKernel,
    check_beta,
    classify_invariant,
    detect_ca_countable,
    detect_pfa_ends,
    drift_walk_N,
    escape_profile,
    evaluate,
    grid_unit_interval,
    invariance_residual,
    invariant_basis,
    invariant_basis_finite,
    measurable,
    measure_from_json,
    recurrent_classes,
    restart_walk,
    run_analysis,
    stationary_of_class,
    swap2,
    symmetric_walk_Z,
    transient_states,
    truncate,
    two_absorbing,
)
from chargechain.catalog import REGISTRY, build
from chargechain.measures import tv_distance
from oracles import dirac, end_charge, from_vector

RES_TOL = 1e-10


def test_recurrent_classes_examples():
    sw = swap2()
    classes = recurrent_classes(sw)
    assert len(classes) == 1
    assert classes[0] == (0, 1) and classify_invariant(sw, stationary_of_class(sw, classes[0])).period == 2

    ident = TransitionKernel.finite(np.eye(3))
    classes = recurrent_classes(ident)
    assert classes == [(0,), (1,), (2,)]
    assert all(classify_invariant(ident, stationary_of_class(ident, c)).kind == "simple" for c in classes)

    ta = two_absorbing()
    classes = recurrent_classes(ta)
    assert classes == [(0,), (2,)]
    assert transient_states(ta) == (1,)


def test_basis_birth_death_example():
    k = TransitionKernel.finite([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
    basis = invariant_basis_finite(k)
    assert basis.dimension == 1
    pi = basis.measures[0]
    # independent check: detailed balance pi(i) p(i, i+1) = pi(i+1) p(i+1, i)
    assert pi.atoms[0] * 0.5 == pytest.approx(pi.atoms[1] * 0.25, abs=1e-12)
    assert pi.atoms[1] * 0.25 == pytest.approx(pi.atoms[2] * 0.5, abs=1e-12)
    assert pi.atoms == pytest.approx({0: 0.25, 1: 0.5, 2: 0.25})
    assert invariance_residual(k, pi) <= RES_TOL


def test_basis_identity_and_absorbing():
    ident = TransitionKernel.finite(np.eye(2))
    basis = invariant_basis_finite(ident)
    assert basis.dimension == 2
    assert [m.atoms for m in basis.measures] == [{0: 1.0}, {1: 1.0}]

    ta = two_absorbing()
    basis = invariant_basis_finite(ta)
    assert basis.dimension == 2
    assert [m.atoms for m in basis.measures] == [{0: 1.0}, {2: 1.0}]
    beta = check_beta(basis)
    assert beta["holds"]
    assert [(w["i"], w["j"], sorted(w["d1"]["atoms"]), sorted(w["d2"]["atoms"])) for w in beta["witnesses"]] == [
        (0, 1, [0], [2])
    ]


def test_every_basis_measure_is_invariant():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        m = rng.random((n, n)) + 1e-3
        k = TransitionKernel.finite(m / m.sum(axis=1, keepdims=True))
        basis = invariant_basis_finite(k)
        assert basis.dimension == len(recurrent_classes(k))
        for mu in basis.measures:
            assert invariance_residual(k, mu) <= RES_TOL
            assert mu.is_probability()


def test_detect_pfa_ends_examples():
    assert [c.ends for c in detect_pfa_ends(drift_walk_N(1.0))] == [{END_POS: 1.0}]
    assert detect_pfa_ends(restart_walk(0.1)) == []
    charges = detect_pfa_ends(symmetric_walk_Z())
    assert [c.ends for c in charges] == [{END_POS: 1.0}, {END_NEG: 1.0}]
    for c in charges:
        assert invariance_residual(symmetric_walk_Z(), c) == 0.0


def test_detect_pfa_cross_end_cycle():
    # the two ends push mass into each other with no finite leak:
    # one closed pair carrying a single invariant charge split between them
    tail_pos = TailRow(relative={1: 0.75}, to_other_end={END_NEG: 0.25})
    tail_neg = TailRow(relative={-1: 0.25}, to_other_end={END_POS: 0.75})
    k = TransitionKernel.walk("Z", tails={END_POS: tail_pos, END_NEG: tail_neg})
    charges = detect_pfa_ends(k)
    assert len(charges) == 1
    assert charges[0].ends == pytest.approx({END_POS: 0.75, END_NEG: 0.25})
    assert invariance_residual(k, charges[0]) <= RES_TOL


def test_detect_ca_countable():
    found = detect_ca_countable(restart_walk(0.1))
    assert len(found) == 1
    mu = found[0]
    assert invariance_residual(restart_walk(0.1), mu) <= RES_TOL
    # geometric shape: successive atom ratios near 0.9
    assert mu.atoms[5] / mu.atoms[4] == pytest.approx(0.9, abs=1e-6)
    assert detect_ca_countable(drift_walk_N(1.0)) == []
    assert detect_ca_countable(symmetric_walk_Z()) == []


def l1_to(mu: FAMeasure, law) -> float:
    """l1 distance from mu to the law x -> law(x) on 0..2999, where both are negligible past."""
    return math.fsum(abs(mu.atoms.get(x, 0.0) - law(x)) for x in range(3000))


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_ca_of_restart_walk_is_its_geometric_law(alpha):
    (mu,) = detect_ca_countable(restart_walk(alpha))
    assert l1_to(mu, lambda x: alpha * (1 - alpha) ** x) <= 1e-9


@pytest.mark.parametrize("p", [0.1, 0.3, 0.40, 0.45, 0.48])
def test_ca_of_positive_recurrent_drift_walk_is_its_geometric_law(p):
    r = p / (1 - p)
    (mu,) = detect_ca_countable(drift_walk_N(p))
    # the truncation to 0..256 holds the law up to its mass past 256, r^257: twice that bounds the l1 gap
    # (2.3e-9 at p = 0.48, under 1e-22 at p <= 0.45)
    assert l1_to(mu, lambda x: (1 - r) * r**x) <= 1e-9 + 2 * r**257


@pytest.mark.parametrize("kernel", [drift_walk_N(0.5), drift_walk_N(0.55), drift_walk_N(1.0), symmetric_walk_Z()])
def test_null_recurrent_or_transient_walk_has_no_ca_invariant(kernel):
    assert detect_ca_countable(kernel) == []


def test_ca_of_inward_Z_walk_lies_in_the_truncation():
    # a birth-death chain on Z: pi_n = (4/21)(3/7)^n for n >= 0, pi_-k = (4/21)(7/6)(2/3)^(k-1) for k >= 1
    k = TransitionKernel.walk(
        "Z", tails={END_POS: TailRow(relative={-1: 0.7, 1: 0.3}), END_NEG: TailRow(relative={1: 0.6, -1: 0.4})}
    )
    (mu,) = detect_ca_countable(k)
    assert -128 <= min(mu.atoms) and max(mu.atoms) <= 128
    law = {n: 4 / 21 * (3 / 7) ** n for n in range(200)}
    law.update({-j: 4 / 21 * 7 / 6 * (2 / 3) ** (j - 1) for j in range(1, 200)})
    assert math.fsum(abs(mu.atoms.get(x, 0.0) - w) for x, w in law.items()) <= 1e-9


def test_ca_gives_one_law_per_certified_class():
    # classes {0, 1} and {2}; the states past 2 drift off to +inf
    k = TransitionKernel.walk(
        "N", exceptions={0: {1: 1.0}, 1: {0: 1.0}, 2: {2: 1.0}}, tails={END_POS: TailRow(relative={1: 1.0})}
    )
    assert [mu.atoms for mu in detect_ca_countable(k)] == [{0: 0.5, 1: 0.5}, {2: 1.0}]


def test_ca_detection_steps_no_window(monkeypatch):
    import chargechain.invariants
    import chargechain.kernels

    original = chargechain.kernels.truncate

    def refuse(kernel, lo, hi, ends=False):
        if ends:
            raise AssertionError("CA detection built the escape profile's window matrix")
        return original(kernel, lo, hi, ends)

    for module in (chargechain.invariants, chargechain.kernels):
        monkeypatch.setattr(module, "truncate", refuse)
    assert len(detect_ca_countable(restart_walk(0.1))) == 1
    assert len(detect_ca_countable(drift_walk_N(0.45))) == 1


def test_invariant_existence_across_catalog():
    for name in REGISTRY:
        basis = invariant_basis(build(name))
        assert basis.dimension >= 1, f"{name} produced an empty invariant set"
        for mu in basis.measures:
            assert invariance_residual(build(name), mu) <= RES_TOL


def test_mixture_parts_individually_invariant():
    # chain with an absorbing atom and a drifting tail: both kinds coexist
    tail = TailRow(relative={1: 1.0})
    k = TransitionKernel.walk("N", exceptions={0: {0: 1.0}}, tails={END_POS: tail})
    mix = dirac(k.space, 0) * 0.5 + end_charge(k.space, END_POS) * 0.5
    assert invariance_residual(k, mix) <= RES_TOL
    for part in (FAMeasure(k.space, mix.atoms), FAMeasure(k.space, ends=mix.ends)):
        assert invariance_residual(k, part) <= RES_TOL

    slow_grid = grid_unit_interval(8, p_toward_zero=0.35)
    basis = invariant_basis(slow_grid)
    assert basis.kinds == ["ca", "pfa"]
    mix2 = basis.measures[0] * 0.5 + basis.measures[1] * 0.5
    for part in (FAMeasure(slow_grid.space, mix2.atoms), FAMeasure(slow_grid.space, ends=mix2.ends)):
        assert invariance_residual(slow_grid, part) <= RES_TOL


def cesaro_means(kernel, mu0, n):
    """The averaged sequence (A mu0 + ... + A^k mu0) / k for k = 1..n, by iterating ``apply_A``."""
    out, cur, acc = [], mu0, FAMeasure(kernel.space)
    for k in range(1, n + 1):
        cur = apply_A(kernel, cur)
        acc = acc + cur
        out.append(acc * (1.0 / k))
    return out


def test_cesaro_sequence_identity_fixed_point():
    ident = TransitionKernel.finite(np.eye(3))
    mu0 = from_vector(ident.space, [0.2, 0.3, 0.5])
    for lam in cesaro_means(ident, mu0, 6):
        assert tv_distance(lam, mu0) <= 1e-12


def test_cesaro_sequence_swap_alternation():
    sw = swap2()
    seq = cesaro_means(sw, dirac(sw.space, 0), 9)
    for i, lam in enumerate(seq):
        n = i + 1
        assert lam.atoms.get(0, 0.0) == pytest.approx((n // 2) / n, abs=1e-12)
        assert lam.atoms.get(1, 0.0) == pytest.approx(((n + 1) // 2) / n, abs=1e-12)
        assert lam.is_probability()


def test_cesaro_sequence_drift_window_mass():
    dw = drift_walk_N(1.0)
    seq = cesaro_means(dw, dirac(dw.space, 0), 20)
    k5 = measurable(dw.space, atoms=range(6))  # {0..5}
    for i, lam in enumerate(seq):
        n = i + 1
        assert evaluate(lam, k5) == pytest.approx(min(n, 5) / n, abs=1e-12)


def test_cesaro_sequence_keeps_end_leaks_to_fixed_targets():
    # the charge keeps half its mass at each step and leaks the rest to state 50, whose mass walks on
    tail = TailRow(relative={1: 0.5}, to_finite={50: 0.5})
    k = TransitionKernel.walk("N", tails={END_POS: tail})
    for n, lam in enumerate(cesaro_means(k, end_charge(k.space, END_POS), 5), start=1):
        assert lam.is_probability()
        assert lam.ends[END_POS] == pytest.approx(sum(0.5**j for j in range(1, n + 1)) / n, abs=1e-15)
        assert lam.atoms[50] == pytest.approx(0.5, abs=1e-15)  # half of every step's mass lands there


def test_escape_profile_drift_exact():
    dw = drift_walk_N(1.0)
    prof = escape_profile(dw, n_max=400, windows=(4, 8, 16))
    assert prof["checkpoints"] == [1, 2, 4, 8, 16, 32, 64, 128, 256, 400]
    for m, seq in prof["windows"]:
        assert len(seq) == len(prof["checkpoints"])
        for n, v in zip(prof["checkpoints"], seq):
            assert v == pytest.approx(min(n, m) / n, abs=1e-12)
    assert prof["per_end_split"] == {END_POS: 1.0}
    # window masses are monotone in m at fixed n
    for masses in zip(*(seq for _, seq in prof["windows"])):
        assert list(masses) == sorted(masses)


def test_escape_profile_restart_recycles_mass():
    rw = restart_walk(0.1)
    prof = escape_profile(rw, n_max=200, windows=(16, 32, 64))
    assert prof["pfa_mass_estimate"] <= 0.05


def test_escape_profile_returns_the_restart_walks_mass():
    # the mass past the window restarts at 0 as the walk's does: what escapes is the law's mass past 32,
    # 0.9^33, where the absorbing buckets of schema 7 reported 0.844
    report = run_analysis(AnalysisRequest(catalog="restart_walk", n_max=2000))
    assert report["invariants"]["kinds"] == ["ca"] and report["conditions"]["star"]["holds"]
    law = measure_from_json(restart_walk(0.1).space, report["invariants"]["measures"][0])
    estimate = report["escape"]["pfa_mass_estimate"]
    assert abs(estimate - 0.9**33) <= 1e-3
    assert abs(estimate - (1.0 - evaluate(law, measurable(law.space, atoms=range(33))))) <= 1e-3


# pfa_mass_estimate at n_max = 2000, windows 8, 16, 32, from the absorbing end buckets of schema 7
SCHEMA_7_ESTIMATES = {
    "symmetric_walk_Z": (symmetric_walk_Z, 0.5141877596798059),
    "drift_walk_N(1.0)": (lambda: drift_walk_N(1.0), 0.984),
    "grid_unit_interval": (grid_unit_interval, 0.9601874999999993),
}


@pytest.mark.parametrize("name", sorted(SCHEMA_7_ESTIMATES))
def test_escape_estimate_without_returning_mass_stays_put(name):
    build, before = SCHEMA_7_ESTIMATES[name]
    kernel = build()
    prof = escape_profile(kernel, 2000, (8, 16, 32))
    assert abs(prof["pfa_mass_estimate"] - before) < 1e-3


def test_escape_profile_symmetric_split():
    sz = symmetric_walk_Z()
    prof = escape_profile(sz, n_max=2000, windows=(8, 16, 32))
    assert prof["per_end_split"][END_POS] == pytest.approx(0.5, abs=1e-12)
    assert prof["per_end_split"][END_NEG] == pytest.approx(0.5, abs=1e-12)


def test_classification_examples():
    sw = swap2()
    c = classify_invariant(sw, from_vector(sw.space, [0.5, 0.5]))
    assert (c.kind, c.period) == ("composite", 2)

    u2 = TransitionKernel.finite([[0.5, 0.5], [0.5, 0.5]])
    assert classify_invariant(u2, from_vector(u2.space, [0.5, 0.5])).kind == "simple"

    from chargechain import cycle

    c3 = cycle(3)
    c = classify_invariant(c3, from_vector(c3.space, [1 / 3] * 3))
    assert (c.kind, c.period) == ("composite", 3)


def test_classification_requires_invariance():
    sw = swap2()
    with pytest.raises(PreconditionError):
        classify_invariant(sw, dirac(sw.space, 0))


def test_stationary_of_class_on_subchain():
    ta = two_absorbing()
    pi = stationary_of_class(ta, (0,))
    assert pi.atoms == {0: 1.0}


def test_window_matrix_matches_direct_application():
    tail_pos = TailRow(relative={1: 0.8, -2: 0.2})
    tail_neg = TailRow(relative={-1: 0.6}, to_finite={0: 0.4})
    k = TransitionKernel.walk("Z", tails={END_POS: tail_pos, END_NEG: tail_neg})
    w = truncate(k, -30, 30, ends=True)  # cells: the -inf bucket, the states -30..30, the +inf bucket
    rng = np.random.default_rng(0)
    atoms = {int(x): float(p) for x, p in zip(rng.integers(-20, 21, 8), rng.random(8))}
    mu = FAMeasure(k.space, atoms=atoms)
    v = np.zeros(63)
    for x, p in atoms.items():
        v[x + 31] += p
    stepped = v @ w
    assert stepped[0] == stepped[-1] == 0.0  # nothing near the boundary yet
    got = FAMeasure(k.space, atoms={x: float(stepped[x + 31]) for x in range(-30, 31)})
    assert tv_distance(got, apply_A(k, mu)) <= 1e-15
