"""Invariant bases, end-charge detection, averaged sequences, escape profiles."""

import numpy as np
import pytest

from chargechain import (
    END_NEG,
    END_POS,
    FAMeasure,
    apply_A,
    PreconditionError,
    TailRow,
    TransitionKernel,
    cesaro_sequence,
    classify_invariant,
    detect_ca_countable,
    detect_pfa_ends,
    dirac,
    drift_walk_N,
    end_charge,
    escape_profile,
    evaluate,
    from_vector,
    grid_unit_interval,
    invariance_residual,
    invariant_basis,
    invariant_basis_finite,
    measurable,
    recurrent_classes,
    restart_walk,
    split_parts_invariant,
    stationary_of_class,
    swap2,
    symmetric_walk_Z,
    transient_states,
    two_absorbing,
)
from chargechain.catalog import REGISTRY

RES_TOL = 1e-10


def test_recurrent_classes_examples():
    sw = swap2()
    classes = recurrent_classes(sw)
    assert len(classes) == 1
    assert classes[0].states == (0, 1) and classes[0].period == 2

    ident = TransitionKernel.finite(np.eye(3))
    classes = recurrent_classes(ident)
    assert [c.states for c in classes] == [(0,), (1,), (2,)]
    assert all(c.period == 1 for c in classes)

    ta = two_absorbing()
    classes = recurrent_classes(ta)
    assert [c.states for c in classes] == [(0,), (2,)]
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
    for cert in basis.pairwise:
        assert cert.disjoint and cert.singular and cert.witnesses is not None


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


def test_invariant_existence_across_catalog():
    for name, entry in REGISTRY.items():
        basis = invariant_basis(entry.build())
        assert basis.dimension >= 1, f"{name} produced an empty invariant set"
        for mu in basis.measures:
            assert invariance_residual(entry.build(), mu) <= RES_TOL


def test_mixture_parts_individually_invariant():
    # chain with an absorbing atom and a drifting tail: both kinds coexist
    tail = TailRow(relative={1: 1.0})
    k = TransitionKernel.walk("N", exceptions={0: {0: 1.0}}, tails={END_POS: tail})
    mix = dirac(k.space, 0) * 0.5 + end_charge(k.space, END_POS) * 0.5
    assert invariance_residual(k, mix) <= RES_TOL
    res_ca, res_pfa = split_parts_invariant(k, mix)
    assert res_ca <= RES_TOL and res_pfa <= RES_TOL

    slow_grid = grid_unit_interval(8, p_toward_zero=0.35)
    basis = invariant_basis(slow_grid)
    assert basis.kinds == ["ca", "pfa"]
    mix2 = basis.measures[0] * 0.5 + basis.measures[1] * 0.5
    res_ca, res_pfa = split_parts_invariant(slow_grid, mix2)
    assert res_ca <= RES_TOL and res_pfa <= RES_TOL


def test_cesaro_sequence_identity_fixed_point():
    ident = TransitionKernel.finite(np.eye(3))
    mu0 = from_vector(ident.space, [0.2, 0.3, 0.5])
    for lam in cesaro_sequence(ident, mu0, 6):
        assert (lam - mu0).total_variation() <= 1e-12


def test_cesaro_sequence_swap_alternation():
    sw = swap2()
    seq = cesaro_sequence(sw, dirac(sw.space, 0), 9)
    for i, lam in enumerate(seq):
        n = i + 1
        assert lam.atoms.get(0, 0.0) == pytest.approx((n // 2) / n, abs=1e-12)
        assert lam.atoms.get(1, 0.0) == pytest.approx(((n + 1) // 2) / n, abs=1e-12)
        assert lam.is_probability()


def test_cesaro_sequence_drift_window_mass():
    dw = drift_walk_N(1.0)
    seq = cesaro_sequence(dw, dirac(dw.space, 0), 20)
    k5 = measurable(dw.space, atoms=range(6))  # {0..5}
    for i, lam in enumerate(seq):
        n = i + 1
        assert evaluate(lam, k5) == pytest.approx(min(n, 5) / n, abs=1e-12)


def test_cesaro_sequence_truncation_routes_overflow():
    dw = drift_walk_N(1.0)
    seq = cesaro_sequence(dw, dirac(dw.space, 0), 12, window=4)
    lam = seq[-1]
    # mass beyond the window accumulated at the end bucket
    assert lam.ends[END_POS] > 0.0
    assert lam.is_probability()


def test_cesaro_sequence_keeps_end_leaks_to_fixed_targets():
    tail = TailRow(relative={1: 0.5}, to_finite={50: 0.5})
    k = TransitionKernel.walk("N", tails={END_POS: tail})
    start = end_charge(k.space, END_POS)
    seq = cesaro_sequence(k, start, 5)
    cur, acc = start, FAMeasure(k.space)
    for n, lam in enumerate(seq, start=1):
        cur = apply_A(k, cur)
        acc = acc + cur
        assert lam.is_probability()
        assert (lam - acc * (1.0 / n)).total_variation() <= 1e-12
    # under a window that misses state 50 the leak is overflow: it lands in the +inf bucket
    for lam in cesaro_sequence(k, start, 5, window=10):
        assert lam.is_probability() and lam.ends == {END_POS: 1.0} and not lam.atoms


def test_escape_profile_drift_exact():
    dw = drift_walk_N(1.0)
    prof = escape_profile(dw, dirac(dw.space, 0), n_max=400, windows=(4, 8, 16))
    for m, seq in prof.windows:
        for i, v in enumerate(seq):
            n = i + 1
            assert v == pytest.approx(min(n, m) / n, abs=1e-12)
    assert prof.per_end_split == {END_POS: 1.0}
    # window masses are monotone in m at fixed n
    for i in range(399):
        masses = [seq[i] for _, seq in prof.windows]
        assert masses == sorted(masses)


def test_escape_profile_restart_recycles_mass():
    rw = restart_walk(0.1)
    prof = escape_profile(rw, dirac(rw.space, 0), n_max=200, windows=(16, 32, 64))
    assert prof.pfa_mass_estimate <= 0.05


def test_escape_profile_symmetric_split():
    sz = symmetric_walk_Z()
    prof = escape_profile(sz, dirac(sz.space, 0), n_max=2000, windows=(8, 16, 32))
    assert prof.per_end_split[END_POS] == pytest.approx(0.5, abs=1e-12)
    assert prof.per_end_split[END_NEG] == pytest.approx(0.5, abs=1e-12)


def test_escape_rejects_bad_starts():
    sz = symmetric_walk_Z()
    with pytest.raises(PreconditionError):
        escape_profile(sz, end_charge(sz.space, END_POS), 10, (4,))


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


def test_window_engine_matches_direct_application():
    from chargechain.invariants import _WindowEngine

    tail_pos = TailRow(relative={1: 0.8, -2: 0.2})
    tail_neg = TailRow(relative={-1: 0.6}, to_finite={0: 0.4})
    k = TransitionKernel.walk("Z", tails={END_POS: tail_pos, END_NEG: tail_neg})
    engine = _WindowEngine(k, 30)
    rng = np.random.default_rng(0)
    atoms = {int(x): float(w) for x, w in zip(rng.integers(-20, 21, 8), rng.random(8))}
    mu = FAMeasure(k.space, atoms=atoms)
    stepped = engine.step(engine.load_atoms(mu))
    assert stepped[0] == stepped[-1] == 0.0  # nothing near the boundary yet
    got = FAMeasure(k.space, atoms=engine.atoms(stepped))
    assert (got - apply_A(k, mu)).total_variation() <= 1e-15
