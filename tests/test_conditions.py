"""Condition checkers: small-set bounds, witness search, qualitative conditions."""

import numpy as np
import pytest

import chargechain.conditions as conditions
import chargechain.invariants as invariants
from chargechain import (
    AnalysisRequest,
    CapacityError,
    FAMeasure,
    PreconditionError,
    TransitionKernel,
    apply_A,
    birth_death,
    check_alpha,
    check_beta,
    check_doeblin,
    check_doeblin_tilde,
    check_double_star,
    check_star,
    check_tilde_star,
    doeblin_truncation_trend,
    drift_walk_N,
    evaluate,
    invariant_basis,
    invariant_basis_finite,
    kernel_power,
    measurable,
    quasicompact_diagnostic,
    restart_walk,
    run_analysis,
    search_doeblin,
    swap2,
    symmetric_walk_Z,
    truncate_reflecting,
    two_absorbing,
)
from oracles import dirac, from_vector, prob

TOL = 1e-12


def uniform2():
    return TransitionKernel.finite([[0.5, 0.5], [0.5, 0.5]])


def half_half(kernel):
    return from_vector(kernel.space, [0.5, 0.5])


# -- small-set checks ---------------------------------------------------------------

def test_doeblin_uniform_holds():
    k = uniform2()
    out = check_doeblin(k, half_half(k), eps=0.5, k=1)
    assert out.holds and not out.vacuous
    assert out.max_value == pytest.approx(0.5)


def test_doeblin_swap_counterexample_exact():
    k = swap2()
    out = check_doeblin(k, half_half(k), eps=0.5, k=1)
    assert not out.holds
    e, x, value = out.counterexample
    assert sorted(e.atoms) == [1]
    assert x == 0
    assert value == 1.0


def test_doeblin_swap_vacuous_at_smaller_eps():
    k = swap2()
    out = check_doeblin(k, half_half(k), eps=0.4, k=1)
    assert out.holds and out.vacuous


def test_doeblin_tilde_swap_averaged():
    k = swap2()
    out = check_doeblin_tilde(k, half_half(k), eps=0.5, m=2)
    assert out.holds  # averaged kernel is uniform; strict admission leaves only the empty set


def test_doeblin_tilde_counting_vacuous():
    k = uniform2()
    phi = FAMeasure(k.space, atoms={0: 1.0, 1: 1.0})
    out = check_doeblin_tilde(k, phi, eps=0.9, m=1)
    assert out.holds and out.vacuous


def test_order_one_checkers_agree_up_to_admission():
    # q_1 = p, so the only difference is the strict vs non-strict phi test
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        m = rng.random((n, n)) + 1e-3
        k = TransitionKernel.finite(m / m.sum(axis=1, keepdims=True))
        phi = from_vector(k.space, np.full(n, 1.0 / n))
        eps = 0.37  # equals no subset sum of a 1/n grid for n <= 5
        a = check_doeblin(k, phi, eps, 1)
        b = check_doeblin_tilde(k, phi, eps, 1)
        if not a.vacuous and not b.vacuous:
            assert a.holds == b.holds


def test_doeblin_capacity_cap():
    k = TransitionKernel.finite(np.eye(23))
    phi = from_vector(k.space, np.full(23, 1.0 / 23))
    with pytest.raises(CapacityError):
        check_doeblin(k, phi, 0.1, 1)


def test_doeblin_checks_validate_before_forming_a_power(power_steps):
    k = birth_death(17, 0.3, 0.2)
    counting = FAMeasure(k.space, atoms={x: 1.0 for x in range(17)})
    for check in (check_doeblin, check_doeblin_tilde):
        assert check(k, counting, 0.5, 5).vacuous  # the counting phi admits no state
    assert power_steps == []
    # a tampered witness on an over-cap chain fails before a single product
    big = birth_death(23, 0.3, 0.2)
    phi = from_vector(big.space, np.full(23, 1.0 / 23))
    for check in (check_doeblin, check_doeblin_tilde):
        with pytest.raises(CapacityError):
            check(big, phi, 0.5, 5)
    # and so does the search, which leaves a "capacity" finding
    for averaged in (False, True):
        with pytest.raises(CapacityError, match="capped at 22"):
            search_doeblin(big, invariant_basis(big), averaged=averaged)
    section = conditions.build_condition_report(big)
    assert section["D"]["kind"] == section["D_tilde"]["kind"] == "capacity"
    assert power_steps == []
    assert check_doeblin(k, from_vector(k.space, np.full(17, 1.0 / 17)), 0.5, 3).max_value > 0.0
    assert len(power_steps) == 3  # a checked witness still forms its power


def test_signed_phi_rejected():
    k = uniform2()
    with pytest.raises(PreconditionError):
        check_doeblin(k, from_vector(k.space, [0.5, -0.5]), 0.5, 1)


# -- witness search -------------------------------------------------------------------

def test_search_uniform_finds_nonvacuous():
    k = uniform2()
    w = search_doeblin(k, invariant_basis(k))
    assert w is not None and not w.vacuous
    assert w.k == 1 and w.eps == 0.5
    out = check_doeblin(k, w.phi, w.eps, w.k)
    assert out.holds and not out.vacuous


def test_search_swap_falls_back_to_vacuous():
    k = swap2()
    w = search_doeblin(k, invariant_basis(k))
    assert w is not None and w.vacuous
    out = check_doeblin(k, w.phi, w.eps, w.k)
    assert out.holds and out.vacuous


def test_search_identity_vacuous_below_singleton_mass():
    k = TransitionKernel.finite(np.eye(2))
    w = search_doeblin(k, invariant_basis(k))
    assert w is not None and w.vacuous
    # admissible nonempty sets would need eps at or above the singleton mass
    assert w.eps < min(w.phi.atoms.values())
    assert check_doeblin(k, w.phi, w.eps, w.k).holds


def test_search_two_absorbing_uses_zero_mass_transient():
    k = two_absorbing()
    w = search_doeblin(k, invariant_basis(k))
    assert w is not None and not w.vacuous
    assert check_doeblin(k, w.phi, w.eps, w.k).holds


def test_search_agreement_between_plain_and_averaged():
    # wherever a non-vacuous plain witness exists, an averaged one exists too
    for k in (uniform2(), two_absorbing(), swap2()):
        plain = search_doeblin(k, invariant_basis(k), k_max=6)
        avg = search_doeblin(k, invariant_basis(k), k_max=6, averaged=True)
        assert (plain is not None) == (avg is not None)
        if plain is not None and not plain.vacuous:
            assert avg is not None


# -- qualitative conditions --------------------------------------------------------------

def test_star_finite_always_holds():
    for k in (uniform2(), swap2(), two_absorbing()):
        v = check_star(k, invariant_basis(k))
        assert v["holds"] and v["scope"] == "exact"
        assert check_tilde_star(v)["holds"]


def test_star_countable_examples():
    drift, restart, sym = drift_walk_N(1.0), restart_walk(0.1), symmetric_walk_Z()
    v = check_star(drift, invariant_basis(drift))
    assert not v["holds"] and v["scope"] == "representable"
    assert v["evidence"]["invariant_charges"]
    assert check_star(restart, invariant_basis(restart))["holds"]
    assert not check_tilde_star(check_star(sym, invariant_basis(sym)))["holds"]


def test_countable_analysis_detects_end_charges_once(monkeypatch):
    calls = []
    detect = invariants.detect_pfa_ends

    def counted(kernel):
        calls.append(kernel)
        return detect(kernel)

    monkeypatch.setattr(invariants, "detect_pfa_ends", counted)
    report = run_analysis(AnalysisRequest(catalog="drift_walk_N"))
    assert len(calls) == 1
    assert report["conditions"]["star"]["evidence"]["invariant_charges"] == report["invariants"]["measures"]


def test_over_cap_chain_reports_the_search_as_over_capacity():
    cond = conditions.build_condition_report(TransitionKernel.finite(np.eye(23)))
    for finding in (cond["D"], cond["D_tilde"]):
        assert finding["kind"] == "capacity" and finding["verdict"] == "capacity exceeded"
        assert finding["detail"] == "subset enumeration capped at 22 states, got 23"
    assert cond["star"]["holds"] and cond["double_star"]["evidence"] == {"dimension": 23}
    assert cond["beta"]["holds"]


def test_double_star_counts():
    k = TransitionKernel.finite(
        [[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]]
    )
    assert check_double_star(invariant_basis(k))["evidence"]["dimension"] == 1
    assert check_double_star(invariant_basis(symmetric_walk_Z()))["evidence"]["dimension"] == 2
    ident = TransitionKernel.finite(np.eye(2))
    assert check_double_star(invariant_basis(ident))["evidence"]["dimension"] == 2


def test_quasicompact_diagnostic():
    charge = "an invariant end charge exists, which rules out quasicompactness"
    for kernel, expected in (
        (uniform2(), ("consistent", "(*) holds, which implies quasicompactness")),
        (restart_walk(0.1), ("consistent", "(*) holds within the representable class")),
        (drift_walk_N(1.0), ("inconsistent", charge)),
        (symmetric_walk_Z(), ("inconsistent", charge)),
    ):
        assert quasicompact_diagnostic(check_star(kernel, invariant_basis(kernel))) == expected


def test_alpha_examples():
    ta = two_absorbing()
    mu = dirac(ta.space, 0)
    k_mu = measurable(ta.space, atoms=[0, 1])
    closed = check_alpha(ta, mu, k_mu)
    assert closed is not None and sorted(closed.atoms) == [0]
    # re-verify stochastic closedness directly
    assert prob(ta, 0, closed) == 1.0

    whole = measurable(ta.space, atoms=[0, 1, 2])
    mu2 = from_vector(ta.space, [0.5, 0.0, 0.5])
    closed2 = check_alpha(ta, mu2, whole)
    assert closed2 is not None and sorted(closed2.atoms) == [0, 1, 2]

    sw = swap2()
    assert check_alpha(sw, half_half(sw), measurable(sw.space, atoms=[0])) is None


def test_alpha_has_no_invariance_precondition():
    # no invariance precondition: δ_1 is not invariant, and K_mu = {0, 1} keeps the closed {0}, where δ_1 has no mass
    ta = two_absorbing()
    assert check_alpha(ta, dirac(ta.space, 1), measurable(ta.space, atoms=[0, 1])) is None


def test_beta_examples():
    ta = two_absorbing()
    out = check_beta(invariant_basis_finite(ta))
    assert out["holds"]
    d1, d2 = out["witnesses"][0]["d1"], out["witnesses"][0]["d2"]
    assert sorted(d1["atoms"]) == [0] and sorted(d2["atoms"]) == [2]

    basis = invariant_basis(drift_walk_N(1.0))
    mixed = invariant_basis(TransitionKernel.finite(np.eye(3)))
    assert check_beta(mixed)["holds"] and len(check_beta(mixed)["witnesses"]) == 3


def test_beta_fails_on_a_pair_without_witnesses_and_lists_the_others_in_order():
    space = TransitionKernel.finite(np.eye(3)).space
    d0, d2 = dirac(space, 0), dirac(space, 2)
    overlap = FAMeasure(space, atoms={0: 0.5, 1: 0.5})  # shares state 0 with δ_0
    out = check_beta(invariants.InvariantBasis([d0, d2, overlap]))
    assert not out["holds"]
    assert [(w["i"], w["j"], sorted(w["d1"]["atoms"]), sorted(w["d2"]["atoms"])) for w in out["witnesses"]] == [
        (0, 1, [0], [2]),
        (1, 2, [2], [0, 1]),
    ]


def test_beta_mixed_kind_witnesses():
    from chargechain import TailRow

    tail = TailRow(relative={1: 1.0})
    k = TransitionKernel.walk("N", exceptions={0: {0: 1.0}}, tails={"+inf": tail})
    basis = invariant_basis(k)
    assert basis.kinds == ["ca", "pfa"]
    out = check_beta(basis)
    assert out["holds"]
    d1, d2 = out["witnesses"][0]["d1"], out["witnesses"][0]["d2"]
    assert sorted(d1["atoms"]) == [0]
    assert d2["tails"] and not d2["atoms"]


# -- sup-over-starts lemma ------------------------------------------------------------------

def test_lemma_example_two_state():
    # sup over Dirac starts of p(x, G) against (A eta)(G) for a mixture eta
    k = TransitionKernel.finite([[0.9, 0.1], [0.2, 0.8]])
    g = measurable(k.space, atoms=[0])
    sup_d = max(prob(k, x, g) for x in range(2))
    mix = evaluate(apply_A(k, half_half(k)), g)
    assert sup_d == pytest.approx(0.9)
    assert mix == pytest.approx(0.55)
    assert mix <= sup_d + TOL


def test_lemma_equal_rows_all_mixtures_equal():
    k = uniform2()
    g = measurable(k.space, atoms=[0])
    rng = np.random.default_rng(9)
    for _ in range(20):
        w = rng.random(2)
        assert evaluate(apply_A(k, from_vector(k.space, w / w.sum())), g) == pytest.approx(0.5)
    assert max(prob(k, x, g) for x in range(2)) == pytest.approx(0.5)


def test_lemma_dirac_attains_sup():
    rng = np.random.default_rng(10)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        m = rng.random((n, n)) + 1e-3
        k = TransitionKernel.finite(m / m.sum(axis=1, keepdims=True))
        g = measurable(k.space, atoms=[j for j in range(n) if rng.random() < 0.5])
        order = int(rng.integers(1, 5))
        sup_d = max(prob(kernel_power(k, order), x, g) for x in range(n))
        best = 0.0
        for x in range(n):
            lam = dirac(k.space, x)
            for _ in range(order):
                lam = apply_A(k, lam)
            best = max(best, evaluate(lam, g))
        assert best == pytest.approx(sup_d, abs=TOL)


# -- truncation surrogate ---------------------------------------------------------------------

def test_truncate_reflecting_is_stochastic():
    for kern, lo, hi in ((drift_walk_N(1.0), 0, 5), (symmetric_walk_Z(), -4, 4)):
        t = truncate_reflecting(kern, lo, hi)
        assert np.all(np.abs(t.matrix.sum(axis=1) - 1.0) <= 1e-12)


def test_truncation_trend_monotone_toward_one():
    for kern in (drift_walk_N(1.0), symmetric_walk_Z()):
        trend = doeblin_truncation_trend(kern)
        values = [v for _, v in trend]
        assert len(values) >= 3
        assert all(a <= b + TOL for a, b in zip(values, values[1:]))
        assert values[-1] >= 1.0 - 1e-9


def test_plain_hold_implies_averaged_hold_at_longer_horizon():
    # at fixed (phi, eps) the averaged kernel keeps an excess of roughly
    # k*eps/m from the first k powers, so it needs a longer horizon than
    # the plain condition; with that allowance the implication is real
    rng = np.random.default_rng(13)
    chains = [
        uniform2(),
        two_absorbing(),
        TransitionKernel.finite([[0.75, 0.25, 0.0], [0.25, 0.5, 0.25], [0.0, 0.25, 0.75]]),
    ]
    for _ in range(6):
        n = int(rng.integers(2, 5))
        m = rng.random((n, n)) + 1e-3
        chains.append(TransitionKernel.finite(m / m.sum(axis=1, keepdims=True)))
    k_max, m_max = 8, 64
    checked = 0
    for kernel in chains:
        basis = invariant_basis_finite(kernel)
        phi = basis.measures[0]
        for mu in basis.measures[1:]:
            phi = phi + mu
        for eps in (0.51, 0.3, 0.26):
            plain = [check_doeblin(kernel, phi, eps, k) for k in range(1, k_max + 1)]
            if any(o.vacuous for o in plain) or not any(o.holds for o in plain):
                continue
            checked += 1
            assert any(
                check_doeblin_tilde(kernel, phi, eps, m).holds for m in range(1, m_max + 1)
            )
    assert checked >= 5


def test_averaged_hold_does_not_pin_a_plain_horizon():
    # deterministic 3-cycle: every power puts full mass on some admissible
    # singleton, so the plain condition fails at every k, while the
    # averaged kernel settles near 1/3 and holds; the equivalence of the
    # two conditions lives at the witness level (eps and phi may move),
    # which is what search_doeblin exercises
    from chargechain import cycle

    k = cycle(3)
    phi = from_vector(k.space, [1 / 3] * 3)
    eps = 0.34
    assert all(not check_doeblin(k, phi, eps, j).holds for j in range(1, 65))
    assert any(check_doeblin_tilde(k, phi, eps, m).holds for m in range(1, 65))
    plain_w = search_doeblin(k, invariant_basis(k), k_max=6)
    avg_w = search_doeblin(k, invariant_basis(k), k_max=6, averaged=True)
    assert plain_w is not None and avg_w is not None
