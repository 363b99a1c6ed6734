"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` for the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import json
import time

import numpy as np
import pytest

from chargechain import (
    END_NEG,
    END_POS,
    FAMeasure,
    MeasurableSet,
    StateSpace,
    TailRow,
    TransitionKernel,
    apply_A,
    check_beta,
    check_doeblin,
    check_star,
    detect_pfa_ends,
    distance_series,
    doeblin_truncation_trend,
    drift_walk_N,
    ergodic_run,
    escape_profile,
    evaluate,
    grid_unit_interval,
    invariant_basis,
    kernel_power,
    invariance_residual,
    check_alpha,
    lattice_inf,
    measurable,
    projector_finite,
    quasicompact_diagnostic,
    restart_walk,
    search_doeblin,
    swap2,
    symmetric_walk_Z,
    two_absorbing,
)
from chargechain.catalog import build, names
from chargechain.cli import main as cli_main
from chargechain.report import AnalysisRequest, report_json, run_analysis, verify_report
from oracles import (
    BoundedFunction,
    char_poly_second_modulus,
    dirac,
    duality_residual,
    end_charge,
    from_vector,
    lattice_inf_oracle,
    prob,
)

SUITE_T0 = time.time()

LATTICE_TOL = 1e-12
DUALITY_TOL = 1e-12
LEMMA_TOL = 1e-12
RES_TOL = 1e-10
EXACT_TOL = 1e-12

FINITE_ENTRIES = ("finite_uniform", "swap2", "cycle3", "birth_death", "two_absorbing")


def random_kernel(rng, n):
    m = rng.random((n, n)) + 1e-3
    return TransitionKernel.finite(m / m.sum(axis=1, keepdims=True))


def test_criterion_01_lattice_oracle_equivalence():
    rng = np.random.default_rng(20260809)
    t0 = time.time()
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 11))
        space = StateSpace.finite(n)
        m1 = from_vector(space, rng.random(n))
        m2 = from_vector(space, rng.random(n))
        closed = lattice_inf(m1, m2)
        for mask in range(1 << n):
            members = frozenset(j for j in range(n) if mask >> j & 1)
            e = MeasurableSet(space, members, frozenset())
            gap = abs(lattice_inf_oracle(m1, m2, e) - evaluate(closed, e))
            worst = max(worst, gap)
    elapsed = time.time() - t0
    assert worst <= LATTICE_TOL
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE 1 PASS: lattice closed form == subset oracle on every set "
        f"(500 pairs, worst gap {worst:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_02_duality():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        k = random_kernel(rng, n)
        for _ in range(20):
            f = BoundedFunction(k.space, {x: float(rng.normal()) for x in range(n)})
            mu = from_vector(k.space, rng.normal(size=n))
            worst = max(worst, duality_residual(k, f, mu))
    assert worst <= DUALITY_TOL
    countable = (drift_walk_N(1.0), restart_walk(0.1), symmetric_walk_Z())
    worst_c = 0.0
    for k in countable:
        lims = {e: 1.75 for e in k.space.end_ids()}
        f = BoundedFunction(k.space, window={0: -1.0, 2: 2.0, 5: 0.5},
                            default=0.25, end_limits=lims)
        measures = [
            FAMeasure(k.space, atoms={0: 0.4, 3: 0.1},
                      ends={k.space.end_ids()[0]: 0.5}),
            end_charge(k.space, k.space.end_ids()[-1]),
            dirac(k.space, 4),
        ]
        for mu in measures:
            worst_c = max(worst_c, duality_residual(k, f, mu))
    assert worst_c <= DUALITY_TOL
    print(
        f"ACCEPTANCE 2 PASS: <A mu, f> == <mu, Tf> "
        f"(finite worst {worst:.2e}, countable worst {worst_c:.2e})"
    )


def steps(kernel, mu, m):
    """A^m mu, by ``apply_A``."""
    for _ in range(m):
        mu = apply_A(kernel, mu)
    return mu


def test_criterion_03_sup_over_starts():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        k = random_kernel(rng, n)
        g = measurable(k.space, atoms=[j for j in range(n) if rng.random() < 0.5])
        m = int(rng.integers(1, 6))
        mixtures = []
        for _ in range(100):
            w = rng.random(n)
            mixtures.append(w / w.sum())
        # p^m(x, G) for each start x; a mixture eta gives (A^m eta)(G) = sum_x eta_x p^m(x, G)
        col = kernel_power(k, m).matrix @ [1.0 if g.covers_state(x) else 0.0 for x in range(n)]
        sup_d = float(col.max())
        best_mix = float((np.array(mixtures) @ col).max())
        assert best_mix <= sup_d + LEMMA_TOL
        # the Dirac starts stepped by apply_A, a route that forms no power
        dirac_best = max(evaluate(steps(k, dirac(k.space, x), m), g) for x in range(n))
        assert dirac_best == pytest.approx(sup_d, abs=LEMMA_TOL)
    print("ACCEPTANCE 3 PASS: mixtures never beat the best Dirac start; a Dirac attains it")


def test_criterion_04_invariants_exist_and_parts_stay_invariant():
    for name in names():
        kernel = build(name)
        basis = invariant_basis(kernel)
        assert basis.dimension >= 1, f"{name}: empty invariant set"
        for mu in basis.measures:
            assert invariance_residual(kernel, mu) <= RES_TOL
    # mixtures of a countably additive invariant and an invariant end charge
    tail = TailRow(relative={1: 1.0})
    absorbing_drift = TransitionKernel.walk(
        "N", exceptions={0: {0: 1.0}}, tails={END_POS: tail}
    )
    cases = []
    mix = dirac(absorbing_drift.space, 0) * 0.3 + end_charge(
        absorbing_drift.space, END_POS
    ) * 0.7
    cases.append((absorbing_drift, mix))
    slow_grid = grid_unit_interval(8, p_toward_zero=0.35)
    b = invariant_basis(slow_grid)
    assert b.kinds == ["ca", "pfa"]
    cases.append((slow_grid, b.measures[0] * 0.6 + b.measures[1] * 0.4))
    for kernel, mu in cases:
        assert invariance_residual(kernel, mu) <= RES_TOL
        assert invariance_residual(kernel, FAMeasure(kernel.space, mu.atoms)) <= RES_TOL
        assert invariance_residual(kernel, FAMeasure(kernel.space, ends=mu.ends)) <= RES_TOL
    print("ACCEPTANCE 4 PASS: every catalog chain has invariants; mixture parts stay invariant")


def test_criterion_05_small_set_condition_finite_side():
    for name in FINITE_ENTRIES:
        kernel = build(name)
        assert check_star(kernel, invariant_basis(kernel))["holds"], f"{name}: (*) must hold on a finite chain"
        w = search_doeblin(kernel, invariant_basis(kernel))
        assert w is not None, f"{name}: no witness found"
        out = check_doeblin(kernel, w.phi, w.eps, w.k)
        assert out.holds and out.vacuous == w.vacuous
    sw = swap2()
    phi = from_vector(sw.space, [0.5, 0.5])
    out = check_doeblin(sw, phi, 0.5, 1)
    assert not out.holds and not out.vacuous and out.max_value == 1.0
    print("ACCEPTANCE 5 PASS: finite chains carry re-verified witnesses; swap maximum exact")


def test_criterion_06_small_set_condition_countable_side():
    assert [c.ends for c in detect_pfa_ends(drift_walk_N(1.0))] == [{END_POS: 1.0}]
    sym_charges = detect_pfa_ends(symmetric_walk_Z())
    assert len(sym_charges) == 2
    for kernel in (drift_walk_N(1.0), symmetric_walk_Z()):
        trend = doeblin_truncation_trend(kernel)
        values = [v for _, v in trend]
        widths = [w for w, _ in trend]
        assert len(values) >= 3
        assert all(2 * a == b for a, b in zip(widths, widths[1:]))  # geometric windows
        assert all(a <= b + EXACT_TOL for a, b in zip(values, values[1:]))
        assert values[-1] >= 1.0 - 1e-9
    rw = restart_walk(0.1)
    assert detect_pfa_ends(rw) == []
    assert quasicompact_diagnostic(check_star(rw, invariant_basis(rw)))[0] == "consistent"
    print("ACCEPTANCE 6 PASS: end charges detected; truncated maxima climb to 1; restart stays clean")


def test_criterion_07_uniform_averaged_convergence():
    sw = swap2()
    cesaro = ergodic_run(sw, 500, invariant_basis(sw))["cesaro"]
    for i, d in enumerate(cesaro["distances"]):
        n = i + 1
        expected = 1.0 / n if n % 2 else 0.0
        assert abs(d - expected) <= EXACT_TOL
    ta = two_absorbing()
    pj = projector_finite(ta, invariant_basis(ta))
    row1 = from_vector(ta.space, pj.matrix[1])
    assert row1.atoms == pytest.approx({0: 0.5, 2: 0.5}, abs=RES_TOL)
    assert row1.atoms.get(1, 0.0) == 0.0
    ta_series = distance_series(ta, 500, pj)[0]
    c = max(max((i + 1) * d for i, d in enumerate(ta_series)), 1e-9)
    assert all(d <= c / (i + 1) + EXACT_TOL for i, d in enumerate(ta_series))
    print("ACCEPTANCE 7 PASS: swap averaged distance is exactly the 1/n-odd pattern; absorption projector verified")


def test_criterion_08_raw_vs_averaged_dichotomy():
    k = TransitionKernel.finite([[0.9, 0.1], [0.2, 0.8]])
    lam2 = char_poly_second_modulus(k.matrix)
    assert lam2 == pytest.approx(0.7, abs=1e-9)
    rate = ergodic_run(k, 48, invariant_basis(k))["raw"]["rate"]
    assert rate["kind"] == "geometric"
    assert abs(rate["ratio"] - lam2) <= 0.05 * lam2
    sw = swap2()
    cesaro, raw = distance_series(sw, 500, projector_finite(sw, invariant_basis(sw)))
    assert min(raw) >= 0.1
    assert cesaro[-1] <= 0.01
    print(
        f"ACCEPTANCE 8 PASS: fitted geometric ratio {rate['ratio']:.4f} within 5% of "
        f"oracle 0.7; periodic raw distance never converges"
    )


def test_criterion_09_escape_analytics():
    dw = drift_walk_N(1.0)
    windows = (8, 16, 32)
    n_max = 100 * windows[-1]
    prof = escape_profile(dw, n_max=n_max, windows=windows)
    assert prof["checkpoints"] == [2**j for j in range(12)] + [n_max]
    for m, seq in prof["windows"]:
        assert len(seq) == len(prof["checkpoints"])
        for n, v in zip(prof["checkpoints"], seq):
            assert abs(v - min(n, m) / n) <= EXACT_TOL
    assert prof["pfa_mass_estimate"] >= 0.99
    assert prof["per_end_split"] == {END_POS: 1.0}
    sz = symmetric_walk_Z()
    prof2 = escape_profile(sz, n_max=10_000, windows=windows)
    assert abs(prof2["per_end_split"][END_POS] - 0.5) <= 0.05
    assert abs(prof2["per_end_split"][END_NEG] - 0.5) <= 0.05
    print(
        f"ACCEPTANCE 9 PASS: drift window masses exact, charge estimate "
        f"{prof['pfa_mass_estimate']:.4f}; symmetric split {prof2['per_end_split']}"
    )


def test_criterion_10_closed_sets_and_singular_bases():
    ta = two_absorbing()
    mu = dirac(ta.space, 0)
    closed = check_alpha(ta, mu, measurable(ta.space, atoms=[0, 1]))
    assert closed is not None and sorted(closed.atoms) == [0]
    for x in sorted(closed.atoms):
        assert prob(ta, x, closed) >= 1.0 - EXACT_TOL
    for name in FINITE_ENTRIES:
        kernel = build(name)
        basis = invariant_basis(kernel)
        beta = check_beta(basis)
        assert beta["holds"]
        expected_pairs = basis.dimension * (basis.dimension - 1) // 2
        assert len(beta["witnesses"]) == expected_pairs
        for w in beta["witnesses"]:
            assert not (set(w["d1"]["atoms"]) & set(w["d2"]["atoms"]))
    print("ACCEPTANCE 10 PASS: closed-set extraction re-verifies; bases pairwise singular with witnesses")


def test_criterion_11_cli_determinism(tmp_path):
    for name in names():
        req = AnalysisRequest(catalog=name, n_max=100)
        first = report_json(run_analysis(req))
        second = report_json(run_analysis(req))
        assert first == second, f"{name}: reports differ between runs"
        results = verify_report(json.loads(first))
        assert results, f"{name}: nothing to verify"
        bad = [r for r in results if not r["ok"]]
        assert not bad, f"{name}: witnesses failed re-verification: {bad}"
    out1 = tmp_path / "cli1.json"
    out2 = tmp_path / "cli2.json"
    for out in (out1, out2):
        assert cli_main(["analyze", "--catalog", "swap2", "--n-max", "100",
                         "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert cli_main(["verify-report", "--report", str(out1)]) == 0
    elapsed = time.time() - SUITE_T0
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 11 PASS: byte-identical reports and verified witnesses for "
        f"{len(names())} entries (acceptance suite {elapsed:.1f}s)"
    )
