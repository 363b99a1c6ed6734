"""The one finite elimination (GTH): stationary laws and (I − Q) solves against references, and the
end-charge system built on it."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from chargechain import (
    END_NEG,
    END_POS,
    NumericalError,
    TailRow,
    TransitionKernel,
    birth_death,
    detect_pfa_ends,
    invariance_residual,
    invariant_basis,
    invariant_basis_finite,
    kernel_to_spec,
    stationary_of_class,
    truncate_reflecting,
)
from chargechain.ergodic import _solve_transient
from chargechain.invariants import eliminate
from oracles import eliminate_by_loop
from test_classes import seeded_matrices
from test_window import fuzz_walk

ROOT = Path(__file__).resolve().parent.parent


def substochastic(rng, n, density):
    """An (n + 1)-state kernel whose last state absorbs what the first n leak."""
    m = rng.random((n + 1, n + 1)) * (rng.random((n + 1, n + 1)) < density)
    m[:, n] += 0.05 * rng.random(n + 1) + 1e-3  # every state leaks
    m[n] = 0.0
    m[n, n] = 1.0
    return TransitionKernel.finite(m / m.sum(axis=1, keepdims=True))


def gauss_jordan(m, b):
    """x with m·x = b over the rationals."""
    n = len(m)
    rows = [list(m[i]) + list(b[i]) for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                rows[r] = [v - rows[r][c] * w for v, w in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def exact_rows(kernel):
    """The kernel's entries as exact rationals, and each row's mass off its diagonal.

    The diagonal of I − P is that mass, 1 − p_xx as it would be if the float
    row summed to exactly 1: the system the elimination solves.
    """
    p = [[Fraction(v) for v in row] for row in kernel.matrix.tolist()]
    return p, [sum(v for y, v in enumerate(row) if y != x) for x, row in enumerate(p)]


def exact_transient(kernel, n, b):
    """x with (I − Q)x = b on the states 0..n-1, over the rationals."""
    p, off = exact_rows(kernel)
    m = [[off[i] if i == j else -p[i][j] for j in range(n)] for i in range(n)]
    return gauss_jordan(m, [[Fraction(v) for v in row] for row in b])


def exact_stationary(kernel):
    """The stationary law of an irreducible kernel over the rationals: pi_0 = 1, then flow balance."""
    p, off = exact_rows(kernel)
    n = len(p)
    m = [[off[j] if i == j else -p[i][j] for i in range(1, n)] for j in range(1, n)]
    pi = [Fraction(1)] + [r[0] for r in gauss_jordan(m, [[p[0][j]] for j in range(1, n)])]
    return [w / sum(pi) for w in pi]


def test_transient_solve_matches_linalg_solve():
    rng = np.random.default_rng(17)
    for trial in range(40):
        n = int(rng.integers(1, 40))
        k = substochastic(rng, n, density=0.15 if trial % 2 else 0.8)
        states = list(range(n))
        rhs = [rng.random(n), np.ones(n), k.matrix[:n, n]]
        got = _solve_transient(k, states, rhs, "rows")
        want = np.linalg.solve(np.eye(n) - k.matrix[:n, :n], np.column_stack(rhs))  # the reference
        assert np.allclose(got, want, rtol=1e-11, atol=0.0)
        assert np.allclose(got[:, 2], 1.0, rtol=1e-13, atol=0.0)  # every state is absorbed


def test_transient_solve_matches_exact_elimination():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        k = substochastic(rng, n, density=0.6)
        rhs = [rng.random(n), np.ones(n)]
        got = _solve_transient(k, list(range(n)), rhs, "rows")
        exact = exact_transient(k, n, np.column_stack(rhs).tolist())
        for x in range(n):
            for c in range(2):
                assert abs(Fraction(float(got[x, c])) - exact[x][c]) <= 1e-14 * exact[x][c]


def test_stationary_matches_exact_elimination_and_linalg_solve():
    rng = np.random.default_rng(29)
    for trial in range(40):
        n = int(rng.integers(1, 8))
        m = rng.random((n, n)) * (rng.random((n, n)) < 0.5) + np.roll(np.eye(n), 1, axis=1)  # a cycle keeps it irreducible
        k = TransitionKernel.finite(m / m.sum(axis=1, keepdims=True))
        pi = stationary_of_class(k, tuple(range(n)))
        exact = exact_stationary(k)
        for x in range(n):
            assert abs(Fraction(pi.atoms[x]) - exact[x]) <= 1e-14 * exact[x]
        a = k.matrix.T - np.eye(n)
        a[-1, :] = 1.0
        want = np.linalg.solve(a, np.eye(n)[-1])  # the LU solve this elimination replaced
        assert np.allclose([pi.atoms[x] for x in range(n)], want, rtol=1e-12, atol=1e-15)


def test_eliminate_pivots_are_the_mass_below_and_leaving():
    # two states: 1 moves to 0 with 0.25 and leaves with 0.5; 0 only leaves, with 0.125
    a = np.array([[0.875, 0.0], [0.25, 0.25]])
    leave = np.array([0.125, 0.5])
    rhs = np.array([[1.0], [1.0]])
    pivots = eliminate(a, leave, rhs, 0)
    assert pivots.tolist() == [0.125, 0.75]
    assert a[1, 0] == 0.25 and rhs.tolist() == [[1.0], [1.0]]  # column 1 above 1 is zero: nothing spreads


def elimination_cases():
    """(a, leave, rhs, last): stationary reductions of finite chains and walk windows, banded or not, and
    transient solves with leaks on some states only, one with a pivot that underflows."""
    rng = np.random.default_rng(26)
    for m in seeded_matrices():
        yield np.array(m), np.zeros(len(m)), None, 1
    for _ in range(60):
        kernel = fuzz_walk(rng)
        half = int(rng.integers(1, 40))
        yield truncate_reflecting(kernel, 0 if kernel.space.support == "N" else -half, half).matrix.copy(), np.zeros(2 * half + 1), None, 1
    for n in (3, 40, 400):
        yield birth_death(n, 0.45, 0.02).matrix.copy(), np.zeros(n), None, 1
    for _ in range(60):
        n = int(rng.integers(2, 30))
        k = substochastic(rng, n, float(rng.choice([0.1, 0.3, 1.0])))
        leave = k.matrix[:n, n] * (rng.random(n) < 0.7)
        yield k.matrix[:n, :n].copy(), leave, rng.random((n, int(rng.integers(1, 4)))), 0
    yield np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 1e-200], [1e-200, 1.0, 0.0]]), np.zeros(3), None, 1
    yield np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 5e-324], [5e-324, 1.0, 0.0]]), np.full(3, 0.25), np.ones((3, 1)), 0


def test_eliminate_matches_the_per_pivot_loop_bit_for_bit():
    single = 0
    for a, leave, rhs, last in elimination_cases():
        want = [a.copy(), leave.copy(), None if rhs is None else rhs.copy()]
        got = [a, leave, rhs]
        pivots = eliminate(*got, last)
        assert pivots.tobytes() == eliminate_by_loop(*want, last).tobytes()
        for x, y in zip(got, want):
            assert (x is None and y is None) or x.tobytes() == y.tobytes()
        single += int((np.diag(a, 1) != 0.0).sum())  # reduced walk windows and birth-death chains: a band
    assert single > 1000


@pytest.mark.parametrize("n", [100, 150, 400])
def test_birth_death_bases_have_no_negative_weight(n):
    basis = invariant_basis(birth_death(n))
    (pi,) = basis.measures
    assert min(pi.atoms.values()) > 0.0
    assert invariance_residual(birth_death(n), pi) <= 1e-15


def test_seeded_bases_have_no_negative_weight():
    checked = 0
    for m in seeded_matrices():
        k = TransitionKernel.finite(m)
        for pi in invariant_basis_finite(k).measures:
            assert all(w >= 0.0 for w in pi.atoms.values())
            assert invariance_residual(k, pi) <= 1e-10
            checked += 1
    assert checked >= 300


def test_strong_drift_stays_finite():
    # weights grow like 22.5^x, past the float range over 400 states
    k = birth_death(400, 0.45, 0.02)
    (pi,) = invariant_basis_finite(k).measures
    assert pi.atoms[399] == max(pi.atoms.values()) and 0 not in pi.atoms  # 22.5^-399 underflows
    assert abs(sum(pi.atoms.values()) - 1.0) <= 1e-15
    assert invariance_residual(k, pi) <= 1e-15


def test_a_state_that_never_moves_down_in_floating_point_takes_the_weight():
    # 1 returns to 0 only through 2, with probability 1e-200 · 1e-200, which underflows
    k = TransitionKernel.finite([[0.5, 0.5, 0.0], [0.0, 1.0, 1e-200], [1e-200, 1.0, 0.0]])
    pi = stationary_of_class(k, (0, 1, 2))
    assert pi.atoms == {1: 1.0, 2: 1e-200}  # 0 weighs about 1e-400, which underflows
    assert invariance_residual(k, pi) <= 1e-15


def test_a_zero_pivot_in_a_transient_solve_raises_without_warnings():
    # 0, 1 and 2 never leave, and 1 moves down only through 5e-324 · 5e-324, which underflows
    k = TransitionKernel.finite([[0.5, 0.5, 0.0, 0.0], [0.0, 1.0, 5e-324, 0.0], [5e-324, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    with pytest.raises(NumericalError, match="non-finite rows"):
        _solve_transient(k, [0, 1, 2], [np.ones(3)], "rows")


def test_end_charges_come_from_the_closed_classes_of_the_end_system():
    # -inf leaks 1e-13 into +inf, which keeps its charge: only +inf carries one
    tail_pos = TailRow(relative={1: 1.0})
    tail_neg = TailRow(relative={-1: 1.0 - 1e-13}, to_other_end={END_POS: 1e-13})
    k = TransitionKernel.walk("Z", tails={END_POS: tail_pos, END_NEG: tail_neg})
    assert [c.ends for c in detect_pfa_ends(k)] == [{END_POS: 1.0}]
    # a leak of 1e-13 into a finite state counts: +inf loses its charge
    leaky = TailRow(relative={1: 1.0 - 1e-13}, to_finite={0: 1e-13})
    k = TransitionKernel.walk("Z", tails={END_POS: leaky, END_NEG: TailRow(relative={-1: 1.0})})
    assert [c.ends for c in detect_pfa_ends(k)] == [{END_NEG: 1.0}]
    # the two ends feed each other: one charge, split by the stationary law of the pair
    tail_pos = TailRow(relative={1: 0.5}, to_other_end={END_NEG: 0.5})
    tail_neg = TailRow(relative={-1: 0.75}, to_other_end={END_POS: 0.25})
    k = TransitionKernel.walk("Z", tails={END_POS: tail_pos, END_NEG: tail_neg})
    (charge,) = detect_pfa_ends(k)
    assert charge.ends == {END_POS: 1 / 3, END_NEG: 2 / 3}
    assert invariance_residual(k, charge) <= 1e-16


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path: Path):
    chain = tmp_path / "bd200.json"
    chain.write_text(json.dumps(kernel_to_spec(birth_death(200, 0.3, 0.2))))
    texts = []
    for threads in ("1", "2"):
        out = tmp_path / f"r{threads}.json"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "chargechain", "analyze", "--chain", str(chain),
             "--tasks", "invariants,ergodic", "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
