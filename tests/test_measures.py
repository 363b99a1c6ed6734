"""Measure core: evaluation, pairing, decompositions, lattice structure."""

import numpy as np
import pytest

from chargechain import (
    END_NEG,
    END_POS,
    DomainError,
    FAMeasure,
    PreconditionError,
    CapacityError,
    StateSpace,
    ValidationError,
    end_direction,
    evaluate,
    is_disjoint,
    lattice_inf,
    measurable,
    measure_from_json,
    set_from_json,
    singularity_witness,
)
from oracles import BoundedFunction, dirac, end_charge, from_vector, lattice_inf_oracle, minus, norm, pair

TOL = 1e-12


def test_end_charge_sees_every_tail_but_no_finite_set():
    space = StateSpace.half_line()
    mu = end_charge(space, END_POS)
    for threshold in (0, 5, 1000):
        assert evaluate(mu, measurable(space, tails=[(END_POS, threshold)])) == 1.0
    assert evaluate(mu, measurable(space, atoms=range(100))) == 0.0


def test_dirac_evaluation():
    space = StateSpace.half_line()
    mu = dirac(space, 0)
    assert evaluate(mu, measurable(space, atoms=[0])) == 1.0
    assert evaluate(mu, measurable(space, tails=[(END_POS, 5)])) == 0.0


def test_mixed_measure_additivity():
    space = StateSpace.half_line()
    mu = FAMeasure(space, atoms={0: 0.3}, ends={END_POS: 0.7})
    both = measurable(space, atoms=[0], tails=[(END_POS, 5)])
    assert evaluate(mu, both) == pytest.approx(1.0, abs=TOL)


def test_complement_evaluation():
    space = StateSpace.half_line()
    mu = FAMeasure(space, atoms={0: 0.3, 4: 0.2}, ends={END_POS: 0.5})
    inner = measurable(space, atoms=[0])
    assert evaluate(mu, inner.complement()) == pytest.approx(0.7, abs=TOL)
    # complement of a co-tail set keeps the charge out
    tail = measurable(space, tails=[(END_POS, 10)])
    assert evaluate(mu, tail.complement()) == pytest.approx(0.5, abs=TOL)


def test_state_space_derives_its_ends_from_its_support():
    finite, half, line = StateSpace.finite(3), StateSpace.half_line(), StateSpace.integer_line()
    assert (finite.end_ids(), half.end_ids(), line.end_ids()) == ((), ("+inf",), ("+inf", "-inf"))
    assert (finite.is_finite, half.is_finite, line.is_finite) == (True, False, False)
    assert [line.has_end(e) for e in (END_POS, END_NEG, "0")] == [True, True, False]
    assert [half.has_end(e) for e in (END_POS, END_NEG)] == [True, False]
    assert not finite.has_end(END_POS)
    assert StateSpace.half_line() == half and StateSpace.integer_line() == line != half
    assert StateSpace.finite(3) == finite != StateSpace.finite(3, labels="abc")
    assert (end_direction(END_POS), end_direction(END_NEG)) == (1, -1)
    with pytest.raises(DomainError):
        end_direction("0")


def test_unknown_end_rejected():
    space = StateSpace.half_line()
    with pytest.raises(DomainError):
        measurable(space, tails=[(END_NEG, 0)])
    with pytest.raises(DomainError):
        FAMeasure(space, ends={END_NEG: 1.0})


def test_pairing_examples():
    space = StateSpace.half_line()
    mu = FAMeasure(space, atoms={0: 0.3}, ends={END_POS: 0.7})
    f = BoundedFunction(space, window={0: 2.0}, end_limits={END_POS: 5.0})
    assert pair(mu, f) == pytest.approx(4.1, abs=TOL)

    ones = BoundedFunction(space, default=1.0, end_limits={END_POS: 1.0})
    assert pair(mu, ones) == pytest.approx(1.0, abs=TOL)

    f2 = BoundedFunction(space, window={7: -3.0, 2: 1.5}, default=0.5,
                         end_limits={END_POS: 0.0})
    assert pair(dirac(space, 7), f2) == -3.0
    assert pair(dirac(space, 3), f2) == 0.5  # gap inside the window hull


def test_function_requires_end_limits():
    space = StateSpace.integer_line()
    with pytest.raises(DomainError):
        BoundedFunction(space, window={0: 1.0}, end_limits={END_POS: 0.0})


def jordan_parts(mu):
    """The positive and the negative weights of mu, each as a nonnegative measure."""
    def part(sign, weights):
        return {k: sign * v for k, v in weights.items() if sign * v > 0.0}

    return (FAMeasure(mu.space, part(1.0, mu.atoms), part(1.0, mu.ends)),
            FAMeasure(mu.space, part(-1.0, mu.atoms), part(-1.0, mu.ends)))


def test_jordan_examples():
    space = StateSpace.half_line()
    mu = FAMeasure(space, atoms={0: 0.5, 1: -0.2}, ends={END_POS: -0.3})
    pos, neg = jordan_parts(mu)
    assert pos.atoms == {0: 0.5} and not pos.ends
    assert neg.atoms == {1: 0.2} and neg.ends == {END_POS: 0.3}
    assert norm(mu) == pos.total() + neg.total() == 1.0

    nonneg = FAMeasure(space, atoms={3: 0.4})
    p2, n2 = jordan_parts(nonneg)
    assert p2 == nonneg and norm(n2) == 0.0

    d = minus(dirac(space, 0), dirac(space, 1))
    p3, n3 = jordan_parts(d)
    assert p3.atoms == {0: 1.0} and n3.atoms == {1: 1.0}
    assert norm(d) == 2.0


def test_yosida_hewitt_examples():
    # the atoms are the countably additive part: nothing past them; the ends the pure charge: nothing on a finite set
    space = StateSpace.integer_line()
    far = measurable(space, tails=[(END_POS, 10), (END_NEG, -10)])
    near = measurable(space, atoms=range(-10, 11))
    for mu in (end_charge(space, END_POS), dirac(space, 0), FAMeasure(space, atoms={3: 0.4}, ends={END_NEG: 0.6})):
        ca, pfa = FAMeasure(space, mu.atoms), FAMeasure(space, ends=mu.ends)
        assert ca + pfa == mu
        assert evaluate(ca, far) == 0.0 and evaluate(ca, near) == ca.total()
        assert evaluate(pfa, near) == 0.0 and evaluate(pfa, far) == pfa.total()
        assert evaluate(mu, far) == pfa.total() and evaluate(mu, far.complement()) == ca.total()


def test_decompositions_recompose_exactly():
    rng = np.random.default_rng(7)
    space = StateSpace.integer_line()
    for _ in range(200):
        atoms = {int(rng.integers(-20, 21)): float(rng.normal()) for _ in range(6)}
        ends = {END_POS: float(rng.normal()), END_NEG: float(rng.normal())}
        mu = FAMeasure(space, atoms, ends)
        pos, neg = jordan_parts(mu)
        assert minus(pos, neg) == mu  # exact, tolerance zero
        ca, pfa = FAMeasure(space, mu.atoms), FAMeasure(space, ends=mu.ends)
        assert ca + pfa == mu
        if mu.is_nonnegative():
            assert norm(mu) == norm(ca) + norm(pfa)


def test_norm_splits_for_nonnegative():
    space = StateSpace.half_line()
    mu = FAMeasure(space, atoms={0: 0.25, 2: 0.25}, ends={END_POS: 0.5})
    ca, pfa = FAMeasure(space, mu.atoms), FAMeasure(space, ends=mu.ends)
    assert norm(mu) == norm(ca) + norm(pfa)


def test_lattice_inf_examples():
    space = StateSpace.finite(2)
    m1 = from_vector(space, [0.6, 0.4])
    m2 = from_vector(space, [0.3, 0.7])
    inf_m = lattice_inf(m1, m2)
    assert inf_m.atoms == {0: 0.3, 1: 0.4}
    assert inf_m.total() == pytest.approx(0.7, abs=TOL)
    full = measurable(space, atoms=[0, 1])
    assert lattice_inf_oracle(m1, m2, full) == pytest.approx(0.7, abs=TOL)

    assert norm(lattice_inf(dirac(space, 0), dirac(space, 1))) == 0.0

    half = StateSpace.half_line()
    assert norm(lattice_inf(dirac(half, 0), end_charge(half, END_POS))) == 0.0


def test_lattice_inf_of_identical_measures():
    space = StateSpace.finite(3)
    mu = from_vector(space, [0.2, 0.5, 0.3])
    assert lattice_inf(mu, mu) == mu
    e = measurable(space, atoms=[0, 2])
    assert lattice_inf_oracle(mu, mu, e) == pytest.approx(evaluate(mu, e), abs=TOL)


def test_lattice_rejects_signed_input():
    space = StateSpace.finite(2)
    signed = from_vector(space, [0.5, -0.5])
    with pytest.raises(PreconditionError):
        lattice_inf(signed, from_vector(space, [0.5, 0.5]))


def test_oracle_capacity_cap():
    space = StateSpace.finite(21)
    mu = from_vector(space, np.full(21, 1.0 / 21))
    with pytest.raises(CapacityError):
        lattice_inf_oracle(mu, mu, measurable(space, atoms=range(21)))


def test_closed_form_matches_oracle_randomized():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(2, 11))
        space = StateSpace.finite(n)
        m1 = from_vector(space, rng.random(n))
        m2 = from_vector(space, rng.random(n))
        inf_m = lattice_inf(m1, m2)
        for _ in range(10):
            members = [j for j in range(n) if rng.random() < 0.5]
            e = measurable(space, atoms=members)
            assert lattice_inf_oracle(m1, m2, e) == pytest.approx(
                evaluate(inf_m, e), abs=TOL
            )


def test_inf_below_and_sup_above_setwise():
    rng = np.random.default_rng(3)
    space = StateSpace.finite(6)
    for _ in range(40):
        m1 = from_vector(space, rng.random(6))
        m2 = from_vector(space, rng.random(6))
        lo = lattice_inf(m1, m2)
        hi = minus(m1 + m2, lo)  # the lattice supremum of nonnegative measures
        for mask in range(64):
            e = measurable(space, atoms=[j for j in range(6) if mask >> j & 1])
            v1, v2 = evaluate(m1, e), evaluate(m2, e)
            assert evaluate(lo, e) <= min(v1, v2) + TOL
            assert evaluate(hi, e) >= max(v1, v2) - TOL


def test_disjoint_and_singular_examples():
    space = StateSpace.half_line()
    d0, d1 = dirac(space, 0), dirac(space, 1)
    assert is_disjoint(d0, d1)
    w = singularity_witness(d0, d1)
    assert w is not None
    assert evaluate(d0, w[0]) == 1.0 and evaluate(d1, w[1]) == 1.0

    charge = end_charge(space, END_POS)
    assert is_disjoint(d0, charge)
    w2 = singularity_witness(d0, charge)
    assert w2 is not None
    assert evaluate(d0, w2[0]) == 1.0 and evaluate(charge, w2[1]) == 1.0
    # the sets themselves are disjoint: no state is in both
    for x in range(50):
        assert not (w2[0].covers_state(x) and w2[1].covers_state(x))

    half_half = FAMeasure(StateSpace.finite(2), atoms={0: 0.5, 1: 0.5})
    assert not is_disjoint(half_half, half_half)
    assert singularity_witness(half_half, half_half) is None


def test_pure_charge_behavior():
    # vanishes on every finite set, constant on nested tails
    space = StateSpace.integer_line()
    mu = FAMeasure(space, ends={END_POS: 0.4, END_NEG: 0.6})
    for m in (0, 10, 100, 10_000):
        assert evaluate(mu, measurable(space, atoms=range(-m, m + 1))) == 0.0
        assert evaluate(mu, measurable(space, tails=[(END_POS, m)])) == 0.4
        assert evaluate(mu, measurable(space, tails=[(END_NEG, -m)])) == 0.6
    assert not mu.atoms


def test_probability_membership_flags():
    space = StateSpace.integer_line()
    assert dirac(space, 5).is_probability()
    assert end_charge(space, END_NEG).is_probability()
    mixed = FAMeasure(space, atoms={0: 0.5}, ends={END_POS: 0.5})
    assert mixed.is_probability()
    assert not (mixed * 2.0).is_probability() and not minus(mixed, dirac(space, 0)).is_probability()


def test_json_literals_round_trip():
    space = StateSpace.half_line()
    mu = FAMeasure(space, atoms={0: 0.3}, ends={END_POS: 0.7})
    assert measure_from_json(space, mu.to_json()) == mu
    e = measurable(space, atoms=[0], tails=[(END_POS, 5)])
    assert set_from_json(space, e.to_json()) == e


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_measure_literals_rejected(bad):
    space = StateSpace.half_line()
    with pytest.raises(ValidationError, match=r"^atoms\[3\]: -?(nan|inf) is not a finite number$"):
        measure_from_json(space, {"atoms": {"0": 0.5, "3": bad}, "ends": {}})
    with pytest.raises(ValidationError, match=r"^ends\['\+inf'\]: -?(nan|inf) is not a finite number$"):
        measure_from_json(space, {"atoms": {"0": 0.5}, "ends": {END_POS: bad}})


def test_set_canonicalization():
    space = StateSpace.half_line()
    e = measurable(space, atoms=[3, 10], tails=[(END_POS, 5), (END_POS, 8)])
    assert e.tails == frozenset({(END_POS, 5)})  # widest tail kept
    assert e.atoms == frozenset({3})  # 10 is already inside the tail
