"""Kernel core: validation, operator actions, powers, averaging, duality."""

import itertools
import json
import re

import numpy as np
import pytest

from chargechain import (
    END_NEG,
    END_POS,
    FAMeasure,
    StructureError,
    TailRow,
    TransitionKernel,
    ValidationError,
    apply_A,
    birth_death,
    catalog,
    cesaro_kernel,
    drift_walk_N,
    kernel_from_spec,
    kernel_power,
    kernel_to_spec,
    kernels,
    invariant_basis_finite,
    measurable,
    projector_finite,
    restart_walk,
    swap2,
    symmetric_walk_Z,
    truncate_reflecting,
    two_absorbing,
)
from chargechain.measures import tv_distance
from oracles import BoundedFunction, apply_T, dirac, duality_residual, end_charge, from_vector, norm, prob

TOL = 1e-12


def random_kernel(rng, n):
    m = rng.random((n, n)) + 1e-3
    return TransitionKernel.finite(m / m.sum(axis=1, keepdims=True))


# -- validation ------------------------------------------------------------------

def test_bad_rows_rejected():
    with pytest.raises(ValidationError, match="row 1"):
        TransitionKernel.finite([[1.0, 0.0], [0.4, 0.5]])
    with pytest.raises(ValidationError, match="negative"):
        TransitionKernel.finite([[1.2, -0.2], [0.5, 0.5]])
    with pytest.raises(ValidationError, match="square"):
        TransitionKernel.finite([[1.0, 0.0]])


def test_the_first_bad_row_is_reported_and_its_negative_entry_before_its_sum():
    uniform = np.full((6, 6), 1 / 6)
    sum_first = uniform.copy()
    sum_first[3, 0] += 0.1  # row 3 sums past 1
    sum_first[5, :2] = -0.1, 1 / 6 + 0.1 + 1 / 6  # row 5 has a negative entry and sums to 1
    both = uniform.copy()
    both[3, 2] = -0.1  # row 3 has a negative entry and does not sum to 1
    for order in (np.ascontiguousarray, np.asfortranarray):
        with pytest.raises(ValidationError, match=rf"^row 3 sums to {float(sum_first[3].sum())!r}, expected 1$"):
            TransitionKernel.finite(order(sum_first))
        with pytest.raises(ValidationError, match=r"^row 3: negative probability at column 2$"):
            TransitionKernel.finite(order(both))


def test_fortran_ordered_input_keeps_the_verdicts_and_messages():
    rng = np.random.default_rng(13)
    for m in table_matrices(seed=31, count=30):
        bad = m.copy()
        rows = rng.integers(len(m), size=2)
        bad[rows[0], rng.integers(len(m))] -= rng.choice([1e-8, 0.5])  # a negative entry or a short row
        bad[rows[1]] *= rng.choice([1.0, 1 + 1e-8])
        verdicts = []
        for order in (np.ascontiguousarray, np.asfortranarray):
            try:
                verdicts.append(TransitionKernel.finite(order(bad)).matrix.tobytes())
            except ValidationError as exc:
                verdicts.append(str(exc))
        assert verdicts[0] == verdicts[1]


def test_walk_validation():
    with pytest.raises(ValidationError, match="missing tail row"):
        TransitionKernel.walk("Z", tails={END_POS: TailRow(relative={1: 1.0})})
    with pytest.raises(ValidationError, match="mass sums"):
        TransitionKernel.walk("N", tails={END_POS: TailRow(relative={1: 0.9})})
    with pytest.raises(ValidationError, match="below state 0"):
        TransitionKernel.walk(
            "N", tails={END_POS: TailRow(relative={-1: 0.5, 1: 0.5})}
        )
    with pytest.raises(ValidationError, match="offsets"):
        TransitionKernel.walk("N", tails={END_POS: TailRow(relative={100: 1.0})})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_matrix_entries_rejected(bad):
    with pytest.raises(ValidationError, match="row 1: non-finite probability at column 0"):
        TransitionKernel.finite([[0.5, 0.5], [bad, 1.0]])
    with pytest.raises(ValidationError, match=rf"matrix\[0\]\[0\]: {bad!r} is not a finite number"):
        kernel_from_spec({"kind": "finite", "matrix": [[bad, 1.0], [0.5, 0.5]]})


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_walk_rows_rejected(bad):
    tail = TailRow(relative={-1: 0.5, 1: 0.5})
    with pytest.raises(ValidationError, match="exception row 0: non-finite probability at 1"):
        TransitionKernel.walk("N", exceptions={0: {0: 1.0, 1: bad}}, tails={END_POS: tail})
    with pytest.raises(ValidationError, match=r"tail row \+inf: non-finite probability at 2"):
        TransitionKernel.walk(
            "N", exceptions={0: {1: 1.0}}, tails={END_POS: TailRow(relative={1: 1.0, 2: bad})}
        )
    with pytest.raises(ValidationError, match=r"tail row \+inf: non-finite probability at 0"):
        TransitionKernel.walk(
            "N",
            exceptions={0: {1: 1.0}},
            tails={END_POS: TailRow(relative={1: 1.0}, to_finite={0: bad})},
        )
    with pytest.raises(ValidationError, match=r"tail row -inf: non-finite probability at \+inf"):
        TransitionKernel.walk(
            "Z",
            tails={
                END_POS: tail,
                END_NEG: TailRow(relative={-1: 1.0}, to_other_end={END_POS: bad}),
            },
        )


STEP = {END_POS: TailRow(relative={1: 1.0})}  # a valid tail row on N
STEPS = {END_POS: TailRow(relative={1: 1.0}), END_NEG: TailRow(relative={-1: 1.0})}  # valid tail rows on Z


@pytest.mark.parametrize(
    "support, exceptions, tails, message",
    [
        ("N", {-1: {0: 1.0}}, STEP, "exception row for state -1 outside support"),
        ("N", {0: {1: 0.5}}, STEP, "exception row 0: mass sums to 0.5, expected 1"),
        ("N", {0: {0: -0.5, 1: 1.5}}, STEP, "exception row 0: negative probability at 0"),
        ("N", {0: {-1: 1.0}}, STEP, "exception row 0: target -1 outside support"),
        ("N", {}, {END_POS: TailRow(relative={1: 0.9})}, "tail row +inf: mass sums to 0.9, expected 1"),
        ("N", {}, {END_POS: TailRow(relative={1: 1.5, 2: -0.5})}, "tail row +inf: negative probability at 2"),
        (
            "N",
            {},
            {END_POS: TailRow(relative={1: 0.5}, to_finite={-3: 0.5})},
            "tail row +inf: target -3 outside support",
        ),
        ("Z", {}, {**STEPS, END_POS: TailRow(relative={65: 1.0})}, "tail row +inf: offsets beyond +-64"),
        ("Z", {}, {**STEPS, END_NEG: TailRow(relative={-65: 1.0})}, "tail row -inf: offsets beyond +-64"),
        (
            "Z",
            {},
            {**STEPS, END_POS: TailRow(relative={1: 0.5}, to_other_end={END_POS: 0.5})},
            "tail row +inf: bad cross-end target '+inf'",
        ),
        (
            "N",
            {},
            {END_POS: TailRow(relative={1: 0.5}, to_other_end={END_NEG: 0.5})},
            "tail row +inf: bad cross-end target '-inf'",
        ),
        ("N", {}, {**STEP, END_NEG: TailRow(relative={-1: 1.0})}, "tail row for unknown end '-inf'"),
        ("N", {}, {}, "missing tail row for end '+inf'"),
        (
            "N",
            {0: {1: 1.0}},
            {END_POS: TailRow(relative={-2: 0.5, 1: 0.5})},
            "tail row +inf: offset -2 jumps below state 0 from state 1",
        ),
        ("R", {}, STEP, "support must be 'N' or 'Z', got 'R'"),
    ],
)
def test_each_walk_validation_message(support, exceptions, tails, message):
    """One fault per spec, each refused with the message that names its row and entry."""
    with pytest.raises(ValidationError) as info:
        TransitionKernel.walk(support, exceptions=exceptions, tails=tails)
    assert str(info.value) == message


def test_tail_row_after_exceptions_can_step_back():
    k = drift_walk_N(0.7)  # reflects at 0 through an exception row
    assert k.row(0) == {0: pytest.approx(0.3), 1: pytest.approx(0.7)}
    assert k.row(5) == {4: pytest.approx(0.3), 6: pytest.approx(0.7)}


# -- apply_T ---------------------------------------------------------------------

def test_T_preserves_constants():
    rng = np.random.default_rng(0)
    k = random_kernel(rng, 5)
    ones = BoundedFunction(k.space, {x: 1.0 for x in range(5)})
    tf = apply_T(k, ones)
    assert all(abs(tf.value(x) - 1.0) <= TOL for x in range(5))


def test_T_permutation():
    k = swap2()
    f = BoundedFunction(k.space, {0: 1.0, 1: 0.0})
    tf = apply_T(k, f)
    assert (tf.value(0), tf.value(1)) == (0.0, 1.0)


def test_T_transports_end_limit_on_drift():
    k = drift_walk_N(1.0)
    f = BoundedFunction(k.space, window={0: -2.0}, default=0.0, end_limits={END_POS: 3.5})
    tf = apply_T(k, f)
    assert tf.end_limits[END_POS] == pytest.approx(3.5, abs=TOL)
    assert tf.value(10_000) == pytest.approx(3.5, abs=TOL)
    assert tf.sup_norm() <= f.sup_norm() + TOL


# -- apply_A ---------------------------------------------------------------------

def test_A_matrix_action():
    k = swap2()
    assert apply_A(k, dirac(k.space, 0)).atoms == {1: 1.0}


def test_A_on_end_charge_restart():
    k = restart_walk(0.1)
    out = apply_A(k, end_charge(k.space, END_POS))
    assert out.atoms == {0: pytest.approx(0.1)}
    assert out.ends == {END_POS: pytest.approx(0.9)}


def test_A_on_end_charge_symmetric():
    k = symmetric_walk_Z()
    out = apply_A(k, end_charge(k.space, END_POS))
    assert out.ends == {END_POS: 1.0} and not out.atoms


def test_A_preserves_mass_and_positivity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        k = random_kernel(rng, n)
        w = rng.random(n)
        mu = from_vector(k.space, w / w.sum())
        out = apply_A(k, mu)
        assert out.is_probability(1e-9)
        assert abs(out.total() - 1.0) <= 1e-9


def test_A_is_a_contraction_on_signed_measures():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        k = random_kernel(rng, n)
        mu = from_vector(k.space, rng.normal(size=n))
        assert norm(apply_A(k, mu)) <= norm(mu) + TOL


# -- powers and averages -----------------------------------------------------------

def test_power_examples():
    sw = swap2()
    assert np.allclose(kernel_power(sw, 2).matrix, np.eye(2))
    assert np.array_equal(kernel_power(sw, 1).matrix, sw.matrix)
    idem = TransitionKernel.finite([[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(kernel_power(idem, 3).matrix, idem.matrix, atol=TOL)


def test_cesaro_examples():
    sw = swap2()
    assert np.allclose(cesaro_kernel(sw, 2).matrix, np.full((2, 2), 0.5), atol=TOL)
    assert np.array_equal(cesaro_kernel(sw, 1).matrix, sw.matrix)
    idem = TransitionKernel.finite([[0.5, 0.5], [0.5, 0.5]])
    for m in (1, 2, 5):
        assert np.allclose(cesaro_kernel(idem, m).matrix, idem.matrix, atol=TOL)


def test_rows_stay_stochastic():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = random_kernel(rng, int(rng.integers(2, 8)))
        for op in (lambda: kernel_power(k, 4), lambda: cesaro_kernel(k, 5)):
            m = op().matrix
            assert np.all(np.abs(m.sum(axis=1) - 1.0) <= 1e-12)
            assert np.all(m >= -1e-15)


def test_power_matches_repeated_application():
    rng = np.random.default_rng(4)
    k = random_kernel(rng, 5)
    mu = from_vector(k.space, np.full(5, 0.2))
    stepped = mu
    for _ in range(4):
        stepped = apply_A(k, stepped)
    via_power = apply_A(kernel_power(k, 4), mu)
    assert tv_distance(stepped, via_power) <= TOL


def test_no_materialized_powers_for_walks():
    with pytest.raises(StructureError):
        kernel_power(symmetric_walk_Z(), 2)
    with pytest.raises(StructureError):
        cesaro_kernel(drift_walk_N(1.0), 2)


# -- the far rows ---------------------------------------------------------------------

def test_A_on_end_charge_without_leaks():
    # restart_walk, and symmetric_walk_Z at +inf, are test_A_on_end_charge_restart's and _symmetric's
    for k, e in ((drift_walk_N(1.0), END_POS), (symmetric_walk_Z(), END_NEG)):
        out = apply_A(k, end_charge(k.space, e))
        assert out.ends == {e: 1.0} and not out.atoms


def test_cross_end_mass_is_the_mirror_jump():
    tail_pos = TailRow(relative={1: 0.5}, to_other_end={END_NEG: 0.5})
    tail_neg = TailRow(relative={-1: 1.0})
    k = TransitionKernel.walk("Z", tails={END_POS: tail_pos, END_NEG: tail_neg})
    assert apply_A(k, end_charge(k.space, END_POS)).ends == {END_POS: 0.5, END_NEG: 0.5}
    assert k.row(3) == {4: 0.5, -3: 0.5}
    assert k.row(0) == {1: 0.5, 0: 0.5}  # state 0 is its own mirror image
    assert k.row(-3) == {-4: 1.0}


# a Z walk whose exception targets lie past every other fixed state
FAR_TARGETS = {
    "kind": "walk",
    "support": "Z",
    "exceptions": {"0": {"-6": 0.5, "5": 0.5}},
    "tail_+inf": {"relative": {"-1": 0.5, "1": 0.25}, "to_finite": {"0": 0.25}},
    "tail_-inf": {"relative": {"-1": 0.25, "1": 0.5}, "to_other_end": {"+inf": 0.25}},
}


def test_duality_holds_across_ends():
    tail = {"relative": {"-1": 0.25, "1": 0.25}}
    cross = {
        "kind": "walk",
        "support": "Z",
        "exceptions": {"2": {"-1": 0.5, "3": 0.5}},
        "tail_+inf": {**tail, "to_other_end": {"-inf": 0.5}},
        "tail_-inf": {**tail, "to_other_end": {"+inf": 0.5}},
    }
    lims = {END_POS: 0.7, END_NEG: -0.4}
    for k in (kernel_from_spec(cross), kernel_from_spec(FAR_TARGETS)):
        for window in ({-10: 1.0}, {5: 2.0}, {-3: 1.0, 7: -1.0}, {}):
            f = BoundedFunction(k.space, window, default=0.3, end_limits=lims)
            for x in range(-15, 16):
                assert duality_residual(k, f, dirac(k.space, x)) <= TOL
            for e in (END_POS, END_NEG):
                assert duality_residual(k, f, end_charge(k.space, e)) <= TOL


# -- duality --------------------------------------------------------------------------

def test_duality_constant_function_is_exact():
    rng = np.random.default_rng(5)
    k = random_kernel(rng, 4)
    ones = BoundedFunction(k.space, {x: 1.0 for x in range(4)})
    mu = from_vector(k.space, [0.1, 0.2, 0.3, 0.4])
    assert duality_residual(k, ones, mu) == 0.0


def test_duality_randomized_finite():
    rng = np.random.default_rng(6)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        k = random_kernel(rng, n)
        for _ in range(5):
            f = BoundedFunction(k.space, {x: float(rng.normal()) for x in range(n)})
            mu = from_vector(k.space, rng.normal(size=n))
            assert duality_residual(k, f, mu) <= TOL


def test_duality_countable_with_end_limits():
    for k in (drift_walk_N(1.0), restart_walk(0.1), symmetric_walk_Z()):
        lims = {e: -1.5 for e in k.space.end_ids()}
        f = BoundedFunction(k.space, window={0: 2.0, 1: 0.5, 4: -1.0},
                            default=0.75, end_limits=lims)
        mu = FAMeasure(
            k.space,
            atoms={0: 0.25, 3: 0.25},
            ends={k.space.end_ids()[0]: 0.5},
        )
        assert duality_residual(k, f, mu) <= TOL
        charge = end_charge(k.space, k.space.end_ids()[0])
        assert duality_residual(k, f, charge) <= TOL


# -- chain-spec JSON --------------------------------------------------------------------

def test_spec_round_trip_finite():
    k = TransitionKernel.finite([[0.25, 0.75], [0.5, 0.5]], labels=("a", "b"))
    spec = kernel_to_spec(k)
    back = kernel_from_spec(spec)
    assert np.array_equal(back.matrix, k.matrix)
    assert back.space.labels == ("a", "b")
    assert kernel_to_spec(back) == spec


def test_spec_round_trip_walk():
    k = restart_walk(0.1)
    spec = kernel_to_spec(k)
    back = kernel_from_spec(spec)
    assert kernel_to_spec(back) == spec
    assert back.tails[END_POS].to_finite == {0: 0.1}


def test_spec_parse_rejects_bad_input():
    with pytest.raises(ValidationError, match="row 0"):
        kernel_from_spec({"kind": "finite", "matrix": [[0.9, 0.0], [0.5, 0.5]]})
    with pytest.raises(ValidationError, match="kind"):
        kernel_from_spec({"kind": "mystery"})
    with pytest.raises(ValidationError):
        kernel_from_spec({"kind": "walk", "support": "Q"})
    tail = {"relative": {"1": 1.0}}
    with pytest.raises(ValidationError, match=r"^exceptions\[0\]: key 'one' is not an integer$"):
        kernel_from_spec({"kind": "walk", "support": "N", "exceptions": {"0": {"one": 1.0}}, "tail_+inf": tail})
    with pytest.raises(ValidationError, match=r"^\['tail_\+inf'\]\.relative: \[1.0\] is not a JSON object$"):
        kernel_from_spec({"kind": "walk", "support": "N", "tail_+inf": {"relative": [1.0]}})
    with pytest.raises(ValidationError, match=r"^unknown chain kind \[\]$"):
        kernel_from_spec({"kind": []})


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"kind": "finite", "rows": None}, "chain spec: field 'rows' is null"),
        ({"kind": "finite", "matrix": [[1.0]], "labels": None}, "chain spec: field 'labels' is null"),
        ({"kind": "walk", "support": "N", "exceptions": None, "tail_+inf": {"relative": {"1": 1.0}}},
         "chain spec: field 'exceptions' is null"),
        ({"kind": "walk", "support": "N", "tail_+inf": None}, "chain spec: field 'tail_+inf' is null"),
        ({"kind": "walk", "support": "N", "tail_+inf": {"relative": None, "to_finite": {"0": 1.0}}},
         "tail_+inf: field 'relative' is null"),
    ],
    ids=["rows", "labels", "exceptions", "tail row", "tail table"],
)
def test_a_spec_field_written_as_null_is_refused(spec, message):
    # the shape reader reads a null optional field as an absent one: the last spec would be a chain that restarts at 0
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        kernel_from_spec(spec)


def test_finite_spec_writes_the_nonzero_entries_of_each_row():
    k = TransitionKernel.finite([[0.25, 0.0, 0.75], [0.0, 1.0, 0.0], [5e-324, 0.5, 0.5 - 5e-324]])
    assert kernel_to_spec(k) == {
        "kind": "finite",
        "rows": [{"0": 0.25, "2": 0.75}, {"1": 1.0}, {"0": 5e-324, "1": 0.5, "2": 0.5 - 5e-324}],
    }


def spec_round_trips(k):
    """The spec, also through JSON text, rebuilds k's matrix bit for bit, and reloading does not change it."""
    spec = kernel_to_spec(k)
    for back in (kernel_from_spec(spec), kernel_from_spec(json.loads(json.dumps(spec)))):
        assert back.matrix.tobytes() == k.matrix.tobytes()
        assert back.space == k.space
        assert kernel_to_spec(back) == spec


def test_finite_spec_rebuilds_the_matrix_bit_for_bit():
    for m in table_matrices(seed=17, count=120):
        spec_round_trips(TransitionKernel.finite(m))
    finite = [catalog.build(name) for name in catalog.names()]
    finite = [k for k in finite if k.space.is_finite]
    assert len(finite) == 5
    for k in finite:
        spec_round_trips(k)


def test_negative_zero_entry_reloads_to_the_same_bits():
    k = TransitionKernel.finite([[1.0, -0.0], [0.5, 0.5]])
    assert not np.signbit(k.matrix).any()
    back = kernel_from_spec(json.loads(json.dumps(kernel_to_spec(k))))
    assert back.matrix.tobytes() == k.matrix.tobytes()


def test_matrix_and_rows_specs_give_the_same_kernel():
    m = [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    rows = [{"0": 0.5, "1": 0.5}, {"2": 1.0}, {"0": 1.0}]
    a = kernel_from_spec({"kind": "finite", "matrix": m, "labels": ["a", "b", "c"]})
    b = kernel_from_spec({"kind": "finite", "rows": rows, "labels": ["a", "b", "c"]})
    assert a.matrix.tobytes() == b.matrix.tobytes() and a.space == b.space


# An explicit id is the case's established test name, kept so that a run that selects tests by name still finds
# the case. It quotes an older wording of the message and is a name only: the message asserted is the second field.
@pytest.mark.parametrize(
    "rows, message",
    [
        pytest.param(
            {"0": {"0": 1.0}},
            r"rows: \{'0': \{'0': 1.0\}\} is not a JSON array",
            id=r"rows0-rows = \{'0': \{'0': 1.0\}\} is not a JSON array",
        ),
        pytest.param(
            [{"0": 1.0}, [0.5, 0.5]],
            r"rows\[1\]: \[0.5, 0.5\] is not a JSON object",
            id=r"rows1-rows\[1\] = \[0.5, 0.5\] is not a JSON object",
        ),
        ([{"0": 1.0}, {"0": 0.5, "5": 0.5}], r"rows\[1\]: column '5' outside 0..1"),
        ([{"0": 1.0}, {"-1": 0.5, "0": 0.5}], r"rows\[1\]: column '-1' outside 0..1"),
        pytest.param(
            [{"a": 1.0}, {"1": 1.0}],
            r"rows\[0\]: key 'a' is not an integer",
            id=r"rows4-rows\[0\]: column 'a' is not an integer",
        ),
        pytest.param(
            [{"0": 1.0}, {"01": 1.0}],
            r"rows\[1\]: key '01' is not an integer",
            id=r"rows5-rows\[1\]: column '01' is not an integer",
        ),
        pytest.param(
            [{"0": 1.0}, {"1.0": 1.0}],
            r"rows\[1\]: key '1.0' is not an integer",
            id=r"rows6-rows\[1\]: column '1.0' is not an integer",
        ),
        pytest.param(
            [{"0": "x"}, {"1": 1.0}],
            r"rows\[0\]\[0\]: 'x' is not a number",
            id=r"rows7-rows\[0\]: column '0' = 'x' is not a number",
        ),
        pytest.param(
            [{"0": [1.0]}, {"1": 1.0}],
            r"rows\[0\]\[0\]: \[1.0\] is not a number",
            id=r"rows8-rows\[0\]: column '0' = \[1.0\] is not a number",
        ),
        ([{"0": 1.0}, {"0": 0.4, "1": 0.5}], r"row 1 sums to 0.9, expected 1"),
        pytest.param(  # refused by the reader, before TransitionKernel.finite's own check of finiteness
            [{"0": float("nan")}, {"1": 1.0}],
            r"rows\[0\]\[0\]: nan is not a finite number",
            id=r"rows10-row 0: non-finite probability at column 0",
        ),
        ([{"0": 1.2, "1": -0.2}, {"1": 1.0}], r"row 0: negative probability at column 1"),
        ([], r"finite space needs size >= 1, got 0"),
        pytest.param(  # a JSON number, never a bool
            [{"0": True}, {"1": 1.0}],
            r"rows\[0\]\[0\]: True is not a number",
            id=r"rows13-rows\[0\]: column '0' = True is not a number",
        ),
        pytest.param(  # nor a numeric string
            [{"0": 1.0}, {"1": "1"}],
            r"rows\[1\]\[1\]: '1' is not a number",
            id=r"rows14-rows\[1\]: column '1' = '1' is not a number",
        ),
        pytest.param(  # past the float range
            [{"0": 10**400}, {"1": 1.0}],
            r"rows\[0\]\[0\]: 10+ is not a finite number",
            id=r"rows15-rows\[0\]: column '0' = 10+ is not a number",
        ),
    ],
)
def test_malformed_rows_are_rejected_by_name(rows, message):
    with pytest.raises(ValidationError, match=message):
        kernel_from_spec({"kind": "finite", "rows": rows})


def test_finite_spec_takes_exactly_one_form():
    for spec in ({"kind": "finite"}, {"kind": "finite", "matrix": [[1.0]], "rows": [{"0": 1.0}]}):
        with pytest.raises(ValidationError, match="exactly one of a 'rows' and a 'matrix' field"):
            kernel_from_spec(spec)


def test_a_spec_past_the_state_cap_is_refused_before_any_dense_matrix(monkeypatch):
    # MAX_STATES + 1 empty rows are a few KB of JSON; 50,000 of them would ask np.zeros for 20 GB
    def formed(*args, **kwargs):
        raise AssertionError("a dense matrix was formed")

    monkeypatch.setattr(kernels.np, "zeros", formed)
    monkeypatch.setattr(kernels.np, "array", formed)
    n = kernels.MAX_STATES + 1
    with pytest.raises(ValidationError, match=rf"'rows' must hold at most 2048 rows \(states\), got {n}"):
        kernel_from_spec({"kind": "finite", "rows": [{}] * n})
    row = [1.0] + [0.0] * (n - 1)  # one row list, held n times
    with pytest.raises(ValidationError, match=rf"'matrix' must hold at most 2048 rows \(states\), got {n}"):
        kernel_from_spec({"kind": "finite", "matrix": [row] * n})


def test_the_state_cap_admits_a_spec_of_exactly_max_states(monkeypatch):
    monkeypatch.setattr(kernels, "MAX_STATES", 3)
    identity = [{"0": 1.0}, {"1": 1.0}, {"2": 1.0}]
    assert kernel_from_spec({"kind": "finite", "rows": identity}).size == 3
    assert kernel_from_spec({"kind": "finite", "matrix": np.eye(3).tolist()}).size == 3
    for spec in ({"rows": identity + [{"3": 1.0}]}, {"matrix": np.eye(4).tolist()}):
        with pytest.raises(ValidationError, match="at most 3 rows"):
            kernel_from_spec({"kind": "finite", **spec})


def test_prob_against_tail_sets():
    k = drift_walk_N(1.0)
    tail = measurable(k.space, tails=[(END_POS, 5)])
    assert prob(k, 5, tail) == 1.0  # 5 -> 6, which is beyond 5
    assert prob(k, 3, tail) == 0.0


def test_duality_asymmetric_line_walk():
    # the two tail rows differ, so values near the origin mix both end limits
    tail_pos = TailRow(relative={+1: 0.8, -2: 0.2})
    tail_neg = TailRow(relative={-1: 0.6}, to_finite={0: 0.4})
    k = TransitionKernel.walk("Z", tails={END_POS: tail_pos, END_NEG: tail_neg})
    f = BoundedFunction(k.space, end_limits={END_POS: 3.0, END_NEG: -2.0})
    starts = [
        dirac(k.space, -1),
        dirac(k.space, 0),
        dirac(k.space, 1),
        FAMeasure(k.space, atoms={-3: 0.5, 2: 0.5}),
        end_charge(k.space, END_NEG),
    ]
    for mu in starts:
        assert duality_residual(k, f, mu) <= TOL


# -- the sparse row table of a finite kernel -------------------------------------------

def row_oracle(kernel, x):
    """Per-scalar row read over all n columns: the construction the row table replaced."""
    return {j: float(kernel.matrix[x, j]) for j in range(kernel.size) if kernel.matrix[x, j] != 0.0}


def exact_items(row):
    """Row items in order, with key and value types and the value's exact bits."""
    return [(type(k), k, type(v), v.hex()) for k, v in row.items()]


def table_matrices(seed, count, subnormals=True):
    """Seeded stochastic matrices: dense, sparse, absorbing rows, -0.0 and subnormal entries."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 30))
        m = rng.random((n, n))
        m[rng.random((n, n)) < rng.choice([0.0, 0.5, 0.9])] = 0.0
        for i in np.flatnonzero(rng.random(n) < 0.2):
            m[i] = 0.0  # absorbing row
            m[i, i] = 1.0
        for i in np.flatnonzero(m.sum(axis=1) == 0.0):
            m[i, rng.integers(n)] = 1.0
        m /= m.sum(axis=1, keepdims=True)
        zeros = m == 0.0
        m[zeros & (rng.random((n, n)) < 0.5)] = -0.0
        tiny = zeros & (rng.random((n, n)) < (0.1 if subnormals else 0.0))
        m[tiny] = rng.choice([5e-324, 1e-310, 2.2e-308], size=int(tiny.sum()))
        yield m


def sequential_powers(matrix, k):
    """(p^n, p^1 + ... + p^n) for n = 1..k by a plain loop from the identity: the reference."""
    cur, acc, out = np.eye(len(matrix)), np.zeros_like(matrix), []
    for _ in range(k):
        cur = cur @ matrix
        acc += cur
        out.append((cur, acc.copy()))
    return out


def test_powers_and_averages_are_the_sequential_products():
    mats = [*table_matrices(seed=23, count=40), birth_death(12, 0.3, 0.2).matrix, np.eye(1)]
    for m in mats:
        k = TransitionKernel.finite(m)
        for n, (cur, acc) in enumerate(sequential_powers(k.matrix, 8), start=1):
            assert kernel_power(k, n).matrix.tobytes() == cur.tobytes()
            assert cesaro_kernel(k, n).matrix.tobytes() == (acc / n).tobytes()


def banded_matrix(rng, n, width):
    """A seeded stochastic matrix whose row x lives on the columns x - width .. x + width."""
    m = np.zeros((n, n))
    for x in range(n):
        lo, hi = max(0, x - width), min(n, x + width + 1)
        m[x, lo:hi] = rng.random(hi - lo) + 1e-3
    return m / m.sum(axis=1, keepdims=True)


def block_matrix(rng, n, classes=3):
    """Closed classes on the first states, and n // 8 transient states after them.

    A class state reaches itself, its cycle successor and 4 random members of
    its class; a transient state reaches one state of each class and every
    transient state.
    """
    n_trans = n // 8
    bounds = np.linspace(0, n - n_trans, classes + 1).round().astype(int)
    m = np.zeros((n, n))
    for a, b in zip(bounds[:-1], bounds[1:]):
        for x in range(a, b):
            targets = np.unique([x, a + (x - a + 1) % (b - a), *rng.choice(np.arange(a, b), 4, replace=False)])
            m[x, targets] = rng.random(targets.size) + 1e-3
    for x in range(n - n_trans, n):
        m[x, [rng.integers(a, b) for a, b in zip(bounds[:-1], bounds[1:])]] = rng.random(classes) + 1.0
        m[x, n - n_trans :] += rng.random(n_trans) * 0.02
    return m / m.sum(axis=1, keepdims=True)


def test_dense_and_small_chains_take_the_one_dense_product():
    rng = np.random.default_rng(17)
    dense = rng.random((90, 90)) + 1e-3
    mats = [dense / dense.sum(axis=1, keepdims=True), birth_death(60, 0.3, 0.2).matrix]
    mats += [*table_matrices(seed=29, count=30), birth_death(32, 0.3, 0.2).matrix, banded_matrix(rng, 32, 1)]
    for m in mats:
        k = TransitionKernel.finite(m)
        assert kernels._panels(k.matrix) is None
        for (cur, acc), (ref, ref_acc) in zip(kernels.powers(k), sequential_powers(k.matrix, 30)):
            assert cur.tobytes() == ref.tobytes()
            assert acc.tobytes() == ref_acc.tobytes()


def paneled_kernels():
    rng = np.random.default_rng(19)
    return {
        "birth_death(150)": birth_death(150, 0.3, 0.2),
        "birth_death(200)": birth_death(200, 0.35, 0.25),
        "block(175)": TransitionKernel.finite(block_matrix(rng, 175)),
    }


@pytest.mark.parametrize("name", list(paneled_kernels()))
def test_sparse_chains_take_panels_within_rounding_of_the_dense_product(name):
    k = paneled_kernels()[name]
    n = k.size
    assert kernels._panels(k.matrix) is not None
    got = [cur for cur, _ in itertools.islice(kernels.powers(k), 200)]  # each step's array, kept as yielded
    ref = np.eye(n)
    for cur in got:
        ref = ref @ k.matrix
        assert np.abs(cur - ref).max() <= 4 * n * 2.0**-53


def test_a_panel_whose_columns_receive_no_mass_yields_exact_zeros():
    # states 64..95 each step to state x - 64 and are never entered
    rng = np.random.default_rng(23)
    m = np.zeros((96, 96))
    m[:64, :64] = banded_matrix(rng, 64, 1)
    m[np.arange(64, 96), np.arange(32)] = 1.0
    k = TransitionKernel.finite(m)
    panels = kernels._panels(k.matrix)
    assert panels is not None and panels[2][1] == slice(64, 96) and panels[2][0].size == 0
    for cur, acc in itertools.islice(kernels.powers(k), 20):
        assert cur[:, 64:].tobytes() == acc[:, 64:].tobytes() == bytes(8 * 96 * 32)


@pytest.mark.parametrize("n", [1, 7, 200])
def test_power_steps_counts_one_step_per_power_on_a_paneled_chain(power_steps, n):
    k = birth_death(150, 0.3, 0.2)
    assert kernels._panels(k.matrix) is not None
    power_steps.clear()
    kernel_power(k, n)
    assert power_steps == [150] * n
    cesaro_kernel(k, n)
    assert power_steps == [150] * (2 * n)


def test_row_table_matches_the_per_scalar_read():
    checked = 0
    for m in table_matrices(seed=17, count=120):
        k = TransitionKernel.finite(m)
        for x in range(k.size):
            assert exact_items(k.row(x)) == exact_items(row_oracle(k, x))
            checked += 1
    assert checked > 1000


def test_row_table_keeps_negative_zero_out_and_subnormals_in():
    m = np.array([[0.5, -0.0, 0.5], [5e-324, 1.0, 0.0], [0.0, 0.0, 1.0]])
    k = TransitionKernel.finite(m)
    assert k.row(0) == {0: 0.5, 2: 0.5}
    assert exact_items(k.row(1)) == exact_items({0: 5e-324, 1: 1.0})
    assert list(k.row(2)) == [2]


def test_row_hands_out_copies():
    k = swap2()
    k.row(0)[0] = 0.25
    assert k.row(0) == {1: 1.0}


def test_finite_kernel_matrices_are_read_only():
    k = birth_death(6, 0.3, 0.2)
    trunc = truncate_reflecting(drift_walk_N(0.4), 0, 4)
    for kern in (k, kernel_power(k, 1), kernel_power(k, 3), cesaro_kernel(k, 4), trunc):
        before = kern.row(1)
        with pytest.raises(ValueError):
            kern.matrix[1, 1] = 0.5
        assert kern.row(1) == before


def test_finite_kernel_does_not_alias_the_callers_array():
    arr = np.array([[0.2, 0.8], [0.6, 0.4]])
    k = TransitionKernel.finite(arr)
    assert k.row(0) == {0: 0.2, 1: 0.8}
    arr[0] = [1.0, 0.0]
    assert arr.flags.writeable
    assert k.matrix[0].tolist() == [0.2, 0.8]
    assert k.row(0) == {0: 0.2, 1: 0.8}


def test_A_of_projector_rows_adds_weighted_rows_in_order():
    kernels = [birth_death(40, 0.3, 0.2), two_absorbing()]
    # a subnormal exit from a transient set makes the absorption solve singular
    kernels += [TransitionKernel.finite(m) for m in table_matrices(29, 8, subnormals=False)]
    for k in kernels:
        for mu in (from_vector(k.space, row) for row in projector_finite(k, invariant_basis_finite(k))[1]):
            atoms = {}
            for x, w in sorted(mu.atoms.items()):
                for y in np.flatnonzero(k.matrix[x]).tolist():
                    atoms[y] = atoms.get(y, 0.0) + w * float(k.matrix[x, y])
            out = apply_A(k, mu)
            assert out.ends == {}
            assert exact_items(out.atoms) == exact_items({y: v for y, v in atoms.items() if v != 0.0})
