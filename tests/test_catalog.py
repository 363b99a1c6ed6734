"""Golden checks: every catalog entry reproduces its documented verdicts."""

import pytest

from chargechain import (
    ValidationError,
    birth_death,
    build,
    check_star,
    classify_invariant,
    check_beta,
    cycle,
    drift_walk_N,
    grid_unit_interval,
    invariant_basis,
    kernel_from_spec,
    kernel_to_spec,
    quasicompact_diagnostic,
    restart_walk,
)
from chargechain.catalog import entry, names


@pytest.mark.parametrize("name", names())
def test_expected_verdicts_reproduce(name):
    e = entry(name)
    kernel = build(name)
    basis = invariant_basis(kernel)
    expected = e.expected
    assert basis.dimension == expected["dimension"]["value"]
    assert basis.kinds == expected["kinds"]["value"]
    star = check_star(kernel)
    assert star["holds"] == expected["star"]["value"]
    assert quasicompact_diagnostic(star)[0] == expected["quasicompact"]["value"]
    if "classification" in expected:
        c = classify_invariant(kernel, basis.measures[0])
        assert [c.kind, c.period] == expected["classification"]["value"]
    if "beta" in expected:
        assert check_beta(basis)["holds"] == expected["beta"]["value"]


@pytest.mark.parametrize("name", names())
def test_chain_spec_round_trip(name):
    kernel = build(name)
    spec = kernel_to_spec(kernel)
    assert kernel_to_spec(kernel_from_spec(spec)) == spec


def test_build_with_overrides():
    k = build("birth_death", n=4, p=0.25, q=0.25)
    assert k.size == 4
    k2 = build("drift_walk_N", p_right=0.8)
    assert k2.row(5) == {4: pytest.approx(0.2), 6: pytest.approx(0.8)}


def test_builder_validation():
    with pytest.raises(ValidationError):
        build("no_such_chain")
    with pytest.raises(ValidationError):
        birth_death(1)
    with pytest.raises(ValidationError):
        birth_death(3, 0.8, 0.4)
    with pytest.raises(ValidationError):
        drift_walk_N(0.0)
    with pytest.raises(ValidationError):
        restart_walk(1.0)
    with pytest.raises(ValidationError):
        cycle(0)
    with pytest.raises(ValidationError):
        grid_unit_interval(8, 1.0)


def test_grid_direction_of_drift():
    # default drifts toward the accumulation point (index end), so the
    # invariant object is a pure charge; the slow variant is positive
    # recurrent and keeps a countably additive invariant as well
    fast = invariant_basis(grid_unit_interval(8, 0.7))
    assert fast.kinds == ["pfa"]
    slow = invariant_basis(grid_unit_interval(8, 0.35))
    assert slow.kinds == ["ca", "pfa"]


def test_expected_verdict_provenance_tags():
    for name in names():
        for key, val in entry(name).expected.items():
            assert val["provenance"] in ("derived", "literature")
