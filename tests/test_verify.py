"""verify-report on the invariant basis and its laws, the condition verdicts, the factored projector and
the rate fits: tampered reports fail, untouched ones pass, and a section of the wrong shape fails one
format item."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from chargechain import (
    StateSpace,
    birth_death,
    catalog,
    invariance_residual,
    kernel_from_spec,
    kernel_to_spec,
    measurable,
    measure_from_json,
    recurrent_classes,
    report,
    stationary_of_class,
)
from chargechain.cli import main
from chargechain.conditions import MAX_ORDER
from chargechain.report import SCHEMA_VERSION, verify_report
from oracles import sets_meet_by_states


def analyze(tmp_path: Path, *args) -> dict:
    out = tmp_path / "r.json"
    assert main([*args, "--out", str(out)]) == 0
    return json.loads(out.read_text())


def verify(tmp_path: Path, report: dict, capsys) -> tuple[int, str]:
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(report))
    capsys.readouterr()
    code = main(["verify-report", "--report", str(path)])
    return code, capsys.readouterr().out


def two_absorbing_report(tmp_path):
    return analyze(tmp_path, "analyze", "--catalog", "two_absorbing")


def drop_second_class(rep):
    proj = rep["ergodic"]["projector"]
    proj.update(rank=1, classes=proj["classes"][:1], stationary=proj["stationary"][:1])
    proj["absorption"] = {"1": [1.0], "2": [1.0]}  # rows that sum to 1 and solve (I - Q)H = B at 1


def open_class(rep):
    proj = rep["ergodic"]["projector"]
    proj["classes"][1] = [1]
    proj["stationary"][1] = {"atoms": {"1": 1.0}, "ends": {}}
    proj["absorption"] = {"2": [0.0, 1.0]}


def move_stationary(rep):
    # δ_2 is invariant and a probability, but it lives on the other class
    rep["ergodic"]["projector"]["stationary"][0] = {"atoms": {"2": 1.0}, "ends": {}}


def set_row(row):
    def edit(rep):
        rep["ergodic"]["projector"]["absorption"]["1"] = row

    return edit


def edit_key(section, key, value):
    def edit(rep):
        rep["ergodic"][section]["rate"][key] = value

    return edit


TAMPERED = {
    "absorbed by class 0 only": (set_row([1.0, 0.0]), "projector absorption equation"),
    "row sums to 1 but is no solution": (set_row([0.7, 0.3]), "projector absorption equation"),
    "negative absorption entry": (set_row([1.5, -0.5]), "projector absorption rows"),
    "rank edited": (lambda rep: rep["ergodic"]["projector"].update(rank=3), "projector classes"),
    "class state not an integer": (
        lambda rep: rep["ergodic"]["projector"].update(classes=[[0.5], [2]]),
        "projector classes",
    ),
    "class dropped": (drop_second_class, "projector classes"),
    "class not closed": (open_class, "projector classes"),
    "stationary off its class": (move_stationary, "projector stationary[0]"),
    "absorption row missing": (
        lambda rep: rep["ergodic"]["projector"].update(absorption={}),
        "projector transient states",
    ),
    "absorption time missing": (
        lambda rep: rep["ergodic"]["projector"].update(absorption_times={}),
        "projector transient states",
    ),
    "absorption time too small": (
        lambda rep: rep["ergodic"]["projector"].update(absorption_times={"1": 0.0}),
        "projector absorption equation",
    ),
    "n_zero edited": (edit_key("raw", "n_zero", 2), "raw rate fit"),
    "kind edited": (edit_key("cesaro", "kind", "subgeometric"), "cesaro rate fit"),
    "dense rows relabelled as schema 3": (
        lambda rep: rep["ergodic"].update(projector={"rank": 2, "rows": {}}),
        "projector format",
    ),
}


@pytest.mark.parametrize("case", sorted(TAMPERED))
def test_tampered_projector_or_rate_fails(tmp_path: Path, capsys, case):
    edit, failed = TAMPERED[case]
    rep = two_absorbing_report(tmp_path)
    edit(rep)
    code, out = verify(tmp_path, rep, capsys)
    assert code == 1
    assert f"FAILED: {failed}" in out


def set_beta_pair(**values):
    def edit(rep):
        rep["conditions"]["beta"]["witnesses"][0].update(values)

    return edit


MALFORMED = {
    "witness atom not an integer": (set_beta_pair(d1={"atoms": ["x"]}), "conditions format"),
    "beta pair index not an integer": (set_beta_pair(i="0"), "conditions format"),
    "beta pair index past the basis": (set_beta_pair(j=5), "conditions format"),
    "D eps a string": (
        lambda rep: rep["conditions"]["D"]["witness"].update(eps="0.5"),
        "conditions format",
    ),
    "beta witness without d1": (
        lambda rep: rep["conditions"]["beta"]["witnesses"][0].pop("d1"),
        "conditions format",
    ),
    "ergodic section not an object": (lambda rep: rep.update(ergodic=[1]), "ergodic format"),
    "invariant residuals missing": (lambda rep: rep["invariants"].pop("residuals"), "invariants format"),
    "invariant residual dropped": (lambda rep: rep["invariants"]["residuals"].pop(), "invariants format"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_section_fails_an_item(tmp_path: Path, capsys, case):
    edit, failed = MALFORMED[case]
    rep = two_absorbing_report(tmp_path)
    edit(rep)
    code, out = verify(tmp_path, rep, capsys)  # an uncaught error would end the test here
    assert code == 1
    (line,) = [line for line in out.splitlines() if line.startswith("FAILED")]
    assert line.startswith(f"FAILED: {failed} (")


def set_witness(key, value):
    def edit(rep):
        rep["conditions"]["D"]["witness"][key] = value

    return edit


WITNESS = {
    "phi": {"atoms": {"0": 1.0}, "ends": {}},
    "eps": 0.1,
    "k": 1,
    "vacuous": False,
    "phi_source": "basis-sum",
    "averaged": False,
}


def base_report(tmp_path: Path, name: str) -> dict:
    if name == "birth_death(23)":  # over the small-set cap: its D is a "capacity" finding
        chain = tmp_path / "bd23.json"
        chain.write_text(json.dumps(kernel_to_spec(birth_death(23))))
        return analyze(tmp_path, "analyze", "--chain", str(chain), "--n-max", "30")
    if name == "identity(3)":  # three absorbing states, so (beta) lists the pairs (0,1), (0,2), (1,2)
        chain = tmp_path / "eye3.json"
        chain.write_text(json.dumps({"kind": "finite", "matrix": [[float(i == j) for j in range(3)] for i in range(3)]}))
        return analyze(tmp_path, "analyze", "--chain", str(chain), "--n-max", "30")
    return analyze(tmp_path, "analyze", "--catalog", name)


# well-formed values outside the chain or outside a checker's contract: (base report, edit, failed item)
OUT_OF_DOMAIN = {
    "walk D edited into a witness": (
        "restart_walk",
        lambda rep: rep["conditions"].update(D={"kind": "witness", "verdict": "holds", "witness": WITNESS}),
        "conditions format (DomainError: countable kernel has no size)",
    ),
    "over-cap D edited into a witness": (
        "birth_death(23)",
        lambda rep: rep["conditions"].update(D={"kind": "witness", "verdict": "holds", "witness": WITNESS}),
        "conditions format (CapacityError: ",
    ),
    "D eps 1.5": ("birth_death", set_witness("eps", 1.5), "conditions format (ValidationError: eps must lie in"),
    "D k 0": ("birth_death", set_witness("k", 0), "conditions format (ValidationError: power needs an order"),
    "D phi negative": (
        "birth_death",
        set_witness("phi", {"atoms": {"0": -1.0}, "ends": {}}),
        "conditions format (PreconditionError: phi must be nonnegative)",
    ),
    "D phi off the chain": (
        "birth_death",
        set_witness("phi", {"atoms": {"9": 1.0}, "ends": {}}),
        "conditions format (DomainError: measure atoms: state 9 not in space)",
    ),
    "D phi with an end": (
        "birth_death",
        set_witness("phi", {"atoms": {"0": 1.0}, "ends": {"+inf": 1.0}}),
        "conditions format (DomainError: measure references unknown end '+inf')",
    ),
    "projector law off the chain": (
        "two_absorbing",
        lambda rep: rep["ergodic"]["projector"]["stationary"].__setitem__(0, {"atoms": {"7": 1.0}, "ends": {}}),
        "projector format (DomainError: measure atoms: state 7 not in space)",
    ),
    "projector law not finite": (
        "two_absorbing",
        lambda rep: rep["ergodic"]["projector"]["stationary"][0]["atoms"].update({"0": float("nan")}),
        "projector format (ValidationError: measure literal: non-finite weight nan at atoms[0])",
    ),
    "invariant off the chain": (
        "two_absorbing",
        lambda rep: rep["invariants"]["measures"].__setitem__(0, {"atoms": {"7": 1.0}, "ends": {}}),
        "invariants format (DomainError: measure atoms: state 7 not in space)",
    ),
    "invariant weight not finite": (
        "two_absorbing",
        lambda rep: rep["invariants"]["measures"][0]["atoms"].update({"0": float("nan")}),
        "invariants format (ValidationError: measure literal: non-finite weight nan at atoms[0])",
    ),
    "beta set off the chain": (
        "two_absorbing",
        lambda rep: rep["conditions"]["beta"]["witnesses"][0].update(d1={"atoms": [7]}),
        "conditions format (DomainError: measurable set: state 7 not in space)",
    ),
    "alpha closed set with an end tail": (
        "two_absorbing",
        lambda rep: rep["conditions"]["alpha"][0].update(closed_set={"tails": [{"end": "+inf", "after": 3}]}),
        "conditions format (DomainError: ",
    ),
    "alpha closed set with a tail pair": (
        "two_absorbing",
        lambda rep: rep["conditions"]["alpha"][0].update(closed_set={"tails": [["+inf", 3]]}),
        "conditions format (ValidationError: set literal: bad entry tails[0] = ['+inf', 3])",
    ),
    "beta set with string atoms": (
        "two_absorbing",
        lambda rep: rep["conditions"]["beta"]["witnesses"][0].update(d1={"atoms": "ab"}),
        "conditions format (ValidationError: set literal: atoms = 'ab' is not a JSON array)",
    ),
    "invariant with listed atoms": (
        "two_absorbing",
        lambda rep: rep["invariants"]["measures"].__setitem__(0, {"atoms": [[1, 0.5]], "ends": {}}),
        "invariants format (ValidationError: measure literal: atoms = [[1, 0.5]] is not a JSON object)",
    ),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_DOMAIN))
def test_value_outside_the_chain_or_a_contract_fails_an_item(tmp_path: Path, capsys, case):
    base, edit, failed = OUT_OF_DOMAIN[case]
    rep = base_report(tmp_path, base)
    assert verify(tmp_path, rep, capsys)[0] == 0
    edit(rep)
    code, out = verify(tmp_path, rep, capsys)  # a package error would end the test here, or exit 2 or 3
    assert code == 1
    (line,) = [line for line in out.splitlines() if line.startswith("FAILED")]
    assert line.startswith(f"FAILED: {failed}")


def drop_second_invariant(rep):
    inv = rep["invariants"]
    inv.update(dimension=1, **{key: inv[key][:1] for key in ("measures", "kinds", "residuals")})


def set_condition(key, field, value):
    def edit(rep):
        rep["conditions"][key][field] = value

    return edit


# two_absorbing: classes {0} and {2}, state 1 transient; its basis is δ_0, δ_2
BASIS = "invariant basis complete"
VERDICTS = "condition verdicts consistent"
UNCHECKED_CLAIMS = {
    "one invariant dropped": (drop_second_invariant, BASIS),
    "invariants in the wrong class order": (
        lambda rep: rep["invariants"]["measures"].reverse(),
        BASIS,
    ),
    "invariant across both classes": (
        lambda rep: rep["invariants"]["measures"].__setitem__(1, {"atoms": {"0": 0.5, "2": 0.5}, "ends": {}}),
        BASIS,
    ),
    "basis dimension edited": (lambda rep: rep["invariants"].update(dimension=3), BASIS),
    "basis kind edited": (lambda rep: rep["invariants"]["kinds"].__setitem__(1, "pfa"), BASIS),
    "basis scope edited": (lambda rep: rep["invariants"].update(scope="representable"), BASIS),
    # the stored residual must be the recomputed one, 0.0 for δ_0
    "stored residual edited": (
        lambda rep: rep["invariants"]["residuals"].__setitem__(0, 1e-17),
        "invariant[0] residual (residual 0.000e+00, stored 1e-17)",
    ),
    "star flipped": (set_condition("star", "holds", False), f"{VERDICTS} ((*) against its charges fails"),
    "tilde_star flipped": (set_condition("tilde_star", "holds", False), f"{VERDICTS} ((~*) against (*) fails)"),
    "beta flipped": (set_condition("beta", "holds", False), "beta pairs (1 of the 1 pairs i < j < 2 listed, holds False)"),
    "quasicompact flipped": (
        set_condition("quasicompact", "status", "inconsistent"),
        f"{VERDICTS} (quasicompact against (*) fails)",
    ),
    "double_star dimension edited": (
        set_condition("double_star", "evidence", {"dimension": 1}),
        f"{VERDICTS} ((**) dimension against the classes fails)",
    ),
}


@pytest.mark.parametrize("case", sorted(UNCHECKED_CLAIMS))
def test_tampered_basis_or_verdict_fails(tmp_path: Path, capsys, case):
    edit, failed = UNCHECKED_CLAIMS[case]
    rep = two_absorbing_report(tmp_path)
    edit(rep)
    code, out = verify(tmp_path, rep, capsys)
    assert code == 1
    assert f"FAILED: {failed}" in out


@pytest.mark.parametrize("name", ["restart_walk", "drift_walk_N"])
def test_walk_basis_emptied_fails(tmp_path: Path, capsys, name):
    # every Markov operator has an invariant finitely additive probability, so no chain has an empty basis
    rep = analyze(tmp_path, "analyze", "--catalog", name, "--tasks", "invariants")
    rep["invariants"].update(measures=[], residuals=[], kinds=[], dimension=0)
    code, out = verify(tmp_path, rep, capsys)
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAILED")] == [
        "FAILED: invariant basis kinds (0 measures, dimension 0, kinds []; the measures read as []; "
        "but every Markov operator has an invariant FA probability (Markov-Kakutani))"
    ]


def swap_beta_sets(rep):
    pair = rep["conditions"]["beta"]["witnesses"][0]
    pair["d1"], pair["d2"] = pair["d2"], pair["d1"]


def edit_beta(edit):
    return lambda rep: edit(rep["conditions"]["beta"])


EMPTY_SET = {"atoms": []}
BETA_PAIRS = "beta pairs"
# two_absorbing's basis is δ_0, δ_2; symmetric_walk_Z's is the charges at +inf and -inf
BETA_TAMPERS = {
    "empty sets": ("two_absorbing", set_beta_pair(d1=EMPTY_SET, d2=EMPTY_SET), "beta witness (0,1)"),
    "sets that hold neither measure": (
        "two_absorbing",
        set_beta_pair(d1={"atoms": [1]}, d2={"atoms": [0, 2]}),
        "beta witness (0,1)",
    ),
    "empty sets on Z": ("symmetric_walk_Z", set_beta_pair(d1=EMPTY_SET, d2=EMPTY_SET), "beta witness (0,1)"),
    "sets swapped on Z": ("symmetric_walk_Z", swap_beta_sets, "beta witness (0,1)"),
    "witnesses emptied, holds kept": (
        "two_absorbing",
        edit_beta(lambda beta: beta.update(witnesses=[])),
        f"{BETA_PAIRS} (0 of the 1 pairs i < j < 2 listed, holds True; left out [(0, 1)])",
    ),
    "pair dropped": (
        "identity(3)",
        edit_beta(lambda beta: beta["witnesses"].pop(1)),
        f"{BETA_PAIRS} (2 of the 3 pairs i < j < 3 listed, holds True; left out [(0, 2)])",
    ),
    # a pair may be left out only when its measures are not disjoint
    "pair dropped, holds false": (
        "identity(3)",
        edit_beta(lambda beta: (beta["witnesses"].pop(1), beta.update(holds=False))),
        f"{BETA_PAIRS} (2 of the 3 pairs i < j < 3 listed, holds False; left out [(0, 2)])",
    ),
    "pairs out of order": (
        "identity(3)",
        edit_beta(lambda beta: beta["witnesses"].reverse()),
        f"{BETA_PAIRS} (3 of the 3 pairs i < j < 3 listed, holds True)",
    ),
}


@pytest.mark.parametrize("case", sorted(BETA_TAMPERS))
def test_tampered_beta_fails(tmp_path: Path, capsys, case):
    base, edit, failed = BETA_TAMPERS[case]
    rep = base_report(tmp_path, base)
    code, out = verify(tmp_path, rep, capsys)
    assert code == 0 and f"ok: {BETA_PAIRS}" in out
    edit(rep)
    code, out = verify(tmp_path, rep, capsys)
    assert code == 1
    (line,) = [line for line in out.splitlines() if line.startswith("FAILED")]
    assert line.startswith(f"FAILED: {failed}")


def test_beta_without_the_basis_checks_its_sets_alone(tmp_path: Path, capsys):
    # on a walk, the basis comes from the invariants section alone
    rep = analyze(tmp_path, "analyze", "--catalog", "symmetric_walk_Z", "--tasks", "conditions")
    assert "invariants" not in rep
    code, out = verify(tmp_path, rep, capsys)
    assert code == 0
    assert "ok: beta witness (0,1) (the measures are not in the report)" in out
    # a pair left out needs its measures to show they are not disjoint
    rep["conditions"]["beta"].update(holds=False, witnesses=[])
    code, out = verify(tmp_path, rep, capsys)
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAILED")] == [
        "FAILED: beta pairs (0 of the 1 pairs i < j < 2 listed, holds False; left out [(0, 1)]; "
        "the measures are not in the report)"
    ]


def test_beta_without_the_basis_on_a_finite_chain_checks_the_class_laws(tmp_path: Path, capsys):
    # two_absorbing's class laws δ_0 and δ_2 are re-derived from the chain when the report has no basis
    rep = analyze(tmp_path, "analyze", "--catalog", "two_absorbing", "--tasks", "conditions")
    assert "invariants" not in rep
    code, out = verify(tmp_path, rep, capsys)
    assert code == 0 and "ok: beta witness (0,1)\n" in out and "not in the report" not in out
    set_beta_pair(d1=EMPTY_SET, d2=EMPTY_SET)(rep)
    code, out = verify(tmp_path, rep, capsys)
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAILED")] == ["FAILED: beta witness (0,1)"]
    # a pair left out is checked against the class laws too: δ_0 and δ_2 are disjoint
    rep["conditions"]["beta"].update(holds=False, witnesses=[])
    code, out = verify(tmp_path, rep, capsys)
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAILED")] == [
        "FAILED: beta pairs (0 of the 1 pairs i < j < 2 listed, holds False; left out [(0, 1)])"
    ]


def test_walk_star_that_contradicts_its_charge_fails(tmp_path: Path, capsys):
    rep = analyze(tmp_path, "analyze", "--catalog", "drift_walk_N")
    star = rep["conditions"]["star"]
    assert not star["holds"] and star["evidence"]["invariant_charges"]
    assert verify(tmp_path, rep, capsys)[0] == 0
    for key in ("star", "tilde_star"):
        rep["conditions"][key]["holds"] = True
    code, out = verify(tmp_path, rep, capsys)
    assert code == 1
    assert f"FAILED: {VERDICTS} ((*) against its charges fails; quasicompact against (*) fails)" in out


WALK_BASIS = "invariant basis kinds"
WALK_CLAIMS = {
    "dimension and kind edited": lambda inv: inv.update(dimension=5, kinds=["ca"]),
    "dimension edited": lambda inv: inv.update(dimension=2),
    "kind edited": lambda inv: inv.update(kinds=["ca"]),
    "kind dropped": lambda inv: inv.update(kinds=[]),
    "scope edited": lambda inv: inv.update(scope="exact"),
    "measure with atoms and ends": lambda inv: inv["measures"].__setitem__(
        0, {"atoms": {"0": 0.5}, "ends": {"+inf": 0.5}}
    ),
    "measure with neither": lambda inv: inv["measures"].__setitem__(0, {"atoms": {}, "ends": {}}),
}


@pytest.mark.parametrize("case", sorted(WALK_CLAIMS))
def test_walk_basis_that_misdescribes_its_measures_fails(tmp_path: Path, capsys, case):
    # drift_walk_N: its basis is the one end charge {+inf: 1}, of kind "pfa"
    rep = analyze(tmp_path, "analyze", "--catalog", "drift_walk_N")
    inv = rep["invariants"]
    assert (inv["dimension"], inv["kinds"], inv["measures"]) == (1, ["pfa"], [{"atoms": {}, "ends": {"+inf": 1.0}}])
    code, out = verify(tmp_path, rep, capsys)
    assert code == 0 and f"ok: {WALK_BASIS}" in out
    WALK_CLAIMS[case](inv)
    code, out = verify(tmp_path, rep, capsys)
    assert code == 1
    assert f"FAILED: {WALK_BASIS}" in out


def set_mass(window, at, value):
    def edit(esc):
        esc["windows"][window][1][at] = value

    return edit


# drift_walk_N at n_max = 50: checkpoints 1, 2, 4, 8, 16, 32, 50, and window m holds min(n, m) / n at n
ESCAPE_TAMPERS = {
    "estimate edited": (lambda esc: esc.update(pfa_mass_estimate=0.5), "escape profile"),
    "checkpoint edited": (lambda esc: esc["checkpoints"].__setitem__(2, 3), "escape profile"),
    "checkpoint dropped": (lambda esc: esc["checkpoints"].pop(3), "escape profile"),
    "checkpoints not a list": (lambda esc: esc.update(checkpoints=None), "escape format"),
    "mass of 1.5": (set_mass(1, 3, 1.5), "escape profile"),
    "negative mass": (set_mass(0, 0, -0.25), "escape profile"),
    "smaller window heavier": (set_mass(0, 6, 0.9), "escape profile"),
    "n_max not an integer": (lambda esc: esc.update(n_max=50.0), "escape format"),
    "series cut short": (lambda esc: esc["windows"][0][1].pop(), "escape profile"),
    "window dropped": (lambda esc: esc["windows"].pop(0), "escape profile"),
    "n_max edited": (lambda esc: esc.update(n_max=10), "escape profile"),
    "split to an unknown end": (lambda esc: esc.update(per_end_split={"-inf": 1.0}), "escape profile"),
    "split short of 1": (lambda esc: esc.update(per_end_split={"+inf": 0.9}), "escape profile"),
    "windows without their sizes": (
        lambda esc: esc.update(windows=[seq for _, seq in esc["windows"]]),
        "escape format",
    ),
}


@pytest.mark.parametrize("case", sorted(ESCAPE_TAMPERS))
def test_tampered_escape_profile_fails(tmp_path: Path, capsys, case):
    edit, failed = ESCAPE_TAMPERS[case]
    rep = analyze(tmp_path, "analyze", "--catalog", "drift_walk_N", "--n-max", "50")
    esc = rep["escape"]
    assert (esc["n_max"], esc["per_end_split"], [m for m, _ in esc["windows"]]) == (50, {"+inf": 1.0}, [8, 16, 32])
    assert esc["checkpoints"] == [1, 2, 4, 8, 16, 32, 50]
    assert [seq[6] for _, seq in esc["windows"]] == [8 / 50, 16 / 50, 32 / 50]
    code, out = verify(tmp_path, rep, capsys)
    assert code == 0 and "ok: escape profile" in out and "the window masses are not re-derived" in out
    edit(esc)
    code, out = verify(tmp_path, rep, capsys)
    assert code == 1
    (line,) = [line for line in out.splitlines() if line.startswith("FAILED")]
    assert line.startswith(f"FAILED: {failed} (")


def test_escape_section_on_a_finite_chain_fails(tmp_path: Path, capsys):
    rep = two_absorbing_report(tmp_path)
    walk = analyze(tmp_path, "analyze", "--catalog", "drift_walk_N")
    assert walk["horizons"] == rep["horizons"]
    rep["escape"] = dict(walk["escape"], per_end_split={})  # the split names no end the finite chain lacks
    rep["tasks"].append("escape")
    code, out = verify(tmp_path, rep, capsys)
    assert code == 1
    (line,) = [line for line in out.splitlines() if line.startswith("FAILED")]
    assert line.startswith("FAILED: escape profile (")


LAWS = "invariant class laws"


def swap_report(tmp_path: Path, *tasks) -> dict:
    # one class whose two states swap with probability 2^-40 (exact in binary); its law is (0.5, 0.5)
    eps = 2.0**-40
    chain = tmp_path / "swap.json"
    chain.write_text(json.dumps({"kind": "finite", "matrix": [[1.0 - eps, eps], [eps, 1.0 - eps]]}))
    return analyze(tmp_path, "analyze", "--chain", str(chain), *tasks)


# δ_0 is a probability on the class with invariance residual 2^-39 ≈ 1.8e-12, but 1 off in l1
DELTA_0 = {"atoms": {"0": 1.0}, "ends": {}}
# 1.5e-9 off in l1; put in the projector too, its hitting times (2^40 steps) bound it by 3e-9
SHIFTED = {"atoms": {"0": 0.5 + 7.5e-10, "1": 0.5 - 7.5e-10}, "ends": {}}


@pytest.mark.parametrize(
    "tasks, law, in_projector, failed",
    [
        ((), DELTA_0, False, [f"{LAWS} (l1 distance to the exact class laws <= 1.000e+00)"]),
        (("--tasks", "invariants"), DELTA_0, False, [f"{LAWS} (l1 distance to the exact class laws <= 1.000e+00)"]),
        (
            (),
            SHIFTED,
            True,
            [
                f"{LAWS} (l1 distance to the exact class laws <= 3.000e-09)",
                "projector stationary[0] (l1 distance to the exact law <= 3.000e-09)",
            ],
        ),
        (("--tasks", "invariants"), SHIFTED, False, [f"{LAWS} (l1 distance to the exact class laws <= 1.500e-09)"]),
    ],
    ids=["delta_0 default tasks", "delta_0 invariants", "shifted with the projector", "shifted invariants"],
)
def test_wrong_finite_invariant_law_fails(tmp_path: Path, capsys, tasks, law, in_projector, failed):
    rep = swap_report(tmp_path, *tasks)
    assert rep["invariants"]["measures"] == [{"atoms": {"0": 0.5, "1": 0.5}, "ends": {}}]
    code, out = verify(tmp_path, rep, capsys)
    assert code == 0 and f"ok: {LAWS}" in out
    rep["invariants"]["measures"][0] = law
    # its stored residual is the law's own, so only the distance to the exact law is left to fail
    kernel = kernel_from_spec(rep["chain"]["spec"])
    rep["invariants"]["residuals"][0] = invariance_residual(kernel, measure_from_json(kernel.space, law))
    if in_projector:
        rep["ergodic"]["projector"]["stationary"][0] = law
    code, out = verify(tmp_path, rep, capsys)
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAILED")] == [f"FAILED: {f}" for f in failed]


@pytest.mark.parametrize("tasks", [(), ("--tasks", "invariants")], ids=["default tasks", "invariants"])
def test_class_laws_come_from_the_projector_when_there_is_one(tmp_path: Path, monkeypatch, tasks):
    rep = analyze(tmp_path, "analyze", "--catalog", "two_absorbing", *tasks)
    calls = []

    def counted(kernel, states):
        calls.append(states)
        return stationary_of_class(kernel, states)

    monkeypatch.setattr(report, "stationary_of_class", counted)
    assert all(item["ok"] for item in verify_report(rep))
    assert calls == ([] if "ergodic" in rep else [(0,), (2,)])


def test_finite_verify_decomposes_the_chain_once(tmp_path: Path, monkeypatch):
    rep = two_absorbing_report(tmp_path)
    assert {"invariants", "conditions", "ergodic"} <= set(rep)
    calls = []

    def counted(kernel):
        calls.append(kernel.size)
        return recurrent_classes(kernel)

    monkeypatch.setattr(report, "recurrent_classes", counted)
    assert all(item["ok"] for item in verify_report(rep))
    assert calls == [3]


def test_shrunk_hitting_time_fails(tmp_path: Path, capsys):
    rep = analyze(tmp_path, "ergodic", "--catalog", "birth_death")
    times = rep["ergodic"]["projector"]["hitting_times"][0]
    assert len(times) == 4  # every state of the 5-state class but its anchor
    key = max(times, key=times.get)
    times[key] /= 2
    code, out = verify(tmp_path, rep, capsys)
    assert code == 1 and "FAILED: projector stationary[0]" in out


def chain_report(tmp_path: Path, matrix) -> dict:
    chain = tmp_path / "c.json"
    chain.write_text(json.dumps({"kind": "finite", "matrix": matrix}))
    return analyze(tmp_path, "ergodic", "--chain", str(chain), "--n-max", "30")


def test_slow_leak_wrong_absorption_row_fails(tmp_path: Path, capsys):
    # state 1 leaves at rate 2^-33, evenly to the absorbing states 0 and 2 (exact in binary)
    leak = 2.0**-34
    rep = chain_report(tmp_path, [[1.0, 0.0, 0.0], [leak, 1.0 - 2 * leak, leak], [0.0, 0.0, 1.0]])
    proj = rep["ergodic"]["projector"]
    assert proj["absorption"] == {"1": [0.5, 0.5]} and proj["absorption_times"] == {"1": 2.0**33}
    assert verify(tmp_path, rep, capsys)[0] == 0
    # [1, 0] sums to 1 and leaves a residual of only 2^-34 ≈ 5.8e-11, but is 0.5 off the exact row
    proj["absorption"]["1"] = [1.0, 0.0]
    code, out = verify(tmp_path, rep, capsys)
    assert code == 1 and "FAILED: projector absorption equation" in out


def test_slow_leak_not_exact_in_binary_verifies(tmp_path: Path, capsys):
    # 1 - 2e-10 is not exact in binary: 1 - p(1, 1) cancels to about 1e-7 relative error, the row's
    # off-diagonal mass does not
    rep = chain_report(tmp_path, [[1.0, 0.0, 0.0], [1e-10, 1.0 - 2e-10, 1e-10], [0.0, 0.0, 1.0]])
    proj = rep["ergodic"]["projector"]
    assert proj["absorption"] == {"1": [0.5, 0.5]}
    code, out = verify(tmp_path, rep, capsys)
    assert code == 0, out
    proj["absorption"]["1"] = [0.5 + 1e-7, 0.5 - 1e-7]
    code, out = verify(tmp_path, rep, capsys)
    assert code == 1 and "FAILED: projector absorption equation" in out


# one closed class, the absorbing state 0; state 4 leaves with probability 1e-7, so its expected time is 1.5e7
SLOW_EXIT = [
    [1.0, 0.0, 0.0, 0.0, 0.0],
    [0.5, 0.0, 0.25, 0.25, 0.0],
    [0.0, 0.0, 0.0, 0.6, 0.4],
    [0.3333333333333333, 0.2222222222222222, 0.2222222222222222, 0.0, 0.2222222222222222],
    [2.222222222222222e-08, 2.222222222222222e-08, 2.222222222222222e-08, 3.333333333333333e-08, 0.9999999],
]


def test_one_class_projector_with_a_slow_exit_verifies(tmp_path: Path, capsys):
    # every exact absorption row is [1]: a residual of 3e-16 times the times' 1.5e7 steps must not decide
    rep = chain_report(tmp_path, SLOW_EXIT)
    proj = rep["ergodic"]["projector"]
    assert proj["rank"] == 1 and max(proj["absorption_times"].values()) > 1e7
    code, out = verify(tmp_path, rep, capsys)
    assert code == 0, out
    # a time that is no solution still fails
    proj["absorption_times"]["4"] = 0.0
    code, out = verify(tmp_path, rep, capsys)
    assert code == 1 and "FAILED: projector absorption equation" in out


def scale_times(key, factor):
    def edit(proj):
        times = proj[key] if key == "absorption_times" else proj[key][0]
        times.update({x: t * factor for x, t in times.items()})

    return edit


@pytest.mark.parametrize(
    ("catalog", "tamper", "item"),
    [
        # the one absorption time, 1.0, set to 1/1.9: δ = 0.47
        ("two_absorbing", scale_times("absorption_times", 1 / 1.9), "projector absorption equation"),
        # every hitting time of the anchor 1.3 times the exact one: δ = 0.3
        ("birth_death", scale_times("hitting_times", 1.3), "projector stationary[0]"),
    ],
    ids=["absorption_time", "hitting_times"],
)
def test_expected_times_off_by_a_factor_fail(tmp_path: Path, capsys, catalog, tamper, item):
    # a time within a factor of 2 of the exact one solves t = 1 + Q·t to a residual δ < 1; only δ <= TIME_TOL
    # certifies the stored times, to relative δ
    rep = analyze(tmp_path, "analyze", "--catalog", catalog)
    assert verify(tmp_path, rep, capsys)[0] == 0
    tamper(rep["ergodic"]["projector"])
    code, out = verify(tmp_path, rep, capsys)
    assert code == 1 and f"FAILED: {item}" in out, out


def test_nearly_decomposable_not_exact_in_binary_verifies(tmp_path: Path, capsys):
    # Π(I − P) takes its diagonal from the off-diagonal masses 3e-10 and 1e-10: 1 − (1 − 1e-10) would
    # leave about 1e-17, which the hitting time 3.3e9 turns into a bound of 4e-8
    rep = chain_report(tmp_path, [[1.0 - 3e-10, 3e-10], [1e-10, 1.0 - 1e-10]])
    assert rep["ergodic"]["projector"]["stationary"] == [{"atoms": {"0": 0.25, "1": 0.75}, "ends": {}}]
    code, out = verify(tmp_path, rep, capsys)
    assert code == 0, out


def test_nearly_decomposable_wrong_stationary_law_fails(tmp_path: Path, capsys):
    # one class whose two states swap with probability 2^-40 (exact in binary)
    eps = 2.0**-40
    rep = chain_report(tmp_path, [[1.0 - eps, eps], [eps, 1.0 - eps]])
    proj = rep["ergodic"]["projector"]
    assert proj["stationary"] == [{"atoms": {"0": 0.5, "1": 0.5}, "ends": {}}]
    assert proj["hitting_times"] == [{"1": 2.0**40}]
    assert verify(tmp_path, rep, capsys)[0] == 0
    # δ_0 is a probability on the class with invariance residual 2^-39 ≈ 1.8e-12, but 1 off in l1
    proj["stationary"][0] = {"atoms": {"0": 1.0}, "ends": {}}
    code, out = verify(tmp_path, rep, capsys)
    assert code == 1 and "FAILED: projector stationary[0]" in out


def test_edited_ratio_fails(tmp_path: Path, capsys):
    rep = analyze(tmp_path, "ergodic", "--catalog", "birth_death")
    rate = rep["ergodic"]["raw"]["rate"]
    assert rate["kind"] == "geometric"
    for ratio in (rate["ratio"] * (1 + 1e-6), 0.5):
        bad = copy.deepcopy(rep)
        bad["ergodic"]["raw"]["rate"]["ratio"] = ratio
        code, out = verify(tmp_path, bad, capsys)
        assert code == 1 and "FAILED: raw rate fit" in out


def test_other_schema_fails_on_one_item_and_is_not_read(tmp_path: Path, capsys):
    rep = two_absorbing_report(tmp_path)
    rep["schema"] = 2
    rep["ergodic"]["projector"] = {"rank": 2, "rows": {}}  # the section as schema 2 wrote it
    items = verify_report(rep)
    failed = [item for item in items if not item["ok"]]
    assert failed == [{"check": "schema", "ok": False, "detail": f"schema 2, expected {SCHEMA_VERSION}"}]
    assert not any(item["check"].startswith("projector") for item in items)
    code, out = verify(tmp_path, rep, capsys)
    assert code == 1 and f"FAILED: schema (schema 2, expected {SCHEMA_VERSION})" in out
    del rep["schema"]
    assert verify(tmp_path, rep, capsys)[0] == 1


FINITE_ENTRIES = [name for name in catalog.names() if catalog.build(name).space.is_finite]


@pytest.mark.parametrize(
    "args",
    [
        ("analyze", "--catalog", "two_absorbing"),
        ("analyze", "--catalog", "cycle3", "--tasks", "ergodic"),
        *(("ergodic", "--catalog", name) for name in FINITE_ENTRIES),
    ],
    ids=" ".join,
)
def test_untouched_reports_pass(tmp_path: Path, capsys, args):
    rep = analyze(tmp_path, *args)
    assert rep["schema"] == SCHEMA_VERSION
    code, out = verify(tmp_path, rep, capsys)
    assert code == 0, out
    assert "ok: projector absorption equation" in out


def test_projector_section_is_linear_in_the_states(tmp_path: Path, capsys):
    chain = tmp_path / "bd.json"
    chain.write_text(json.dumps(kernel_to_spec(birth_death(200, 0.3, 0.2))))
    rep = analyze(tmp_path, "analyze", "--chain", str(chain), "--tasks", "invariants,ergodic", "--n-max", "20")
    proj = rep["ergodic"]["projector"]
    assert sorted(proj) == ["absorption", "absorption_times", "classes", "hitting_times", "rank", "stationary"]
    assert proj["rank"] == 1 and proj["classes"] == [list(range(200))] and proj["absorption"] == {}
    assert len(json.dumps(proj, sort_keys=True, indent=2)) < 20_000
    assert verify(tmp_path, rep, capsys)[0] == 0


def test_transient_rows_solve_the_absorption_equation(tmp_path: Path, capsys):
    # two closed classes {0, 1} and {4}; 2 and 3 are transient and feed each other
    matrix = [
        [0.5, 0.5, 0.0, 0.0, 0.0],
        [0.3, 0.7, 0.0, 0.0, 0.0],
        [0.2, 0.0, 0.3, 0.4, 0.1],
        [0.0, 0.0, 0.5, 0.0, 0.5],
        [0.0, 0.0, 0.0, 0.0, 1.0],
    ]
    chain = tmp_path / "c.json"
    chain.write_text(json.dumps({"kind": "finite", "matrix": matrix}))
    rep = analyze(tmp_path, "ergodic", "--chain", str(chain), "--n-max", "30")
    proj = rep["ergodic"]["projector"]
    assert proj["classes"] == [[0, 1], [4]] and sorted(proj["absorption"]) == ["2", "3"]
    assert verify(tmp_path, rep, capsys)[0] == 0
    # swapping the two transient rows keeps every row a probability vector
    proj["absorption"]["2"], proj["absorption"]["3"] = proj["absorption"]["3"], proj["absorption"]["2"]
    code, out = verify(tmp_path, rep, capsys)
    assert code == 1 and "FAILED: projector absorption equation" in out


# on a finite chain, (D) and (D~) are each an over-cap "capacity" finding or a witness that holds and re-verifies
FINITE_D_TAMPERS = {
    "deleted": lambda cond, key: cond.pop(key),
    "made a limit finding": lambda cond, key: cond.update(
        {key: {"kind": "limit", "verdict": "undecided on infinite spaces", "trend": [[4, 1.0]]}}
    ),
    "witness set to null": lambda cond, key: cond[key].update(witness=None),
    "no witness found beside a valid witness": lambda cond, key: cond[key].update(verdict="no witness found"),
}


@pytest.mark.parametrize("key", ["D", "D_tilde"])
@pytest.mark.parametrize("case", sorted(FINITE_D_TAMPERS))
def test_finite_doeblin_finding_without_a_witness_that_holds_fails(tmp_path: Path, capsys, case, key):
    rep = analyze(tmp_path, "analyze", "--catalog", "birth_death")
    assert rep["conditions"][key]["verdict"] == "holds"
    assert verify(tmp_path, rep, capsys)[0] == 0
    FINITE_D_TAMPERS[case](rep["conditions"], key)
    code, out = verify(tmp_path, rep, capsys)
    assert code == 1
    (line,) = [line for line in out.splitlines() if line.startswith("FAILED")]
    assert line.startswith(f"FAILED: {key} witness (")


@pytest.mark.parametrize(
    "key, field, value",
    [
        ("D", "verdict", "holds"),
        ("D_tilde", "verdict", "holds"),
        ("D", "verdict", "undecided on infinite spaces"),
        ("D_tilde", "kind", "witness"),  # without a witness, so nothing is re-run
    ],
)
def test_walk_doeblin_finding_that_contradicts_its_charge_fails(tmp_path: Path, capsys, key, field, value):
    # drift_walk_N carries an invariant charge, so (*) fails and so do (D) and (D~), in the limit
    rep = analyze(tmp_path, "analyze", "--catalog", "drift_walk_N")
    assert rep["conditions"][key]["kind"] == "limit" and rep["conditions"][key]["verdict"] == "fails in the limit"
    assert verify(tmp_path, rep, capsys)[0] == 0
    rep["conditions"][key][field] = value
    code, out = verify(tmp_path, rep, capsys)
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAILED")] == [
        f"FAILED: {VERDICTS} ((D) and (D~) on a walk against the charges fails)"
    ]


@pytest.mark.parametrize("k", [10**7, MAX_ORDER + 1, 1e300], ids=["1e7", "cap+1", "1e300"])
def test_witness_order_outside_the_cap_fails_before_any_product(tmp_path: Path, capsys, power_steps, k):
    # p^k is k sequential products, so a k of 10^7 took about 30 s to re-check
    rep = analyze(tmp_path, "analyze", "--catalog", "birth_death", "--tasks", "conditions")
    for key in ("D", "D_tilde"):
        rep["conditions"][key]["witness"]["k"] = k
    power_steps.clear()
    code, out = verify(tmp_path, rep, capsys)
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAILED")] == [
        f"FAILED: {key} witness (order {k!r} is past the cap {MAX_ORDER})" for key in ("D", "D_tilde")
    ]
    assert power_steps == []


@pytest.mark.parametrize("name", ["finite_uniform", "swap2", "cycle3", "birth_death"])
def test_invariant_measure_past_the_float_range_fails_an_item(tmp_path: Path, capsys, name):
    # its invariance residual sums past the float range inside the section
    rep = analyze(tmp_path, "analyze", "--catalog", name)
    mu = rep["invariants"]["measures"][0]
    mu["atoms"] = dict.fromkeys(mu["atoms"], 1e308)
    code, out = verify(tmp_path, rep, capsys)  # an OverflowError would end the test here
    assert code == 1
    assert "FAILED: invariants format (OverflowError: intermediate overflow in fsum)" in out.splitlines()


@pytest.mark.parametrize("name", ["finite_uniform", "swap2", "cycle3", "birth_death"])
def test_projector_law_past_the_float_range_fails_its_item(tmp_path: Path, capsys, name):
    # its error bound is summed before the sections are checked, outside their guard
    rep = analyze(tmp_path, "analyze", "--catalog", name)
    law = rep["ergodic"]["projector"]["stationary"][0]
    law["atoms"] = dict.fromkeys(law["atoms"], 1e308)
    code, out = verify(tmp_path, rep, capsys)  # an OverflowError would end the test here
    assert code == 1
    assert "FAILED: projector stationary[0] (l1 distance to the exact law <= inf)" in out.splitlines()


# two_absorbing: its class laws δ_0 and δ_2 have the closed sets {0} and {2}
ALPHA_TAMPERS = {
    "deleted": (lambda cond: cond.pop("alpha"), [0, 1]),
    "emptied": (lambda cond: cond.update(alpha=[]), [0, 1]),
    "last entry dropped": (lambda cond: cond["alpha"].pop(), [0, 1]),
    "closed set null": (lambda cond: cond["alpha"][0].update(closed_set=None), [0]),
    "closed set grown": (lambda cond: cond["alpha"][1].update(closed_set={"atoms": [1, 2]}), [1]),
    "k_mu edited": (lambda cond: cond["alpha"][1].update(k_mu={"atoms": [1, 2]}), [1]),
    "index edited": (lambda cond: cond["alpha"][0].update(index=1), [0]),
}


@pytest.mark.parametrize("tasks", [(), ("--tasks", "conditions")], ids=["default tasks", "conditions"])
@pytest.mark.parametrize("case", sorted(ALPHA_TAMPERS))
def test_tampered_alpha_fails(tmp_path: Path, capsys, case, tasks):
    edit, failed = ALPHA_TAMPERS[case]
    rep = analyze(tmp_path, "analyze", "--catalog", "two_absorbing", *tasks)
    code, out = verify(tmp_path, rep, capsys)
    assert code == 0 and "ok: alpha closed set [0]\nok: alpha closed set [1]\n" in out
    edit(rep["conditions"])
    code, out = verify(tmp_path, rep, capsys)
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAILED")] == [
        f"FAILED: alpha closed set [{i}]" for i in failed
    ]


def steep_birth_death_report(tmp_path: Path, n: int, p: float, q: float) -> dict:
    spec = tmp_path / "bd.json"
    spec.write_text(json.dumps(kernel_to_spec(birth_death(n, p, q))))
    return analyze(tmp_path, "analyze", "--chain", str(spec), "--tasks", "invariants,conditions")


@pytest.mark.parametrize("n, p, q, zeros", [(400, 0.45, 0.05, 60), (2000, 0.3, 0.2, 164)])
def test_alpha_of_a_class_law_with_underflowed_atoms_is_its_whole_class(tmp_path: Path, capsys, n, p, q, zeros):
    # the law of the lowest states underflows to exact zeros, yet the one class is closed with mass 1
    rep = steep_birth_death_report(tmp_path, n, p, q)
    law = rep["invariants"]["measures"][0]["atoms"]
    assert len(law) == n - zeros and min(map(int, law)) == zeros
    every = {"atoms": list(range(n)), "tails": [], "complement": False}
    assert rep["conditions"]["alpha"] == [{"index": 0, "k_mu": every, "closed_set": every}]
    code, out = verify(tmp_path, rep, capsys)
    assert code == 0 and "ok: alpha closed set [0]" in out.splitlines()


def test_alpha_entry_read_off_the_float_support_fails(tmp_path: Path, capsys):
    # the entry that K_mu as the law's float support gave bd(400, 0.45, 0.05): its 340 positive atoms, no closed set
    rep = steep_birth_death_report(tmp_path, 400, 0.45, 0.05)
    rep["conditions"]["alpha"][0] = {"index": 0, "k_mu": {"atoms": list(range(60, 400))}, "closed_set": None}
    code, out = verify(tmp_path, rep, capsys)
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAILED")] == ["FAILED: alpha closed set [0]"]


def test_sets_disjoint_agrees_with_membership_state_by_state():
    rng = np.random.default_rng(27)
    for _ in range(3000):
        space = StateSpace.half_line() if rng.random() < 0.5 else StateSpace.integer_line()
        lo = 0 if space.support == "N" else -6

        def draw():
            atoms = rng.choice(np.arange(lo, 7), size=int(rng.integers(0, 5)), replace=False).tolist()
            tails = [(e, int(rng.integers(lo, 7))) for e in space.end_ids() if rng.random() < 0.5]
            return measurable(space, atoms, tails)

        a, b = draw(), draw()
        assert report._sets_disjoint(a, b) == (not sets_meet_by_states(a, b))
        assert not report._sets_disjoint(a, a.complement()) and not report._sets_disjoint(a.complement(), b)


INF = json.loads("1e309")  # JSON reads a number past the float range as inf


@pytest.mark.parametrize(
    "d1, entry",
    [
        ({"atoms": [INF]}, "atoms[0] = inf"),
        ({"tails": [{"end": "+inf", "after": INF}]}, "tails[0] = {'end': '+inf', 'after': inf}"),
    ],
    ids=["atom", "tail after"],
)
def test_set_literal_past_the_float_range_fails_the_format_item(tmp_path: Path, capsys, d1, entry):
    rep = analyze(tmp_path, "analyze", "--catalog", "symmetric_walk_Z")
    set_beta_pair(d1=d1)(rep)
    code, out = verify(tmp_path, rep, capsys)  # an OverflowError would end the test here
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAILED")] == [
        f"FAILED: conditions format (ValidationError: set literal: bad entry {entry})"
    ]


def test_beta_dimension_past_the_basis_fails_beta_pairs(tmp_path: Path, capsys):
    rep = analyze(tmp_path, "analyze", "--catalog", "drift_walk_N")
    rep["conditions"]["double_star"]["evidence"]["dimension"] = 2000
    code, out = verify(tmp_path, rep, capsys)
    assert code == 1
    first = ", ".join(f"(0, {j})" for j in range(1, 11))
    assert [line for line in out.splitlines() if line.startswith("FAILED")] == [
        f"FAILED: beta pairs (0 of the 1999000 pairs i < j < 2000 listed, holds True; left out [{first}] "
        "and 1998990 more; d is not the basis length 1)"
    ]


def test_beta_pairs_are_counted_not_listed(tmp_path: Path):
    # without the basis nothing bounds d, so the d(d - 1)/2 pairs must be counted
    rep = analyze(tmp_path, "analyze", "--catalog", "drift_walk_N", "--tasks", "conditions")
    rep["conditions"]["double_star"]["evidence"]["dimension"] = 10**7
    failed = [item for item in verify_report(rep) if not item["ok"]]
    assert [item["check"] for item in failed] == ["beta pairs"]
    assert failed[0]["detail"].startswith("0 of the 49999995000000 pairs i < j < 10000000 listed, holds True;")


@pytest.mark.parametrize(
    "args, d, checks, ending",
    [
        (("--catalog", "finite_uniform"), 2**70, ["beta pairs", VERDICTS], "d is not the basis length 1"),
        (("--catalog", "drift_walk_N", "--tasks", "conditions"), 10**30, ["beta pairs"], "not in the report"),
    ],
    ids=["finite d=2^70", "walk d=10^30"],
)
def test_beta_pairs_count_a_dimension_past_the_index_range(tmp_path: Path, capsys, args, d, checks, ending):
    # len(range(d)) raises OverflowError on these d; the pairs are counted all the same
    rep = analyze(tmp_path, "analyze", *args)
    rep["conditions"]["double_star"]["evidence"]["dimension"] = d
    code, out = verify(tmp_path, rep, capsys)  # an OverflowError would end the test here
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAILED")]
    assert [line.split(" (")[0] for line in failed] == [f"FAILED: {check}" for check in checks]
    counted = f"FAILED: beta pairs (0 of the {d * (d - 1) // 2} pairs i < j < {d} listed, holds True;"
    assert failed[0].startswith(counted)
    assert failed[0].endswith(f"{ending})")


def test_certified_class_law_off_the_invariance_tolerance_verifies(tmp_path: Path):
    # swap2's projector law moved by 1e-10: its residual 4e-10 is past INVARIANCE_TOL = 1e-10, but the law is
    # certified within 4e-10 in l1, and the (alpha) closed set reads it only through its mass on K
    rep = analyze(tmp_path, "analyze", "--catalog", "swap2")
    rep["ergodic"]["projector"]["stationary"][0] = {"atoms": {"0": 0.5 + 1e-10, "1": 0.5 - 1e-10}, "ends": {}}
    items = verify_report(rep)
    assert [item for item in items if not item["ok"]] == []
    assert len(items) == 20
    details = {item["check"]: item["detail"] for item in items}
    assert details["projector stationary[0]"] == "l1 distance to the exact law <= 4.000e-10"
    assert details[LAWS] == "l1 distance to the exact class laws <= 6.000e-10"
    assert "alpha closed set [0]" in details and "beta pairs" in details and VERDICTS in details
