"""verify-report is total and bounded on the mutation corpus, and refuses every type mutant.

``tools/mutate_reports.py`` builds the corpus: every node of the catalog
reports, set to an odd value or deleted, and every boolean or number, those of
the chain spec included, written in another JSON type.  Each mutant must
yield verify items or raise ``ValidationError``, within the tool's time
limit, and each type mutant must fail an item or raise ``ValidationError``.
Every type mutant runs here, and a seeded sample of the others; the full
corpus runs from the command line.
"""

import importlib.util
import random
from pathlib import Path

import pytest

import chargechain as cc

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = 300


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("mutate_reports", ROOT / "tools" / "mutate_reports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def texts(tool):
    return tool.reports(cc)


def test_sampled_mutants_yield_items_or_a_validation_error_in_time(tool, texts):
    odd = [mutant for mutant in tool.corpus(texts) if mutant[2] != tool.RETYPE]
    mutants = random.Random(22).sample(odd, SAMPLE)
    assert tool.failures(cc, texts, mutants) == []


def test_every_type_mutant_fails_an_item_or_raises_a_validation_error(tool, texts):
    mutants = [mutant for mutant in tool.corpus(texts) if mutant[2] == tool.RETYPE]
    assert len(mutants) > 1_900
    assert tool.failures(cc, texts, mutants) == []


def test_corpus_reaches_every_report_and_every_odd_value(tool, texts):
    mutants = tool.corpus(texts)
    assert {name for name, _, _ in mutants} == set(texts) and len(texts) == 36
    assert {value for _, _, value in mutants} == set(range(tool.RETYPE, len(tool.ODD_VALUES)))
    assert len(mutants) > 60_000
    in_chain = [(name, path) for name, path, value in mutants if value == tool.RETYPE and path[:1] == ("chain",)]
    assert {name for name, _ in in_chain} == set(texts)  # every report's chain spec has numbers to retype
    assert all(path[:2] == ("chain", "spec") for _, path in in_chain)


def test_retyped_leaves_keep_their_value_in_another_json_type(tool):
    leaves = (True, False, 0, 1, 2, -3, 0.5, 1.0)
    assert [tool.retyped(v) for v in leaves] == [1, 0, False, True, "2", "-3", "0.5", "1.0"]


def test_another_exception_or_a_slow_run_is_a_failure(tool, texts, monkeypatch):
    mutants = [("swap2", ("tasks",), tool.DELETE), ("swap2", (), 0), ("swap2", ("horizons", "k_max"), tool.RETYPE)]
    with monkeypatch.context() as patch:
        patch.setattr(cc, "verify_report", lambda report: {}["key"])
        assert [line.split(": ")[1] for line in tool.failures(cc, texts, mutants)] == ["KeyError"] * 3
    with monkeypatch.context() as patch:  # a type mutant whose items all pass is a failure; the others are not
        patch.setattr(cc, "verify_report", lambda report: [{"check": "schema", "ok": True, "detail": ""}])
        failed = tool.failures(cc, texts, mutants)
        assert [line.split(" in ")[0] for line in failed] == ["swap2 ['horizons', 'k_max'] = retyped: items"]
    assert tool.failures(cc, texts, mutants) == []
    monkeypatch.setattr(tool, "LIMIT_S", -1.0)
    assert len(tool.failures(cc, texts, mutants)) == 3
