"""verify-report is total and bounded on a seeded sample of the mutation corpus.

``tools/mutate_reports.py`` builds the corpus: every node of the catalog
reports, set to an odd value or deleted.  Each mutant must yield verify items
or raise ``ValidationError``, within the tool's time limit.  The full corpus
runs from the command line.
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
    mutants = random.Random(22).sample(tool.corpus(texts), SAMPLE)
    assert tool.failures(cc, texts, mutants) == []


def test_corpus_reaches_every_report_and_every_odd_value(tool, texts):
    mutants = tool.corpus(texts)
    assert {name for name, _, _ in mutants} == set(texts) and len(texts) == 36
    assert {value for _, _, value in mutants} == set(range(-1, len(tool.ODD_VALUES)))
    assert len(mutants) > 60_000


def test_another_exception_or_a_slow_run_is_a_failure(tool, texts, monkeypatch):
    mutants = [("swap2", ("tasks",), -1), ("swap2", (), 0)]
    with monkeypatch.context() as patch:
        patch.setattr(cc, "verify_report", lambda report: {}["key"])
        assert [line.split(": ")[1] for line in tool.failures(cc, texts, mutants)] == ["KeyError", "KeyError"]
    assert tool.failures(cc, texts, mutants) == []
    monkeypatch.setattr(tool, "LIMIT_S", -1.0)
    assert len(tool.failures(cc, texts, mutants)) == 2
