"""Run verify-report on every mutant of the catalog reports.

    OPENBLAS_NUM_THREADS=1 python3 tools/mutate_reports.py

The corpus starts from every catalog entry's report, under its default tasks
and under each task that applies to it alone.  A mutant sets one node of one
report (the root, or any value of an object or a list, reading only the first
``LIST_CUT`` entries of each list) to one of ``ODD_VALUES``, or deletes it.
Each mutant must yield verify items, or raise ``ValidationError``, within
``LIMIT_S`` seconds.  The script prints one line per mutant that does
neither, then a summary line, and exits 1 if any mutant failed.  The package
is imported from the ``src/`` next to this script; ``tests/test_mutation.py``
runs a seeded sample of the corpus.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: the first entries of each list that are mutated; the rest stay as they are
LIST_CUT = 4
#: seconds that one verify-report run may take
LIMIT_S = 1.0
ODD_VALUES = (
    None,
    True,
    False,
    0,
    -1,
    2**70,
    10**7,
    -0.0,
    5e-324,
    1e308,
    -1e308,
    float("inf"),
    float("nan"),
    "x",
    [],
    {},
)


def reports(cc) -> dict[str, str]:
    """Report name -> report JSON text, for every catalog entry under its default tasks and each task alone."""
    out = {}
    for name in cc.catalog.names():
        out[name] = cc.report_json(cc.run_analysis(cc.AnalysisRequest(catalog=name)))
        for task in cc.report.applicable_tasks(cc.catalog.build(name), ()):
            out[f"{name}/{task}"] = cc.report_json(cc.run_analysis(cc.AnalysisRequest(catalog=name, tasks=(task,))))
    return out


def paths(node, prefix: tuple = ()):
    """The path of ``node`` and of every node below it, as tuples of keys and indices."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node[:LIST_CUT])
    else:
        return
    for key, child in children:
        yield from paths(child, (*prefix, key))


def corpus(texts: dict[str, str]) -> list[tuple[str, tuple, int]]:
    """Every mutant, as (report name, path, index into ``ODD_VALUES``, or -1 to delete)."""
    return [
        (name, path, value)
        for name, text in texts.items()
        for path in paths(json.loads(text))
        for value in range(-1, len(ODD_VALUES))
        if path or value >= 0  # the root can be replaced but not deleted
    ]


def mutate(text: str, path: tuple, value: int):
    """The report of ``text`` with the node at ``path`` set to ``ODD_VALUES[value]``, or deleted at -1."""
    if not path:
        return ODD_VALUES[value]
    report = json.loads(text)
    parent = report
    for key in path[:-1]:
        parent = parent[key]
    if value < 0:
        del parent[path[-1]]
    else:
        parent[path[-1]] = ODD_VALUES[value]
    return report


def run(cc, report) -> tuple[str, float]:
    """(outcome, seconds) of verify-report on ``report``: "items", "ValidationError", or the exception raised."""
    start = time.perf_counter()
    try:
        cc.verify_report(report)
        outcome = "items"
    except cc.ValidationError:
        outcome = "ValidationError"
    except Exception as exc:  # every other exception is a finding
        outcome = f"{type(exc).__name__}: {exc}"
    return outcome, time.perf_counter() - start


def failures(cc, texts: dict[str, str], mutants) -> list[str]:
    """One line per mutant that raised another exception or ran past ``LIMIT_S``."""
    out = []
    for name, path, value in mutants:
        outcome, seconds = run(cc, mutate(texts[name], path, value))
        if outcome not in ("items", "ValidationError") or seconds > LIMIT_S:
            shown = "deleted" if value < 0 else repr(ODD_VALUES[value])
            out.append(f"{name} {list(path)} = {shown}: {outcome} in {seconds:.3f} s")
    return out


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    cc = importlib.import_module("chargechain")
    texts = reports(cc)
    mutants = corpus(texts)
    start = time.perf_counter()
    failed = failures(cc, texts, mutants)
    for line in failed:
        print(line)
    print(f"{len(mutants)} mutants of {len(texts)} reports, {len(failed)} failed, in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())
