"""Run verify-report on every mutant of the catalog reports.

    OPENBLAS_NUM_THREADS=1 python3 tools/mutate_reports.py

The corpus starts from every catalog entry's report, under its default tasks
and under each task that applies to it alone.  A mutant sets one node of one
report (the root, or any value of an object or a list, reading only the first
``LIST_CUT`` entries of each list) to one of ``ODD_VALUES``, or deletes it.
Each such mutant must yield verify items, or raise ``ValidationError``, within
``LIMIT_S`` seconds.  A type mutant (``RETYPE``) writes one boolean or number
outside ``chain`` as the same value in another JSON type (``retyped``): a 0 or
1 as a boolean, a boolean as 0 or 1, any other int as its decimal string and a
float as its ``repr`` string.  Each type mutant must also fail at least one
verify item, or raise ``ValidationError``.  The script prints one line per
mutant that does not, then a summary line, and exits 1 if any mutant failed.
The package is imported from the ``src/`` next to this script;
``tests/test_mutation.py`` runs every type mutant and a seeded sample of the
others.
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
#: a mutant's value that deletes its node, and one that writes its leaf in another JSON type
DELETE, RETYPE = -1, -2
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


def nodes(node, prefix: tuple = ()):
    """(path, node) of ``node`` and of every node below it, each path a tuple of keys and indices."""
    yield prefix, node
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node[:LIST_CUT])
    else:
        return
    for key, child in children:
        yield from nodes(child, (*prefix, key))


def retyped(leaf: bool | int | float) -> bool | int | str:
    """``leaf`` as the same value in another JSON type."""
    if isinstance(leaf, bool):
        return int(leaf)
    if isinstance(leaf, int):
        return bool(leaf) if leaf in (0, 1) else str(leaf)
    return repr(leaf)


def corpus(texts: dict[str, str]) -> list[tuple[str, tuple, int]]:
    """Every mutant, as (report name, path, index into ``ODD_VALUES``, ``DELETE`` or ``RETYPE``)."""
    out = []
    for name, text in texts.items():
        for path, node in nodes(json.loads(text)):
            # the root can be replaced but not deleted
            out += [(name, path, value) for value in range(DELETE if path else 0, len(ODD_VALUES))]
            if isinstance(node, (bool, int, float)) and path[:1] != ("chain",):
                out.append((name, path, RETYPE))
    return out


def mutate(text: str, path: tuple, value: int):
    """The report of ``text`` with the node at ``path`` set to ``ODD_VALUES[value]``, deleted, or retyped."""
    if not path:
        return ODD_VALUES[value]
    report = json.loads(text)
    parent = report
    for key in path[:-1]:
        parent = parent[key]
    if value == DELETE:
        del parent[path[-1]]
    elif value == RETYPE:
        parent[path[-1]] = retyped(parent[path[-1]])
    else:
        parent[path[-1]] = ODD_VALUES[value]
    return report


def run(cc, report) -> tuple[str, float]:
    """(outcome, seconds) of verify-report on ``report``: "items" when every item passes, "failed items",
    "ValidationError", or the exception raised."""
    start = time.perf_counter()
    try:
        items = cc.verify_report(report)
        outcome = "items" if all(item["ok"] for item in items) else "failed items"
    except cc.ValidationError:
        outcome = "ValidationError"
    except Exception as exc:  # every other exception is a finding
        outcome = f"{type(exc).__name__}: {exc}"
    return outcome, time.perf_counter() - start


def failures(cc, texts: dict[str, str], mutants) -> list[str]:
    """One line per mutant that raised another exception, ran past ``LIMIT_S``, or is a type mutant whose
    items all pass."""
    out = []
    for name, path, value in mutants:
        outcome, seconds = run(cc, mutate(texts[name], path, value))
        passed = outcome in ("failed items", "ValidationError") or (outcome == "items" and value != RETYPE)
        if not passed or seconds > LIMIT_S:
            shown = {DELETE: "deleted", RETYPE: "retyped"}.get(value) or repr(ODD_VALUES[value])
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
    retypes = sum(value == RETYPE for _, _, value in mutants)
    print(
        f"{len(mutants)} mutants ({retypes} type mutants) of {len(texts)} reports, {len(failed)} failed, "
        f"in {time.perf_counter() - start:.1f} s"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())
